// Package segment implements live ingestion for a served cluster: a
// small WAL-durable mutable segment that absorbs Add(doc) writes and is
// searched alongside the immutable shard indexes, plus the compactor
// that drains it into the next index generation and swaps the grown
// shards in without downtime.
package segment

import (
	"encoding/binary"
	"fmt"
	"sort"

	"csrank/internal/index"
)

// Document records are raw field text (the exact Add input), encoded
// deterministically — fields sorted by name — so re-encoding a replayed
// log is byte-identical.
//
// Payload layout (varint = unsigned LEB128):
//
//	nfields uvarint
//	per field (sorted by name): uvarint len + name, uvarint len + value

func encodeDoc(d index.Document) []byte {
	names := make([]string, 0, len(d.Fields))
	for n := range d.Fields {
		names = append(names, n)
	}
	sort.Strings(names)
	out := appendUvarint(nil, uint64(len(names)))
	for _, n := range names {
		out = appendString(out, n)
		out = appendString(out, d.Fields[n])
	}
	return out
}

func decodeDoc(payload []byte) (index.Document, error) {
	d := index.Document{}
	pos := 0
	n, err := readUvarint(payload, &pos)
	if err != nil {
		return d, err
	}
	if n > uint64(len(payload)) {
		return d, fmt.Errorf("segment: document claims %d fields in %d bytes", n, len(payload))
	}
	d.Fields = make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		name, err := readString(payload, &pos)
		if err != nil {
			return d, err
		}
		value, err := readString(payload, &pos)
		if err != nil {
			return d, err
		}
		if _, dup := d.Fields[name]; dup {
			return d, fmt.Errorf("segment: duplicate field %q", name)
		}
		d.Fields[name] = value
	}
	if pos != len(payload) {
		return d, fmt.Errorf("segment: %d trailing payload bytes", len(payload)-pos)
	}
	return d, nil
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readUvarint(b []byte, pos *int) (uint64, error) {
	v, n := binary.Uvarint(b[*pos:])
	if n <= 0 {
		return 0, fmt.Errorf("segment: truncated varint at offset %d", *pos)
	}
	*pos += n
	return v, nil
}

func readString(b []byte, pos *int) (string, error) {
	n, err := readUvarint(b, pos)
	if err != nil {
		return "", err
	}
	if n > uint64(len(b)-*pos) {
		return "", fmt.Errorf("segment: string length %d exceeds payload at offset %d", n, *pos)
	}
	s := string(b[*pos : *pos+int(n)])
	*pos += int(n)
	return s, nil
}

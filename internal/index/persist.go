package index

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"csrank/internal/fsx"
	"csrank/internal/postings"
	"csrank/internal/snapshot"
)

// FormatVersion is the newest gob-stream index format this build reads;
// nothing writes it any more (SaveMapped writes the paged format v5,
// MappedFormatVersion). Version 3 extends the container-aware version 2
// layout with per-container score-bound metadata (postings.ChunkBound)
// on the lists that carry it — the block-max data dynamic pruning needs,
// persisted so a loaded index can prune without a rebuild pass. Version
// 2 streams (same layout, no bound bytes) and untagged legacy streams
// (Version 0, postings.DecodePostings) keep loading; their bound
// metadata is rebuilt from the persisted document lengths at load time.
const FormatVersion = 3

// gobFormatVersions is the single source of truth for every gob-stream
// format version this build reads (the paged formats negotiate by
// magic, not by this list). Error messages derive from it so they can
// never drift from the switch in decodeTermList.
var gobFormatVersions = []int{0, 2, FormatVersion}

// supportedGobVersions renders gobFormatVersions for error messages
// ("0, 2 and 3").
func supportedGobVersions() string {
	var b []byte
	for i, v := range gobFormatVersions {
		switch {
		case i == 0:
		case i == len(gobFormatVersions)-1:
			b = append(b, " and "...)
		default:
			b = append(b, ", "...)
		}
		b = fmt.Appendf(b, "%d", v)
	}
	return string(b)
}

func isGobFormatVersion(v int) bool {
	for _, g := range gobFormatVersions {
		if v == g {
			return true
		}
	}
	return false
}

// maxDocs bounds the collection cardinality a decoder accepts: DocIDs
// are uint32, so anything above 2^31 documents is either corruption or a
// hostile stream trying to force a giant allocation.
const maxDocs = 1 << 31

// maxSegSize bounds the persisted skip-segment size; real values are a
// few hundred.
const maxSegSize = 1 << 24

// maxDecodeBytes caps how much of an untrusted stream Decode consumes
// before giving up, so a stream that lies about its lengths errors out
// instead of allocating without bound.
const maxDecodeBytes = int64(1) << 31

// persistent is the flat gob representation of an Index. Posting lists are
// stored as compressed byte slices; container and skip structure are
// derived data and rebuild in a single pass on load.
type persistent struct {
	Version int
	Schema  Schema
	SegSize int
	NumDocs int
	Lengths map[string][]int32
	Stored  map[string][]string
	Fields  map[string]persistentField
}

type persistentField struct {
	TotalLen int64
	// Terms maps each term to its varint-delta-compressed posting list:
	// postings.EncodeList for Version 2, postings.EncodePostings for the
	// untagged legacy layout.
	Terms map[string][]byte
}

// decodeTermList rebuilds one term's list according to the stream version.
func decodeTermList(version int, data []byte, segSize int) (*postings.List, error) {
	switch version {
	case FormatVersion, 2:
		// Version 2 is the same container-aware layout minus the bound
		// metadata flag, which the list codec gates per list anyway.
		return postings.DecodeList(data, segSize)
	case 0:
		ps, err := postings.DecodePostings(data)
		if err != nil {
			return nil, err
		}
		return postings.NewList(ps, segSize), nil
	default:
		return nil, fmt.Errorf("unsupported index format version %d (this build reads %s)", version, supportedGobVersions())
	}
}

// validate rejects persisted values no real index can contain before any
// of them size an allocation or feed ranking. Corrupt and hostile
// streams must fail here with a descriptive error, never reach the
// engine as a garbage index.
func (p *persistent) validate() error {
	if !isGobFormatVersion(p.Version) {
		return fmt.Errorf("index: unsupported format version %d (this build reads %s)", p.Version, supportedGobVersions())
	}
	if p.NumDocs < 0 || p.NumDocs > maxDocs {
		return fmt.Errorf("index: persisted NumDocs %d out of range [0, %d]", p.NumDocs, maxDocs)
	}
	if p.SegSize < 0 || p.SegSize > maxSegSize {
		return fmt.Errorf("index: persisted SegSize %d out of range [0, %d]", p.SegSize, maxSegSize)
	}
	if err := p.Schema.Validate(); err != nil {
		return fmt.Errorf("index: persisted schema invalid: %w", err)
	}
	// Every schema field has a length per document (a stream that lacks
	// a field's lengths is as malformed as one with too few), so no
	// per-document allocation the writer makes exceeds what the stream
	// itself holds.
	for _, f := range p.Schema.Fields {
		if n := len(p.Lengths[f.Name]); n != p.NumDocs {
			return fmt.Errorf("index: field %q has %d persisted lengths for %d documents", f.Name, n, p.NumDocs)
		}
	}
	for field, ls := range p.Lengths {
		if len(ls) != p.NumDocs {
			return fmt.Errorf("index: field %q has %d persisted lengths for %d documents", field, len(ls), p.NumDocs)
		}
		for d, l := range ls {
			if l < 0 {
				return fmt.Errorf("index: field %q doc %d has negative length %d", field, d, l)
			}
		}
	}
	for field, vs := range p.Stored {
		if len(vs) != p.NumDocs {
			return fmt.Errorf("index: field %q has %d stored values for %d documents", field, len(vs), p.NumDocs)
		}
	}
	for field, pf := range p.Fields {
		if pf.TotalLen < 0 {
			return fmt.Errorf("index: field %q has negative TotalLen %d", field, pf.TotalLen)
		}
	}
	return nil
}

// Decode deserializes a gob-stream index as older builds wrote it,
// accepting FormatVersion, version 2 and untagged legacy streams. Input
// is treated as untrusted: sizes are capped, counters are range-checked,
// and malformed posting lists error instead of panicking.
//
// The stream's postings, lengths and stored text feed a Builder, one
// term at a time, and end in the v5 writer, as a fresh build does: the
// index is an in-memory v5 image, its score bounds computed over the
// persisted document lengths (a v3 stream's own bounds are the same
// function of the same data). FormatVersion still reports 0.
func Decode(r io.Reader) (*Index, error) {
	var p persistent
	if err := gob.NewDecoder(io.LimitReader(r, maxDecodeBytes)).Decode(&p); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	b := newBuilder(p.Schema, p.SegSize, 0)
	b.numDocs = p.NumDocs
	for i, f := range p.Schema.Fields {
		fb, pf := &b.fields[i], p.Fields[f.Name]
		fb.lengths = p.Lengths[f.Name]
		fb.stored = p.Stored[f.Name]
		fb.total = pf.TotalLen
		for term, data := range pf.Terms {
			l, err := decodeTermList(p.Version, data, b.segSize)
			if err != nil {
				return nil, fmt.Errorf("index: term %q: %w", term, err)
			}
			if l.Len() > p.NumDocs {
				return nil, fmt.Errorf("index: term %q has %d postings for %d documents", term, l.Len(), p.NumDocs)
			}
			pb := postings.NewBuilder(b.segSize)
			l.ForEach(pb.Add)
			fb.terms[term] = pb
		}
	}
	ix, err := b.build()
	if err != nil {
		return nil, err
	}
	ix.version = 0
	return ix, nil
}

// ReadSnapshot reads an index from a paged (v5 or v4) image, a framed
// snapshot, or a legacy raw-gob stream (sniffed by magic), verifying
// checksums per the format's contract. A paged stream is read fully
// into memory — callers that want the mapping should use OpenMapped
// (LoadFileFS routes there automatically).
func ReadSnapshot(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	prefix, err := br.Peek(len(snapshot.Magic))
	if err == nil && snapshot.IsPaged(prefix) {
		data, err := io.ReadAll(io.LimitReader(br, maxDecodeBytes))
		if err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
		return OpenMappedBytes(data, 0)
	}
	if err != nil || !snapshot.IsFramed(prefix) {
		// Legacy raw gob (or too short to be framed — let gob report it).
		return Decode(br)
	}
	sr, err := snapshot.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if kind := sr.Header().Kind; kind != snapshot.KindIndex {
		return nil, fmt.Errorf("index: snapshot holds payload kind %d, want %d (index)", kind, snapshot.KindIndex)
	}
	ix, err := Decode(sr)
	if err != nil {
		return nil, err
	}
	// Drain to the trailer so truncation after the gob payload and
	// whole-file corruption are still detected.
	if err := sr.Verify(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return ix, nil
}

// LoadFileFS reads an index written by SaveMapped, or a framed or raw
// gob stream written by an older build. Format negotiation is by magic:
// a v4 paged file is memory-mapped through OpenMappedFS (zero-decode
// open); framed-v2/v3 and legacy raw-gob files decode through
// ReadSnapshot as before.
func LoadFileFS(fs fsx.FS, path string) (*Index, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	var prefix [8]byte
	n, _ := io.ReadFull(f, prefix[:])
	if snapshot.IsPaged(prefix[:n]) {
		f.Close()
		return OpenMappedFS(fs, path, DefaultBlockCacheBudget)
	}
	defer f.Close()
	return ReadSnapshot(io.MultiReader(bytes.NewReader(prefix[:n]), f))
}

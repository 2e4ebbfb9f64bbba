package index

import "csrank/internal/postings"

// termDict is one field's dictionary of an index in column form,
// as format v5 stores it: the sorted terms as offsets into one blob,
// and each term's list record. Term i is blob[offs[i]:offs[i+1]], its
// record recs[i*postings.MappedListMetaSize:], and its ordinal i also
// numbers its list slot. A v5 file's columns alias the mapping; a v4
// file's are built once at open. No string a caller gets aliases them:
// the mapping goes away on Close.
type termDict struct {
	offs []uint32 // len()+1 entries
	blob []byte
	recs []byte
}

// newDict returns an empty dictionary with room for n terms whose
// bytes total size.
func newDict(n, size int) termDict {
	return termDict{
		offs: append(make([]uint32, 0, n+1), 0),
		blob: make([]byte, 0, size),
		recs: make([]byte, 0, n*postings.MappedListMetaSize),
	}
}

// dictOf returns the dictionary of terms, which must be sorted, each
// term's record read from meta.
func dictOf(terms []string, meta func(string) postings.MappedListMeta) termDict {
	size := 0
	for _, t := range terms {
		size += len(t)
	}
	d := newDict(len(terms), size)
	for _, t := range terms {
		d.blob = append(d.blob, t...)
		d.add(meta(t))
	}
	return d
}

// add ends the term whose bytes the caller appended to blob, with its
// record.
func (d *termDict) add(meta postings.MappedListMeta) {
	d.offs = append(d.offs, uint32(len(d.blob)))
	d.recs = meta.AppendRecord(d.recs)
}

// len returns the number of terms.
func (d *termDict) len() int { return max(len(d.offs)-1, 0) }

// key returns term i's bytes, aliasing the column.
func (d *termDict) key(i int) []byte { return d.blob[d.offs[i]:d.offs[i+1]] }

// meta returns term i's record.
func (d *termDict) meta(i int) postings.MappedListMeta {
	m, _ := postings.MappedListMetaAt(d.recs[i*postings.MappedListMetaSize:])
	return m
}

// find returns term's ordinal by binary search, allocating nothing;
// ok is false when the dictionary lacks it.
func (d *termDict) find(term string) (i int, ok bool) {
	lo, hi := 0, d.len()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if string(d.key(m)) < term {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < d.len() && string(d.key(lo)) == term
}

// strings returns every term in order, as heap strings sharing one copy
// of the blob (nil for an empty dictionary).
func (d *termDict) strings() []string {
	if d.len() == 0 {
		return nil
	}
	all := string(d.blob)
	out := make([]string, d.len())
	for i := range out {
		out[i] = all[d.offs[i]:d.offs[i+1]]
	}
	return out
}

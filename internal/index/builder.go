package index

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"csrank/internal/postings"
)

// minDocsPerWorker is the smallest document range one analysis goroutine
// takes on: a batch is split into min(GOMAXPROCS, len/minDocsPerWorker)
// contiguous ranges, so batches under twice this size — live-ingest
// refreshes and per-shard compaction batches of a few hundred documents —
// are analyzed on the calling goroutine and start none.
const minDocsPerWorker = 1000

// Builder accumulates analyzed documents for the v5 writer, which turns
// them into an Index (build) or appends them to one (Extend). Documents
// receive dense ascending DocIDs in insertion order, so posting lists are
// sorted by construction and never need a global sort.
type Builder struct {
	schema  Schema
	segSize int
	first   DocID        // DocID of the first document added
	numDocs int          // documents added so far
	fields  []fieldBuild // aligned with schema.Fields
	scratch []string     // AppendTerms buffer, reused across documents
}

// fieldBuild is one field's part of a Builder: each term's postings over
// the documents added, their lengths and (Stored fields only) raw text,
// and the lengths' sum.
type fieldBuild struct {
	terms   map[string]*postings.Builder
	lengths []int32
	stored  []string
	total   int64
}

// newBuilder returns a Builder whose first document gets DocID first.
// The schema must already be validated.
func newBuilder(schema Schema, segSize int, first DocID) *Builder {
	if segSize <= 0 {
		segSize = postings.DefaultSegmentSize
	}
	b := &Builder{schema: schema, segSize: segSize, first: first, fields: make([]fieldBuild, len(schema.Fields))}
	for i := range b.fields {
		b.fields[i].terms = make(map[string]*postings.Builder)
	}
	return b
}

// Add indexes one document and returns its assigned DocID.
func (b *Builder) Add(doc Document) DocID {
	id := b.first + DocID(b.numDocs)
	b.numDocs++
	for i, f := range b.schema.Fields {
		fb := &b.fields[i]
		text := doc.Fields[f.Name]
		b.scratch = f.Analyzer.AppendTerms(b.scratch[:0], text)
		fb.lengths = append(fb.lengths, int32(len(b.scratch)))
		fb.total += int64(len(b.scratch))
		for _, term := range b.scratch {
			pb := fb.terms[term]
			if pb == nil {
				// A key may be a substring of the document's text, as
				// the stored text is: the Builder lives only until the
				// writer has copied both into the image.
				pb = postings.NewBuilder(b.segSize)
				fb.terms[term] = pb
			}
			pb.Add(id, 1) // repeated adds for one DocID accumulate its TF
		}
		if f.Stored {
			fb.stored = append(fb.stored, text)
		}
	}
	return id
}

// build writes the v5 image of b's documents, whose DocIDs must start
// at 0, into memory and opens it: the one way an in-process build
// becomes an Index. The Builder must not be used afterwards.
func (b *Builder) build() (*Index, error) {
	return openImage(&Index{schema: b.schema, segSize: b.segSize}, b)
}

// field returns the build of the schema field called name: nil for a
// nil Builder or a name the schema does not declare.
func (b *Builder) field(name string) *fieldBuild {
	if b == nil {
		return nil
	}
	for i, f := range b.schema.Fields {
		if f.Name == name {
			return &b.fields[i]
		}
	}
	return nil
}

// appendBuilder moves o's documents, whose DocIDs must directly follow
// b's, into b: lengths and stored fields concatenate, totals add, and
// each term's postings append in DocID order — the state a single
// Builder would hold after adding both ranges in turn.
func (b *Builder) appendBuilder(o *Builder) {
	for i := range b.fields {
		fb, ob := &b.fields[i], &o.fields[i]
		fb.lengths = append(fb.lengths, ob.lengths...)
		fb.stored = append(fb.stored, ob.stored...)
		fb.total += ob.total
		for term, opb := range ob.terms {
			if pb := fb.terms[term]; pb != nil {
				pb.Append(opb)
			} else {
				fb.terms[term] = opb
			}
		}
	}
	b.numDocs += o.numDocs
}

// testHookAddRange, when non-nil, runs at the start of each analysis
// range with the range's first DocID; tests use it to inject worker
// panics. Set it only while no build is running.
var testHookAddRange func(first DocID)

// addRange adds docs in order. A panic is returned as an error so that
// it surfaces on the goroutine that asked for the build.
func (b *Builder) addRange(docs []Document) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("index: analyzing documents [%d, %d) panicked: %v\n%s",
				b.first, b.first+DocID(len(docs)), r, debug.Stack())
		}
	}()
	if testHookAddRange != nil {
		testHookAddRange(b.first)
	}
	for _, d := range docs {
		b.Add(d)
	}
	return nil
}

// analyze adds docs at DocIDs first, first+1, … to one Builder. The
// documents are split into min(GOMAXPROCS, len/minDocsPerWorker)
// contiguous ranges (at least one) analyzed concurrently, one Builder
// per range, then concatenated in range order; DocIDs ascend across
// ranges, so every posting list, length and stored field is the one a
// single Builder adding docs in order produces. The schema must already
// be validated.
func analyze(schema Schema, segSize int, first DocID, docs []Document) (*Builder, error) {
	workers := max(1, min(runtime.GOMAXPROCS(0), len(docs)/minDocsPerWorker))
	parts := make([]*Builder, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range parts {
		lo, hi := w*len(docs)/workers, (w+1)*len(docs)/workers
		parts[w] = newBuilder(schema, segSize, first+DocID(lo))
		if w == workers-1 {
			// The calling goroutine analyzes the last range itself.
			errs[w] = parts[w].addRange(docs[lo:hi])
			continue
		}
		wg.Add(1)
		go func(w int, rng []Document) {
			defer wg.Done()
			errs[w] = parts[w].addRange(rng)
		}(w, docs[lo:hi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, p := range parts[1:] {
		parts[0].appendBuilder(p)
	}
	return parts[0], nil
}

// BuildFrom indexes all docs under schema in one call. Large batches are
// analyzed on several goroutines (see analyze); the index is the one
// adding docs to a Builder in order produces. It is Extend over an empty
// index: the v5 image the one writer produces, held in memory.
func BuildFrom(schema Schema, segSize int, docs []Document) (*Index, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	b, err := analyze(schema, segSize, 0, docs)
	if err != nil {
		return nil, err
	}
	return b.build()
}

// String implements fmt.Stringer with a short diagnostic summary.
func (ix *Index) String() string {
	return fmt.Sprintf("Index{docs=%d, fields=%d, content_terms=%d, predicate_terms=%d}",
		ix.numDocs, len(ix.fields),
		ix.UniqueTerms(ix.schema.ContentField), ix.UniqueTerms(ix.schema.PredicateField))
}

package wal

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"csrank/internal/core"
	"csrank/internal/fsx"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// ingestOutcome reports how far a faulted ingest run got.
type ingestOutcome struct {
	created bool // Create returned nil
	acked   int  // batches whose Apply returned nil
	err     error
}

// runIngest executes the full ingest protocol — Create, Apply every
// batch (with automatic snapshot rollover every second batch), then an
// explicit Snapshot — against the given filesystem, stopping at the
// first error the way a crashing process would.
func runIngest(t *testing.T, fs fsx.FS, dir string, ix *index.Index, batches []Batch) ingestOutcome {
	t.Helper()
	var out ingestOutcome
	m, err := Create(dir, buildTestCatalog(t, ix), Options{FS: fs, SnapshotEvery: 2})
	if err != nil {
		out.err = err
		return out
	}
	defer m.Close()
	out.created = true
	for _, b := range batches {
		if err := m.Apply(b); err != nil {
			out.err = err
			return out
		}
		out.acked++
	}
	if err := m.Snapshot(); err != nil {
		out.err = err
		return out
	}
	return out
}

// stateFingerprints returns the fingerprint of every intermediate state
// S_0 (initial) .. S_n (all batches applied).
func stateFingerprints(t *testing.T, ix *index.Index, batches []Batch) []string {
	t.Helper()
	mirror := buildTestCatalog(t, ix)
	fps := []string{mirror.Fingerprint()}
	for _, b := range batches {
		if err := applyBatch(mirror, b); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, mirror.Fingerprint())
	}
	return fps
}

func stateIndex(fps []string, fp string) int {
	for i, s := range fps {
		if s == fp {
			return i
		}
	}
	return -1
}

// TestKillPointSweep is the tentpole recovery guarantee: the ingest
// protocol is run against a fault injector armed at every mutating
// filesystem operation it performs (twice — clean failure and torn
// write), and after each simulated crash, recovery must land on exactly
// the pre-batch or post-batch state of the batch that was in flight.
// Acknowledged batches are never lost, unacknowledged batches never
// surface partially, and no crash point panics or corrupts.
func TestKillPointSweep(t *testing.T) {
	ix := buildTestIndex(t, 83, 200)
	rng := rand.New(rand.NewSource(89))
	batches := randomBatches(rng, 6)
	fps := stateFingerprints(t, ix, batches)
	n := len(batches)

	// Clean run: count the protocol's mutating operations and confirm
	// the final state recovers exactly.
	ffs := fsx.NewFaultFS(fsx.OS)
	cleanDir := t.TempDir()
	clean := runIngest(t, ffs, cleanDir, ix, batches)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	ops := ffs.Ops()
	if ops < 10 {
		t.Fatalf("implausible op count %d for the full protocol", ops)
	}
	m, _, err := Open(cleanDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Catalog().Fingerprint(); got != fps[n] {
		t.Fatalf("clean run recovered to state %d, want %d", stateIndex(fps, got), n)
	}
	m.Close()

	for point := 1; point <= ops; point++ {
		for _, short := range []bool{false, true} {
			dir := t.TempDir()
			ffs := fsx.NewFaultFS(fsx.OS)
			ffs.Arm(point, short)
			out := runIngest(t, ffs, dir, ix, batches)
			ffs.Reset()

			m, rec, err := Open(dir, Options{})
			if err != nil {
				// Only a crash before Create completed may leave nothing
				// recoverable — afterwards a valid snapshot exists on disk.
				if out.created {
					t.Fatalf("point %d short=%v: created but recovery failed: %v", point, short, err)
				}
				continue
			}
			// The crash hit batch out.acked (or the final snapshot): the
			// only legal recovered states are its pre-batch and post-batch
			// boundaries. Random batches can legitimately revisit an
			// earlier state (removes cancelling applies), so membership in
			// the allowed set is checked by fingerprint, not by first
			// match.
			fp := m.Catalog().Fingerprint()
			lo, hi := out.acked, out.acked+1
			if out.err == nil {
				lo, hi = n, n
			}
			if hi > n {
				hi = n
			}
			allowed := false
			for i := lo; i <= hi; i++ {
				if fps[i] == fp {
					allowed = true
					break
				}
			}
			if !allowed {
				t.Fatalf("point %d short=%v: recovered to state S_%d, acked %d, allowed S_%d..S_%d",
					point, short, stateIndex(fps, fp), out.acked, lo, hi)
			}
			if rec.TornTail && rec.TruncatedBytes == 0 {
				t.Fatalf("point %d short=%v: torn tail with zero truncated bytes", point, short)
			}
			// The recovered manager must be fully usable: an apply-only
			// batch always validates, and it must ack durably.
			extra := Batch{{Op: OpApply, Doc: randomUpdate(rng)}}
			if err := m.Apply(extra); err != nil {
				t.Fatalf("point %d short=%v: recovered manager rejected a valid batch: %v", point, short, err)
			}
			m.Close()
		}
	}
}

// --- integrity: ingest real documents, crash, recover, audit ---------

// docUpdates extracts the per-document DocUpdate stream from an index —
// the shape the ingestion pipeline produces.
func docUpdates(ix *index.Index, wordList []string) []views.DocUpdate {
	schema := ix.Schema()
	out := make([]views.DocUpdate, ix.NumDocs())
	for d := 0; d < ix.NumDocs(); d++ {
		out[d] = views.DocUpdate{
			Len: ix.FieldLen(uint32(d), schema.ContentField),
			TF:  map[string]int64{},
		}
	}
	for _, m := range ix.Terms(schema.PredicateField) {
		for _, p := range ix.Postings(schema.PredicateField, m).Postings() {
			out[p.DocID].Predicates = append(out[p.DocID].Predicates, m)
		}
	}
	for _, w := range wordList {
		l := ix.Postings(schema.ContentField, w)
		if l == nil {
			continue
		}
		for _, p := range l.Postings() {
			out[p.DocID].TF[w] = int64(p.TF)
		}
	}
	return out
}

// TestCrashRecoverVerifyZeroDrift closes the loop from the durability
// layer to the query engine. Documents are ingested one per batch with
// a crash injected at every kill point; after each recovery the
// recovered catalog is audited against an index rebuilt over exactly
// the documents of the recovered state (views.Verify must report zero
// drift), and a contextual query against the recovered catalog must
// return results bit-identical to the same engine running on a
// directly-maintained catalog of that state.
func TestCrashRecoverVerifyZeroDrift(t *testing.T) {
	const base, extra = 120, 5
	fullIx := buildTestIndex(t, 101, base+extra)
	updates := docUpdates(fullIx, words)
	schema := fullIx.Schema()

	// Rebuild the document set so prefixes can be indexed independently.
	docs := rebuildDocs(t, fullIx)

	// Index and mirror catalog for every reachable state S_0..S_extra.
	states := make([]*index.Index, extra+1)
	mirrors := make([]*views.Catalog, extra+1)
	fps := make([]string, extra+1)
	for i := 0; i <= extra; i++ {
		ix, err := index.BuildFrom(schema, 0, docs[:base+i])
		if err != nil {
			t.Fatal(err)
		}
		states[i] = ix
		mirrors[i] = catalogOver(t, states[0])
		for _, u := range updates[base : base+i] {
			mirrors[i].Apply(u)
		}
		fps[i] = mirrors[i].Fingerprint()
	}

	batches := make([]Batch, extra)
	for i := 0; i < extra; i++ {
		batches[i] = Batch{{Op: OpApply, Doc: updates[base+i]}}
	}

	ingest := func(fs fsx.FS, dir string) ingestOutcome {
		var out ingestOutcome
		m, err := Create(dir, catalogOver(t, states[0]), Options{FS: fs, SnapshotEvery: 3})
		if err != nil {
			out.err = err
			return out
		}
		defer m.Close()
		out.created = true
		for _, b := range batches {
			if err := m.Apply(b); err != nil {
				out.err = err
				return out
			}
			out.acked++
		}
		return out
	}

	ffs := fsx.NewFaultFS(fsx.OS)
	if out := ingest(ffs, t.TempDir()); out.err != nil {
		t.Fatal(out.err)
	}
	ops := ffs.Ops()

	probe := query.Query{Keywords: []string{"w0", "w1"}, Context: []string{"m0", "m2"}}
	for point := 1; point <= ops; point++ {
		dir := t.TempDir()
		ffs := fsx.NewFaultFS(fsx.OS)
		ffs.Arm(point, true)
		out := ingest(ffs, dir)
		ffs.Reset()

		m, _, err := Open(dir, Options{})
		if err != nil {
			if out.created {
				t.Fatalf("point %d: created but recovery failed: %v", point, err)
			}
			continue
		}
		recovered := m.Catalog()
		idx := stateIndex(fps, recovered.Fingerprint())
		if idx < 0 || idx < out.acked || idx > out.acked+1 {
			t.Fatalf("point %d: recovered state %d, acked %d", point, idx, out.acked)
		}

		// Integrity audit: the recovered catalog agrees with an index
		// over exactly the recovered document set — zero drift.
		drift, err := recovered.Verify(states[idx], views.VerifyOptions{})
		if err != nil {
			t.Fatalf("point %d: verify: %v", point, err)
		}
		if len(drift) != 0 {
			t.Fatalf("point %d: drift after recovery to S_%d: %v", point, idx, drift)
		}

		// Query-level equivalence: the recovered catalog ranks
		// bit-identically to a directly maintained one.
		got := searchResults(t, states[idx], recovered, probe)
		want := searchResults(t, states[idx], mirrors[idx], probe)
		if len(got) != len(want) {
			t.Fatalf("point %d: result counts differ: %d vs %d", point, len(got), len(want))
		}
		for i := range want {
			if got[i].DocID != want[i].DocID ||
				math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("point %d: rank %d differs: %+v vs %+v", point, i, got[i], want[i])
			}
		}
		m.Close()
	}
}

// rebuildDocs reconstructs the raw document set that buildTestIndex
// indexed, so arbitrary prefixes can be re-indexed. It must mirror
// buildTestIndex's generation exactly (same seed, same corpus shape).
func rebuildDocs(t *testing.T, ix *index.Index) []index.Document {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	n := ix.NumDocs()
	docs := make([]index.Document, n)
	for i := range docs {
		var mesh, content string
		for _, m := range meshTerms {
			if rng.Float64() < 0.35 {
				mesh += m + " "
			}
		}
		for _, w := range words {
			for k := rng.Intn(3); k > 0; k-- {
				content += w + " "
			}
		}
		if content == "" {
			content = "pad"
		}
		docs[i] = index.Document{Fields: map[string]string{"content": content, "mesh": mesh}}
	}
	return docs
}

// catalogOver materializes the test catalog shape over the given index.
func catalogOver(t *testing.T, ix *index.Index) *views.Catalog {
	t.Helper()
	tbl := widetable.FromIndex(ix, words)
	v1, err := views.Materialize(tbl, []string{"m0", "m1", "m2"}, words)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := views.Materialize(tbl, []string{"m2", "m3", "m4", "m5"}, words)
	if err != nil {
		t.Fatal(err)
	}
	return views.NewCatalog([]*views.View{v1, v2}, 1, 1<<20)
}

func searchResults(t *testing.T, ix *index.Index, cat *views.Catalog, q query.Query) []core.Result {
	t.Helper()
	eng := core.New(ix, cat, core.Options{})
	res, _, err := eng.SearchCtx(context.Background(), q, 20)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

package segment

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"csrank/internal/analysis"
	"csrank/internal/core"
	"csrank/internal/fsx"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/shard"
	"csrank/internal/snapshot"
	"csrank/internal/views"
)

func testSchema() index.Schema {
	return index.Schema{
		Fields: []index.FieldSpec{
			{Name: "title", Analyzer: analysis.Keyword(), Stored: true},
			{Name: "content", Analyzer: analysis.Keyword()},
			{Name: "mesh", Analyzer: analysis.Keyword()},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
}

// testDoc builds document number id: a unique content term (so presence
// and multiplicity are checkable by search), shared words, and mesh
// predicates for contextual queries.
func testDoc(rng *rand.Rand, id int, meshTerms, words []string) index.Document {
	content := []string{fmt.Sprintf("uniq%04d", id), "common"}
	for _, w := range words {
		for k := rng.Intn(3); k > 0; k-- {
			content = append(content, w)
		}
	}
	var mesh []string
	for _, m := range meshTerms {
		if rng.Float64() < 0.4 {
			mesh = append(mesh, m)
		}
	}
	return index.Document{Fields: map[string]string{
		"title":   fmt.Sprintf("doc-%d", id),
		"content": strings.Join(content, " "),
		"mesh":    strings.Join(mesh, " "),
	}}
}

func vocab() (meshTerms, words []string) {
	for i := 0; i < 6; i++ {
		meshTerms = append(meshTerms, fmt.Sprintf("m%02d", i))
	}
	for i := 0; i < 6; i++ {
		words = append(words, fmt.Sprintf("w%02d", i))
	}
	return
}

// buildLiveDir persists a fresh nShards cluster over docs into dir,
// exactly as csbuild -shards would, without view catalogs.
func buildLiveDir(t *testing.T, dir string, docs []index.Document, nShards, segSize int) {
	t.Helper()
	saveLiveDir(t, dir, docs, nShards, segSize, nil)
}

// saveLiveDir is buildLiveDir with each shard's catalog, when catalog
// is not nil, built from its index and saved beside it as views.gob.
func saveLiveDir(t *testing.T, dir string, docs []index.Document, nShards, segSize int, catalog func(*index.Index) *views.Catalog) {
	t.Helper()
	parts, globals, err := shard.Split(docs, nShards)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine, nShards)
	for i := range engines {
		ix, err := index.BuildFrom(testSchema(), segSize, parts[i])
		if err != nil {
			t.Fatal(err)
		}
		var cat *views.Catalog
		if catalog != nil {
			cat = catalog(ix)
		}
		engines[i] = core.New(ix, cat, core.Options{})
	}
	cluster, err := shard.NewCluster(engines, globals)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Save(dir); err != nil {
		t.Fatal(err)
	}
}

func searchTerm(t *testing.T, ing *Ingester, term string, k int) []core.SliceHit {
	t.Helper()
	hits, _, _, err := ing.Search(context.Background(), query.Query{Keywords: []string{term}}, k)
	if err != nil {
		t.Fatalf("search %q: %v", term, err)
	}
	return hits
}

// TestSearchableAfterAdd: with synchronous refresh, a document is
// searchable the moment Add returns, under its assigned global docID.
func TestSearchableAfterAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mesh, words := vocab()
	var docs []index.Document
	for i := 0; i < 30; i++ {
		docs = append(docs, testDoc(rng, i, mesh, words))
	}
	dir := t.TempDir()
	buildLiveDir(t, dir, docs, 2, 8)

	ing, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	if got := len(searchTerm(t, ing, "uniq9999", 5)); got != 0 {
		t.Fatalf("unknown term matched %d documents", got)
	}
	for i := 30; i < 45; i++ {
		id, err := ing.Add(testDoc(rng, i, mesh, words))
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if id != i {
			t.Fatalf("document %d assigned docID %d", i, id)
		}
		hits := searchTerm(t, ing, fmt.Sprintf("uniq%04d", i), 5)
		if len(hits) != 1 || hits[0].Global != uint32(i) {
			t.Fatalf("doc %d not searchable after Add: hits=%v", i, hits)
		}
	}
	if n := ing.Cluster().NumDocs() + ing.Pending(); n != 45 {
		t.Fatalf("NumDocs=%d, want 45", n)
	}
	if p := ing.Pending(); p != 15 {
		t.Fatalf("Pending=%d, want 15", p)
	}
	// Old documents are still there, exactly once.
	hits := searchTerm(t, ing, "uniq0003", 5)
	if len(hits) != 1 || hits[0].Global != 3 {
		t.Fatalf("base doc 3: hits=%v", hits)
	}
}

// TestCompactionEquivalence is the acceptance property: across shard
// counts 1/2/4 and pruning on/off, searching the live collection —
// before compaction (shards + mutable segment), after compaction, and
// after a close/reopen — is bit-identical to a single engine freshly
// built over the full concatenated corpus: same docIDs, same score
// bits, same order.
func TestCompactionEquivalence(t *testing.T) {
	const nBase, nMid, nLate = 60, 25, 15
	for _, nShards := range []int{1, 2, 4} {
		for _, pruning := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(100 + nShards*10)))
			mesh, words := vocab()
			var docs []index.Document
			for i := 0; i < nBase+nMid+nLate; i++ {
				docs = append(docs, testDoc(rng, i, mesh, words))
			}
			opts := core.Options{Pruning: pruning}
			fullIx, err := index.BuildFrom(testSchema(), 16, docs)
			if err != nil {
				t.Fatal(err)
			}
			single := core.New(fullIx, nil, opts)

			dir := t.TempDir()
			buildLiveDir(t, dir, docs[:nBase], nShards, 16)
			ing, err := Open(dir, Options{Core: opts})
			if err != nil {
				t.Fatal(err)
			}

			addRange := func(lo, hi int) {
				t.Helper()
				for i := lo; i < hi; i++ {
					id, err := ing.Add(docs[i])
					if err != nil {
						t.Fatalf("add %d: %v", i, err)
					}
					if id != i {
						t.Fatalf("document %d assigned docID %d", i, id)
					}
				}
			}
			queries := make([]query.Query, 10)
			for i := range queries {
				q := query.Query{Keywords: []string{words[rng.Intn(len(words))]}}
				if i%3 != 0 {
					q.Context = []string{mesh[rng.Intn(len(mesh))]}
				}
				if i%4 == 0 {
					q.Keywords = append(q.Keywords, "common")
				}
				queries[i] = q
			}
			check := func(stage string, upto int) {
				t.Helper()
				sub, err := index.BuildFrom(testSchema(), 16, docs[:upto])
				if err != nil {
					t.Fatal(err)
				}
				want := single
				if upto != len(docs) {
					want = core.New(sub, nil, opts)
				}
				for _, q := range queries {
					for _, k := range []int{3, 25} {
						wantRes, wantSt, err := want.Search(context.Background(), q, k, "")
						if err != nil {
							t.Fatal(err)
						}
						got, sum, _, err := ing.Search(context.Background(), q, k)
						if err != nil {
							t.Fatal(err)
						}
						if sum.Agg.Plan != wantSt.Plan || sum.Agg.ContextSize != wantSt.ContextSize || sum.Agg.Degraded != wantSt.Degraded {
							t.Fatalf("%s shards=%d q=%v: plan %q |D_P|=%d degraded=%v, want %q/%d/%v", stage, nShards, q,
								sum.Agg.Plan, sum.Agg.ContextSize, sum.Agg.Degraded, wantSt.Plan, wantSt.ContextSize, wantSt.Degraded)
						}
						if len(got) != len(wantRes) {
							t.Fatalf("%s shards=%d pruning=%v q=%v k=%d: %d hits, want %d",
								stage, nShards, pruning, q, k, len(got), len(wantRes))
						}
						for i := range wantRes {
							if got[i].Global != wantRes[i].DocID || got[i].Score != wantRes[i].Score {
								t.Fatalf("%s shards=%d pruning=%v q=%v k=%d rank %d: (%d, %v), want (%d, %v)",
									stage, nShards, pruning, q, k, i,
									got[i].Global, got[i].Score, wantRes[i].DocID, wantRes[i].Score)
							}
						}
					}
				}
			}

			check("base", nBase)
			addRange(nBase, nBase+nMid)
			check("segment", nBase+nMid)
			if err := ing.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			ing.mu.Lock()
			g := ing.gen
			ing.mu.Unlock()
			if g != 1 {
				t.Fatalf("generation %d after compaction, want 1", g)
			}
			if p := ing.Pending(); p != 0 {
				t.Fatalf("%d pending after compaction", p)
			}
			assertPagedGeneration(t, dir, nShards, 1)
			check("compacted", nBase+nMid)
			addRange(nBase+nMid, nBase+nMid+nLate)
			check("compacted+segment", nBase+nMid+nLate)

			// Everything must survive a close and reopen: the segment from
			// its WAL, the shards from the committed generation.
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
			ing, err = Open(dir, Options{Core: opts})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			slices, _ := ing.Cluster().Slices()
			for i, sl := range slices {
				if v := sl.Eng.Index().FormatVersion(); v != index.MappedFormatVersion {
					t.Fatalf("shards=%d: reopened shard %d serves format %d", nShards, i, v)
				}
			}
			if n := ing.Cluster().NumDocs() + ing.Pending(); n != nBase+nMid+nLate {
				t.Fatalf("reopened NumDocs=%d, want %d", n, nBase+nMid+nLate)
			}
			check("reopened", nBase+nMid+nLate)
			if err := ing.Compact(); err != nil {
				t.Fatalf("second compact: %v", err)
			}
			assertPagedGeneration(t, dir, nShards, 2)
			check("recompacted", nBase+nMid+nLate)
			ing.Close()
		}
	}
}

// assertPagedGeneration checks that compaction wrote every shard's
// generation-gen index as paged format v4.
func assertPagedGeneration(t *testing.T, dir string, nShards int, gen uint64) {
	t.Helper()
	for i := 0; i < nShards; i++ {
		b, err := os.ReadFile(filepath.Join(shard.ShardDir(dir, i), shard.IndexName(gen)))
		if err != nil {
			t.Fatal(err)
		}
		if !snapshot.IsPaged(b) {
			t.Fatalf("shard %d generation %d: index not written as paged format v4", i, gen)
		}
	}
}

// copyTree clones the pristine directory so every kill point starts
// from identical on-disk state.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyTree(t, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillPointRecovery sweeps an injected crash across every mutating
// filesystem operation of an ingest + compact + ingest + compact
// schedule — clean failures and torn writes both — and after each crash
// recovers the directory and proves that every acknowledged document is
// searchable exactly once under its assigned docID. This is the WAL's
// fsync-before-ack contract, end to end.
func TestKillPointRecovery(t *testing.T) {
	const nBase = 20
	rng := rand.New(rand.NewSource(7))
	mesh, words := vocab()
	var baseDocs []index.Document
	for i := 0; i < nBase; i++ {
		baseDocs = append(baseDocs, testDoc(rng, i, mesh, words))
	}
	pristine := t.TempDir()
	buildLiveDir(t, pristine, baseDocs, 2, 8)
	// Documents the schedule will try to add, keyed by their docID.
	var addDocs []index.Document
	for i := nBase; i < nBase+12; i++ {
		addDocs = append(addDocs, testDoc(rng, i, mesh, words))
	}

	// schedule runs the ingest workload, tolerating failures (after the
	// fault fires everything errors), and returns which documents were
	// acknowledged.
	schedule := func(t *testing.T, fs fsx.FS, dir string) map[int]string {
		t.Helper()
		acked := make(map[int]string)
		ing, err := Open(dir, Options{FS: fs})
		if err != nil {
			return acked
		}
		defer ing.Close()
		next := 0
		addOne := func() {
			if next >= len(addDocs) {
				return
			}
			want := nBase + next
			id, err := ing.Add(addDocs[next])
			if err != nil {
				return
			}
			if id != want {
				t.Fatalf("document %d acknowledged under docID %d", want, id)
			}
			acked[id] = fmt.Sprintf("uniq%04d", id)
			next++
		}
		for i := 0; i < 5; i++ {
			addOne()
		}
		ing.Compact() // may fail under fault; never loses acked docs
		for i := 0; i < 4; i++ {
			addOne()
		}
		ing.Compact()
		for i := 0; i < 3; i++ {
			addOne()
		}
		return acked
	}

	verify := func(t *testing.T, point int, fault *fsx.FaultFS, dir string, acked map[int]string) {
		t.Helper()
		fault.Reset()
		ing, err := Open(dir, Options{FS: fault})
		if err != nil {
			t.Fatalf("point %d: recovery open: %v", point, err)
		}
		defer ing.Close()
		// Every base document and every acked document: present exactly
		// once, under its docID.
		expect := make(map[int]string, nBase+len(acked))
		for i := 0; i < nBase; i++ {
			expect[i] = fmt.Sprintf("uniq%04d", i)
		}
		for id, term := range acked {
			expect[id] = term
		}
		for id, term := range expect {
			hits := searchTerm(t, ing, term, 5)
			if len(hits) != 1 {
				t.Fatalf("point %d: doc %d present %d times after recovery", point, id, len(hits))
			}
			if hits[0].Global != uint32(id) {
				t.Fatalf("point %d: doc %d recovered under docID %d", point, id, hits[0].Global)
			}
		}
		// At most the single in-flight unacknowledged document may also
		// have survived.
		if n, lo := ing.Cluster().NumDocs()+ing.Pending(), nBase+len(acked); n < lo || n > lo+1 {
			t.Fatalf("point %d: recovered %d documents, acked %d", point, n, lo)
		}
	}

	// Clean run: count the schedule's mutating operations, and the
	// writes of each compaction's streamed index file — every one a kill
	// point of the sweep below.
	cleanDir := t.TempDir()
	copyTree(t, pristine, cleanDir)
	fault := fsx.NewFaultFS(fsx.OS)
	counted := &writeCountFS{FS: fault, writes: make(map[string]int)}
	acked := schedule(t, counted, cleanDir)
	if len(acked) != 12 {
		t.Fatalf("clean run acked %d documents, want 12", len(acked))
	}
	ops := fault.Ops() // before verify's Reset zeroes the counter
	verify(t, 0, fault, cleanDir, acked)
	if ops < 20 {
		t.Fatalf("suspiciously few mutating ops (%d); fault sweep would be vacuous", ops)
	}
	streamed := 0
	for name, n := range counted.writes {
		if strings.HasPrefix(filepath.Base(name), "index.") && strings.HasSuffix(name, ".gob.tmp") {
			streamed++
			if n < 2 {
				t.Fatalf("%s written in %d write; the sweep never interrupts it mid-stream", name, n)
			}
		}
	}
	if streamed != 4 { // two compactions of two shards
		t.Fatalf("clean run streamed %d index files, want 4", streamed)
	}

	for _, short := range []bool{false, true} {
		for point := 1; point <= ops; point++ {
			dir := filepath.Join(t.TempDir(), "run")
			copyTree(t, pristine, dir)
			f := fsx.NewFaultFS(fsx.OS)
			f.Arm(point, short)
			got := schedule(t, f, dir)
			if !f.Crashed() {
				t.Fatalf("point %d short=%v: fault never fired", point, short)
			}
			verify(t, point, f, dir, got)
		}
	}
}

// writeCountFS counts the writes to each file created through it.
type writeCountFS struct {
	fsx.FS
	mu     sync.Mutex
	writes map[string]int
}

func (c *writeCountFS) Create(name string) (fsx.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countedFile{File: f, fs: c, name: name}, nil
}

type countedFile struct {
	fsx.File
	fs   *writeCountFS
	name string
}

func (f *countedFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes[f.name]++
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

// TestDocCodecRoundTrip: the WAL document codec is lossless and
// deterministic.
func TestDocCodecRoundTrip(t *testing.T) {
	docs := []index.Document{
		{Fields: map[string]string{}},
		{Fields: map[string]string{"title": "a"}},
		{Fields: map[string]string{"title": "x", "content": "some words here", "mesh": "m01 m02"}},
		{Fields: map[string]string{"content": strings.Repeat("long ", 1000)}},
		{Fields: map[string]string{"weird\x00name": "weird\xffvalue", "": ""}},
	}
	for i, d := range docs {
		enc := encodeDoc(d)
		if string(enc) != string(encodeDoc(d)) {
			t.Fatalf("doc %d: encoding not deterministic", i)
		}
		got, err := decodeDoc(enc)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if len(got.Fields) != len(d.Fields) {
			t.Fatalf("doc %d: %d fields, want %d", i, len(got.Fields), len(d.Fields))
		}
		for k, v := range d.Fields {
			if got.Fields[k] != v {
				t.Fatalf("doc %d field %q: %q, want %q", i, k, got.Fields[k], v)
			}
		}
	}
	if _, err := decodeDoc([]byte{0x02, 0x01, 'a'}); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, err := decodeDoc(append(encodeDoc(docs[1]), 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

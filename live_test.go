package csrank

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"csrank/internal/ranking"
	"csrank/internal/shard"
	"csrank/internal/snapshot"
)

func liveDoc(i int) Document {
	pred := "digestive_system"
	if i%3 == 0 {
		pred = "neoplasms"
	}
	return Document{
		Title:      fmt.Sprintf("Live study %d", i),
		Body:       fmt.Sprintf("uniq%04d leukemia pancreas outcomes", i),
		Predicates: []string{pred},
	}
}

// TestOpenLiveIngestAndCompact: the public live path end to end — add
// documents to an opened cluster, see them ranked immediately and
// bit-identically to a fresh batch build, compact, reopen, and still
// agree with the batch build.
func TestOpenLiveIngestAndCompact(t *testing.T) {
	const nBase, nAdd = 50, 20
	base := NewBuilder()
	for i := 0; i < nBase; i++ {
		base.Add(liveDoc(i))
	}
	se, err := base.BuildSharded(2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := se.Save(dir); err != nil {
		t.Fatal(err)
	}

	live, err := OpenLive(dir, BuildOptions{}, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Add(liveDoc(0)); err == nil {
		t.Fatal("Add accepted on an engine not opened for ingestion")
	}
	for i := nBase; i < nBase+nAdd; i++ {
		id, err := live.Add(liveDoc(i))
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if id != i {
			t.Fatalf("document %d assigned docID %d", i, id)
		}
	}

	full := NewBuilder()
	for i := 0; i < nBase+nAdd; i++ {
		full.Add(liveDoc(i))
	}
	want, err := full.Build(BuildOptions{DisableViews: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"leukemia", "uniq0055", "uniq0007",
		"leukemia | neoplasms", "pancreas outcomes | digestive_system",
	}
	compare := func(stage string, e *ShardedEngine) {
		t.Helper()
		for _, q := range queries {
			wh, _, err := want.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			gh, _, err := e.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(gh) != len(wh) {
				t.Fatalf("%s %q: %d hits, want %d", stage, q, len(gh), len(wh))
			}
			for i := range wh {
				if gh[i] != wh[i] {
					t.Fatalf("%s %q rank %d: %+v, want %+v", stage, q, i, gh[i], wh[i])
				}
			}
		}
	}
	compare("live", live)
	if n := live.NumDocs(); n != nBase+nAdd {
		t.Fatalf("NumDocs=%d, want %d", n, nBase+nAdd)
	}
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	if p := live.Pending(); p != 0 {
		t.Fatalf("%d pending after compaction", p)
	}
	assertPagedShards(t, dir, 2, "index.000001.gob")
	compare("compacted", live)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	live, err = OpenLive(dir, BuildOptions{}, IngestOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer live.Close()
	compare("reopened", live)
}

// TestEngineSaveThenOpenLive: a built engine becomes writable by saving it
// and reopening the directory live.
func TestEngineSaveThenOpenLive(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 30; i++ {
		b.Add(liveDoc(i))
	}
	e, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(liveDoc(30)); err == nil {
		t.Fatal("Add accepted before OpenLive")
	}
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir, BuildOptions{}, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	assertPagedShards(t, dir, 1, "index.gob")
	id, err := live.Add(liveDoc(30))
	if err != nil {
		t.Fatal(err)
	}
	if id != 30 {
		t.Fatalf("docID %d, want 30", id)
	}
	hits, _, err := live.Search("uniq0030", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].DocID != 30 || hits[0].Title != "Live study 30" {
		t.Fatalf("added document not served: %+v", hits)
	}
	if live.NumDocs() != 31 {
		t.Fatalf("NumDocs=%d, want 31", live.NumDocs())
	}
}

// TestLiveSaveDuringCompaction: Save on a live engine holds the shards
// it writes, so a compaction that retires and unmaps them mid-write
// cannot pull the pages out from under it (run under -race). Every copy
// is one committed generation: it opens, holds the base plus a whole
// number of compacted batches, and ranks the last document it holds.
func TestLiveSaveDuringCompaction(t *testing.T) {
	const nBase, batch, rounds = 60, 10, 6
	b := NewBuilder()
	for i := 0; i < nBase; i++ {
		b.Add(liveDoc(i))
	}
	se, err := b.BuildSharded(2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := se.Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir, BuildOptions{}, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	done := make(chan error, 1)
	go func() {
		next := nBase
		for r := 0; r < rounds; r++ {
			for j := 0; j < batch; j++ {
				if _, err := live.Add(liveDoc(next)); err != nil {
					done <- err
					return
				}
				next++
			}
			if err := live.Compact(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for saves, compacting := 0, true; compacting || saves < 2; saves++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			compacting = false
		default:
		}
		out := t.TempDir()
		if err := live.Save(out); err != nil {
			t.Fatalf("save %d: %v", saves, err)
		}
		cp, err := OpenSharded(out, BuildOptions{})
		if err != nil {
			t.Fatalf("open save %d: %v", saves, err)
		}
		n := cp.NumDocs()
		if n < nBase || (n-nBase)%batch != 0 {
			t.Fatalf("save %d holds %d documents, not %d plus whole batches of %d", saves, n, nBase, batch)
		}
		hits, _, err := cp.Search(fmt.Sprintf("uniq%04d", n-1), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 1 || hits[0].DocID != n-1 {
			t.Fatalf("save %d: document %d not ranked: %+v", saves, n-1, hits)
		}
	}
	if live.NumDocs() != nBase+rounds*batch {
		t.Fatalf("NumDocs=%d, want %d", live.NumDocs(), nBase+rounds*batch)
	}
}

// TestOpenLiveShardFaultDegrades: a live engine runs the same
// failure-domain contract as a static cluster. With a non-empty mutable
// segment and shard 1 crashing, every query still answers — flagged
// degraded, the loss attributed to shard 1 — with hits bit-identical to
// a fresh engine over exactly the surviving slices (the other shards
// plus the segment); with MinShards = NumShards the same fault fails
// closed.
func TestOpenLiveShardFaultDegrades(t *testing.T) {
	const nShards, nBase, nAdd = 4, 80, 15
	base := NewBuilder()
	for i := 0; i < nBase; i++ {
		base.Add(liveDoc(i))
	}
	se, err := base.BuildSharded(nShards, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := se.Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir, BuildOptions{}, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	survivors := NewBuilder()
	for i := 0; i < nBase+nAdd; i++ {
		if i >= nBase {
			if _, err := live.Add(liveDoc(i)); err != nil {
				t.Fatalf("add %d: %v", i, err)
			}
		}
		if i >= nBase || shard.ShardOf(uint32(i), nShards) != 1 {
			survivors.Add(liveDoc(i))
		}
	}
	if p := live.Pending(); p != nAdd {
		t.Fatalf("segment holds %d documents, want %d", p, nAdd)
	}
	want, err := survivors.Build(BuildOptions{DisableViews: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.ArmFault(1, 0, true, false); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"leukemia", "leukemia | neoplasms", "pancreas outcomes | digestive_system"} {
		wh, _, err := want.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		gh, st, err := live.Search(q, 10)
		if err != nil {
			t.Fatalf("%q: query failed instead of degrading: %v", q, err)
		}
		if !st.Degraded || len(st.ShardErrors) != 1 || st.ShardErrors[0].Shard != 1 || st.ShardErrors[0].Kind != "panic" {
			t.Fatalf("%q: degraded=%v shard errors %+v, want shard 1 attributed", q, st.Degraded, st.ShardErrors)
		}
		if len(gh) != len(wh) {
			t.Fatalf("%q: %d hits, survivors-only engine has %d", q, len(gh), len(wh))
		}
		for i := range wh {
			// Global docIDs differ (the reference renumbers the survivors);
			// titles are unique and the renumbering is monotone, so equal
			// titles and score bits in order is bit-identity.
			if gh[i].Title != wh[i].Title || gh[i].Score != wh[i].Score {
				t.Fatalf("%q rank %d: %+v, survivors-only engine has %+v", q, i, gh[i], wh[i])
			}
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	strict, err := OpenLive(dir, BuildOptions{MinShards: nShards}, IngestOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer strict.Close()
	if p := strict.Pending(); p != nAdd {
		t.Fatalf("reopened segment holds %d documents, want %d", p, nAdd)
	}
	if err := strict.ArmFault(1, 0, true, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := strict.Search("leukemia", 10); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("MinShards = NumShards with a dead shard: err %v, want ErrTooFewShards", err)
	}
}

// TestV3ClusterCompactsToV4: a cluster directory an older build wrote
// in the framed gob format v3 (testdata/v3-cluster: liveDoc 0..19 over
// two shards) still opens live; its first compaction writes paged
// format v4, and the compacted cluster ranks bit-identically to a fresh
// build over the union under every scorer.
func TestV3ClusterCompactsToV4(t *testing.T) {
	const nBase, nAdd = 20, 10
	for _, name := range ranking.Names() {
		dir := t.TempDir()
		copyDir(t, filepath.Join("testdata", "v3-cluster"), dir)
		if b, err := os.ReadFile(filepath.Join(shard.ShardDir(dir, 0), "index.gob")); err != nil || !snapshot.IsFramed(b) {
			t.Fatalf("fixture is not a framed gob index: %v", err)
		}
		opts := BuildOptions{Scorer: Scorer(name)}
		live, err := OpenLive(dir, opts, IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := nBase; i < nBase+nAdd; i++ {
			if _, err := live.Add(liveDoc(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.Compact(); err != nil {
			t.Fatal(err)
		}
		assertPagedShards(t, dir, 2, "index.000001.gob")

		full := NewBuilder()
		for i := 0; i < nBase+nAdd; i++ {
			full.Add(liveDoc(i))
		}
		want, err := full.BuildSharded(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"leukemia", "uniq0004", "uniq0025", "leukemia | neoplasms", "pancreas outcomes | digestive_system"} {
			wh, _, err := want.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			gh, _, err := live.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(gh) != len(wh) || len(wh) == 0 {
				t.Fatalf("%s %q: %d hits, want %d", name, q, len(gh), len(wh))
			}
			for i := range wh {
				if gh[i] != wh[i] {
					t.Fatalf("%s %q rank %d: %+v, want %+v", name, q, i, gh[i], wh[i])
				}
			}
		}
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactedDirServesNoStaleCatalog: compaction grows the corpus
// but leaves each shard's generation-0 views.gob on disk, and that
// catalog must not serve over the grown corpus. A directory compacted
// twice opens with no views through OpenSharded and OpenLive alike, at
// the committed generation, and both rank the top 20 exactly as a
// view-less fresh build over every document does.
func TestCompactedDirServesNoStaleCatalog(t *testing.T) {
	const nBase, nAdd = 120, 40
	base := NewBuilder()
	for i := 0; i < nBase; i++ {
		base.Add(liveDoc(i))
	}
	se, err := base.BuildSharded(2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if se.NumViews() == 0 {
		t.Fatal("the base build materialized no views; the test needs a catalog to go stale")
	}
	dir := t.TempDir()
	if err := se.Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir, BuildOptions{}, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := nBase; i < nBase+nAdd; i++ {
		if _, err := live.Add(liveDoc(i)); err != nil {
			t.Fatal(err)
		}
		if i == nBase+nAdd/2-1 || i == nBase+nAdd-1 {
			if err := live.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(filepath.Join(shard.ShardDir(dir, i), "views.gob")); err != nil {
			t.Fatalf("shard %d: compaction removed the generation-0 catalog, so nothing here can go stale: %v", i, err)
		}
	}

	full := NewBuilder()
	for i := 0; i < nBase+nAdd; i++ {
		full.Add(liveDoc(i))
	}
	want, err := full.Build(BuildOptions{DisableViews: true})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenLive(dir, BuildOptions{}, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	readOnly, err := OpenSharded(dir, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*ShardedEngine{"OpenSharded": readOnly, "OpenLive": reopened} {
		if n := e.NumViews(); n != 0 {
			t.Fatalf("%s: %d views serve at generation 2", name, n)
		}
		if gens := e.Generations(); !slices.Equal(gens, []uint64{2, 2}) {
			t.Fatalf("%s: generations %v, want [2 2]", name, gens)
		}
		for _, q := range []string{"leukemia | neoplasms", "pancreas outcomes | digestive_system", "leukemia", "uniq0150"} {
			wh, _, err := want.Search(q, 20)
			if err != nil {
				t.Fatal(err)
			}
			gh, _, err := e.Search(q, 20)
			if err != nil {
				t.Fatal(err)
			}
			if len(gh) != len(wh) || len(wh) == 0 {
				t.Fatalf("%s %q: %d hits, want %d", name, q, len(gh), len(wh))
			}
			for i := range wh {
				if gh[i] != wh[i] {
					t.Fatalf("%s %q rank %d: %+v, want %+v", name, q, i, gh[i], wh[i])
				}
			}
		}
	}
}

// copyDir copies the regular files of the tree at src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

package lazyxml

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultline"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// matchSet renders matches as a comparable set of global position pairs.
func matchSet(ms []Match) map[string]bool {
	out := make(map[string]bool, len(ms))
	for _, m := range ms {
		out[fmt.Sprintf("%d-%d|%d-%d", m.AncStart, m.AncEnd, m.DescStart, m.DescEnd)] = true
	}
	return out
}

func diffSets(t *testing.T, label string, want, got map[string]bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing match %s", label, k)
			return
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: extra match %s", label, k)
			return
		}
	}
}

// TestPlannedEquivalenceProperty is the planner's correctness property:
// over random documents with random fragmentation, every algorithm the
// planner can choose — and the cost-based choice itself, through Query
// and through a stream — return the match set of the fresh-parse
// reference.
func TestPlannedEquivalenceProperty(t *testing.T) {
	paths := []string{"a", "a//b", "a/b", "b//c", "a//b//c", "a//b/c", "b//c//d"}
	algos := []string{"auto", "lazy", "parallel", "std", "skip", "twig"}
	frags := []string{"<a><b><c/></b></a>", "<b><c><d/></c></b>", "<a><b/><c/></a>", "<c><d/></c>"}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := NewCollection(LD)
		c.EnablePlanner(NewQueryPlanner(1 << 20))
		ndocs := 2 + r.Intn(3)
		for d := 0; d < ndocs; d++ {
			text := xmlgen.Synthetic(xmlgen.SyntheticConfig{
				Seed: seed*100 + int64(d), Elements: 80 + r.Intn(120),
			})
			if err := c.Put(fmt.Sprintf("doc-%d", d), text); err != nil {
				t.Fatal(err)
			}
		}
		// Fragment: each insert lands on an element boundary of the
		// current document, so segments sit at element ends and nest.
		names := c.Names()
		for i := 0; i < 5+r.Intn(20); i++ {
			name := names[r.Intn(len(names))]
			if _, err := c.Insert(name, insertOffset(t, c, r, name), []byte(frags[r.Intn(len(frags))])); err != nil {
				t.Fatal(err)
			}
		}
		if r.Intn(2) == 0 {
			if _, err := c.Collapse(names[0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, path := range paths {
			want := bruteDocs(t, c, names, path)
			drained, err := c.Query(path)
			if err != nil {
				t.Fatal(err)
			}
			diffBrute(t, fmt.Sprintf("seed %d path %s Query", seed, path), want, drained)
			for _, algo := range algos {
				force, err := ParsePlanAlgo(algo)
				if err != nil {
					t.Fatal(err)
				}
				ms, pls := drainPlanned(t, c, "", path, StreamOpt{Force: force})
				if len(pls) != 1 {
					t.Fatalf("seed %d %s algo %s: %d plans", seed, path, algo, len(pls))
				}
				diffBrute(t, fmt.Sprintf("seed %d path %s algo %s (plan %s)", seed, path, algo, pls[0].Algo), want, ms)
			}
		}
	}
}

// TestTagCardinalityOracle checks the tag-list-derived cardinalities
// against a fresh parse of every document.
func TestTagCardinalityOracle(t *testing.T) {
	c := NewCollection(LD)
	for d := 0; d < 4; d++ {
		text := xmlgen.Synthetic(xmlgen.SyntheticConfig{Seed: int64(40 + d), Elements: 150})
		if err := c.Put(fmt.Sprintf("doc-%d", d), text); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Insert("doc-0", len("<root>"), []byte("<a><b/><b/></a>")); err != nil {
		t.Fatal(err)
	}
	oracle := map[string]int{}
	for _, name := range c.Names() {
		text, err := c.Text(name)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmltree.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		doc.Walk(func(e *xmltree.Element) bool {
			oracle[e.Tag]++
			return true
		})
	}
	for _, tag := range []string{"root", "a", "b", "c", "d", "e", "f", "nosuchtag"} {
		if got, want := c.TagCardinality(tag), oracle[tag]; got != want {
			t.Errorf("TagCardinality(%q) = %d, want %d", tag, got, want)
		}
	}
}

// TestTagCardinalitySharded checks the cross-shard sum.
func TestTagCardinalitySharded(t *testing.T) {
	sc := NewShardedCollection(3, LD)
	want := 0
	for d := 0; d < 9; d++ {
		text := []byte("<root><a><b/></a><a/></root>")
		want += 2
		if err := sc.Put(fmt.Sprintf("doc-%d", d), text); err != nil {
			t.Fatal(err)
		}
	}
	if got := sc.TagCardinality("a"); got != want {
		t.Errorf("sharded TagCardinality(a) = %d, want %d", got, want)
	}
}

// TestPlanExplainOutput sanity-checks the explain surface: a planned
// two-step query yields a join op with inputs and a positive cost, and a
// forced run is flagged.
func TestPlanExplainOutput(t *testing.T) {
	c := NewCollection(LD)
	if err := c.Put("d", []byte("<root><a><b/><b/></a></root>")); err != nil {
		t.Fatal(err)
	}
	_, pls := drainPlanned(t, c, "", "a//b", StreamOpt{})
	pl := pls[0]
	if pl.Algo == "" || pl.Cost <= 0 || len(pl.Ops) != 1 {
		t.Fatalf("plan = %+v", pl)
	}
	op := pl.Ops[0]
	if op.Op != "join" || op.AncCard != 1 || op.DescCard != 2 {
		t.Fatalf("op = %+v", op)
	}
	force, _ := ParsePlanAlgo("std")
	_, pls = drainPlanned(t, c, "", "a//b", StreamOpt{Force: force, NoCache: true})
	if !pls[0].Forced || pls[0].Algo != "std" {
		t.Fatalf("forced plan = %+v", pls[0])
	}
}

// TestPlanOnlyOnCacheMiss pins the pick-counting rule: a plan is made,
// and a cost-based pick counted, only when it is executed — N identical
// cached queries are one miss, one pick and N-1 hits.
func TestPlanOnlyOnCacheMiss(t *testing.T) {
	c := NewCollection(LD)
	qp := NewQueryPlanner(1 << 20)
	c.EnablePlanner(qp)
	if err := c.Put("d", []byte("<root><a><b/></a></root>")); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		_, pls := drainPlanned(t, c, "", "a//b", StreamOpt{})
		if pls[0].Cached != (i > 0) {
			t.Fatalf("query %d: cached = %v", i, pls[0].Cached)
		}
	}
	st := qp.Stats()
	var picks int64
	for _, k := range st.Picks {
		picks += k
	}
	if picks != 1 || st.Cache.Misses != 1 || st.Cache.Hits != n-1 {
		t.Fatalf("%d identical queries: %d picks, %d misses, %d hits; want 1, 1, %d", n, picks, st.Cache.Misses, st.Cache.Hits, n-1)
	}
}

// TestCacheGenerationFreshness drives the full write → query → verify
// cycle: after every mutation (insert, remove, collapse) the cached
// query must agree with a fresh run that bypasses the cache — the generation
// bump is the only invalidation mechanism in play.
func TestCacheGenerationFreshness(t *testing.T) {
	c := NewCollection(LD)
	qp := NewQueryPlanner(1 << 20)
	c.EnablePlanner(qp)
	if err := c.Put("d", []byte("<root><a><b/></a></root>")); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		for i := 0; i < 2; i++ { // second run exercises the cached path
			ms, _ := drainPlanned(t, c, "", "a//b", StreamOpt{})
			// Query meets the cache too: the fresh run bypasses it.
			fresh, _ := drainPlanned(t, c, "", "a//b", StreamOpt{NoCache: true})
			diffSets(t, fmt.Sprintf("%s run %d", stage, i), matchSet(fresh), matchSet(ms))
		}
	}
	check("initial")
	if _, err := c.Insert("d", len("<root>"), []byte("<a><b/><b/></a>")); err != nil {
		t.Fatal(err)
	}
	check("after insert")
	if err := c.RemoveElementAt("d", len("<root>")); err != nil {
		t.Fatal(err)
	}
	check("after remove")
	if _, err := c.Collapse("d"); err != nil {
		t.Fatal(err)
	}
	check("after collapse")
	st := qp.Stats()
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Fatalf("cache never exercised both paths: %+v", st.Cache)
	}
}

// TestCacheNoStaleUnderConcurrentWrites hammers one collection with a
// writer (inserts + collapses) and planned readers. Whenever a reader
// observes the same generation before and after its pair of queries, the
// cached result and a fresh uncached result must be identical —
// the race-free formulation of "zero stale results".
func TestCacheNoStaleUnderConcurrentWrites(t *testing.T) {
	c := NewCollection(LD)
	c.EnablePlanner(NewQueryPlanner(1 << 20))
	if err := c.Put("d", []byte("<root><a><b/></a></root>")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if r.Intn(10) == 0 {
				if _, err := c.Collapse("d"); err != nil {
					t.Error(err)
					return
				}
			} else if _, err := c.Insert("d", len("<root>"), []byte("<a><b/></a>")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stable := 0
	for i := 0; i < 300; i++ {
		g1 := c.shards[0].db.store.Generation()
		ms, _ := drainPlanned(t, c, "", "a//b", StreamOpt{})
		fresh, _ := drainPlanned(t, c, "", "a//b", StreamOpt{NoCache: true})
		if g2 := c.shards[0].db.store.Generation(); g1 == g2 {
			stable++
			diffSets(t, fmt.Sprintf("iteration %d gen %v", i, g1), matchSet(fresh), matchSet(ms))
		}
	}
	close(done)
	wg.Wait()
	t.Logf("stable-generation verifications: %d/300", stable)
}

// TestShardedPerShardPartialCache verifies that a fanned-out planned
// query caches one partial result per shard, and that a write to one
// shard invalidates only that shard's entry.
func TestShardedPerShardPartialCache(t *testing.T) {
	const shards = 4
	sc := NewShardedCollection(shards, LD)
	qp := NewQueryPlanner(1 << 20)
	sc.EnablePlanner(qp)
	// Place documents until every shard holds at least one.
	perShard := map[int]string{}
	for d := 0; len(perShard) < shards; d++ {
		name := fmt.Sprintf("doc-%d", d)
		if err := sc.Put(name, []byte("<root><a><b/></a></root>")); err != nil {
			t.Fatal(err)
		}
		si := sc.ShardOf(name)
		if _, ok := perShard[si]; !ok {
			perShard[si] = name
		}
	}
	drainPlanned(t, sc, "", "a//b", StreamOpt{})
	st := qp.Stats()
	if st.Cache.Puts != shards {
		t.Fatalf("puts = %d, want %d (one partial per shard)", st.Cache.Puts, shards)
	}
	ms, pls := drainPlanned(t, sc, "", "a//b", StreamOpt{})
	if len(pls) != shards {
		t.Fatalf("plans = %d, want %d", len(pls), shards)
	}
	for i, pl := range pls {
		if pl.Shard != i {
			t.Fatalf("plan %d has shard %d", i, pl.Shard)
		}
		if !pl.Cached {
			t.Fatalf("plan %d not served from cache: %+v", i, pl)
		}
	}
	st = qp.Stats()
	if st.Cache.Hits != shards {
		t.Fatalf("hits = %d, want %d", st.Cache.Hits, shards)
	}
	// Write to exactly one shard: only its partial should miss.
	dirty := sc.ShardOf(perShard[0])
	if _, err := sc.Insert(perShard[0], len("<root>"), []byte("<a><b/></a>")); err != nil {
		t.Fatal(err)
	}
	ms2, pls2 := drainPlanned(t, sc, "", "a//b", StreamOpt{})
	st2 := qp.Stats()
	if got := st2.Cache.Hits - st.Cache.Hits; got != shards-1 {
		t.Fatalf("hits after one-shard write grew by %d, want %d", got, shards-1)
	}
	for _, pl := range pls2 {
		if pl.Shard == dirty && pl.Cached {
			t.Fatalf("dirty shard %d served from cache", dirty)
		}
		if pl.Shard != dirty && !pl.Cached {
			t.Fatalf("clean shard %d missed", pl.Shard)
		}
	}
	if len(ms2) != len(ms)+1 {
		t.Fatalf("matches after insert = %d, want %d", len(ms2), len(ms)+1)
	}
}

// TestCompactKeepsCachedResults: journal compaction rewrites files, not
// the store, so it leaves the generation — and with it every cached
// result — in place. A result cached before a Compact is served from the
// cache after it, and equals a run that bypasses the cache.
func TestCompactKeepsCachedResults(t *testing.T) {
	jc, err := OpenShardedCollection(t.TempDir(), 1, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	jc.EnablePlanner(NewQueryPlanner(1 << 20))
	if err := jc.Put("d", []byte("<root><a><b/></a></root>")); err != nil {
		t.Fatal(err)
	}
	if _, err := jc.Insert("d", len("<root>"), []byte("<a><b/><b/></a>")); err != nil {
		t.Fatal(err)
	}
	if _, pls := drainPlanned(t, jc, "", "a//b", StreamOpt{}); pls[0].Cached {
		t.Fatal("first query served from the cache")
	}
	if err := jc.Compact(); err != nil {
		t.Fatal(err)
	}
	ms, pls := drainPlanned(t, jc, "", "a//b", StreamOpt{})
	if !pls[0].Cached {
		t.Fatalf("after Compact the cached result missed: %+v", pls[0])
	}
	fresh, _ := drainPlanned(t, jc, "", "a//b", StreamOpt{NoCache: true})
	if len(fresh) != 3 {
		t.Fatalf("uncached run after Compact: %d matches, want 3", len(fresh))
	}
	diffSets(t, "cached vs uncached after Compact", matchSet(fresh), matchSet(ms))
}

// TestRestoreGetsFreshStoreIdentity: a restored snapshot is a different
// store object, so its generation pairs can never collide with the
// original's cache entries.
func TestRestoreGetsFreshStoreIdentity(t *testing.T) {
	db := Open(LD)
	mustAppend(t, db, "<a><b/></a>")
	dir := t.TempDir() + "/snap"
	if err := db.SnapshotFile(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := RestoreFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.store.StoreID() == db2.store.StoreID() {
		t.Fatal("restored store reuses the original's identity")
	}
}

// syncGateFS holds the next fsync of a journal.wal once armed, after
// announcing it, until the gate opens: a group-commit batch stays
// applied to the head but unpublished for as long as a test needs.
type syncGateFS struct {
	faultline.FS
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *syncGateFS) OpenFile(name string, flag int, perm os.FileMode) (faultline.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, "journal.wal") {
		return f, err
	}
	return &syncGateFile{File: f, fs: g}, nil
}

// release opens the gate for good; idempotent.
func (g *syncGateFS) release() { g.once.Do(func() { close(g.gate) }) }

type syncGateFile struct {
	faultline.File
	fs *syncGateFS
}

func (f *syncGateFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		f.fs.entered <- struct{}{}
		<-f.fs.gate
	}
	return f.File.Sync()
}

// TestPlanStatsShareTheQueryCut: a query's plan estimates come from the
// view its results come from. While a group-commit batch adding three
// <y/> is held at its fsync, the batch is applied to the head but not
// published, so a query reads none of them — and neither its plan's
// estimate nor /stats' tag cardinality may count a write a crash could
// still lose. After the fsync, all three read 3.
func TestPlanStatsShareTheQueryCut(t *testing.T) {
	gfs := &syncGateFS{FS: faultline.OS, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	jc, err := OpenShardedCollection(t.TempDir(), 1, LD, nil, WithFS(gfs), WithSync(), WithGroupCommit(0))
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: the gate opens before Close waits
	// on the commit lane.
	t.Cleanup(func() { jc.Close() })
	t.Cleanup(gfs.release)
	jc.EnablePlanner(NewQueryPlanner(1 << 20))
	if err := jc.Put("d", []byte("<root></root>")); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, want int) {
		t.Helper()
		ms, pls := drainPlanned(t, jc, "", "root//y", StreamOpt{NoCache: true})
		if len(ms) != want {
			t.Errorf("%s: root//y returned %d rows, want %d", stage, len(ms), want)
		}
		if got := pls[0].Ops[0].DescCard; got != want {
			t.Errorf("%s: plan estimates DescCard %d, want %d", stage, got, want)
		}
		if got := jc.TagCardinality("y"); got != want {
			t.Errorf("%s: TagCardinality(y) = %d, want %d", stage, got, want)
		}
	}
	gfs.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := jc.Insert("d", len("<root>"), []byte("<x><y/><y/><y/></x>"))
		done <- err
	}()
	<-gfs.entered
	check("fsync held", 0)
	gfs.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	check("after release", 3)
}

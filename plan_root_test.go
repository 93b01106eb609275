package lazyxml

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

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
// planner can choose — and the cost-based choice itself — and the
// unplanned query path return the match set of the fresh-parse
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
		// Fragment: every insert right after <root> creates a new sibling
		// segment, so the update log grows without risking nesting.
		names := c.Names()
		for i := 0; i < 5+r.Intn(20); i++ {
			name := names[r.Intn(len(names))]
			if _, err := c.Insert(name, len("<root>"), []byte(frags[r.Intn(len(frags))])); err != nil {
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
			unplanned, err := c.Query(path)
			if err != nil {
				t.Fatal(err)
			}
			diffBrute(t, fmt.Sprintf("seed %d path %s unplanned", seed, path), want, unplanned)
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
// cycle: after every mutation (insert, remove, collapse) the planned,
// cached query must agree with a fresh unplanned run — the generation
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
			fresh, err := c.Query("a//b")
			if err != nil {
				t.Fatal(err)
			}
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
// cached planned result and a fresh unplanned result must be identical —
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
		g1 := c.DB().PlanGeneration()
		ms, _ := drainPlanned(t, c, "", "a//b", StreamOpt{})
		fresh, err := c.Query("a//b")
		if err != nil {
			t.Fatal(err)
		}
		if g2 := c.DB().PlanGeneration(); g1 == g2 {
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

// TestCompactBumpsGeneration proves journal compaction participates in
// the generation protocol: the auto-compaction controller can never leave
// a cache entry alive across a maintenance event.
func TestCompactBumpsGeneration(t *testing.T) {
	dir := t.TempDir()
	jc, err := OpenJournaledCollection(dir, LD, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	if err := jc.Put("d", []byte("<root><a/></root>")); err != nil {
		t.Fatal(err)
	}
	before := jc.DB().PlanGeneration()
	if err := jc.Compact(); err != nil {
		t.Fatal(err)
	}
	after := jc.DB().PlanGeneration()
	if before.Store != after.Store || after.Gen <= before.Gen {
		t.Fatalf("generation %+v -> %+v, want a bump on the same store", before, after)
	}
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
	if db.PlanGeneration().Store == db2.PlanGeneration().Store {
		t.Fatal("restored store reuses the original's identity")
	}
}

package plan

import (
	"fmt"
	"sync"
	"testing"
)

// fakeSource is a scripted Source with a call counter, so tests can see
// exactly how often the store is read.
type fakeSource struct {
	id    uint64
	gen   uint64
	segs  int
	tags  map[string]TagStat
	calls int
}

func (f *fakeSource) StoreID() uint64    { return f.id }
func (f *fakeSource) Generation() uint64 { return f.gen }
func (f *fakeSource) Segments() int      { return f.segs }
func (f *fakeSource) TagPlanStat(tag string) (int, int, int) {
	f.calls++
	st := f.tags[tag]
	return st.Card, st.Segs, st.PathLen
}

func q(path string, steps ...Step) Query { return Query{Path: path, Steps: steps} }

func view(workers int, frag float64, tags map[string]TagStat) View {
	return View{Workers: workers, Frag: frag, Tags: tags}
}

func TestChooseLazyOnChunkySegments(t *testing.T) {
	// Few large segments: Lazy-Join's per-segment overhead is amortized
	// and it skips the reconstruction the traditional merges pay.
	v := view(1, 1, map[string]TagStat{
		"a": {Card: 10000, Segs: 4, PathLen: 6},
		"d": {Card: 20000, Segs: 4, PathLen: 6},
	})
	p := Choose(q("a//d", Step{Tag: "a"}, Step{Tag: "d", Desc: true}), v)
	if p.Algo != "lazy" {
		t.Fatalf("chunky store: want lazy, got %s (cost %f)", p.Algo, p.Cost)
	}
}

func TestChooseSTDOnFragmentedStore(t *testing.T) {
	// Segments hold ~1 element each: per-segment probes dominate and the
	// traditional merge wins — the §5.3 crossover.
	v := view(1, 600, map[string]TagStat{
		"a": {Card: 600, Segs: 600, PathLen: 2400},
		"d": {Card: 900, Segs: 900, PathLen: 3600},
	})
	p := Choose(q("a//d", Step{Tag: "a"}, Step{Tag: "d", Desc: true}), v)
	if p.Algo != "std" && p.Algo != "skip" {
		t.Fatalf("fragmented store: want std/skip, got %s", p.Algo)
	}
}

func TestChooseSkipOnSkewedLists(t *testing.T) {
	// Heavily skewed cardinalities on a fragmented store: galloping skips
	// the long list's dead runs, beating the linear merge.
	v := view(1, 300, map[string]TagStat{
		"a": {Card: 50, Segs: 50, PathLen: 100},
		"d": {Card: 500000, Segs: 400000, PathLen: 1600000},
	})
	p := Choose(q("a//d", Step{Tag: "a"}, Step{Tag: "d", Desc: true}), v)
	if p.Algo != "skip" {
		t.Fatalf("skewed lists: want skip, got %s (cost %f)", p.Algo, p.Cost)
	}
}

func TestChooseParallelOnHugeChunkyLists(t *testing.T) {
	// Huge lists over few segments with workers available: the parallel
	// split amortizes its spawn overhead.
	v := view(8, 2, map[string]TagStat{
		"a": {Card: 2000000, Segs: 64, PathLen: 128},
		"d": {Card: 4000000, Segs: 64, PathLen: 128},
	})
	p := Choose(q("a//d", Step{Tag: "a"}, Step{Tag: "d", Desc: true}), v)
	if p.Algo != "parallel" {
		t.Fatalf("huge store with workers: want parallel, got %s", p.Algo)
	}
	// The same store with one worker must fall back to sequential lazy.
	v.Workers = 1
	if p := Choose(q("a//d", Step{Tag: "a"}, Step{Tag: "d", Desc: true}), v); p.Algo != "lazy" {
		t.Fatalf("one worker: want lazy, got %s", p.Algo)
	}
}

func TestChoosePathStackOnWideIntermediates(t *testing.T) {
	// A 3-step path whose first join produces a huge frontier: the
	// holistic pass skips the materialization and wins.
	v := view(1, 1, map[string]TagStat{
		"a": {Card: 100000, Segs: 2, PathLen: 2},
		"b": {Card: 100000, Segs: 2, PathLen: 2},
		"c": {Card: 100000, Segs: 2, PathLen: 2},
	})
	p := Choose(q("a//b//c", Step{Tag: "a"}, Step{Tag: "b", Desc: true}, Step{Tag: "c", Desc: true}), v)
	if p.Algo != "twig" {
		t.Fatalf("wide intermediates: want twig, got %s", p.Algo)
	}
	// A selective first join keeps the pipeline ahead.
	v.Tags["a"] = TagStat{Card: 3, Segs: 1, PathLen: 1}
	p = Choose(q("a//b//c", Step{Tag: "a"}, Step{Tag: "b", Desc: true}, Step{Tag: "c", Desc: true}), v)
	if p.Algo == "twig" {
		t.Fatalf("selective first join: pipeline should win, got %s", p.Algo)
	}
	if len(p.Ops) != 2 {
		t.Fatalf("3-step pipeline: want 2 ops, got %d", len(p.Ops))
	}
}

func TestSingleStepIsScan(t *testing.T) {
	v := view(1, 1, map[string]TagStat{"a": {Card: 42, Segs: 3, PathLen: 5}})
	p := Choose(q("a", Step{Tag: "a"}), v)
	if p.Algo != "scan" || len(p.Ops) != 1 || p.Ops[0].EstOut != 42 {
		t.Fatalf("single step: want scan estOut=42, got %+v", p)
	}
}

func TestForcedKeepsAlgoAndFlag(t *testing.T) {
	v := view(4, 1, map[string]TagStat{
		"a": {Card: 10, Segs: 10, PathLen: 20},
		"d": {Card: 10, Segs: 10, PathLen: 20},
	})
	for _, alg := range []Algo{Lazy, LazyParallel, STD, Skip} {
		p := Forced(q("a//d", Step{Tag: "a"}, Step{Tag: "d", Desc: true}), alg, v)
		if p.Algo != alg || !p.Forced {
			t.Fatalf("forced %s: got algo=%s forced=%v", alg, p.Algo, p.Forced)
		}
		if len(p.Ops) == 0 || p.Cost <= 0 {
			t.Fatalf("forced %s: missing ops/cost: %+v", alg, p)
		}
	}
	p := Forced(q("a//d", Step{Tag: "a"}, Step{Tag: "d", Desc: true}), PathStack, v)
	if p.Algo != "twig" || !p.Forced {
		t.Fatalf("forced twig: got %+v", p)
	}
}

func TestChooseIsPure(t *testing.T) {
	v := view(4, 7, map[string]TagStat{
		"a": {Card: 123, Segs: 17, PathLen: 40},
		"d": {Card: 456, Segs: 29, PathLen: 80},
	})
	qq := q("a/d", Step{Tag: "a"}, Step{Tag: "d"})
	p1, p2 := Choose(qq, v), Choose(qq, v)
	if fmt.Sprint(p1) != fmt.Sprint(p2) {
		t.Fatalf("Choose is not deterministic:\n%+v\n%+v", p1, p2)
	}
}

func TestParseAlgo(t *testing.T) {
	for s, want := range map[string]Algo{
		"": Auto, "auto": Auto, "planned": Auto, "lazy": Lazy, "Parallel": LazyParallel,
		"std": STD, "skip": Skip, "twig": PathStack, "pathstack": PathStack,
	} {
		got, err := ParseAlgo(s)
		if err != nil || got != want {
			t.Fatalf("ParseAlgo(%q) = %q, %v; want %q", s, got, err, want)
		}
	}
	// Anything else — including names the cost model cannot pick — is
	// refused rather than silently planned.
	for _, s := range []string{"bogus", "sta", "xb", "scan"} {
		if _, err := ParseAlgo(s); err == nil {
			t.Fatalf("ParseAlgo(%q): want error", s)
		}
	}
}

func TestViewOfReadsTheSource(t *testing.T) {
	src := &fakeSource{id: 7, gen: 1, segs: 10, tags: map[string]TagStat{
		"a": {Card: 5, Segs: 2, PathLen: 3},
		"b": {Card: 9, Segs: 4, PathLen: 8},
	}}
	v := ViewOf(src, 2, []string{"a", "b", "nosuch"})
	if src.calls != 3 {
		t.Fatalf("want one source read per tag, got %d", src.calls)
	}
	if v.Gen != (Gen{Store: 7, Gen: 1}) || v.Segments != 10 || v.Docs != 2 || v.Frag != 5 {
		t.Fatalf("view: %+v", v)
	}
	if v.Workers < 1 || v.Workers > 8 {
		t.Fatalf("workers = %d, want min(GOMAXPROCS, 8)", v.Workers)
	}
	if v.Tags["a"] != src.tags["a"] || v.Tags["b"] != src.tags["b"] || v.Tags["nosuch"] != (TagStat{}) {
		t.Fatalf("tag stats: %+v", v.Tags)
	}
	// An empty store still has one document's worth of denominator.
	if v := ViewOf(src, 0, nil); v.Docs != 1 || v.Frag != 10 {
		t.Fatalf("zero documents: %+v", v)
	}
	// The collector reads afresh on every call.
	src.gen = 2
	src.tags["a"] = TagStat{Card: 50, Segs: 20, PathLen: 30}
	v = NewCollector(src, nil, 4).View([]string{"a"})
	if v.Tags["a"].Card != 50 || v.Gen.Gen != 2 || v.Docs != 1 || v.Workers != 4 {
		t.Fatalf("collector view: %+v", v)
	}
}

func TestCacheHitMissAndGenInvalidation(t *testing.T) {
	c := NewCache(1 << 20)
	k := Key{Gen: Gen{Store: 1, Gen: 5}, Path: "a//d"}
	if _, _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, "result", 100, Plan{Algo: "lazy"})
	v, p, ok := c.Get(k)
	if !ok || v.(string) != "result" || !p.Cached || p.Algo != "lazy" {
		t.Fatalf("hit: %v %+v %v", v, p, ok)
	}
	// A generation bump means a new key: the old entry is unreachable.
	k2 := k
	k2.Gen.Gen = 6
	if _, _, ok := c.Get(k2); ok {
		t.Fatal("stale generation served")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheLRUEvictionByBytes(t *testing.T) {
	// 100-byte entries sit exactly at the admission cap (800/8), so every
	// put admits and only capacity eviction is in play; 9×100 overfills
	// the 800-byte budget by one entry.
	c := NewCache(800)
	for i := 0; i < 9; i++ {
		c.Put(Key{Path: fmt.Sprint(i)}, i, 100, Plan{})
	}
	// 9×100 > 800: the oldest entry (0) must be gone.
	if _, _, ok := c.Get(Key{Path: "0"}); ok {
		t.Fatal("oldest entry survived over budget")
	}
	if _, _, ok := c.Get(Key{Path: "8"}); !ok {
		t.Fatal("newest entry evicted")
	}
	// Touching 1 makes it most recent; inserting another evicts 2.
	if _, _, ok := c.Get(Key{Path: "1"}); !ok {
		t.Fatal("entry 1 missing")
	}
	c.Put(Key{Path: "9"}, 9, 100, Plan{})
	if _, _, ok := c.Get(Key{Path: "2"}); ok {
		t.Fatal("LRU order ignored: 2 should have been evicted")
	}
	if _, _, ok := c.Get(Key{Path: "1"}); !ok {
		t.Fatal("recently used entry evicted")
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Bytes > 800 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheOversizedValueDropped(t *testing.T) {
	c := NewCache(100)
	c.Put(Key{Path: "big"}, "x", 101, Plan{})
	if _, _, ok := c.Get(Key{Path: "big"}); ok {
		t.Fatal("oversized value cached")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCachePerEntryAdmissionCap(t *testing.T) {
	c := NewCache(800)
	if got := c.AdmissionCap(); got != 100 {
		t.Fatalf("AdmissionCap() = %d, want 100", got)
	}
	// An entry over an eighth of the budget — even though it fits the
	// whole budget comfortably — must be dropped, and must not evict
	// anything already cached.
	c.Put(Key{Path: "small"}, 1, 100, Plan{})
	c.Put(Key{Path: "large"}, 2, 101, Plan{})
	if _, _, ok := c.Get(Key{Path: "large"}); ok {
		t.Fatal("entry over the admission cap was cached")
	}
	if _, _, ok := c.Get(Key{Path: "small"}); !ok {
		t.Fatal("admitted entry evicted by a rejected oversized put")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Disabled caches report no cap.
	if got := NewCache(0).AdmissionCap(); got != 0 {
		t.Fatalf("disabled AdmissionCap() = %d, want 0", got)
	}
	var nilCache *Cache
	if got := nilCache.AdmissionCap(); got != 0 {
		t.Fatalf("nil AdmissionCap() = %d, want 0", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Put(Key{Path: "p"}, 1, 1, Plan{})
	if _, _, ok := c.Get(Key{Path: "p"}); ok {
		t.Fatal("disabled cache served a value")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(10 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Path: fmt.Sprint(i % 37), Gen: Gen{Gen: uint64(i % 5)}}
				if v, _, ok := c.Get(k); ok {
					if v.(int) != i%37 {
						panic("corrupt cached value")
					}
				} else {
					c.Put(k, i%37, 64, Plan{})
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 10<<10 {
		t.Fatalf("over budget: %+v", st)
	}
}

func TestPicksCounters(t *testing.T) {
	p := NewPicks()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p.Count("lazy")
			}
		}()
	}
	wg.Wait()
	p.Count("std")
	snap := p.Snapshot()
	if snap["lazy"] != 400 || snap["std"] != 1 {
		t.Fatalf("picks: %v", snap)
	}
}

package lazyxml

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// drainStream pulls rs to exhaustion and returns the matches.
func drainStream(t *testing.T, rs *ResultStream) []Match {
	t.Helper()
	var out []Match
	for {
		m, err := rs.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream Next: %v", err)
		}
		out = append(out, m)
	}
}

// drainPlanned runs path as a stream — over the whole backend
// for doc == "", else scoped to doc — to exhaustion, so a cacheable
// result is admitted, and returns the matches with the per-shard plans.
func drainPlanned(t *testing.T, b *ShardedCollection, doc, path string, opt StreamOpt) ([]Match, []PlanInfo) {
	t.Helper()
	var rs *ResultStream
	var err error
	if doc == "" {
		rs, err = b.QueryStream(path, opt)
	} else {
		rs, err = b.QueryDocStream(doc, path, opt)
	}
	if err != nil {
		t.Fatalf("stream %q %q: %v", doc, path, err)
	}
	defer rs.Close()
	return drainStream(t, rs), rs.Plans()
}

// bruteDocs is the reference every executor lane is checked against,
// independent of the engine: brutePath over a fresh xmltree.Parse of
// each named document's text, shifted to the document's span in its
// store. Keys are (ancStart, ancEnd, descStart, descEnd) in store
// coordinates; a single-step path has no ancestor side (ancStart and
// ancEnd 0).
func bruteDocs(t *testing.T, b *ShardedCollection, names []string, path string) map[[4]int]bool {
	t.Helper()
	p, err := ParsePath(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[[4]int]bool{}
	for _, name := range names {
		dv, err := b.View(name)
		if err != nil {
			t.Fatal(err)
		}
		text, err := dv.Text()
		lo := dv.lo
		dv.Release()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmltree.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Steps) == 0 {
			doc.Walk(func(e *xmltree.Element) bool {
				if e.Tag == p.First {
					out[[4]int{0, 0, lo + e.Start, lo + e.End}] = true
				}
				return true
			})
			continue
		}
		for k := range brutePath(doc, p) {
			out[[4]int{lo + k[0], lo + k[1], lo + k[2], lo + k[3]}] = true
		}
	}
	return out
}

// diffBrute checks got against a bruteDocs reference: the same pairs,
// each exactly once.
func diffBrute(t *testing.T, label string, want map[[4]int]bool, got []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d matches, reference has %d", label, len(got), len(want))
		return
	}
	seen := make(map[[4]int]bool, len(got))
	for _, m := range got {
		k := [4]int{m.AncStart, m.AncEnd, m.DescStart, m.DescEnd}
		if !want[k] {
			t.Errorf("%s: match %v not in the reference", label, k)
			return
		}
		if seen[k] {
			t.Errorf("%s: match %v delivered twice", label, k)
			return
		}
		seen[k] = true
	}
}

// assertOrder pins result order without a second executor to compare
// with: the merge joins over global lists, and the Stack-Tree-Desc step
// that ends every multi-step pipeline, emit descendant-major (ancestors
// outermost first). Lazy-Join follows segment order and PathStack its
// own; neither is pinned here.
func assertOrder(t *testing.T, label string, pl PlanInfo, p Path, got []Match) {
	t.Helper()
	lone := len(p.Steps) == 1
	if pl.Algo == "twig" || (lone && (pl.Algo == "lazy" || pl.Algo == "parallel")) {
		return
	}
	key := func(m Match) [2]int { return [2]int{m.DescStart, m.AncStart} }
	for i := 1; i < len(got); i++ {
		a, b := key(got[i-1]), key(got[i])
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Errorf("%s: match %d out of %s order", label, i, pl.Algo)
			return
		}
	}
}

// matchList renders matches order-sensitively — streaming must preserve
// not just the match set but the exact order of the materialized path.
func matchList(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%d-%d|%d-%d", m.AncStart, m.AncEnd, m.DescStart, m.DescEnd)
	}
	return out
}

func diffLists(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d matches, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: match %d = %s, want %s (order or content diverged)", label, i, got[i], want[i])
			return
		}
	}
}

func liveViews(b *ShardedCollection) int {
	total := 0
	for _, st := range b.ViewStats() {
		total += st.Views.Live
	}
	return total
}

// assertViewsReleased proves no stream kept a view reference: a write
// per shard retires each published view at the next acquisition, so
// after one rotation the only live views are the freshly published ones
// — unless a closed stream leaked its pin, which keeps the old
// generation retained.
func assertViewsReleased(t *testing.T, b *ShardedCollection) {
	t.Helper()
	touched := map[int]bool{}
	for _, name := range b.Names() {
		si := b.ShardOf(name)
		if touched[si] {
			continue
		}
		touched[si] = true
		if _, err := b.Insert(name, len("<root>"), []byte("<zz/>")); err != nil {
			t.Fatal(err)
		}
	}
	cv, err := b.ViewAll()
	if err != nil {
		t.Fatal(err)
	}
	cv.Release()
	if n := liveViews(b); n > b.ShardCount() {
		t.Fatalf("%d live views after rotation (at most %d published expected): a stream leaked its view pin", n, b.ShardCount())
	}
}

// buildStreamCollection seeds a collection with random fragmented
// documents, the same shape the planner equivalence test uses.
func buildStreamCollection(t *testing.T, seed int64) *ShardedCollection {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	c := NewCollection(LD)
	c.EnablePlanner(NewQueryPlanner(1 << 20))
	frags := []string{"<a><b><c/></b></a>", "<b><c><d/></c></b>", "<a><b/><c/></a>", "<c><d/></c>"}
	for d := 0; d < 2+r.Intn(3); d++ {
		text := xmlgen.Synthetic(xmlgen.SyntheticConfig{
			Seed: seed*100 + int64(d), Elements: 80 + r.Intn(120),
		})
		if err := c.Put(fmt.Sprintf("doc-%d", d), text); err != nil {
			t.Fatal(err)
		}
	}
	names := c.Names()
	for i := 0; i < 5+r.Intn(20); i++ {
		name := names[r.Intn(len(names))]
		if _, err := c.Insert(name, insertOffset(t, c, r, name), []byte(frags[r.Intn(len(frags))])); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// insertOffset draws an insert position in the named document from its
// current element boundaries: an element's start, or the offset right
// after its end tag. Inserted segments so land at element ends, where a
// segment's GlobalOf and GlobalOfEnd differ, and nest in one another.
func insertOffset(t *testing.T, c *ShardedCollection, r *rand.Rand, name string) int {
	t.Helper()
	text, err := c.Text(name)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int{doc.Root.ContentStart}
	doc.Walk(func(e *xmltree.Element) bool {
		if e.Parent != nil {
			offs = append(offs, e.Start, e.End)
		}
		return true
	})
	return offs[r.Intn(len(offs))]
}

// TestStreamEquivalenceProperty is the streaming correctness property:
// for every algorithm the planner can force — all four joins plus the
// holistic twig — and for the cost model's pick, a query returns exactly
// the matches of the fresh-parse reference over random fragmented
// documents, and the executor's two consumers (the Generator behind a
// stream, the inline drain behind Query) deliver them in exactly the
// same order.
func TestStreamEquivalenceProperty(t *testing.T) {
	paths := []string{"a", "a//b", "a/b", "b//c", "a//b//c", "a//b/c", "b//c//d"}
	algos := []string{"auto", "lazy", "parallel", "std", "skip", "twig"}
	for seed := int64(1); seed <= 3; seed++ {
		c := buildStreamCollection(t, seed)
		for _, path := range paths {
			want := bruteDocs(t, c, c.Names(), path)
			parsed, err := ParsePath(path)
			if err != nil {
				t.Fatal(err)
			}
			// Cost-model lane: QueryStream vs Query, both unforced. Query
			// admits its result to the cache, so the stream bypasses it
			// and executes.
			drained, err := c.Query(path)
			if err != nil {
				t.Fatal(err)
			}
			diffBrute(t, fmt.Sprintf("seed %d path %s Query", seed, path), want, drained)
			rs, err := c.QueryStream(path, StreamOpt{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			diffLists(t, fmt.Sprintf("seed %d path %s auto", seed, path), matchList(drained), matchList(drainStream(t, rs)))
			if err := rs.Close(); err != nil {
				t.Fatal(err)
			}
			// Forced lanes, one per algorithm. NoCache so every
			// run actually executes.
			for _, algo := range algos {
				force, err := ParsePlanAlgo(algo)
				if err != nil {
					t.Fatal(err)
				}
				got, pls := drainPlanned(t, c, "", path, StreamOpt{Force: force, NoCache: true})
				label := fmt.Sprintf("seed %d path %s algo %s", seed, path, algo)
				if len(pls) != 1 {
					t.Fatalf("%s: %d plans", label, len(pls))
				}
				diffBrute(t, label, want, got)
				assertOrder(t, label, pls[0], parsed, got)
			}
		}
		assertViewsReleased(t, c)
	}
}

// TestStreamDocScopedEquivalence checks the document-scoped lane,
// including the span filter, against the reference over that document
// alone, and the streamed order against the drained QueryDoc.
func TestStreamDocScopedEquivalence(t *testing.T) {
	c := buildStreamCollection(t, 7)
	for _, name := range c.Names() {
		for _, path := range []string{"a//b", "b//c"} {
			label := fmt.Sprintf("doc %s path %s", name, path)
			got, _ := drainPlanned(t, c, name, path, StreamOpt{NoCache: true})
			diffBrute(t, label, bruteDocs(t, c, []string{name}, path), got)
			drained, err := c.QueryDoc(name, path)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := c.QueryDocStream(name, path, StreamOpt{})
			if err != nil {
				t.Fatal(err)
			}
			diffLists(t, label, matchList(drained), matchList(drainStream(t, rs)))
			rs.Close()
		}
	}
	if _, err := c.QueryDocStream("no-such-doc", "a//b", StreamOpt{}); err == nil {
		t.Fatal("unknown document accepted")
	}
	assertViewsReleased(t, c)
}

// TestStreamEquivalenceUnderWriters is the MVCC isolation property: a
// stream opened before a burst of writers delivers exactly the
// snapshot-time result, however slowly it is drained.
func TestStreamEquivalenceUnderWriters(t *testing.T) {
	c := buildStreamCollection(t, 11)
	const path = "a//b"
	want, _ := drainPlanned(t, c, "", path, StreamOpt{NoCache: true})
	diffBrute(t, "before writers", bruteDocs(t, c, c.Names(), path), want)
	rs, err := c.QueryStream(path, StreamOpt{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	// Writers start after the stream pinned its view.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		names := c.Names()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := names[i%len(names)]
			if _, err := c.Insert(name, len("<root>"), []byte("<a><b/></a>")); err != nil {
				return
			}
		}
	}()
	var got []Match
	for {
		m, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next under writers: %v", err)
		}
		got = append(got, m)
		time.Sleep(50 * time.Microsecond) // drain slowly while writers run
	}
	close(stop)
	wg.Wait()
	diffLists(t, "under writers", matchList(want), matchList(got))
	rs.Close()
	assertViewsReleased(t, c)
}

// TestStreamSingleConsumption pins the consumption discipline on the
// full stack, for every join adapter: after the terminal io.EOF a
// second consumption reports ErrStreamExhausted (never a silent zero
// rows — the janus-datalog failure mode), and Next after Close reports
// ErrStreamClosed.
func TestStreamSingleConsumption(t *testing.T) {
	c := buildStreamCollection(t, 13)
	for _, algo := range []string{"lazy", "parallel", "std", "skip", "twig"} {
		force, err := ParsePlanAlgo(algo)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := c.QueryStream("a//b", StreamOpt{Force: force, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		n := len(drainStream(t, rs))
		if n == 0 {
			t.Fatalf("algo %s: empty result would not exercise the guard", algo)
		}
		if _, err := rs.Next(); !errors.Is(err, ErrStreamExhausted) {
			t.Fatalf("algo %s: Next after EOF = %v, want ErrStreamExhausted", algo, err)
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("algo %s: Close: %v", algo, err)
		}
		if _, err := rs.Next(); !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("algo %s: Next after Close = %v, want ErrStreamClosed", algo, err)
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("algo %s: second Close: %v", algo, err)
		}
	}
	assertViewsReleased(t, c)
}

// TestStreamBudgetExceeded forces a multi-step query's frontier over a
// tiny budget and checks the structured failure plus view release.
func TestStreamBudgetExceeded(t *testing.T) {
	c := buildStreamCollection(t, 17)
	rs, err := c.QueryStream("a//b//c", StreamOpt{NoCache: true, BudgetBytes: matchBytes * 2})
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	for serr == nil {
		_, serr = rs.Next()
	}
	if serr == io.EOF {
		t.Fatal("budgeted stream completed; budget never charged")
	}
	if !errors.Is(serr, ErrStreamBudget) {
		t.Fatalf("stream error = %v, want ErrStreamBudget", serr)
	}
	var be *stream.BudgetError
	if !errors.As(serr, &be) || be.Limit != matchBytes*2 {
		t.Fatalf("budget error detail: %+v", be)
	}
	rs.Close()
	assertViewsReleased(t, c)
}

// TestStreamCancelReleasesView cancels a stream mid-drain and asserts
// the error and that Close returns the pinned view.
func TestStreamCancelReleasesView(t *testing.T) {
	c := buildStreamCollection(t, 19)
	ctx, cancel := context.WithCancel(context.Background())
	rs, err := c.QueryStream("a//b", StreamOpt{NoCache: true, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	var serr error
	for serr == nil {
		_, serr = rs.Next()
	}
	if serr != io.EOF && !errors.Is(serr, context.Canceled) {
		t.Fatalf("after cancel: %v", serr)
	}
	rs.Close()
	assertViewsReleased(t, c)
}

// TestStreamLimitBoundsProduction is the early-termination property:
// Limit=1 against a document with tens of thousands of matches must
// leave production bounded by the batch window, not the result size.
func TestStreamLimitBoundsProduction(t *testing.T) {
	c := NewCollection(LD)
	c.EnablePlanner(NewQueryPlanner(1 << 20))
	// One flat document with many <b/> under one <a>: a//b yields n
	// matches.
	const n = 20000
	doc := make([]byte, 0, 16*n)
	doc = append(doc, "<root><a>"...)
	for i := 0; i < n; i++ {
		doc = append(doc, "<b/>"...)
	}
	doc = append(doc, "</a></root>"...)
	if err := c.Put("big", doc); err != nil {
		t.Fatal(err)
	}
	rs, err := c.QueryStream("a//b", StreamOpt{NoCache: true, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, rs)
	if len(got) != 1 {
		t.Fatalf("limit=1 delivered %d matches", len(got))
	}
	rs.Close()
	// The producer runs at most a few batch windows ahead of the single
	// delivered match before cancellation lands; the full 20k-match
	// result must never have been generated.
	if p := rs.Produced(); p > 2048 {
		t.Fatalf("limit=1 produced %d matches; early termination is not bounding work", p)
	}
	assertViewsReleased(t, c)
}

// TestStreamCacheTee checks result-cache composition: a small streamed
// result admits to the cache on clean exhaustion (the next stream is a
// hit and pins no view), a limit-truncated stream never admits, and an
// over-cap result bypasses admission.
func TestStreamCacheTee(t *testing.T) {
	c := buildStreamCollection(t, 23)
	qp := NewQueryPlanner(1 << 20)
	c.EnablePlanner(qp)
	const path = "a//b"

	// Truncated: must not admit.
	rs, err := c.QueryStream(path, StreamOpt{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, rs); len(got) != 1 {
		t.Fatalf("limit drain: %d", len(got))
	}
	rs.Close()
	if st := qp.Stats().Cache; st.Puts != 0 {
		t.Fatalf("truncated stream admitted to cache: %+v", st)
	}

	// Clean exhaustion: admits; the repeat run is a cache hit.
	rs, err = c.QueryStream(path, StreamOpt{})
	if err != nil {
		t.Fatal(err)
	}
	want := matchList(drainStream(t, rs))
	rs.Close()
	if st := qp.Stats().Cache; st.Puts != 1 {
		t.Fatalf("clean stream did not admit: %+v", st)
	}
	rs, err = c.QueryStream(path, StreamOpt{})
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, rs)
	if !rs.Plans()[0].Cached {
		t.Fatal("repeat stream not served from cache")
	}
	if rs.Produced() != 0 {
		t.Fatalf("cache hit produced %d matches", rs.Produced())
	}
	diffLists(t, "cache hit", want, matchList(got))
	rs.Close()

	// Over the admission cap: streams fine, never admits.
	tiny := NewQueryPlanner(matchBytes * 16) // cap = 2 matches' worth
	c.EnablePlanner(tiny)
	rs, err = c.QueryStream(path, StreamOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, rs); len(got) < 3 {
		t.Fatalf("result too small (%d) to exercise the cap", len(got))
	}
	rs.Close()
	if st := tiny.Stats().Cache; st.Puts != 0 {
		t.Fatalf("over-cap stream admitted: %+v", st)
	}
	assertViewsReleased(t, c)
}

// TestStreamSharded checks the sharded merge: per-shard pipelines over
// the consistent cut concatenate in shard order — every shard's slice
// equal to the fresh-parse reference over that shard's documents, the
// streamed order equal to the drained Query order equal to the
// per-shard concatenation — with the limit applied across the merge and
// a shard index on every plan.
func TestStreamSharded(t *testing.T) {
	sc := NewShardedCollection(3, LD)
	sc.EnablePlanner(NewQueryPlanner(1 << 20))
	for d := 0; d < 12; d++ {
		text := xmlgen.Synthetic(xmlgen.SyntheticConfig{Seed: int64(500 + d), Elements: 60})
		if err := sc.Put(fmt.Sprintf("doc-%d", d), text); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"a//b", "b//c", "a"} {
		// Per-shard references and the per-shard concatenation.
		var refs []map[[4]int]bool
		var concat []Match
		for i := 0; i < sc.ShardCount(); i++ {
			sh := sc.shardAt(i)
			ref := bruteDocs(t, sc, sh.Names(), path)
			ms, err := sh.db.Query(path)
			if err != nil {
				t.Fatal(err)
			}
			diffBrute(t, fmt.Sprintf("shard %d %s", i, path), ref, ms)
			refs = append(refs, ref)
			concat = append(concat, ms...)
		}
		drained, err := sc.Query(path)
		if err != nil {
			t.Fatal(err)
		}
		diffLists(t, "sharded Query "+path, matchList(concat), matchList(drained))
		rs, err := sc.QueryStream(path, StreamOpt{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		diffLists(t, "sharded stream "+path, matchList(drained), matchList(drainStream(t, rs)))
		rs.Close()

		want, pls := drainPlanned(t, sc, "", path, StreamOpt{NoCache: true})
		if len(pls) != 3 {
			t.Fatalf("%s: %d plans, want one per shard", path, len(pls))
		}
		for i, pl := range pls {
			if pl.Shard != i {
				t.Fatalf("%s: plan %d has shard %d", path, i, pl.Shard)
			}
		}
		// The planned stream arrives in shard order: cut it at the
		// references' sizes and check every shard's slice.
		if len(want) != len(concat) {
			t.Fatalf("sharded planned %s: %d matches, want %d", path, len(want), len(concat))
		}
		rest := want
		for i, ref := range refs {
			diffBrute(t, fmt.Sprintf("sharded planned %s shard %d", path, i), ref, rest[:len(ref)])
			rest = rest[len(ref):]
		}

		// Limit across the merge.
		if len(want) > 2 {
			got, _ := drainPlanned(t, sc, "", path, StreamOpt{NoCache: true, Limit: 2})
			diffLists(t, "sharded limit "+path, matchList(want[:2]), matchList(got))
		}
	}
	// Doc-scoped routing.
	name := sc.Names()[0]
	got, pls := drainPlanned(t, sc, name, "a//b", StreamOpt{NoCache: true})
	if pls[0].Shard != sc.ShardOf(name) {
		t.Fatalf("doc plan shard %d, want %d", pls[0].Shard, sc.ShardOf(name))
	}
	diffBrute(t, "sharded doc", bruteDocs(t, sc, []string{name}, "a//b"), got)
	if _, err := sc.QueryDocStream("no-such", "a", StreamOpt{}); err == nil {
		t.Fatal("unknown doc accepted")
	}
	assertViewsReleased(t, sc)
}

// TestStreamSharedBudgetAcrossShards: one budget spans the whole
// fan-out, so N shards cannot multiply the per-query limit.
func TestStreamSharedBudgetAcrossShards(t *testing.T) {
	sc := NewShardedCollection(3, LD)
	sc.EnablePlanner(NewQueryPlanner(1 << 20))
	for d := 0; d < 9; d++ {
		text := xmlgen.Synthetic(xmlgen.SyntheticConfig{Seed: int64(700 + d), Elements: 120})
		if err := sc.Put(fmt.Sprintf("doc-%d", d), text); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := sc.QueryStream("a//b//c", StreamOpt{NoCache: true, BudgetBytes: matchBytes * 2})
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	for serr == nil {
		_, serr = rs.Next()
	}
	if !errors.Is(serr, ErrStreamBudget) {
		t.Fatalf("sharded budget error = %v, want ErrStreamBudget", serr)
	}
	rs.Close()
	assertViewsReleased(t, sc)
}

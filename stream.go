package lazyxml

// Path execution (DESIGN.md §13). There is one path executor —
// streamRun/runStepPipeline, push form, one emit per match, against an
// MVCC view pinned by the caller — and one opener in front of it,
// DB.openQuery. Its two consumers differ only in who drives emit:
//
//   - pull: a ResultStream wraps the producer in a stream.Generator, so
//     a server delivers rows at the client's pace against a view pinned
//     for the stream's whole lifetime and released on Close;
//   - push: Query, Count, QueryDoc, CountDoc and the DocView /
//     CollectionView forms drain the same producer inline on the
//     caller's goroutine — Query appends, Count increments an int.
//
// Execution shape: the first join streams through core.View.QueryEmit
// (for Lazy-Join not even the global element lists are materialized);
// a multi-step path buffers only the deduplicated descendant frontier
// between steps — bounded by the number of *distinct* elements, not
// result pairs — and the final step streams again. PathStack and
// LazyParallel are buffering operators: their results materialize
// inside the producer, charged against the budget, then stream out.
//
// The per-query Budget covers exactly those materialization points
// (frontiers, buffering operators, the cache tee); the constant-size
// batch window between producer and consumer is free. Overflow fails
// the stream fast with a structured error matching
// ErrStreamBudget via errors.Is.
//
// Cache composition: a planned stream consults the generation-keyed
// result cache before it plans — a hit serves the cached slice and
// releases the view immediately; a miss plans, then tees matches aside
// until the cache's per-entry admission cap and admits only on clean
// exhaustion (a stream cut short by limit, budget or cancellation never
// poisons the cache with a partial result).

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/plan"
	"repro/internal/stream"
)

// Streaming sentinels, re-exported so callers need not import
// internal/stream to classify failures.
var (
	// ErrStreamBudget matches (errors.Is) the failure of a stream whose
	// buffered state exceeded StreamOpt.BudgetBytes.
	ErrStreamBudget = stream.ErrBudgetExceeded
	// ErrStreamExhausted is returned by Next after the stream already
	// delivered its terminal io.EOF — re-consuming a one-shot stream is
	// a bug, reported loudly rather than as a silent empty result.
	ErrStreamExhausted = stream.ErrExhausted
	// ErrStreamClosed is returned by Next after Close.
	ErrStreamClosed = stream.ErrClosed
)

// StreamOpt controls one streaming query.
type StreamOpt struct {
	// Planned selects the cost-based executor (with result-cache
	// composition); false streams with Lazy-Join.
	Planned bool
	// Force pins the planned algorithm (the ?algo= override); PlanAuto
	// lets the cost model pick. Only meaningful with Planned.
	Force PlanAlgo
	// NoCache bypasses the result cache (both lookup and admission).
	NoCache bool
	// Limit stops the stream after this many matches (true early
	// termination: upstream operators stop being driven); <= 0 is
	// unlimited.
	Limit int
	// BudgetBytes caps the query's buffered state (dedup frontiers,
	// buffering operators, cache tee); <= 0 is unlimited.
	BudgetBytes int64
	// Ctx cancels the stream between pulls; nil means background.
	Ctx context.Context

	// budget, when non-nil, shares one accounting across a sharded
	// fan-out (set internally; wins over BudgetBytes).
	budget *stream.Budget
}

// effectiveBudget returns the shared budget if one was injected, else a
// fresh one from BudgetBytes.
func (o StreamOpt) effectiveBudget() *stream.Budget {
	if o.budget != nil {
		return o.budget
	}
	return stream.NewBudget(o.BudgetBytes)
}

// ResultStream is a single-consumer stream of matches. Next returns
// io.EOF at clean exhaustion; Close must be called exactly once (it
// releases the pinned MVCC views and stops the producer). Not safe for
// concurrent use.
type ResultStream struct {
	it       stream.Iterator
	plans    []PlanInfo
	releases []func()
	produced []*atomic.Int64 // one counter per shard pipeline
	closeOne sync.Once
	closeErr error
}

// Next returns the next match; io.EOF at exhaustion, ErrStreamExhausted
// on re-use past it, ErrStreamClosed after Close, a budget or context
// error when the pipeline was killed.
func (rs *ResultStream) Next() (Match, error) { return rs.it.Next() }

// Close stops the producer and releases the pinned views. Idempotent.
func (rs *ResultStream) Close() error {
	rs.closeOne.Do(func() {
		rs.closeErr = rs.it.Close()
		for _, rel := range rs.releases {
			rel()
		}
	})
	return rs.closeErr
}

// Plans returns the explainable plan per shard the stream executes (one
// entry for a single-store backend), known at open time.
func (rs *ResultStream) Plans() []PlanInfo { return rs.plans }

// Produced returns how many matches the execution pipelines emitted so
// far (summed across shards) — the bounded-work observable: with an
// early-terminated stream it stays near the delivered count (plus one
// batch window per running producer) instead of the full result size. A
// cache hit produces nothing and reports 0.
func (rs *ResultStream) Produced() int64 {
	var total int64
	for _, c := range rs.produced {
		total += c.Load()
	}
	return total
}

// frontierCheckEvery is how often (in processed pairs) the internal
// frontier collectors poll for cancellation.
const frontierCheckEvery = 1024

// QueryStream opens a streaming whole-collection query.
func (c *Collection) QueryStream(path string, opt StreamOpt) (*ResultStream, error) {
	return c.openStream("", path, opt)
}

// QueryDocStream opens a streaming query scoped to one named document.
func (c *Collection) QueryDocStream(name, path string, opt StreamOpt) (*ResultStream, error) {
	return c.openStream(name, path, opt)
}

// openStream is the pull consumer of openQuery: pin the scope, open the
// query, and on a cache miss wire the producer through a Generator, the
// cache tee and the limit — in that order, so the tee sees the complete
// result and the limit cuts below nothing it shouldn't.
func (c *Collection) openStream(doc, path string, opt StreamOpt) (*ResultStream, error) {
	sc, err := c.pin(doc)
	if err != nil {
		return nil, err
	}
	q, err := c.db.openQuery(sc, path, opt, c.qp.Load())
	if err != nil {
		sc.v.Release()
		return nil, err
	}
	produced := new(atomic.Int64)
	rs := &ResultStream{plans: q.plans, produced: []*atomic.Int64{produced}}
	if q.run == nil {
		sc.v.Release()
		rs.it = stream.Limited(stream.FromMatches(q.hit), opt.Limit)
		return rs, nil
	}
	var it stream.Iterator = stream.NewGenerator(opt.Ctx, func(ctx context.Context, emit func(Match) bool) error {
		return q.run(ctx, func(m Match) bool {
			produced.Add(1)
			return emit(m)
		})
	})
	if q.cache != nil {
		it = newCacheTee(it, q.cache, q.key, q.plans[0])
	}
	rs.it = stream.Limited(it, opt.Limit)
	rs.releases = []func(){sc.v.Release}
	return rs, nil
}

// scope is what one store's query runs over: a view the caller pinned
// and, for a document-scoped query, the document's name and its span in
// that view.
type scope struct {
	v      *core.View
	doc    string // "" = the whole store
	lo, hi int
}

// pin acquires the scope of a query on one named document, or on the
// whole collection for doc == "". The caller releases sc.v.
func (c *Collection) pin(doc string) (scope, error) {
	if doc == "" {
		return scope{v: c.db.store.AcquireView()}, nil
	}
	dv, err := c.View(doc)
	if err != nil {
		return scope{}, err
	}
	return dv.scope, nil
}

// pathQuery is one store's opened query. run is the producer over the
// pinned view — it emits exactly the matches in scope, in result order
// — or nil on a result-cache hit, when hit holds the cached result.
// plans is nil for an unplanned query; cache is non-nil when a cleanly
// exhausted result should be admitted under key.
type pathQuery struct {
	run   func(ctx context.Context, emit func(Match) bool) error
	hit   []Match
	plans []PlanInfo
	cache *plan.Cache
	key   plan.Key
}

// openQuery is the one way a path query starts. The path is parsed once.
// A planned query then looks its result up under the exact (store id,
// generation) pair of the pinned view — the ordering the staleness
// argument in plan.go depends on — and only on a miss plans from the
// collector's statistics, so a plan is made, and a cost-based pick
// counted, only when it is executed. Statistics may be one generation
// fresher than the view (the collector reads the head); they only steer
// the cost model, never the results. An unplanned query runs Lazy-Join
// and never meets the cache. Either way the producer is streamRun with
// the document-span filter, if any, as a closure: a match is inside the
// document iff its descendant is.
func (db *DB) openQuery(sc scope, path string, opt StreamOpt, qp *QueryPlanner) (pathQuery, error) {
	p, err := ParsePath(path)
	if err != nil {
		return pathQuery{}, err
	}
	var q pathQuery
	var pl PlanInfo
	workers := 0
	if opt.Planned {
		if qp != nil && !opt.NoCache {
			q.cache = qp.cache
			q.key = plan.Key{Gen: PlanGen{Store: sc.v.StoreID(), Gen: sc.v.Generation()}, Doc: sc.doc, Path: path, Algo: opt.Force}
			if v, cpl, ok := q.cache.Get(q.key); ok {
				q.hit, q.plans = v.([]Match), []PlanInfo{cpl}
				return q, nil
			}
		}
		pq := planQuery(p)
		pv := db.planc.View(pq.Tags())
		pl = plan.Forced(pq, opt.Force, pv)
		workers = pv.Workers
		q.plans = []PlanInfo{pl}
		if qp != nil && !pl.Forced {
			qp.picks.Count(pl.Algo)
		}
	}
	q.run = streamRun(sc.v, p, pl, workers, opt.effectiveBudget())
	if sc.doc != "" {
		whole := q.run
		q.run = func(ctx context.Context, emit func(Match) bool) error {
			return whole(ctx, func(m Match) bool {
				return m.DescStart < sc.lo || m.DescEnd > sc.hi || emit(m)
			})
		}
	}
	return q, nil
}

// drain is the push consumer of openQuery: the unplanned query over sc,
// run inline on the caller's goroutine, one emit per match.
func (db *DB) drain(sc scope, path string, emit func(Match) bool) error {
	q, err := db.openQuery(sc, path, StreamOpt{}, nil)
	if err != nil {
		return err
	}
	return q.run(context.Background(), emit)
}

// collect drains the query over sc into a slice.
func (db *DB) collect(sc scope, path string) ([]Match, error) {
	return collectMatches(func(emit func(Match) bool) error { return db.drain(sc, path, emit) })
}

// count drains the query over sc into a counter; no match is retained.
func (db *DB) count(sc scope, path string) (int, error) {
	return countMatches(func(emit func(Match) bool) error { return db.drain(sc, path, emit) })
}

// collectMatches runs a drain to completion and returns what it emitted.
func collectMatches(drain func(emit func(Match) bool) error) ([]Match, error) {
	var out []Match
	err := drain(func(m Match) bool {
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// countMatches runs a drain to completion and returns how many matches
// it emitted.
func countMatches(drain func(emit func(Match) bool) error) (int, error) {
	n := 0
	err := drain(func(Match) bool {
		n++
		return true
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// streamRun builds the producer for one store's path execution — the
// one path executor. pl is the plan to run, or the zero PlanInfo for an
// unplanned query, whose first join runs Lazy-Join. The returned function
// runs wherever its consumer calls it: inside a Generator's goroutine
// (emit batches, ships and observes cancellation) or inline under drain.
func streamRun(eng *core.View, p Path, pl PlanInfo, workers int, bud *stream.Budget) func(ctx context.Context, emit func(Match) bool) error {
	return func(ctx context.Context, emit func(Match) bool) error {
		if len(p.Steps) == 0 {
			// Scan: one tag list, no join.
			for _, n := range eng.GlobalElements(p.First) {
				if !emit(Match{Desc: n.Ref, DescStart: n.Start, DescEnd: n.End}) {
					return nil
				}
			}
			return nil
		}
		if pl.Algo == plan.PathStack {
			// Holistic twig: inherently materialized; charge it.
			tuples, err := queryTwigOn(eng, p)
			if err != nil {
				return err
			}
			charge := int64(len(tuples)+1) * matchBytes
			if err := bud.Charge(charge); err != nil {
				return err
			}
			defer bud.Release(charge)
			for _, m := range tuplesToMatches(tuples) {
				if !emit(m) {
					return nil
				}
			}
			return nil
		}

		// firstJoin streams the first binary join's matches to a sink.
		firstJoin := func(sink func(Match) bool) error {
			if pl.Algo == plan.LazyParallel {
				// Parallel Lazy-Join materializes per-worker results by
				// construction; charge the buffer, then stream it out.
				ms, err := eng.QueryParallel(p.First, p.Steps[0].Tag, p.Steps[0].Axis, workers)
				if err != nil {
					return err
				}
				charge := int64(len(ms)+1) * matchBytes
				if err := bud.Charge(charge); err != nil {
					return err
				}
				defer bud.Release(charge)
				for _, m := range ms {
					if !sink(m) {
						return nil
					}
				}
				return nil
			}
			first := LazyJoin // plan.Lazy, and plan.Auto: the unplanned query
			switch pl.Algo {
			case plan.STD:
				first = STD
			case plan.Skip:
				first = SkipSTD
			}
			return eng.QueryEmit(p.First, p.Steps[0].Tag, p.Steps[0].Axis, first, sink)
		}

		if len(p.Steps) == 1 {
			return firstJoin(emit)
		}
		return runStepPipeline(ctx, eng, firstJoin, p.Steps[1:], bud, emit)
	}
}

// runStepPipeline runs the later steps of a path over the first join's
// matches: each step joins the deduplicated descendant frontier against
// the next tag's global element list with Stack-Tree-Desc. Between
// steps only that frontier is buffered (charged to the budget), and the
// final step streams its pairs straight to emit. A pair's global
// positions come from where the join found them: the ancestor's from
// the frontier, the descendant's from a cursor over dlist, which
// Stack-Tree-Desc walks in order (its output is descendant-major).
func runStepPipeline(ctx context.Context, eng *core.View, firstJoin func(func(Match) bool) error, steps []PathStep, bud *stream.Budget, emit func(Match) bool) error {
	// Collect the first join into the initial frontier.
	frontier := map[join.ElemRef]Match{}
	var herr error
	seen := 0
	err := firstJoin(func(m Match) bool {
		seen++
		if seen%frontierCheckEvery == 0 && ctx.Err() != nil {
			return false
		}
		if _, ok := frontier[m.Desc]; !ok {
			if cerr := bud.Charge(matchBytes); cerr != nil {
				herr = cerr
				return false
			}
			frontier[m.Desc] = m
		}
		return true
	})
	if err != nil {
		return err
	}
	if herr != nil {
		return herr
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	charged := int64(len(frontier)) * matchBytes
	defer func() { bud.Release(charged) }()

	// Middle steps: frontier × next tag → next frontier.
	for _, step := range steps[:len(steps)-1] {
		nodes := frontierNodes(frontier)
		dlist := eng.GlobalElements(step.Tag)
		next := map[join.ElemRef]Match{}
		seen, di := 0, 0
		join.StackTreeDescEmit(nodes, dlist, step.Axis, func(pr join.Pair) bool {
			seen++
			if seen%frontierCheckEvery == 0 && ctx.Err() != nil {
				return false
			}
			if _, ok := next[pr.Desc]; !ok {
				if cerr := bud.Charge(matchBytes); cerr != nil {
					herr = cerr
					return false
				}
				for dlist[di].Ref != pr.Desc {
					di++
				}
				next[pr.Desc] = Match{Anc: pr.Anc, Desc: pr.Desc, DescStart: dlist[di].Start, DescEnd: dlist[di].End}
			}
			return true
		})
		if herr != nil {
			return herr
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		bud.Release(charged)
		frontier = next
		charged = int64(len(frontier)) * matchBytes
	}

	// Final step: stream pairs out with their globals.
	step := steps[len(steps)-1]
	dlist := eng.GlobalElements(step.Tag)
	di := 0
	join.StackTreeDescEmit(frontierNodes(frontier), dlist, step.Axis, func(pr join.Pair) bool {
		for dlist[di].Ref != pr.Desc {
			di++
		}
		a, d := frontier[pr.Anc], dlist[di]
		return emit(Match{
			Anc: pr.Anc, Desc: pr.Desc,
			AncStart: a.DescStart, AncEnd: a.DescEnd,
			DescStart: d.Start, DescEnd: d.End,
		})
	})
	return nil
}

// frontierNodes turns a deduplicated frontier into the sorted node list
// the next join consumes.
func frontierNodes(frontier map[join.ElemRef]Match) []join.Node {
	nodes := make([]join.Node, 0, len(frontier))
	for ref, m := range frontier {
		nodes = append(nodes, join.Node{Start: m.DescStart, End: m.DescEnd, Level: ref.Level, Ref: ref})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Start < nodes[j].Start })
	return nodes
}

// cacheTee accumulates streamed matches up to the cache's per-entry
// admission cap and admits the complete result on clean exhaustion.
// Truncated, budget-killed or cancelled streams never admit — the
// cache only ever holds results a materialized query would have
// produced.
type cacheTee struct {
	it       stream.Iterator
	cache    *plan.Cache
	key      plan.Key
	pl       PlanInfo
	acc      []Match
	capLeft  int64
	overflow bool
	admitted bool
}

func newCacheTee(it stream.Iterator, cache *plan.Cache, key plan.Key, pl PlanInfo) *cacheTee {
	capBytes := cache.AdmissionCap()
	return &cacheTee{it: it, cache: cache, key: key, pl: pl, capLeft: capBytes - matchBytes}
}

func (t *cacheTee) Next() (Match, error) {
	m, err := t.it.Next()
	if err == nil {
		if !t.overflow {
			t.capLeft -= matchBytes
			if t.capLeft < 0 {
				t.overflow = true
				t.acc = nil
			} else {
				t.acc = append(t.acc, m)
			}
		}
		return m, nil
	}
	if err == io.EOF && !t.overflow && !t.admitted {
		t.admitted = true
		ms := t.acc
		if ms == nil {
			ms = []Match{}
		}
		t.cache.Put(t.key, ms, int64(len(ms)+1)*matchBytes, t.pl)
		t.acc = nil
	}
	return Match{}, err
}

func (t *cacheTee) Close() error { return t.it.Close() }

func (t *cacheTee) Start() {
	if s, ok := t.it.(stream.Starter); ok {
		s.Start()
	}
}

// QueryStream fans a streaming query out across shards: every shard's
// pipeline is opened up-front — pinning one view per shard in shard
// order, the same consistent cut ViewAll takes — and their iterators
// chain in shard order with at most the backend's fan-out bound of
// producers running ahead. One budget spans all shards.
func (sc *ShardedCollection) QueryStream(path string, opt StreamOpt) (*ResultStream, error) {
	sc.mu.RLock()
	shards := make([]Backend, len(sc.shards))
	copy(shards, sc.shards)
	fanout := sc.fanout
	sc.mu.RUnlock()

	if opt.budget == nil {
		opt.budget = stream.NewBudget(opt.BudgetBytes)
	}
	shardOpt := opt
	shardOpt.Limit = 0 // the limit cuts the merged stream, not one shard's

	out := &ResultStream{}
	subs := make([]*ResultStream, 0, len(shards))
	its := make([]stream.Iterator, 0, len(shards))
	for i, sh := range shards {
		rs, err := sh.QueryStream(path, shardOpt)
		if err != nil {
			for _, sub := range subs {
				sub.Close()
			}
			return nil, err
		}
		for k := range rs.plans {
			rs.plans[k].Shard = i
		}
		subs = append(subs, rs)
		out.plans = append(out.plans, rs.plans...)
		out.releases = append(out.releases, rs.releases...)
		out.produced = append(out.produced, rs.produced...)
		its = append(its, rs.it)
	}
	out.it = stream.Limited(stream.Concat(its, fanout), opt.Limit)
	return out, nil
}

// QueryDocStream routes the streaming document-scoped query to the
// document's shard.
func (sc *ShardedCollection) QueryDocStream(name, path string, opt StreamOpt) (*ResultStream, error) {
	si := sc.hashShard(name)
	rs, err := sc.shardAt(si).QueryDocStream(name, path, opt)
	if err != nil {
		return nil, err
	}
	for k := range rs.plans {
		rs.plans[k].Shard = si
	}
	return rs, nil
}

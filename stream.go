package lazyxml

// Path execution (DESIGN.md §13). There is one path executor —
// streamRun/runStepPipeline, push form, one emit per match, against an
// MVCC view pinned by the caller — and one opener in front of it,
// DB.openQuery. Its two consumers differ only in who drives emit:
//
//   - pull: a ResultStream wraps the producer in a stream.Generator, so
//     a server delivers rows at the client's pace against a view pinned
//     for the stream's whole lifetime and released on Close;
//   - push: DB.Query, DB.Count and the DocView / CollectionView forms
//     (so QueryDoc and CountDoc) drain the same producer inline on the
//     caller's goroutine — Query appends, Count increments an int.
//
// Execution shape: the first join of every binary-join plan streams
// through core.View.QueryEmit (Lazy-Join segment by segment, without
// materializing even the global element lists), so a limit stops it
// early; a multi-step path buffers only the deduplicated descendant
// frontier between steps — bounded by the number of *distinct*
// elements, not result pairs — and the final step streams again.
// PathStack is the one buffering operator: its tuples materialize
// inside the producer, charged against the budget, then stream out.
//
// Rows leave the producer in batches, and every operator above it —
// the cache tee, the limit, the shard merge — passes a batch on whole:
// a batch is never written again once handed out, so sharing it costs
// nothing and a row is copied only where a consumer asks for a slice of
// its own (Query drains into one).
//
// The per-query Budget covers exactly those materialization points
// (frontiers, PathStack's tuples); the constant-size batch window
// between producer and consumer is free, and so is the cache tee, which
// holds references to batches already made and which the cache's
// per-entry admission cap bounds instead. Overflow fails
// the stream fast with a structured error matching
// ErrStreamBudget via errors.Is.
//
// Every query is planned: the cost model picks the first join unless
// StreamOpt.Force pins it. Cache composition: a stream over a shard
// with a planner attached consults the generation-keyed result cache
// before it plans — a hit serves the cached slice as batches and
// releases the view immediately; a miss plans, then keeps the batches
// it streams until their rows pass the cache's per-entry admission cap
// and admits their concatenation only on clean exhaustion (a stream
// cut short by limit, budget or cancellation never poisons the cache
// with a partial result). Push drains plan too but meet no cache.

import (
	"cmp"
	"context"
	"io"
	"slices"
	"sync"

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
	// Planned is ignored: every query is planned. The field stays only
	// because benchmark/ sets it; the next benchmark change removes it.
	Planned bool
	// Force pins the algorithm (the ?algo= override); PlanAuto lets the
	// cost model pick.
	Force PlanAlgo
	// NoCache bypasses the result cache (both lookup and admission).
	NoCache bool
	// Limit stops the stream after this many matches (true early
	// termination: upstream operators stop being driven); <= 0 is
	// unlimited.
	Limit int
	// BudgetBytes caps the query's buffered state (dedup frontiers,
	// PathStack's tuples; the cache tee is bounded by the cache's
	// admission cap instead); <= 0 is unlimited.
	BudgetBytes int64
	// Ctx cancels the stream between pulls; nil means background.
	Ctx context.Context

	// budget, when non-nil, shares one accounting across a sharded
	// fan-out (set internally; wins over BudgetBytes).
	budget *stream.Budget
}

// streamBudget returns the shared budget if one was injected, else a
// fresh one from BudgetBytes.
func (o StreamOpt) streamBudget() *stream.Budget {
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
	batch    []Match // Next's cursor: the rest of the current batch
	plans    []PlanInfo
	releases []func()
	gens     []*stream.Generator // one per shard pipeline on a cache miss
	closeOne sync.Once
	closeErr error
}

// Next returns the next match; io.EOF at exhaustion, ErrStreamExhausted
// on re-use past it, ErrStreamClosed after Close, a budget or context
// error when the pipeline was killed.
func (rs *ResultStream) Next() (Match, error) {
	if len(rs.batch) == 0 {
		b, err := rs.it.Next()
		if err != nil {
			return Match{}, err
		}
		rs.batch = b
	}
	m := rs.batch[0]
	rs.batch = rs.batch[1:]
	return m, nil
}

// NextBatch returns the next non-empty run of matches (what Next has
// not yet returned of the current one first), with Next's errors. The
// batch is read-only: it may be shared with the producer's other
// consumers or with the result cache. It is never reused, so the caller
// may keep it.
func (rs *ResultStream) NextBatch() ([]Match, error) {
	if b := rs.batch; len(b) > 0 {
		rs.batch = nil
		return b, nil
	}
	return rs.it.Next()
}

// Close stops the producer and releases the pinned views. Idempotent.
func (rs *ResultStream) Close() error {
	rs.closeOne.Do(func() {
		rs.batch = nil
		rs.closeErr = rs.it.Close()
		for _, rel := range rs.releases {
			rel()
		}
	})
	return rs.closeErr
}

// Plans returns the explainable plan per shard the stream executes (one
// entry for a single-shard store), known at open time.
func (rs *ResultStream) Plans() []PlanInfo { return rs.plans }

// Produced returns how many matches the execution pipelines emitted so
// far (summed across shards) — the bounded-work observable: a limited
// stream's producers stop at the limit, so a one-shard stream produces
// at most the limit, and a sharded one at most the limit per shard
// started, instead of the full result size. A cache hit produces
// nothing and reports 0.
func (rs *ResultStream) Produced() int64 {
	var total int64
	for _, g := range rs.gens {
		total += g.Produced()
	}
	return total
}

// frontierCheckEvery is how often (in processed pairs) the internal
// frontier collectors poll for cancellation.
const frontierCheckEvery = 1024

// openStream is the pull consumer of openQuery: pin the scope, open the
// query, and on a cache miss wire the producer through a Generator, the
// cache tee and the limit — in that order, so the tee sees the complete
// result and the limit cuts below nothing it shouldn't.
func (sh *shard) openStream(doc, path string, opt StreamOpt) (*ResultStream, error) {
	sc, err := sh.pin(doc)
	if err != nil {
		return nil, err
	}
	q, err := sh.db.openQuery(sc, path, opt, sh.qp.Load())
	if err != nil {
		sc.v.Release()
		return nil, err
	}
	rs := &ResultStream{plans: q.plans}
	if q.run == nil {
		sc.v.Release()
		rs.it = stream.Limited(stream.FromMatches(q.hit), opt.Limit)
		return rs, nil
	}
	gen := stream.NewGenerator(opt.Ctx, q.run)
	// The limit caps the producer too, so a first page costs the page,
	// not a batch window. A capped stop ends in ErrCapped, which the tee
	// never admits; the Limited below stops before pulling it.
	gen.StopAfter(opt.Limit)
	var it stream.Iterator = gen
	if q.cache != nil {
		it = newCacheTee(it, q.cache, q.key, q.plans[0])
	}
	rs.it = stream.Limited(it, opt.Limit)
	rs.releases = []func(){sc.v.Release}
	rs.gens = []*stream.Generator{gen}
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
// whole store for doc == "". The caller releases sc.v.
func (sh *shard) pin(doc string) (scope, error) {
	if doc == "" {
		return scope{v: sh.db.store.AcquireView()}, nil
	}
	dv, err := sh.View(doc)
	if err != nil {
		return scope{}, err
	}
	return dv.scope, nil
}

// pathQuery is one store's opened query. run is the producer over the
// pinned view — it emits exactly the matches in scope, in result order
// — or nil on a result-cache hit, when hit holds the cached result.
// cache is non-nil when a cleanly exhausted result should be admitted
// under key.
type pathQuery struct {
	run   func(ctx context.Context, emit func(Match) bool) error
	hit   []Match
	plans []PlanInfo
	cache *plan.Cache
	key   plan.Key
}

// openQuery is the one way a path query starts. The path is parsed once.
// With a planner attached (and the cache not bypassed) the query looks
// its result up under the exact (store id, generation) pair of the
// pinned view — the ordering the staleness argument in plan.go depends
// on — and only on a miss plans, so a plan is made, and a cost-based
// pick counted, only when it is executed. The plan's statistics are the
// pinned view's own, so plan, explain output, cache key and results all
// share one generation. openQuery reads nothing but sc.v.
// The producer is streamRun with the document-span filter, if any, as a
// closure: a match is inside the document iff its descendant is.
func (db *DB) openQuery(sc scope, path string, opt StreamOpt, qp *QueryPlanner) (pathQuery, error) {
	p, err := ParsePath(path)
	if err != nil {
		return pathQuery{}, err
	}
	var q pathQuery
	if qp != nil && !opt.NoCache {
		q.cache = qp.cache
		q.key = plan.Key{Gen: PlanGen{Store: sc.v.StoreID(), Gen: sc.v.Generation()}, Doc: sc.doc, Path: path, Algo: opt.Force}
		if v, cpl, ok := q.cache.Get(q.key); ok {
			q.hit, q.plans = v.([]Match), []PlanInfo{cpl}
			return q, nil
		}
	}
	pq := planQuery(p)
	pv := plan.ViewOf(sc.v, sc.v.NumNames(), pq.Tags())
	pl := plan.Forced(pq, opt.Force, pv)
	q.plans = []PlanInfo{pl}
	if qp != nil && !pl.Forced {
		qp.picks.Count(pl.Algo)
	}
	q.run = streamRun(sc.v, p, pl, opt.streamBudget())
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

// drain is the push consumer of openQuery: the query over sc, planned
// from the DB's statistics and run inline on the caller's goroutine, one
// emit per match. It meets no result cache: only the pull path admits.
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
// one path executor. pl is the plan to run. The returned function
// runs wherever its consumer calls it: inside a Generator's goroutine
// (emit batches, ships and observes cancellation) or inline under drain.
func streamRun(eng *core.View, p Path, pl PlanInfo, bud *stream.Budget) func(ctx context.Context, emit func(Match) bool) error {
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
			// A failed charge takes itself back: nothing to release.
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
			first := LazyJoin // plan.Lazy
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
// final step streams its matches straight to emit. A match carries the
// global positions of the Nodes it joined: the ancestor's from the
// frontier, the descendant's from the tag's global element list.
// Whatever the frontiers hold charged, the complete ones and a step's
// partial next, is released on every return.
func runStepPipeline(ctx context.Context, eng *core.View, firstJoin func(func(Match) bool) error, steps []PathStep, bud *stream.Budget, emit func(Match) bool) error {
	var held int64
	defer func() { bud.Release(held) }()
	// collect drains one join into a frontier, charging each new entry.
	collect := func(run func(sink func(Match) bool) error) (map[join.ElemRef]Match, error) {
		frontier := map[join.ElemRef]Match{}
		var herr error
		seen := 0
		err := run(func(m Match) bool {
			seen++
			if seen%frontierCheckEvery == 0 && ctx.Err() != nil {
				return false
			}
			if _, ok := frontier[m.Desc]; !ok {
				if herr = bud.Charge(matchBytes); herr != nil {
					return false
				}
				held += matchBytes
				frontier[m.Desc] = m
			}
			return true
		})
		return frontier, cmp.Or(err, herr, ctx.Err())
	}
	frontier, err := collect(firstJoin)
	if err != nil {
		return err
	}

	// Middle steps: frontier × next tag → next frontier.
	for _, step := range steps[:len(steps)-1] {
		nodes, done := frontierNodes(frontier), int64(len(frontier))*matchBytes
		if frontier, err = collect(func(sink func(Match) bool) error {
			join.StackTreeDescEmit(nodes, eng.GlobalElements(step.Tag), step.Axis, sink)
			return nil
		}); err != nil {
			return err
		}
		bud.Release(done)
		held -= done
	}

	// Final step: stream the matches out.
	step := steps[len(steps)-1]
	join.StackTreeDescEmit(frontierNodes(frontier), eng.GlobalElements(step.Tag), step.Axis, emit)
	return nil
}

// frontierNodes turns a deduplicated frontier into the sorted node list
// the next join consumes.
func frontierNodes(frontier map[join.ElemRef]Match) []join.Node {
	nodes := make([]join.Node, 0, len(frontier))
	for ref, m := range frontier {
		nodes = append(nodes, join.Node{Start: m.DescStart, End: m.DescEnd, Level: ref.Level, Ref: ref})
	}
	slices.SortFunc(nodes, func(a, b join.Node) int { return cmp.Compare(a.Start, b.Start) })
	return nodes
}

// cacheTee keeps the batches of a streamed result while their rows fit
// the cache's per-entry admission cap, and on clean exhaustion admits
// their concatenation — the one copy, of at most the cap. The batches
// are the producer's own, never written again, so keeping them costs a
// reference each; once the rows pass the cap the tee lets them go and
// only forwards. Truncated, budget-killed or cancelled streams never
// admit — the cache only ever holds results a materialized query would
// have produced.
type cacheTee struct {
	it      stream.Iterator
	cache   *plan.Cache
	key     plan.Key
	pl      PlanInfo
	batches [][]Match
	capLeft int64
	done    bool // over the cap, or admitted: nothing more to keep
}

func newCacheTee(it stream.Iterator, cache *plan.Cache, key plan.Key, pl PlanInfo) *cacheTee {
	return &cacheTee{it: it, cache: cache, key: key, pl: pl, capLeft: cache.AdmissionCap() - matchBytes}
}

func (t *cacheTee) Next() ([]Match, error) {
	b, err := t.it.Next()
	if t.done {
		return b, err
	}
	switch {
	case err == nil:
		if t.capLeft -= int64(len(b)) * matchBytes; t.capLeft < 0 {
			t.done, t.batches = true, nil
		} else {
			t.batches = append(t.batches, b)
		}
	case err == io.EOF:
		t.done = true
		ms := slices.Concat(t.batches...)
		if ms == nil {
			ms = []Match{}
		}
		t.cache.Put(t.key, ms, int64(len(ms)+1)*matchBytes, t.pl)
		t.batches = nil
	}
	return b, err
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
	shards := sc.current()

	if opt.budget == nil {
		opt.budget = stream.NewBudget(opt.BudgetBytes)
	}

	out := &ResultStream{}
	subs := make([]*ResultStream, 0, len(shards))
	its := make([]stream.Iterator, 0, len(shards))
	for i, sh := range shards {
		// No shard contributes more than the limit to the merged
		// stream, so each shard's stream is cut at the limit too.
		rs, err := sh.openStream("", path, opt)
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
		out.gens = append(out.gens, rs.gens...)
		its = append(its, rs.it)
	}
	out.it = stream.Limited(stream.Concat(its, sc.fanout), opt.Limit)
	return out, nil
}

// QueryDocStream routes the streaming document-scoped query to the
// document's shard.
func (sc *ShardedCollection) QueryDocStream(name, path string, opt StreamOpt) (*ResultStream, error) {
	si := sc.hashShard(name)
	rs, err := sc.shardAt(si).openStream(name, path, opt)
	if err != nil {
		return nil, err
	}
	for k := range rs.plans {
		rs.plans[k].Shard = si
	}
	return rs, nil
}

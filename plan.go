package lazyxml

// Cost-based query planning and generation-keyed result caching: the
// lazyxml-side wiring of internal/plan. Every DB carries a statistics
// collector; a QueryPlanner (shared result cache + pick counters) is
// attached per process with EnablePlanner and survives shard re-seeds.
//
// The staleness argument for the cache, in one paragraph: a result is
// cached under the (store id, generation) pair of the MVCC snapshot
// view the query executed against, so key and result correspond exactly
// by construction — the view is immutable, and its generation IS the
// state the matches were computed from. A later reader only receives
// that entry when its own acquired view reports the same pair, and
// AcquireView never serves a view older than the head generation
// observed at entry, so a reader that has seen a write can never hit a
// pre-write entry. Generations are monotonic; the moment a write's bump
// is visible, the old key is unreachable forever. No stale result can
// ever be served, with no invalidation hooks anywhere.

import (
	"repro/internal/join"
	"repro/internal/plan"
	"repro/internal/twig"
)

// PlanAlgo selects a planned-query strategy; PlanAuto lets the cost
// model decide.
type PlanAlgo = plan.Algo

// PlanInfo is one explainable plan (per shard, for fanned-out queries).
type PlanInfo = plan.Plan

// PlanGen is a (store id, generation) pair — one shard's cache epoch.
type PlanGen = plan.Gen

// PlanAuto requests cost-based selection (the zero StreamOpt.Force).
const PlanAuto = plan.Auto

// ParsePlanAlgo parses an algorithm override name ("lazy", "parallel",
// "std", "skip", "twig"; ""/"auto"/"planned" = cost-based).
func ParsePlanAlgo(s string) (PlanAlgo, error) { return plan.ParseAlgo(s) }

// QueryPlanner is the process-wide planning state: the generation-keyed
// result cache and the per-algorithm pick counters. One QueryPlanner is
// shared by every shard of a backend (keys embed the per-shard store id
// and generation, so shards never collide), attached with
// Backend.EnablePlanner.
type QueryPlanner struct {
	cache *plan.Cache
	picks *plan.Picks
}

// NewQueryPlanner returns a planner whose result cache holds at most
// cacheBytes of match data (<= 0 disables caching; planning and explain
// still work).
func NewQueryPlanner(cacheBytes int64) *QueryPlanner {
	return &QueryPlanner{cache: plan.NewCache(cacheBytes), picks: plan.NewPicks()}
}

// PlannerStats is the /stats and /metrics readout of a QueryPlanner.
type PlannerStats struct {
	Cache plan.CacheStats  `json:"cache"`
	Picks map[string]int64 `json:"picks"`
}

// Stats snapshots the cache counters and algorithm picks.
func (qp *QueryPlanner) Stats() PlannerStats {
	if qp == nil {
		return PlannerStats{}
	}
	return PlannerStats{Cache: qp.cache.Stats(), Picks: qp.picks.Snapshot()}
}

// matchBytes is the cache accounting size of one Match (two ElemRefs
// plus four global positions, plus slice overhead amortized).
const matchBytes = 96

// planQuery renders a parsed path in the planner's representation.
func planQuery(p Path) plan.Query {
	steps := make([]plan.Step, 0, 1+len(p.Steps))
	steps = append(steps, plan.Step{Tag: p.First})
	for _, st := range p.Steps {
		steps = append(steps, plan.Step{Tag: st.Tag, Desc: st.Axis == Descendant})
	}
	return plan.Query{Path: p.String(), Steps: steps}
}

// PlanGeneration reads the database's current cache epoch without taking
// the store lock.
func (db *DB) PlanGeneration() PlanGen { return db.planc.Gen() }

// TagCardinality returns the number of indexed elements with the given
// tag, from the tag-list statistics (no scan).
func (db *DB) TagCardinality(tag string) int { return db.store.TagCardinality(tag) }

// EnablePlanner attaches the planner (result cache + pick counters) and
// wires the collection's document count into the statistics collector as
// the fragmentation denominator.
func (c *Collection) EnablePlanner(qp *QueryPlanner) {
	c.qp.Store(qp)
	c.db.planc.SetDocs(c.Len)
}

// TagCardinality returns the number of indexed elements with the tag.
func (c *Collection) TagCardinality(tag string) int { return c.db.TagCardinality(tag) }

// EnablePlanner attaches one shared planner to every shard: cache keys
// embed each shard's store identity, so per-shard partial results never
// collide in the shared cache. A shard re-seeded later is re-attached by
// InstallReseed.
func (sc *ShardedCollection) EnablePlanner(qp *QueryPlanner) {
	sc.mu.Lock()
	sc.planner = qp
	shards := make([]Backend, len(sc.shards))
	copy(shards, sc.shards)
	sc.mu.Unlock()
	for _, sh := range shards {
		sh.EnablePlanner(qp)
	}
}

// TagCardinality sums the tag's indexed-element count across shards.
func (sc *ShardedCollection) TagCardinality(tag string) int {
	per := make([]int, len(sc.shards))
	sc.fanOut(func(i int, sh Backend) error {
		per[i] = sh.TagCardinality(tag)
		return nil
	})
	total := 0
	for _, n := range per {
		total += n
	}
	return total
}

// tuplesToMatches projects full twig tuples onto the binary-pipeline
// result shape: the (last-step, previous-step) element pairs, deduped —
// several tuples may share their last two bindings through different
// upper chains.
func tuplesToMatches(tuples []twig.Tuple) []Match {
	type pairKey struct{ a, d join.ElemRef }
	seen := map[pairKey]bool{}
	out := make([]Match, 0, len(tuples))
	for _, t := range tuples {
		if len(t) < 2 {
			continue
		}
		a, d := t[len(t)-2], t[len(t)-1]
		k := pairKey{a: a.Ref, d: d.Ref}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, Match{
			Anc: a.Ref, Desc: d.Ref,
			AncStart: a.Start, AncEnd: a.End,
			DescStart: d.Start, DescEnd: d.End,
		})
	}
	return out
}

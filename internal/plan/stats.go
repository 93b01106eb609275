// Package plan is the cost-based query planner and generation-keyed
// result cache over the lazy XML engine. It has three layers:
//
//   - a statistics Collector that derives per-tag cardinalities, segment
//     counts and tag-list path lengths from the engine's own update log,
//     memoized against the store's generation counter so a stable store
//     answers from cache and any write invalidates everything at the
//     cost of one integer compare;
//   - a pure cost model (Choose / Forced), the only code that chooses a
//     join algorithm: it prices Lazy-Join, parallel Lazy-Join,
//     Stack-Tree-Desc, SkipJoin and the holistic PathStack twig and
//     returns an explainable Plan with per-operator estimates;
//   - a generation-keyed, byte-bounded LRU result Cache whose keys embed
//     (store id, generation), so invalidation is free: a write bumps the
//     generation, new lookups miss, and stale entries age out of the LRU
//     tail without any explicit invalidation hook.
//
// The package deliberately depends on nothing above the basic types: the
// engine's Store satisfies Source structurally, and cached values are
// opaque to the cache, so plan sits below the lazyxml façade without an
// import cycle.
package plan

import (
	"runtime"
	"sync"
)

// Gen identifies one store state: a process-unique store id plus that
// store's monotonic update counter. Two equal Gens mean the store object
// and its contents are identical; any write, collapse, rebuild or
// re-seed swap produces a Gen never seen before.
type Gen struct {
	Store uint64 `json:"store"`
	Gen   uint64 `json:"gen"`
}

// TagStat is the planner's view of one tag on one store.
type TagStat struct {
	Card    int `json:"card"`    // indexed elements with the tag
	Segs    int `json:"segs"`    // tag-list entries (segments holding it)
	PathLen int `json:"pathLen"` // total sid-path components across entries
}

// Source is the statistics surface the collector reads — satisfied
// structurally by core.Store. All methods must be safe under concurrent
// writers; StoreID and Generation must not take the store's write lock.
type Source interface {
	StoreID() uint64
	Generation() uint64
	TagPlanStat(tag string) (card, segs, pathLen int)
	Segments() int
}

// Collector memoizes per-tag statistics against the store generation.
// A View call on an unchanged store is a map lookup per tag; the first
// call after any write drops the memo and re-reads only the tags the
// query actually names — incremental refresh proportional to query
// width, never to dictionary size.
type Collector struct {
	src     Source
	docs    func() int // document count, the fragmentation denominator
	workers int

	mu       sync.Mutex
	gen      Gen
	valid    bool
	segments int
	ndocs    int
	tags     map[string]TagStat
}

// NewCollector builds a collector over one store. docs supplies the
// document count (nil: treated as one document); workers bounds parallel
// Lazy-Join (<=0: min(GOMAXPROCS, 8)).
func NewCollector(src Source, docs func() int, workers int) *Collector {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	return &Collector{src: src, docs: docs, workers: workers, tags: map[string]TagStat{}}
}

// Gen reads the store's current (id, generation) pair without any lock
// on the store — the cache-key read on the query hot path.
func (c *Collector) Gen() Gen {
	return Gen{Store: c.src.StoreID(), Gen: c.src.Generation()}
}

// SetDocs installs (or replaces) the document counter and drops the memo,
// so the next View re-reads the fragmentation denominator. Collections
// wire their Len here after the DB — and thus the collector — is built.
func (c *Collector) SetDocs(docs func() int) {
	c.mu.Lock()
	c.docs = docs
	c.valid = false
	c.mu.Unlock()
}

// View returns the cost-model inputs for the named tags at the store's
// current generation.
func (c *Collector) View(tags []string) View {
	g := c.Gen()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid || g != c.gen {
		c.gen = g
		c.valid = true
		c.tags = make(map[string]TagStat, len(tags))
		c.segments = c.src.Segments()
		c.ndocs = 1
		if c.docs != nil {
			if n := c.docs(); n > 1 {
				c.ndocs = n
			}
		}
	}
	v := View{
		Gen:      c.gen,
		Segments: c.segments,
		Docs:     c.ndocs,
		Workers:  c.workers,
		Tags:     make(map[string]TagStat, len(tags)),
	}
	for _, tag := range tags {
		st, ok := c.tags[tag]
		if !ok {
			card, segs, pathLen := c.src.TagPlanStat(tag)
			st = TagStat{Card: card, Segs: segs, PathLen: pathLen}
			c.tags[tag] = st
		}
		v.Tags[tag] = st
	}
	if v.Docs > 0 {
		v.Frag = float64(v.Segments) / float64(v.Docs)
	}
	return v
}

// View is one consistent set of cost-model inputs: the generation they
// were read at, the store-wide segment/document counts, the derived
// fragmentation ratio, and the per-tag statistics of the query's tags.
type View struct {
	Gen      Gen
	Segments int
	Docs     int
	Frag     float64 // segments per document
	Workers  int
	Tags     map[string]TagStat
}

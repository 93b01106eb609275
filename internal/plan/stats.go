// Package plan is the cost-based query planner and generation-keyed
// result cache over the lazy XML engine. It has three layers:
//
//   - ViewOf, which derives per-tag cardinalities, segment counts and
//     tag-list path lengths from the engine's own update log, read off
//     the immutable snapshot a query runs on, so estimates and results
//     come from one cut;
//   - a pure cost model (Choose / Forced), the only code that chooses a
//     join algorithm: it prices Lazy-Join, Stack-Tree-Desc, SkipJoin
//     and the holistic PathStack twig and returns an explainable Plan
//     with per-operator estimates;
//   - a generation-keyed, byte-bounded LRU result Cache whose keys embed
//     (store id, generation), so invalidation is free: a write bumps the
//     generation, new lookups miss, and stale entries age out of the LRU
//     tail without any explicit invalidation hook.
//
// The package deliberately depends on nothing above the basic types: the
// engine's View satisfies Source structurally, and cached values are
// opaque to the cache, so plan sits below the lazyxml façade without an
// import cycle.
package plan

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

// Source is the statistics surface ViewOf reads, satisfied structurally
// by core.View: one immutable snapshot, so all four methods answer from
// the same generation. core.View memoizes TagPlanStat per tag.
type Source interface {
	StoreID() uint64
	Generation() uint64
	TagPlanStat(tag string) (card, segs, pathLen int)
	Segments() int
}

// ViewOf returns the cost-model inputs for the named tags as src holds
// them. docs is the document count, the fragmentation denominator (at
// least one is assumed).
func ViewOf(src Source, docs int, tags []string) View {
	v := View{
		Gen:      Gen{Store: src.StoreID(), Gen: src.Generation()},
		Segments: src.Segments(),
		Docs:     max(docs, 1),
		Tags:     make(map[string]TagStat, len(tags)),
	}
	v.Frag = float64(v.Segments) / float64(v.Docs)
	for _, tag := range tags {
		card, segs, pathLen := src.TagPlanStat(tag)
		v.Tags[tag] = TagStat{Card: card, Segs: segs, PathLen: pathLen}
	}
	return v
}

// Collector plans from one fixed Source, read afresh on every View.
// Kept only while benchmark/layers.go compiles against it; the engine
// calls ViewOf on the view a query pinned.
type Collector struct {
	src  Source
	docs func() int
}

// NewCollector wraps src. docs supplies the document count (nil: one
// document). The workers parameter is ignored; it is kept only while
// benchmark/layers.go compiles against it.
func NewCollector(src Source, docs func() int, workers int) *Collector {
	return &Collector{src: src, docs: docs}
}

// View returns ViewOf over the collector's source.
func (c *Collector) View(tags []string) View {
	n := 1
	if c.docs != nil {
		n = c.docs()
	}
	return ViewOf(c.src, n, tags)
}

// View is one consistent set of cost-model inputs: the generation they
// were read at, the store-wide segment/document counts, the derived
// fragmentation ratio, and the per-tag statistics of the query's tags.
type View struct {
	Gen      Gen
	Segments int
	Docs     int
	Frag     float64 // segments per document
	Tags     map[string]TagStat
}

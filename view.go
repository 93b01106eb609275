package lazyxml

// MVCC snapshot reads at the collection layer. A DocView or
// CollectionView wraps one (or, sharded, several) core.View handles — a
// generation-stamped immutable copy of the store's queryable state —
// plus the name→segment mapping that was current when the handle was
// taken. Queries against a view take no locks at all, so a long-running
// read can never block, or be blocked by, a writer, a Collapse, or a
// Compact; conversely, maintenance never waits for readers.
//
// The name mapping travels separately from the store snapshot: the
// collection publishes an immutable copy of its docs map (a "cut")
// through an atomic pointer, invalidated on every rename-class mutation
// (Put, Delete, Collapse re-point) and rebuilt lazily under the read
// lock. A cut and a view acquired around the same time may straddle a
// concurrent collapse — the cut's segment id then fails to resolve in
// the view — so acquisition retries once and finally falls back to
// resolving under the collection read lock, which excludes rename-class
// mutations entirely and therefore always yields a consistent pair.

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// ViewStats is one store's view-lifecycle counters (see core.ViewStats).
type ViewStats = core.ViewStats

// ShardViewStats is one shard's view-lifecycle counters, the per-shard
// row behind the /stats "views" block.
type ShardViewStats struct {
	Shard int       `json:"shard"`
	Views ViewStats `json:"views"`
}

// docsCut is an immutable copy of a collection's name→segment map,
// published through Collection.cut so snapshot readers can resolve names
// without the collection lock.
type docsCut struct {
	docs map[string]SID
}

// invalidateCut drops the published cut; the caller holds c.mu.Lock
// around the docs-map mutation that made it stale.
func (c *Collection) invalidateCut() { c.cut.Store((*docsCut)(nil)) }

// loadCut returns the current cut, rebuilding it under the read lock if
// a mutation invalidated it. Building inside the read lock is what makes
// the racy-looking Store safe: writers invalidate only under the write
// lock, so no invalidation can interleave with the rebuild.
func (c *Collection) loadCut() *docsCut {
	if cut := c.cut.Load(); cut != nil {
		return cut
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.loadCutRLocked()
}

// loadCutRLocked is loadCut with c.mu already read-held. While a
// group-commit batch is open the pinned pre-batch cut is served instead
// of rebuilding from the live map: the live map already holds ops whose
// generation has not been published, and a cut naming them would not
// resolve in the pre-batch view readers are still being served. The
// pinned cut is deliberately not stored into c.cut — it must not
// outlive the batch.
func (c *Collection) loadCutRLocked() *docsCut {
	if c.pinned != nil {
		return c.pinned
	}
	if cut := c.cut.Load(); cut != nil {
		return cut
	}
	m := make(map[string]SID, len(c.docs))
	for name, sid := range c.docs {
		m[name] = sid
	}
	cut := &docsCut{docs: m}
	c.cut.Store(cut)
	return cut
}

// DocView is a consistent, immutable snapshot of one named document:
// the store view it lives in plus the document's span inside it. The
// holder must call Release exactly once.
type DocView struct {
	scope
	db  *DB
	sid SID
}

// View returns a snapshot handle of one named document. The fast path
// is lock-free: the published cut resolves the name and the published
// store view resolves the span. When the two straddle a concurrent
// collapse or delete, resolution falls back to the collection read
// lock, which excludes rename-class mutations and so always pairs a
// live segment id with a view new enough to contain it.
func (c *Collection) View(name string) (*DocView, error) {
	for try := 0; try < 2; try++ {
		cut := c.loadCut()
		sid, ok := cut.docs[name]
		if !ok {
			break // maybe just Put: the slow path re-reads under the lock
		}
		v := c.db.store.AcquireView()
		if lo, hi, ok := v.SegmentSpan(sid); ok {
			return &DocView{scope: scope{v: v, doc: name, lo: lo, hi: hi}, db: c.db, sid: sid}, nil
		}
		// The cut raced a collapse (the id was replaced) or the view
		// predates the document; drop both and retry once fresh.
		v.Release()
	}
	c.mu.RLock()
	// resolveRLocked, not c.docs: while a group-commit batch is open the
	// live map holds unpublished ops, and only the pinned pre-batch cut
	// pairs consistently with the view the deferred generation serves.
	sid, ok := c.resolveRLocked(name)
	if !ok {
		c.mu.RUnlock()
		return nil, fmt.Errorf("lazyxml: unknown document %q", name)
	}
	// Acquired inside the read lock: no Put/Delete/Collapse can commit
	// concurrently, so the head — and any view at least as new as it —
	// contains the segment.
	v := c.db.store.AcquireView()
	c.mu.RUnlock()
	lo, hi, ok := v.SegmentSpan(sid)
	if !ok {
		v.Release()
		return nil, fmt.Errorf("lazyxml: document %q segment %d vanished", name, sid)
	}
	return &DocView{scope: scope{v: v, doc: name, lo: lo, hi: hi}, db: c.db, sid: sid}, nil
}

// Name returns the document name the view is scoped to.
func (dv *DocView) Name() string { return dv.doc }

// Generation returns the (store id, generation) pair the view was
// frozen at.
func (dv *DocView) Generation() PlanGen {
	return PlanGen{Store: dv.v.StoreID(), Gen: dv.v.Generation()}
}

// Release drops the snapshot reference. The holder must call it exactly
// once; the underlying store view is reclaimed when its last holder
// releases.
func (dv *DocView) Release() { dv.v.Release() }

// Text returns the document's text as of the snapshot.
func (dv *DocView) Text() ([]byte, error) {
	text, ok, err := dv.v.SegmentText(dv.sid)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("lazyxml: document %q segment %d not in view", dv.doc, dv.sid)
	}
	return text, nil
}

// Query evaluates a path expression scoped to the document snapshot.
// Positions in the returned matches are global (view coordinates).
func (dv *DocView) Query(path string) ([]Match, error) { return dv.db.collect(dv.scope, path) }

// Count returns the number of matches of path inside the document
// snapshot.
func (dv *DocView) Count(path string) (int, error) { return dv.db.count(dv.scope, path) }

// viewShard is one shard's contribution to a CollectionView: its store
// view, the name cut that was current with it, and the shard's database
// (its fixed join algorithm).
type viewShard struct {
	shard int
	v     *core.View
	db    *DB
	docs  map[string]SID
}

// CollectionView is a consistent, immutable snapshot of a whole backend:
// per shard, one store view paired with the name cut taken under the
// same collection read lock. Within a shard the cut and the view are
// mutually consistent (every name resolves); across shards the views
// are acquired in shard order, so the cut is per-shard linearizable but
// not a global barrier — the documented semantics of every fanned-out
// read in this package. The holder must call Release exactly once.
type CollectionView struct {
	shards []viewShard
}

// ViewAll returns a snapshot handle over the whole collection. The cut
// and the store view are taken under one collection read lock, so every
// document in the cut resolves in the view.
func (c *Collection) ViewAll() (*CollectionView, error) {
	c.mu.RLock()
	cut := c.loadCutRLocked()
	v := c.db.store.AcquireView()
	c.mu.RUnlock()
	return &CollectionView{shards: []viewShard{{v: v, db: c.db, docs: cut.docs}}}, nil
}

// ViewStats reports the view-lifecycle counters of the collection's one
// store as shard 0.
func (c *Collection) ViewStats() []ShardViewStats {
	return []ShardViewStats{{Shard: 0, Views: c.db.store.ViewStats()}}
}

// Release drops every shard's snapshot reference. The holder must call
// it exactly once.
func (cv *CollectionView) Release() {
	for _, sh := range cv.shards {
		sh.v.Release()
	}
}

// Generations returns each shard's frozen (store id, generation) pair,
// in shard order.
func (cv *CollectionView) Generations() []PlanGen {
	out := make([]PlanGen, len(cv.shards))
	for i, sh := range cv.shards {
		out[i] = PlanGen{Store: sh.v.StoreID(), Gen: sh.v.Generation()}
	}
	return out
}

// Names lists the snapshot's document names in sorted order.
func (cv *CollectionView) Names() []string {
	var out []string
	for _, sh := range cv.shards {
		for name := range sh.docs {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of documents in the snapshot.
func (cv *CollectionView) Len() int {
	n := 0
	for _, sh := range cv.shards {
		n += len(sh.docs)
	}
	return n
}

// each drains path over every shard of the snapshot in shard order
// (positions are shard-local, as for the live fan-out).
func (cv *CollectionView) each(path string, emit func(Match) bool) error {
	for _, sh := range cv.shards {
		if err := sh.db.drain(scope{v: sh.v}, path, emit); err != nil {
			return err
		}
	}
	return nil
}

// Query evaluates a path expression over the whole snapshot, merging
// matches in shard order.
func (cv *CollectionView) Query(path string) ([]Match, error) {
	return collectMatches(func(emit func(Match) bool) error { return cv.each(path, emit) })
}

// Count returns the number of matches of path across the snapshot.
func (cv *CollectionView) Count(path string) (int, error) {
	return countMatches(func(emit func(Match) bool) error { return cv.each(path, emit) })
}

// resolveDoc finds the shard, segment and scope of a named document in
// the snapshot.
func (cv *CollectionView) resolveDoc(name string) (viewShard, SID, scope, error) {
	for _, s := range cv.shards {
		sid, ok := s.docs[name]
		if !ok {
			continue
		}
		lo, hi, ok := s.v.SegmentSpan(sid)
		if !ok {
			return viewShard{}, 0, scope{}, fmt.Errorf("lazyxml: document %q segment %d not in view", name, sid)
		}
		return s, sid, scope{v: s.v, doc: name, lo: lo, hi: hi}, nil
	}
	return viewShard{}, 0, scope{}, fmt.Errorf("lazyxml: unknown document %q", name)
}

// QueryDoc evaluates a path expression scoped to one document of the
// snapshot.
func (cv *CollectionView) QueryDoc(name, path string) ([]Match, error) {
	sh, _, sc, err := cv.resolveDoc(name)
	if err != nil {
		return nil, err
	}
	return sh.db.collect(sc, path)
}

// CountDoc returns the number of matches of path inside one document of
// the snapshot.
func (cv *CollectionView) CountDoc(name, path string) (int, error) {
	sh, _, sc, err := cv.resolveDoc(name)
	if err != nil {
		return 0, err
	}
	return sh.db.count(sc, path)
}

// Text returns one document's text as of the snapshot.
func (cv *CollectionView) Text(name string) ([]byte, error) {
	sh, sid, _, err := cv.resolveDoc(name)
	if err != nil {
		return nil, err
	}
	text, ok, err := sh.v.SegmentText(sid)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("lazyxml: document %q segment %d not in view", name, sid)
	}
	return text, nil
}

// View routes the document-scoped snapshot acquisition to the
// document's shard.
func (sc *ShardedCollection) View(name string) (*DocView, error) {
	sh, err := sc.shardFor(name)
	if err != nil {
		return nil, err
	}
	return sh.View(name)
}

// ViewAll composes one snapshot handle from every shard's view, in
// shard order. Each shard's (cut, view) pair is taken under that
// shard's read lock; the composition is not a cross-shard barrier —
// exactly the consistency the live fanned-out Query has, made explicit
// and pinned for the lifetime of the handle.
func (sc *ShardedCollection) ViewAll() (*CollectionView, error) {
	sc.mu.RLock()
	shards := make([]Backend, len(sc.shards))
	copy(shards, sc.shards)
	sc.mu.RUnlock()
	out := &CollectionView{shards: make([]viewShard, 0, len(shards))}
	for i, sh := range shards {
		cv, err := sh.ViewAll()
		if err != nil {
			out.Release()
			return nil, err
		}
		for _, vs := range cv.shards {
			vs.shard = i
			out.shards = append(out.shards, vs)
		}
	}
	return out, nil
}

// ViewStats gathers every shard's view-lifecycle counters in parallel.
func (sc *ShardedCollection) ViewStats() []ShardViewStats {
	out := make([]ShardViewStats, len(sc.shards))
	sc.fanOut(func(i int, sh Backend) error {
		st := sh.ViewStats()[0]
		st.Shard = i
		out[i] = st
		return nil
	})
	return out
}

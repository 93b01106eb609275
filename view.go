package lazyxml

// MVCC snapshot reads at the collection layer. A DocView or
// CollectionView wraps one (or, sharded, several) core.View handles — a
// generation-stamped immutable copy of the store's queryable state, the
// name→segment map included. Queries against a view take no locks at
// all, so a long-running read can never block, or be blocked by, a
// writer, a Collapse, or a Compact; conversely, maintenance never waits
// for readers. Because names are store state captured with the segments
// they point at, a name resolves in a view exactly when its document is
// in that view.

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

// DocView is a consistent, immutable snapshot of one named document:
// the store view it lives in plus the document's span inside it. The
// holder must call Release exactly once.
type DocView struct {
	scope
	db  *DB
	sid SID
}

// View returns a snapshot handle of one named document: the name
// resolves in the view it pins, so name and span come from one
// generation.
func (sh *shard) View(name string) (*DocView, error) {
	v := sh.db.store.AcquireView()
	sid, ok := v.NameSID(name)
	if !ok {
		v.Release()
		return nil, fmt.Errorf("lazyxml: unknown document %q", name)
	}
	lo, hi, _ := v.SegmentSpan(sid)
	return &DocView{scope: scope{v: v, doc: name, lo: lo, hi: hi}, db: sh.db, sid: sid}, nil
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
	text, _, err := dv.v.SegmentText(dv.sid)
	return text, err
}

// Query evaluates a path expression scoped to the document snapshot.
// Positions in the returned matches are global (view coordinates).
func (dv *DocView) Query(path string) ([]Match, error) { return dv.db.collect(dv.scope, path) }

// Count returns the number of matches of path inside the document
// snapshot.
func (dv *DocView) Count(path string) (int, error) { return dv.db.count(dv.scope, path) }

// viewShard is one shard's contribution to a CollectionView: its store
// view and the shard's database.
type viewShard struct {
	v  *core.View
	db *DB
}

// CollectionView is a consistent, immutable snapshot of a whole backend:
// one store view per shard, each carrying its shard's names. Within a
// shard names and documents are one generation; across shards the views
// are acquired in shard order, so the snapshot is per-shard
// linearizable but not a global barrier — the documented semantics of
// every fanned-out read in this package. The holder must call Release
// exactly once.
type CollectionView struct {
	shards []viewShard
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
		out = append(out, sh.v.Names()...)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of documents in the snapshot.
func (cv *CollectionView) Len() int { return len(cv.Names()) }

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
		sid, ok := s.v.NameSID(name)
		if !ok {
			continue
		}
		lo, hi, _ := s.v.SegmentSpan(sid)
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
	text, _, err := sh.v.SegmentText(sid)
	return text, err
}

// View routes the document-scoped snapshot acquisition to the
// document's shard.
func (sc *ShardedCollection) View(name string) (*DocView, error) { return sc.shardFor(name).View(name) }

// ViewAll composes one snapshot handle from every shard's view, in
// shard order. The composition is not a cross-shard barrier —
// exactly the consistency the live fanned-out Query has, made explicit
// and pinned for the lifetime of the handle.
func (sc *ShardedCollection) ViewAll() (*CollectionView, error) {
	shards := sc.current()
	out := &CollectionView{shards: make([]viewShard, len(shards))}
	for i, sh := range shards {
		out.shards[i] = viewShard{v: sh.db.store.AcquireView(), db: sh.db}
	}
	return out, nil
}

// ViewStats gathers every shard's view-lifecycle counters in parallel.
func (sc *ShardedCollection) ViewStats() []ShardViewStats {
	out := make([]ShardViewStats, len(sc.shards))
	sc.fanOut(func(i int, sh *shard) error {
		out[i] = ShardViewStats{Shard: i, Views: sh.db.store.ViewStats()}
		return nil
	})
	return out
}

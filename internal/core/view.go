// MVCC snapshot reads: a View is a generation-stamped immutable copy of
// the store's queryable state. Queries against a view run with no locks
// at all — the data was deep-copied (structures) or structurally shared
// (text, sid paths) at publication time and is never mutated afterwards
// — so a long-running read can never block, or be blocked by, a writer,
// a Collapse, or a Compact.
//
// Publication is copy-on-write with single-flight: the store keeps at
// most one published view; an acquisition that finds it at least as new
// as the head generation observed at entry takes a reference and serves
// it lock-free, otherwise one builder clones the head state under a read
// lock and publishes the result for everyone behind it. Serving any view
// with generation >= the entry-time head is linearizable: a writer that
// committed after the head was read can be ordered after the read, while
// a view older than the head is never served — that would break a
// client's read-your-writes.
//
// Reclamation is reference-counted: each acquisition holds one
// reference, the published slot holds one, and when the count reaches
// zero the view leaves the retained registry and its memory is
// unreachable. The registry is only accounting — it is what /stats and
// the maintenance policy's retained-view-age deferral observe.

package core

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/segment"
)

// View is an immutable snapshot of the store at one generation. It is
// safe for concurrent use by any number of goroutines. The holder must
// call Release exactly once when done; using a view after Release is a
// bug (the data stays valid — Go gives no use-after-free — but the
// retention accounting is corrupted).
type View struct {
	viewData
	id      uint64 // store-local serial, key of the retained registry
	gen     uint64
	store   *Store
	created time.Time
	refs    atomic.Int64
	// planStats memoizes TagPlanStat (tag → [3]int). The view never
	// changes, so an entry never goes stale.
	planStats sync.Map
}

// tryRef takes a reference unless the view already hit zero (it is being
// reclaimed and must not be resurrected).
func (v *View) tryRef() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops the holder's reference. The last release retires the
// view from the store's retained registry.
func (v *View) Release() {
	if v == nil {
		return
	}
	if v.refs.Add(-1) == 0 {
		v.store.retire(v)
	}
}

// Generation returns the store generation the view was frozen at.
func (v *View) Generation() uint64 { return v.gen }

// StoreID returns the identity of the store the view was taken from, so
// (StoreID, Generation) keys cache entries exactly as for the live store.
func (v *View) StoreID() uint64 { return v.store.id }

// Created returns when the view was built.
func (v *View) Created() time.Time { return v.created }

// Mode returns the maintenance mode of the underlying store.
func (v *View) Mode() Mode { return v.mode }

// --- read API, all lock-free; the joins are in core.go ---

// Text returns a copy of the snapshot's super document.
func (v *View) Text() ([]byte, error) { return v.viewData.textCopy() }

// Len returns the snapshot's super-document length.
func (v *View) Len() int { return v.sb.TotalLen() }

// Segments returns the snapshot's segment count excluding the dummy root.
func (v *View) Segments() int { return v.sb.NumSegments() - 1 }

// TagCardinality returns the number of indexed elements with the tag.
func (v *View) TagCardinality(tag string) int {
	card, _, _ := v.TagPlanStat(tag)
	return card
}

// TagPlanStat returns the planner's per-tag statistics, computed once
// per view and tag. Only tags the view holds are memoized, so the memo
// is bounded by the tag dictionary whatever names callers ask about.
func (v *View) TagPlanStat(tag string) (card, segs, pathLen int) {
	if st, ok := v.planStats.Load(tag); ok {
		s := st.([3]int)
		return s[0], s[1], s[2]
	}
	card, segs, pathLen = v.viewData.tagPlanStat(tag)
	if segs > 0 {
		v.planStats.Store(tag, [3]int{card, segs, pathLen})
	}
	return card, segs, pathLen
}

// SegmentSpan returns the global span of segment sid in the snapshot.
func (v *View) SegmentSpan(sid segment.SID) (gp, end int, ok bool) {
	return v.viewData.segmentSpan(sid)
}

// SegmentText returns a copy of the text spanned by segment sid.
func (v *View) SegmentText(sid segment.SID) ([]byte, bool, error) {
	return v.viewData.segmentText(sid)
}

// SubtreeSegments returns the segment count of the ER-subtree at sid.
func (v *View) SubtreeSegments(sid segment.SID) (int, bool) {
	return v.sb.SubtreeSize(sid)
}

// --- acquisition and publication ---

// AcquireView returns a view whose generation is at least the head
// generation observed at entry, taking one reference the caller must
// Release. The fast path is entirely lock-free (one atomic load and one
// CAS); after a write the first reader rebuilds the published view under
// the store read lock while later readers queue on the single-flight
// build lock rather than cloning redundantly.
func (s *Store) AcquireView() *View {
	head := s.gen.Load()
	if v := s.published.Load(); v != nil && v.gen >= head && v.tryRef() {
		s.viewShared.Add(1)
		return v
	}
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	// A builder ahead of us may have published a fresh-enough view while
	// we waited on the build lock.
	head = s.gen.Load()
	if v := s.published.Load(); v != nil && v.gen >= head && v.tryRef() {
		s.viewShared.Add(1)
		return v
	}
	s.mu.RLock()
	v := s.newViewLocked()
	s.mu.RUnlock()
	s.publishView(v)
	return v
}

// newViewLocked clones the queryable state; caller holds s.mu (read or
// write). The returned view carries two references: the caller's and the
// published slot's.
func (s *Store) newViewLocked() *View {
	d := viewData{
		mode:       s.mode,
		keepText:   s.keepText,
		indexAttrs: s.indexAttrs,
		values:     s.values,
		sb:         s.sb.Clone(),
		dict:       s.dict.Clone(),
		ix:         s.ix.Clone(),
		// The text is shared by capturing the rope's root: edits build
		// new roots and never touch a node reachable from an old one.
		text:    s.text,
		names:   maps.Clone(s.names),
		inserts: s.inserts,
		removes: s.removes,
	}
	d.tags = s.tags.CloneFor(d.sb)
	if d.mode == LS {
		// LS sorts "just before querying" (Section 5.1). The clone is
		// still private here, and immutable once published, so sorting
		// now makes every later query on the view lock-free and
		// mutation-free.
		d.tags.SortAll()
	}
	// gen + genPending: outside a publish batch genPending is zero; inside
	// one, a build that does happen (the published view was invalidated
	// mid-batch) has seen exactly genPending staged updates under the same
	// lock, so stamping their count keeps the view's generation honest.
	v := &View{viewData: d, gen: s.gen.Load() + s.genPending.Load(), store: s, created: time.Now()}
	v.refs.Store(2)
	s.vmu.Lock()
	if s.retained == nil {
		s.retained = map[uint64]*View{}
	}
	s.viewSeq++
	v.id = s.viewSeq
	s.retained[v.id] = v
	s.vmu.Unlock()
	s.viewBuilds.Add(1)
	return v
}

// publishView installs v as the store's published view and drops the
// previous one's publication reference. A writer that advanced the head
// while v was being built has already emptied the slot (advanceGen); the
// re-check after the swap takes v out again, so either side's last step
// leaves no unservable view behind.
func (s *Store) publishView(v *View) {
	if old := s.published.Swap(v); old != nil {
		old.Release()
	}
	if v.gen < s.gen.Load() && s.published.CompareAndSwap(v, nil) {
		v.Release()
	}
}

// InvalidateViews unpublishes the current view, so the next acquisition
// rebuilds from the head. Outstanding references stay valid; they only
// pin memory until released. Called whenever the head generation moves
// past the view, and when the store is being replaced (snapshot install,
// shard re-seed) or closed.
func (s *Store) InvalidateViews() {
	if old := s.published.Swap(nil); old != nil {
		old.Release()
	}
}

// retire removes a fully released view from the retained registry.
func (s *Store) retire(v *View) {
	s.vmu.Lock()
	delete(s.retained, v.id)
	s.vmu.Unlock()
	s.viewReclaimed.Add(1)
}

// ViewStats is the observability block behind /stats "views" and the
// /metrics view gauges.
type ViewStats struct {
	Live         int           // views not yet reclaimed
	HeadGen      uint64        // store's current generation
	PublishedGen uint64        // generation of the published view (0 if none)
	OldestGen    uint64        // oldest retained generation (0 if none)
	OldestAge    time.Duration // age of the oldest retained view
	Builds       uint64        // views built since open
	Shared       uint64        // acquisitions served from the published view
	Reclaimed    uint64        // views fully released and retired
}

// ViewStats returns a snapshot of the view lifecycle counters.
func (s *Store) ViewStats() ViewStats {
	st := ViewStats{
		HeadGen:   s.gen.Load(),
		Builds:    s.viewBuilds.Load(),
		Shared:    s.viewShared.Load(),
		Reclaimed: s.viewReclaimed.Load(),
	}
	if v := s.published.Load(); v != nil {
		st.PublishedGen = v.gen
	}
	now := time.Now()
	s.vmu.Lock()
	first := true
	for _, v := range s.retained {
		st.Live++
		if first || v.gen < st.OldestGen {
			st.OldestGen = v.gen
		}
		if age := now.Sub(v.created); first || age > st.OldestAge {
			st.OldestAge = age
		}
		first = false
	}
	s.vmu.Unlock()
	return st
}

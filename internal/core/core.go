// Package core implements the lazy XML update engine of Catania et al.,
// SIGMOD 2005: a Store that models the whole XML database as one super
// document, applies updates as segment insertions/removals recorded in an
// in-memory update log (SB-tree + tag-list), indexes elements by
// immutable local labels, and answers structural joins either with the
// segment-aware Lazy-Join algorithm or with the traditional
// Stack-Tree-Desc baseline over reconstructed global positions.
//
// The exported façade for applications is the root package lazyxml; core
// is the engine it drives.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/elemindex"
	"repro/internal/join"
	"repro/internal/segment"
	"repro/internal/taglist"
	"repro/internal/xmltree"
)

// Mode selects the update-log maintenance strategy (Section 5.1).
type Mode = taglist.Mode

// Maintenance modes re-exported for callers.
const (
	LD = taglist.LD // lazy dynamic: log always query-ready
	LS = taglist.LS // lazy static: tag-list sorted just before querying
)

// Algorithm selects the structural-join implementation used by Query.
// The engine runs what it is given; choosing one per query is the cost
// model's job (internal/plan).
type Algorithm int

const (
	// LazyJoin is the segment-aware algorithm of Figure 9.
	LazyJoin Algorithm = iota
	// STD reconstructs global element positions through the SB-tree and
	// runs the classic Stack-Tree-Desc merge on them.
	STD
	// SkipSTD is STD with galloping skips over non-joining runs (the
	// skipping idea of Chien et al. [3] and the XR-tree [5], applied to
	// the reconstructed global lists).
	SkipSTD
)

func (a Algorithm) String() string {
	switch a {
	case STD:
		return "STD"
	case SkipSTD:
		return "Skip-STD"
	default:
		return "Lazy-Join"
	}
}

// Match is one structural-join result with both the lazy identity of the
// elements (segment + immutable local label) and their reconstructed
// global positions in the current super document.
type Match struct {
	Anc, Desc          join.ElemRef
	AncStart, AncEnd   int // global
	DescStart, DescEnd int // global
}

// viewData is the queryable state of the store: every structure a
// read-only consumer touches, with no locks and no write-path
// bookkeeping. Store embeds one (guarded by Store.mu); View holds a
// structurally independent deep copy of one, frozen at a generation,
// which is what makes lock-free snapshot queries possible. All methods
// on viewData assume the data is stable for the duration of the call —
// either the caller holds the store lock, or the data is a published
// immutable view.
type viewData struct {
	mode       Mode
	keepText   bool
	indexAttrs bool
	vix        *valueIndex // non-nil iff WithValues

	sb   *segment.Tree
	dict *taglist.Dict
	tags *taglist.List
	ix   *elemindex.Index

	text rope // the super document, maintained iff keepText

	names map[string]segment.SID // document name → top-level segment (names.go)
}

// Store is the lazy XML database.
type Store struct {
	mu sync.RWMutex
	viewData
	// spans is write-path-only state (insertion depths), never copied
	// into views.
	spans map[segment.SID]*spanIndex

	inserts, removes int

	// id is a process-unique store identity and gen a monotonic update
	// counter: together they key planner statistics and cached query
	// results. gen bumps on every insert, remove, name op and rebuild (a
	// collapse is remove+insert, so it bumps twice); id changes whenever a fresh
	// Store object appears (open, restore, re-seed swap), so a cache
	// entry can never outlive the store it was computed on. Both are read
	// with atomics so cache lookups never take the store lock.
	id  uint64
	gen atomic.Uint64

	// Generation batching (group commit): while a publish batch is open,
	// update bumps accumulate in genPending instead of advancing gen, so
	// MVCC readers keep acquiring the pre-batch published view; the whole
	// batch becomes visible in one atomic gen advance at EndGenBatch.
	// Both fields are written under mu (the same lock every bump site
	// holds); genPending is read atomically by newViewLocked under the
	// read lock so a mid-batch build is stamped with the state it saw.
	genBatch   atomic.Bool
	genPending atomic.Uint64

	// View publication state (view.go): the latest published immutable
	// view, the single-flight build lock, and the retained-view registry
	// behind reclamation accounting.
	published atomic.Pointer[View]
	buildMu   sync.Mutex
	vmu       sync.Mutex // guards retained + viewSeq
	retained  map[uint64]*View
	viewSeq   uint64

	viewBuilds    atomic.Uint64
	viewShared    atomic.Uint64
	viewReclaimed atomic.Uint64
}

// storeSerial hands out process-unique store ids.
var storeSerial atomic.Uint64

// Option configures a Store.
type Option func(*Store)

// WithoutText disables super-document text retention. The engine itself
// only ever needs (position, length) pairs — exactly the paper's model of
// updates as plain text edits — so large benchmarks can skip the copy.
// Text-dependent helpers (Text, CheckAgainstText, Rebuild) then return
// ErrNoText, and so does ElementExtentAt, which reads only the update log
// but is part of the same contract.
func WithoutText() Option { return func(s *Store) { s.keepText = false } }

// WithAttributes indexes attributes as pseudo-elements under the tag
// "@name", one level below their owner, spanning the attribute's text in
// the start tag (Section 1 of the paper: "attributes can be considered
// as subelements of an element and treated accordingly"). Structural
// joins and path steps can then use "@id" like any tag.
func WithAttributes() Option { return func(s *Store) { s.indexAttrs = true } }

// WithValues maintains a secondary index from (tag, direct text value)
// to elements — and from (@attr, attribute value) to attributes — for
// equality predicates. Values are whitespace-trimmed; values longer than
// MaxValueLen bytes are not indexed. Like element labels, value records
// are immutable under updates.
func WithValues() Option { return func(s *Store) { s.vix = newValueIndex() } }

// NewStore returns an empty super document (just the dummy root).
func NewStore(mode Mode, opts ...Option) *Store {
	s := &Store{viewData: viewData{mode: mode, keepText: true}, id: storeSerial.Add(1)}
	s.retained = map[uint64]*View{}
	s.sb = segment.NewTree()
	s.dict = taglist.NewDict()
	s.tags = taglist.New(s.sb, mode)
	s.ix = elemindex.New()
	s.spans = map[segment.SID]*spanIndex{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Mode returns the maintenance mode of the store.
func (s *Store) Mode() Mode { return s.mode }

// Errors returned by Store operations.
var (
	ErrNoText   = errors.New("core: store was built with WithoutText")
	ErrNoValues = errors.New("core: store was built without WithValues")
	// ErrNotAnElement is returned by ElementExtentAt when no element
	// starts at the given offset.
	ErrNotAnElement = errors.New("core: no element starts at that offset")
)

// InsertSegment inserts fragment (a well-formed XML segment: one root
// element) at global position gp of the super document. It updates the
// SB-tree, the element index and the tag-list, and returns the new
// segment's id.
func (s *Store) InsertSegment(gp int, fragment []byte) (segment.SID, error) {
	doc, err := xmltree.ParseFragment(fragment)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertLocked(gp, fragment, doc)
}

func (s *Store) insertLocked(gp int, fragment []byte, doc *xmltree.Document) (segment.SID, error) {
	seg, err := s.sb.Insert(gp, len(fragment))
	if err != nil {
		return 0, err
	}
	// LevelNum base: one past the number of elements enclosing the
	// insertion point — the enclosing chain has consecutive levels, so
	// its depth is the sum of per-ancestor-segment open-element counts,
	// each answered in O(log n) by the span indexes.
	base := s.depthAtLocked(seg) + 1

	keys := make([]elemindex.Key, 0, doc.Len())
	starts := make([]int, 0, doc.Len())
	ends := make([]int, 0, doc.Len())
	doc.Walk(func(e *xmltree.Element) bool {
		keys = append(keys, elemindex.Key{
			TID:   s.dict.Intern(e.Tag),
			SID:   seg.SID,
			Start: e.Start,
			End:   e.End,
			Level: base + e.Level,
		})
		starts = append(starts, e.Start)
		ends = append(ends, e.End)
		if s.vix != nil {
			s.vix.add(s.dict.Intern(e.Tag), e.DirectText(doc.Text),
				seg.SID, e.Start, e.End, base+e.Level)
		}
		if s.indexAttrs || s.vix != nil {
			for _, a := range e.Attrs {
				tid := s.dict.Intern("@" + a.Name)
				if s.indexAttrs {
					keys = append(keys, elemindex.Key{
						TID:   tid,
						SID:   seg.SID,
						Start: a.Start,
						End:   a.End,
						Level: base + e.Level + 1,
					})
					// Attribute spans live inside start tags, where
					// nothing can ever be inserted, so they stay out of
					// the span index used for insertion depths.
				}
				if s.vix != nil {
					s.vix.add(tid, a.Value, seg.SID, a.Start, a.End, base+e.Level+1)
				}
			}
		}
		return true
	})
	counts := s.ix.AddSegment(keys)
	s.tags.AddSegment(seg, counts)
	si := &spanIndex{}
	si.add(starts, ends)
	s.spans[seg.SID] = si

	if s.keepText {
		s.text.insert(gp, fragment)
	}
	s.inserts++
	s.bumpGenLocked()
	return seg.SID, nil
}

// RemoveSegment removes the text range [gp, gp+l) from the super
// document. The range must correspond to a removal that keeps the super
// document well-formed (whole elements only); the engine itself only
// sees positions, exactly as in the paper.
func (s *Store) RemoveSegment(gp, l int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked(gp, l)
}

func (s *Store) removeLocked(gp, l int) error {
	rep, err := s.sb.Remove(gp, l)
	if err != nil {
		return err
	}
	tids := s.allTIDsLocked()
	// Fully deleted segments: purge their element records and tag-list
	// paths wholesale.
	if len(rep.Deleted) > 0 {
		s.ix.RemoveSegments(rep.Deleted, tids)
		s.tags.RemoveSegments(rep.Deleted)
		for _, sid := range rep.Deleted {
			delete(s.spans, sid)
			if s.vix != nil {
				s.vix.removeSegment(sid)
			}
		}
	}
	// Surviving segments that lost part of their own text: delete exactly
	// the element records inside the removed original-coordinate range
	// and feed the per-tag removal counts back into the tag-list
	// (Section 3.3).
	for _, part := range rep.Affected {
		counts := s.ix.RemovePart(part, tids)
		if len(counts) > 0 {
			s.tags.RemoveCounts(part.SID, counts)
		}
		if si := s.spans[part.SID]; si != nil {
			si.removeRange(part.Start, part.End)
		}
		if s.vix != nil {
			s.vix.removeSpanRange(part.SID, part.Start, part.End)
		}
	}
	if s.keepText {
		s.text.remove(gp, l)
	}
	s.removes++
	s.bumpGenLocked()
	return nil
}

// ElementExtentAt returns the byte length of the element whose start tag
// begins at global position gp, or ErrNotAnElement. It reads the update
// log only — the ER-tree names the segment whose own text holds gp and
// gp's original coordinate there, the element index holds that element's
// end label, the segment maps the label back — so its cost is
// O(depth + tags · log n) whatever the document's size. An "@attr"
// pseudo-element is not an element. A WithoutText store answers
// ErrNoText — the documented contract of the option — although the text
// is not read.
func (s *Store) ElementExtentAt(gp int) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.keepText {
		return 0, ErrNoText
	}
	seg, start, ok := s.sb.Locate(gp)
	if !ok || seg.GlobalOf(start) != gp {
		return 0, ErrNotAnElement
	}
	for tid := taglist.TID(0); int(tid) < s.dict.Len(); tid++ {
		if strings.HasPrefix(s.dict.Name(tid), "@") {
			continue
		}
		if end, ok := s.ix.EndOf(tid, seg.SID, start); ok {
			return seg.GlobalOfEnd(end) - gp, nil
		}
	}
	return 0, ErrNotAnElement
}

func (s *Store) allTIDsLocked() []taglist.TID {
	tids := make([]taglist.TID, s.dict.Len())
	for i := range tids {
		tids[i] = taglist.TID(i)
	}
	return tids
}

// lockForQuery takes the lock a query needs and returns the unlock. In
// LS mode the tag-list is only sorted now, "just before querying the XML
// database" (Section 5.1); sorting mutates the log, so LS queries take
// the write lock. Views never pass through here: their tag-list was
// sorted once at build time and is immutable afterwards.
func (s *Store) lockForQuery() func() {
	if s.mode == LS {
		s.mu.Lock()
		s.tags.SortAll()
		return s.mu.Unlock
	}
	s.mu.RLock()
	return s.mu.RUnlock
}

// Query computes the structural join aTag(axis)dTag — e.g. Query("A",
// "D", join.Descendant, LazyJoin) answers A//D — returning matches with
// reconstructed global positions, ordered by the algorithm's natural
// output order (descendant-major).
func (s *Store) Query(aTag, dTag string, axis join.Axis, alg Algorithm) ([]Match, error) {
	defer s.lockForQuery()()
	return s.viewData.query(aTag, dTag, axis, alg)
}

// query collects the structural join into a slice, shared between Store
// (lock held) and View (immutable data). Positions are resolved in one
// pass after the join rather than per pair inside it: the segment
// lookups of toMatch run hot that way.
func (d *viewData) query(aTag, dTag string, axis join.Axis, alg Algorithm) ([]Match, error) {
	var pairs []join.Pair
	err := d.joinEmit(aTag, dTag, axis, alg, func(p join.Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	if err != nil || len(pairs) == 0 {
		return nil, err
	}
	out := make([]Match, len(pairs))
	for i, p := range pairs {
		out[i] = d.toMatch(p)
	}
	return out, nil
}

// queryEmit is the structural join in push form: each match is handed
// to emit as the underlying merge produces it, in the algorithm's
// natural output order, and emit returning false stops the join early.
func (d *viewData) queryEmit(aTag, dTag string, axis join.Axis, alg Algorithm, emit func(Match) bool) error {
	return d.joinEmit(aTag, dTag, axis, alg, func(p join.Pair) bool { return emit(d.toMatch(p)) })
}

// joinEmit is the structural-join body, one pair per emitPair call with
// its lazy identity only (toMatch resolves global positions); query and
// queryEmit differ only in what they do with a pair. The operator state
// is bounded by nesting depth (for LazyJoin not even the global element
// lists are built), so a consumer that stops early bounds both memory
// and work.
func (d *viewData) joinEmit(aTag, dTag string, axis join.Axis, alg Algorithm, emitPair func(join.Pair) bool) error {
	atid, aok := d.dict.Lookup(aTag)
	dtid, dok := d.dict.Lookup(dTag)
	if !aok || !dok {
		return nil // a tag that never occurred joins with nothing
	}
	switch alg {
	case LazyJoin:
		join.LazyEmit(d.sb, d.ix, atid, dtid,
			d.tags.Segments(atid), d.tags.Segments(dtid), axis, join.DefaultOptions(), emitPair)
	case STD:
		join.StackTreeDescEmit(
			d.globalList(atid), d.globalList(dtid), axis, emitPair)
	case SkipSTD:
		join.SkipJoinEmit(
			d.globalList(atid), d.globalList(dtid), axis, emitPair)
	default:
		return fmt.Errorf("core: unknown algorithm %d", alg)
	}
	return nil
}

// QueryParallel runs Lazy-Join with the descendant segment list
// partitioned across the given number of workers (the parallelization
// opportunity the paper's introduction attributes to segments). Results
// match Query(..., LazyJoin) exactly, including order.
func (s *Store) QueryParallel(aTag, dTag string, axis join.Axis, workers int) ([]Match, error) {
	defer s.lockForQuery()()
	return s.viewData.queryParallel(aTag, dTag, axis, workers)
}

func (d *viewData) queryParallel(aTag, dTag string, axis join.Axis, workers int) ([]Match, error) {
	atid, aok := d.dict.Lookup(aTag)
	dtid, dok := d.dict.Lookup(dTag)
	if !aok || !dok {
		return nil, nil
	}
	pairs := join.LazyParallel(d.sb, d.ix, atid, dtid,
		d.tags.Segments(atid), d.tags.Segments(dtid), axis, join.DefaultOptions(), workers)
	out := make([]Match, len(pairs))
	for i, p := range pairs {
		out[i] = d.toMatch(p)
	}
	return out, nil
}

// QueryLazyOpts runs Lazy-Join with explicit optimization options (used
// by the ablation benchmarks; Query uses join.DefaultOptions).
func (s *Store) QueryLazyOpts(aTag, dTag string, axis join.Axis, opt join.Options) ([]Match, error) {
	defer s.lockForQuery()()
	atid, aok := s.dict.Lookup(aTag)
	dtid, dok := s.dict.Lookup(dTag)
	if !aok || !dok {
		return nil, nil
	}
	pairs := join.Lazy(s.sb, s.ix, atid, dtid,
		s.tags.Segments(atid), s.tags.Segments(dtid), axis, opt)
	out := make([]Match, len(pairs))
	for i, p := range pairs {
		out[i] = s.toMatch(p)
	}
	return out, nil
}

// GlobalElements returns the global-position element list for a tag,
// sorted by start — the input the traditional STD algorithm consumes.
func (s *Store) GlobalElements(tag string) []join.Node {
	defer s.lockForQuery()()
	return s.viewData.globalElements(tag)
}

func (d *viewData) globalElements(tag string) []join.Node {
	tid, ok := d.dict.Lookup(tag)
	if !ok {
		return nil
	}
	return d.globalList(tid)
}

// globalList reconstructs global (start, end) positions for every
// element with the given tag by mapping each element's immutable local
// label through its segment (Section 4, first paragraph).
func (d *viewData) globalList(tid taglist.TID) []join.Node {
	entries := d.tags.Segments(tid)
	var nodes []join.Node
	for _, e := range entries {
		seg, ok := d.sb.Lookup(e.SID)
		if !ok {
			continue
		}
		for _, el := range d.ix.ElementsOf(tid, e.SID) {
			nodes = append(nodes, join.Node{
				Start: seg.GlobalOf(el.Start),
				End:   seg.GlobalOfEnd(el.End),
				Level: el.Level,
				Ref:   join.ElemRef{SID: e.SID, Start: el.Start, End: el.End, Level: el.Level},
			})
		}
	}
	sortNodes(nodes)
	return nodes
}

func sortNodes(nodes []join.Node) {
	// Sorted by global start ascending; ties (impossible for distinct
	// elements of a well-formed document) break by wider-first.
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Start != nodes[j].Start {
			return nodes[i].Start < nodes[j].Start
		}
		return nodes[i].End > nodes[j].End
	})
}

// toMatch resolves a pair's global positions.
func (d *viewData) toMatch(p join.Pair) Match {
	m := Match{Anc: p.Anc, Desc: p.Desc}
	if seg, ok := d.sb.Lookup(p.Anc.SID); ok {
		m.AncStart = seg.GlobalOf(p.Anc.Start)
		m.AncEnd = seg.GlobalOfEnd(p.Anc.End)
	}
	if seg, ok := d.sb.Lookup(p.Desc.SID); ok {
		m.DescStart = seg.GlobalOf(p.Desc.Start)
		m.DescEnd = seg.GlobalOfEnd(p.Desc.End)
	}
	return m
}

// Stats summarizes the store for monitoring and the Figure 11 space
// accounting.
type Stats struct {
	Mode         Mode
	TextLen      int
	Segments     int // excluding the dummy root
	Elements     int
	Tags         int
	SBTreeBytes  int
	TagListBytes int
	ElemIdxBytes int
	Inserts      int
	Removes      int
}

// Stats returns a snapshot of the store's sizes.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Mode:         s.mode,
		TextLen:      s.sb.TotalLen(),
		Segments:     s.sb.NumSegments() - 1,
		Elements:     s.ix.Len(),
		Tags:         s.dict.Len(),
		SBTreeBytes:  s.sb.SizeBytes(),
		TagListBytes: s.tags.SizeBytes(),
		ElemIdxBytes: s.ix.SizeBytes(),
		Inserts:      s.inserts,
		Removes:      s.removes,
	}
}

// StoreID returns the store's process-unique identity. A fresh Store —
// opened, restored from a snapshot, or swapped in by a re-seed — always
// gets a new id, so (StoreID, Generation) pairs never collide across
// store lifetimes.
func (s *Store) StoreID() uint64 { return s.id }

// Generation returns the store's monotonic update counter. It bumps on
// every segment insert and remove (and therefore twice per collapse), on
// every name op and on Rebuild; it never goes backwards. Read without the
// store lock.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// BumpGeneration advances the update counter without a content change —
// the hook journal compaction uses so cached plans keyed on the
// pre-compact statistics are retired along with the old WAL.
func (s *Store) BumpGeneration() { s.advanceGen(1) }

// advanceGen moves the head generation forward and empties the published
// slot: AcquireView never serves a view older than the head, so from here
// on the slot would only pin a full clone of every index until the next
// reader replaced it. Readers still holding the view keep it.
func (s *Store) advanceGen(n uint64) {
	s.gen.Add(n)
	s.InvalidateViews()
}

// bumpGenLocked advances the generation, or stages the advance while a
// publish batch is open. Caller holds s.mu (write).
func (s *Store) bumpGenLocked() {
	if s.genBatch.Load() {
		s.genPending.Add(1)
	} else {
		s.advanceGen(1)
	}
}

// BeginGenBatch opens a generation publish batch: until EndGenBatch,
// update bumps are staged and MVCC readers keep being served the
// pre-batch published view — the batch's content is invisible to the
// snapshot-read surface. The published view is refreshed first so
// mid-batch acquisitions hit the lock-free served path instead of
// building a view from half-applied batch state. One batch may be open
// at a time; the group-commit leader serializes Begin/End externally.
func (s *Store) BeginGenBatch() {
	s.AcquireView().Release()
	s.mu.Lock()
	s.genBatch.Store(true)
	s.mu.Unlock()
}

// EndGenBatch closes the publish batch, folding every staged bump into
// one atomic generation advance: readers observe the whole batch as a
// single update event. Call it only after the batch is durable — the
// ack-after-fsync ordering is what keeps a snapshot read from observing
// state a crash could still lose.
func (s *Store) EndGenBatch() {
	s.mu.Lock()
	s.genBatch.Store(false)
	if p := s.genPending.Swap(0); p > 0 {
		s.advanceGen(p)
	}
	s.mu.Unlock()
}

// TagCardinality returns the number of indexed elements with the given
// tag, summed from the tag-list entry counts — O(|SL_tag|), no scan of
// the element index.
func (s *Store) TagCardinality(tag string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewData.tagCardinality(tag)
}

func (d *viewData) tagCardinality(tag string) int {
	tid, ok := d.dict.Lookup(tag)
	if !ok {
		return 0
	}
	n := 0
	for _, e := range d.tags.Segments(tid) {
		n += e.Count
	}
	return n
}

// TagPlanStat returns the planner's per-tag statistics in one lock
// acquisition: element cardinality, the number of tag-list entries
// (segments holding the tag), and the total sid-path length across those
// entries — the cost drivers of Lazy-Join's segment-level work.
func (s *Store) TagPlanStat(tag string) (card, segs, pathLen int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewData.tagPlanStat(tag)
}

func (d *viewData) tagPlanStat(tag string) (card, segs, pathLen int) {
	tid, ok := d.dict.Lookup(tag)
	if !ok {
		return 0, 0, 0
	}
	for _, e := range d.tags.Segments(tid) {
		card += e.Count
		segs++
		pathLen += len(e.Path)
	}
	return card, segs, pathLen
}

// SubtreeSegments returns the number of segments in the ER-subtree
// rooted at sid, taken under the store lock so it is safe against
// concurrent updates — the per-document signal the maintenance policy
// polls to decide which documents earn a Collapse.
func (s *Store) SubtreeSegments(sid segment.SID) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sb.SubtreeSize(sid)
}

// subtreeSegments is the view-side form of SubtreeSegments.
func (d *viewData) subtreeSegments(sid segment.SID) (int, bool) {
	return d.sb.SubtreeSize(sid)
}

// SegmentSpan returns the global span [gp, end) of segment sid, the
// pair taken under one store lock so a concurrent update can never tear
// it.
func (s *Store) SegmentSpan(sid segment.SID) (gp, end int, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewData.segmentSpan(sid)
}

func (d *viewData) segmentSpan(sid segment.SID) (gp, end int, ok bool) {
	seg, ok := d.sb.Lookup(sid)
	if !ok {
		return 0, 0, false
	}
	return seg.GP, seg.End(), true
}

// SegmentText returns a copy of the text spanned by segment sid — span
// lookup and copy under one store lock, so the slice bounds are always
// consistent with the text they index. The boolean reports whether the
// segment exists; requires retained text.
func (s *Store) SegmentText(sid segment.SID) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewData.segmentText(sid)
}

func (d *viewData) segmentText(sid segment.SID) ([]byte, bool, error) {
	if !d.keepText {
		return nil, false, ErrNoText
	}
	seg, ok := d.sb.Lookup(sid)
	if !ok {
		return nil, false, nil
	}
	return d.text.appendRange(make([]byte, 0, seg.L), seg.GP, seg.End()), true, nil
}

// UpdateLogBytes returns SB-tree + tag-list footprint (the update log of
// Figure 11; the element index exists in every approach and is excluded).
func (s *Store) UpdateLogBytes() (sbtree, taglistBytes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sb.SizeBytes(), s.tags.SizeBytes()
}

// Text returns a copy of the current super document.
func (s *Store) Text() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewData.textCopy()
}

func (d *viewData) textCopy() ([]byte, error) {
	if !d.keepText {
		return nil, ErrNoText
	}
	return d.text.bytes(), nil
}

// Len returns the current length of the super document in bytes.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sb.TotalLen()
}

// Segments returns the number of segments excluding the dummy root.
func (s *Store) Segments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sb.NumSegments() - 1
}

// SegmentTree exposes the SB-tree for read-only inspection (examples and
// benchmarks).
func (s *Store) SegmentTree() *segment.Tree { return s.sb }

// The super document may hold several top-level segments (documents), so
// it is parsed under a synthetic root; positions in the result are offset
// by len(dummyOpen).
const dummyOpen, dummyClose = "<__dummy__>", "</__dummy__>"

// parseText flattens the rope once and parses it. Requires retained text.
func (d *viewData) parseText() (*xmltree.Document, error) {
	n := d.text.len()
	wrapped := make([]byte, 0, len(dummyOpen)+n+len(dummyClose))
	wrapped = append(wrapped, dummyOpen...)
	wrapped = d.text.appendRange(wrapped, 0, n)
	wrapped = append(wrapped, dummyClose...)
	return xmltree.Parse(wrapped)
}

// Rebuild is the paper's "maintenance hours" operation: it re-parses the
// current super document, clearing the update log. Afterwards the store
// has one segment per top-level element (usually one), plus the dummy
// root.
func (s *Store) Rebuild() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.keepText {
		return ErrNoText
	}
	fresh := NewStore(s.mode)
	fresh.indexAttrs = s.indexAttrs
	if s.vix != nil {
		fresh.vix = newValueIndex()
	}
	if s.text.len() > 0 {
		doc, err := s.parseText()
		if err != nil {
			return fmt.Errorf("core: rebuild: %w", err)
		}
		// Re-insert each top-level element (document) separately; the
		// fresh store's rope then holds one chunk per document.
		for _, top := range doc.Root.Children {
			frag := doc.Text[top.Start:top.End]
			if _, err := fresh.InsertSegment(fresh.sb.TotalLen(), frag); err != nil {
				return fmt.Errorf("core: rebuild: %w", err)
			}
		}
	}
	s.sb = fresh.sb
	s.dict = fresh.dict
	s.tags = fresh.tags
	s.ix = fresh.ix
	s.spans = fresh.spans
	s.vix = fresh.vix
	s.text = fresh.text
	s.bumpGenLocked()
	return nil
}

// ValueElements returns the global-position nodes of elements (or
// attributes, for "@name" tags) with the given tag whose direct text
// value equals value (whitespace-trimmed). Requires WithValues.
func (s *Store) ValueElements(tag, value string) ([]join.Node, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewData.valueElements(tag, value)
}

func (d *viewData) valueElements(tag, value string) ([]join.Node, error) {
	if d.vix == nil {
		return nil, ErrNoValues
	}
	tid, ok := d.dict.Lookup(tag)
	if !ok {
		return nil, nil
	}
	var out []join.Node
	for _, k := range d.vix.refs(tid, value) {
		info, ok := d.vix.info(k)
		if !ok {
			continue
		}
		seg, ok := d.sb.Lookup(k.SID)
		if !ok {
			continue
		}
		out = append(out, join.Node{
			Start: seg.GlobalOf(k.Start),
			End:   seg.GlobalOfEnd(info.End),
			Level: info.Level,
			Ref:   join.ElemRef{SID: k.SID, Start: k.Start, End: info.End, Level: info.Level},
		})
	}
	sortNodes(out)
	return out, nil
}

// HasValues reports whether the store maintains a value index.
func (s *Store) HasValues() bool { return s.vix != nil }

// CollapseSegment merges the segment sid and all its descendant segments
// into one fresh segment with the same text — the paper's Section 5.3
// remedy ("nested segments can be collapsed together in order to reduce
// the overall number of segments ... and improve query performance") and
// the "packing" direction of its future work. The operation is a local
// rebuild: the subtree's current text is removed and re-inserted as one
// segment, so the collapsed elements get fresh labels while the rest of
// the store is untouched. Requires retained text.
func (s *Store) CollapseSegment(sid segment.SID) (segment.SID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.keepText {
		return 0, ErrNoText
	}
	if sid == segment.RootSID {
		return 0, fmt.Errorf("core: cannot collapse the dummy root; use Rebuild")
	}
	seg, ok := s.sb.Lookup(sid)
	if !ok {
		return 0, fmt.Errorf("core: unknown segment %d", sid)
	}
	gp, l := seg.GP, seg.L
	region := s.text.appendRange(make([]byte, 0, l), gp, gp+l)
	doc, err := xmltree.ParseFragment(region)
	if err != nil {
		return 0, fmt.Errorf("core: segment %d text is not one well-formed fragment (%w); collapse its parent instead", sid, err)
	}
	if err := s.removeLocked(gp, l); err != nil {
		return 0, err
	}
	return s.insertLocked(gp, region, doc)
}

// CheckAgainstText is the store's strongest self-check: it re-parses the
// current super document text and verifies that the element index maps
// (through the SB-tree) to exactly the elements of the text, with exact
// global start/end offsets. It returns the first discrepancy.
func (s *Store) CheckAgainstText() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.keepText {
		return ErrNoText
	}
	if err := s.sb.Validate(); err != nil {
		return err
	}
	if err := s.tags.Validate(); err != nil {
		return err
	}
	if err := s.ix.Validate(); err != nil {
		return err
	}
	if s.text.len() != s.sb.TotalLen() {
		return fmt.Errorf("core: text length %d != SB-tree total %d", s.text.len(), s.sb.TotalLen())
	}
	type span struct{ start, end int }
	want := map[span]string{} // global span -> tag
	if s.text.len() > 0 {
		doc, err := s.parseText()
		if err != nil {
			return fmt.Errorf("core: super document is not well-formed: %w", err)
		}
		const off = len(dummyOpen)
		doc.Walk(func(e *xmltree.Element) bool {
			if e == doc.Root {
				return true
			}
			want[span{e.Start - off, e.End - off}] = e.Tag
			if s.indexAttrs {
				for _, a := range e.Attrs {
					want[span{a.Start - off, a.End - off}] = "@" + a.Name
				}
			}
			return true
		})
	}
	got := 0
	for tid := 0; tid < s.dict.Len(); tid++ {
		name := s.dict.Name(taglist.TID(tid))
		for _, entry := range s.tags.Segments(taglist.TID(tid)) {
			seg, ok := s.sb.Lookup(entry.SID)
			if !ok {
				return fmt.Errorf("core: tag-list references dead segment %d", entry.SID)
			}
			for _, el := range s.ix.ElementsOf(taglist.TID(tid), entry.SID) {
				g := span{seg.GlobalOf(el.Start), seg.GlobalOfEnd(el.End)}
				tag, okSpan := want[g]
				if !okSpan {
					return fmt.Errorf("core: indexed element %s seg %d local [%d,%d) maps to global [%d,%d) which is not an element of the text",
						name, entry.SID, el.Start, el.End, g.start, g.end)
				}
				if tag != name {
					return fmt.Errorf("core: element at global [%d,%d) is <%s> in text but indexed as <%s>",
						g.start, g.end, tag, name)
				}
				got++
			}
		}
	}
	if got != len(want) {
		return fmt.Errorf("core: index holds %d elements, text holds %d", got, len(want))
	}
	if got != s.ix.Len() {
		return fmt.Errorf("core: tag-list reaches %d elements, index holds %d", got, s.ix.Len())
	}
	return s.checkValuesLocked()
}

// checkValuesLocked verifies the value index against the text: every
// record maps to an element (or attribute) whose trimmed direct value is
// exactly the interned string, and every indexable value in the text has
// a record.
func (s *Store) checkValuesLocked() error {
	if s.vix == nil {
		return nil
	}
	doc, err := s.parseText()
	if err != nil {
		return err
	}
	const off = len(dummyOpen)
	type gspan struct{ start, end int }
	want := map[gspan]string{} // global span -> trimmed value
	doc.Walk(func(e *xmltree.Element) bool {
		if e == doc.Root {
			return true
		}
		if v, ok := normalizeValue(e.DirectText(doc.Text)); ok {
			want[gspan{e.Start - off, e.End - off}] = v
		}
		for _, a := range e.Attrs {
			if v, ok := normalizeValue(a.Value); ok {
				want[gspan{a.Start - off, a.End - off}] = v
			}
		}
		return true
	})
	count := 0
	var verr error
	s.vix.byKey.Ascend(func(k valKey, info valInfo) bool {
		seg, ok := s.sb.Lookup(k.SID)
		if !ok {
			verr = fmt.Errorf("core: value record references dead segment %d", k.SID)
			return false
		}
		g := gspan{seg.GlobalOf(k.Start), seg.GlobalOfEnd(info.End)}
		val, ok := want[g]
		if !ok {
			verr = fmt.Errorf("core: value record at global [%d,%d) has no valued element in the text", g.start, g.end)
			return false
		}
		if val != s.vix.dict.Name(info.VID) {
			verr = fmt.Errorf("core: value record at global [%d,%d) holds %q, text says %q",
				g.start, g.end, s.vix.dict.Name(info.VID), val)
			return false
		}
		count++
		return true
	})
	if verr != nil {
		return verr
	}
	if count != len(want) {
		return fmt.Errorf("core: value index holds %d records, text has %d indexable values", count, len(want))
	}
	return nil
}

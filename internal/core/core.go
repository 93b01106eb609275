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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
// elements (segment + immutable local label) and their global positions
// in the current super document, as the join emitted it.
type Match = join.Match

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
	values     bool // WithValues: values indexed as pseudo-tags (values.go)

	sb   *segment.Tree
	dict *taglist.Dict
	tags *taglist.List
	ix   *elemindex.Index

	text rope // the super document, maintained iff keepText

	names map[string]segment.SID // document name → top-level segment (names.go)

	// inserts and removes count the segment updates ever applied. A
	// snapshot carries them, so a view does too: a snapshot written from
	// a view is the store as it stood at the view's generation.
	inserts, removes int
}

// Store is the lazy XML database.
type Store struct {
	mu sync.RWMutex
	viewData
	// spans is write-path-only state (insertion depths), never copied
	// into views.
	spans  map[segment.SID]*spanIndex
	census tagCensus

	// id is a process-unique store identity and gen a monotonic update
	// counter: together they key planner statistics and cached query
	// results. gen bumps once per update — a segment insert or remove, a
	// collapse, a commit unit (Apply) — and on rebuild; id changes whenever a fresh
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

// WithValues indexes each element under its (tag, direct text value)
// pair — and each attribute under its (@attr, attribute value) pair —
// for equality predicates: the pair is the pseudo-tag "tag=value"
// (values.go). Values are whitespace-trimmed; values longer than
// MaxValueLen bytes are not indexed.
func WithValues() Option { return func(s *Store) { s.values = true } }

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
	sid, err := s.insertLocked(gp, fragment, doc)
	if err == nil {
		s.bumpGenLocked()
	}
	return sid, err
}

// insertLocked lands one parsed segment, leaving the generation to its
// caller so an update of several ops publishes once.
func (s *Store) insertLocked(gp int, fragment []byte, doc *xmltree.Document) (segment.SID, error) {
	if len(fragment) > math.MaxInt32 {
		// The element index packs local labels into 32 bits.
		return 0, fmt.Errorf("core: a %d-byte segment is longer than the %d bytes a local label can address", len(fragment), math.MaxInt32)
	}
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
	starts := make([]int32, 0, doc.Len())
	ends := make([]int32, 0, doc.Len())
	add := func(tag string, start, end, level int) {
		keys = append(keys, elemindex.Key{TID: s.intern(tag), SID: seg.SID, Start: start, End: end, Level: level})
	}
	doc.Walk(func(e *xmltree.Element) bool {
		level := base + e.Level
		add(e.Tag, e.Start, e.End, level)
		starts = append(starts, int32(e.Start))
		ends = append(ends, int32(e.End))
		if s.values {
			if v, ok := normalizeValue(e.DirectText(doc.Text)); ok {
				add(valueTag(e.Tag, v), e.Start, e.End, level)
			}
		}
		// Attribute spans live inside start tags, where nothing can ever
		// be inserted, so they stay out of the span index used for
		// insertion depths.
		for _, a := range e.Attrs {
			if s.indexAttrs {
				add("@"+a.Name, a.Start, a.End, level+1)
			}
			if v, ok := normalizeValue(a.Value); ok && s.values {
				add(valueTag("@"+a.Name, v), a.Start, a.End, level+1)
			}
		}
		return true
	})
	counts, err := s.ix.AddSegment(keys)
	if err != nil {
		// Unreachable: every label is below the length checked above.
		return 0, err
	}
	s.census.count(counts, 1)
	s.tags.AddSegment(seg, counts)
	si := &spanIndex{}
	si.add(starts, ends)
	s.spans[seg.SID] = si

	if s.keepText {
		s.text.insert(gp, fragment)
	}
	s.inserts++
	return seg.SID, nil
}

// RemoveSegment removes the text range [gp, gp+l) from the super
// document. The range must correspond to a removal that keeps the super
// document well-formed (whole elements only); the engine itself only
// sees positions, exactly as in the paper.
func (s *Store) RemoveSegment(gp, l int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.removeLocked(gp, l); err != nil {
		return err
	}
	s.bumpGenLocked()
	return nil
}

// removeLocked removes one range, leaving the generation to its caller.
func (s *Store) removeLocked(gp, l int) error {
	rep, err := s.sb.Remove(gp, l)
	if err != nil {
		return err
	}
	// Fully deleted segments: purge their element records, and the
	// tag-list paths of exactly the tags they held.
	if len(rep.Deleted) > 0 {
		dead := s.ix.RemoveSegments(rep.Deleted)
		for _, counts := range dead {
			s.census.count(counts, -1)
		}
		s.tags.RemoveSegments(dead, gp)
		for _, sid := range rep.Deleted {
			delete(s.spans, sid)
		}
	}
	// Surviving segments that lost part of their own text: delete exactly
	// the element records inside the removed original-coordinate range
	// and feed the per-tag removal counts back into the tag-list
	// (Section 3.3).
	for _, part := range rep.Affected {
		counts := s.ix.RemovePart(part)
		if len(counts) > 0 {
			s.tags.RemoveCounts(part.SID, counts)
			s.census.count(counts, -1)
		}
		if si := s.spans[part.SID]; si != nil {
			si.removeRange(part.Start, part.End)
		}
	}
	if s.keepText {
		s.text.remove(gp, l)
	}
	s.removes++
	return nil
}

// ElementExtentAt returns the byte length of the element whose start tag
// begins at global position gp, or ErrNotAnElement. It reads the update
// log only — the ER-tree names the segment whose own text holds gp and
// gp's original coordinate there, the element index holds that element's
// end label, the segment maps the label back — so its cost is
// O(depth + tags · log n) whatever the document's size, tags counting
// element tags only: an "@attr" pseudo-element or a value pseudo-tag's
// record is not an element. A WithoutText store answers
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
	for _, tid := range s.census.elems {
		if end, ok := s.ix.EndOf(tid, seg.SID, start); ok {
			return seg.GlobalOfEnd(end) - gp, nil
		}
	}
	return 0, ErrNotAnElement
}

// Query is View.Query on a view acquired for the call. It is kept only
// while benchmark/layers.go compiles against it; every other reader holds
// a View, and this wrapper goes when that file reads through one too.
func (s *Store) Query(aTag, dTag string, axis join.Axis, alg Algorithm) ([]Match, error) {
	v := s.AcquireView()
	defer v.Release()
	return v.Query(aTag, dTag, axis, alg)
}

// GlobalElements is View.GlobalElements on a view acquired for the call,
// kept for the same reason as Query and going with it.
func (s *Store) GlobalElements(tag string) []join.Node {
	v := s.AcquireView()
	defer v.Release()
	return v.GlobalElements(tag)
}

// Query computes the structural join aTag(axis)dTag on the view — e.g.
// Query("A", "D", join.Descendant, LazyJoin) answers A//D — returning
// matches with their global positions, ordered by the algorithm's
// natural output order (descendant-major).
func (v *View) Query(aTag, dTag string, axis join.Axis, alg Algorithm) ([]Match, error) {
	var out []Match
	err := v.QueryEmit(aTag, dTag, axis, alg, func(m Match) bool {
		out = append(out, m)
		return true
	})
	return out, err
}

// QueryEmit is Query in push form: matches are handed to emit as the
// join produces them, in exactly Query's order, and emit returning false
// stops the join early. Because the view is immutable, the producer can
// run for as long as a streaming consumer needs without holding any
// lock.
func (v *View) QueryEmit(aTag, dTag string, axis join.Axis, alg Algorithm, emit func(Match) bool) error {
	return v.joinEmit(aTag, dTag, axis, alg, join.DefaultOptions(), emit)
}

// QueryLazyOpts is QueryEmit for Lazy-Join with explicit Figure 9
// optimization options — the ablations' entry; QueryEmit runs
// join.DefaultOptions.
func (v *View) QueryLazyOpts(aTag, dTag string, axis join.Axis, opt join.Options, emit func(Match) bool) error {
	return v.joinEmit(aTag, dTag, axis, LazyJoin, opt, emit)
}

// joinTags resolves the two tags of a join; a tag that never occurred
// joins with nothing.
func (d *viewData) joinTags(aTag, dTag string) (atid, dtid taglist.TID, ok bool) {
	atid, aok := d.dict.Lookup(aTag)
	dtid, dok := d.dict.Lookup(dTag)
	return atid, dtid, aok && dok
}

// joinEmit is the structural-join body, one match per emit call, global
// positions resolved by the join itself; opt reaches Lazy-Join only. The
// operator state is bounded by nesting depth (for LazyJoin not even the
// global element lists are built), so a consumer that stops early bounds
// both memory and work.
func (d *viewData) joinEmit(aTag, dTag string, axis join.Axis, alg Algorithm, opt join.Options, emit func(Match) bool) error {
	atid, dtid, ok := d.joinTags(aTag, dTag)
	if !ok {
		return nil
	}
	switch alg {
	case LazyJoin:
		join.LazyEmit(d.sb, d.ix, atid, dtid,
			d.tags.Segments(atid), d.tags.Segments(dtid), axis, opt, emit)
	case STD:
		join.StackTreeDescEmit(
			d.globalList(atid), d.globalList(dtid), axis, emit)
	case SkipSTD:
		join.SkipJoinEmit(
			d.globalList(atid), d.globalList(dtid), axis, emit)
	default:
		return fmt.Errorf("core: unknown algorithm %d", alg)
	}
	return nil
}

// GlobalElements returns the global-position element list for a tag,
// sorted by start — the input the traditional STD algorithm consumes.
func (v *View) GlobalElements(tag string) []join.Node {
	tid, ok := v.dict.Lookup(tag)
	if !ok {
		return nil
	}
	return v.globalList(tid)
}

// globalList reconstructs global (start, end) positions for every
// element with the given tag by mapping each element's immutable local
// label through its segment (Section 4, first paragraph).
func (d *viewData) globalList(tid taglist.TID) []join.Node {
	entries := d.tags.Segments(tid)
	n := 0
	for _, e := range entries {
		n += e.Count
	}
	nodes := make([]join.Node, 0, n)
	for _, e := range entries {
		if seg, ok := d.sb.Lookup(e.SID); ok {
			nodes = join.Resolve(nodes, seg, d.ix.Run(tid, e.SID))
		}
	}
	sortNodes(nodes)
	return nodes
}

func sortNodes(nodes []join.Node) {
	// Sorted by global start ascending; ties (impossible for distinct
	// elements of a well-formed document) break by wider-first.
	slices.SortFunc(nodes, func(a, b join.Node) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(b.End, a.End)
	})
}

// Stats summarizes the store for monitoring and the Figure 11 space
// accounting.
type Stats struct {
	Mode         Mode
	TextLen      int
	Segments     int // excluding the dummy root
	Elements     int // element and attribute records; value records are not counted
	Tags         int // element and attribute tags; value pseudo-tags are not counted
	SBTreeBytes  int
	TagListBytes int
	ElemIdxBytes int // 16 B per element record plus one map slot per segment's run
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
		Elements:     s.ix.Len() - s.census.valueRecs,
		Tags:         s.dict.Len() - s.census.values,
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

// Generation returns the store's monotonic update counter. It bumps once
// per update — a segment insert or remove, a collapse, a commit unit
// however many ops it holds — and on Rebuild; it never goes backwards.
// Read without the store lock.
func (s *Store) Generation() uint64 { return s.gen.Load() }

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

// TagPlanStat is View.TagPlanStat on a view acquired for the call. Kept
// only while benchmark/layers.go compiles against it; every planned read
// takes the statistics of the view it pinned.
func (s *Store) TagPlanStat(tag string) (card, segs, pathLen int) {
	v := s.AcquireView()
	defer v.Release()
	return v.TagPlanStat(tag)
}

// tagPlanStat returns element cardinality, the number of tag-list
// entries (segments holding the tag) and the total sid-path length
// across those entries — the cost drivers of Lazy-Join's segment-level
// work. O(|SL_tag|), no scan of the element index.
func (d *viewData) tagPlanStat(tag string) (card, segs, pathLen int) {
	tid, ok := d.dict.Lookup(tag)
	if !ok {
		return 0, 0, 0
	}
	for _, e := range d.tags.Segments(tid) {
		card += e.Count
		segs++
		if seg, ok := d.sb.Lookup(e.SID); ok {
			pathLen += len(seg.Path())
		}
	}
	return card, segs, pathLen
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
	return seg.GP(), seg.End(), true
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
	return d.text.appendRange(make([]byte, 0, seg.L), seg.GP(), seg.End()), true, nil
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
	fresh.indexAttrs, fresh.values = s.indexAttrs, s.values
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
	s.census = fresh.census
	s.text = fresh.text
	s.bumpGenLocked()
	return nil
}

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
	gp, l := seg.GP(), seg.L
	region := s.text.appendRange(make([]byte, 0, l), gp, gp+l)
	doc, err := xmltree.ParseFragment(region)
	if err != nil {
		return 0, fmt.Errorf("core: segment %d text is not one well-formed fragment (%w); collapse its parent instead", sid, err)
	}
	if err := s.removeLocked(gp, l); err != nil {
		return 0, err
	}
	nsid, err := s.insertLocked(gp, region, doc)
	s.bumpGenLocked()
	return nsid, err
}

// CheckAgainstText is the store's strongest self-check: it re-parses the
// current super document text and verifies that the element index maps
// (through the SB-tree) to exactly the elements of the text, with exact
// global start/end offsets, and each value record to an element (or
// attribute) whose trimmed direct value is its pseudo-tag's. It returns
// the first discrepancy.
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
	want := map[span]string{}   // global span -> tag
	values := map[span]string{} // global span -> value pseudo-tag
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
			g := span{e.Start - off, e.End - off}
			want[g] = e.Tag
			if s.values {
				if v, ok := normalizeValue(e.DirectText(doc.Text)); ok {
					values[g] = valueTag(e.Tag, v)
				}
			}
			for _, a := range e.Attrs {
				g := span{a.Start - off, a.End - off}
				if s.indexAttrs {
					want[g] = "@" + a.Name
				}
				if v, ok := normalizeValue(a.Value); ok && s.values {
					values[g] = valueTag("@"+a.Name, v)
				}
			}
			return true
		})
	}
	got, gotValues := 0, 0
	for tid := 0; tid < s.dict.Len(); tid++ {
		name := s.dict.Name(taglist.TID(tid))
		wantOf, n := want, &got
		if s.census.kinds[tid] == kindValue {
			wantOf, n = values, &gotValues
		}
		for _, entry := range s.tags.Segments(taglist.TID(tid)) {
			seg, ok := s.sb.Lookup(entry.SID)
			if !ok {
				return fmt.Errorf("core: tag-list references dead segment %d", entry.SID)
			}
			for _, el := range s.ix.Run(taglist.TID(tid), entry.SID) {
				g := span{seg.GlobalOf(int(el.Start)), seg.GlobalOfEnd(int(el.End))}
				tag, okSpan := wantOf[g]
				if !okSpan {
					return fmt.Errorf("core: indexed element %s seg %d local [%d,%d) maps to global [%d,%d) which is not an element of the text",
						name, entry.SID, el.Start, el.End, g.start, g.end)
				}
				if tag != name {
					return fmt.Errorf("core: element at global [%d,%d) is <%s> in text but indexed as <%s>",
						g.start, g.end, tag, name)
				}
				*n++
			}
		}
	}
	if got != len(want) {
		return fmt.Errorf("core: index holds %d elements, text holds %d", got, len(want))
	}
	if gotValues != len(values) || gotValues != s.census.valueRecs {
		return fmt.Errorf("core: index holds %d value records (%d counted), text has %d indexable values", gotValues, s.census.valueRecs, len(values))
	}
	if got+gotValues != s.ix.Len() {
		return fmt.Errorf("core: tag-list reaches %d elements, index holds %d", got+gotValues, s.ix.Len())
	}
	return nil
}

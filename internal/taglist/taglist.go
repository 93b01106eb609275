// Package taglist implements the tag-list of the lazy XML update log: an
// inverted list mapping element tag ids to the segments that contain at
// least one element with that tag.
//
// Each list entry names a segment and the number of occurrences of the
// tag inside it. The paper's Figure 4 entry is the segment's full sid
// path (the segment ids of all its ancestors plus its own id); that path
// is immutable and the segment already holds it, so an entry is just
// (sid, count) — 16 bytes with no pointers — and readers take the path
// from the segment they look up anyway (Segment.Path). The occurrence
// count decides when an entry must be dropped after a deletion: it is
// removed only when no elements with that tag remain in the segment.
//
// Tag ids are dense, so the path lists are a slice indexed by tag id, and,
// within a tag's path list, entries are ordered by the global position of
// the corresponding segment. A live path list is a sequence of chunks of
// at most chunkCap entries, so adding or dropping an entry moves at most
// one chunk's entries, not the whole list's; a clone (CloneFor) holds
// each list as one flat slice. Two maintenance modes mirror the paper's
// experimental setups:
//
//   - LD (lazy dynamic): entries are kept sorted on every insertion, so
//     the list is always query-ready;
//   - LS (lazy static): insertions append in O(1) and the whole list is
//     sorted once, just before querying (Sort or SortAll).
package taglist

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/segment"
)

// TID identifies a tag name.
type TID int32

// Dict interns tag names to dense tag ids.
type Dict struct {
	byName map[string]TID
	names  []string
}

// NewDict returns an empty tag dictionary.
func NewDict() *Dict {
	return &Dict{byName: map[string]TID{}}
}

// Intern returns the tag id for name, allocating one if needed.
func (d *Dict) Intern(name string) TID {
	if id, ok := d.byName[name]; ok {
		return id
	}
	id := TID(len(d.names))
	d.byName[name] = id
	d.names = append(d.names, name)
	return id
}

// Lookup returns the tag id for name if it has been interned.
func (d *Dict) Lookup(name string) (TID, bool) {
	id, ok := d.byName[name]
	return id, ok
}

// Name returns the tag name for id.
func (d *Dict) Name(id TID) string {
	if int(id) < 0 || int(id) >= len(d.names) {
		return fmt.Sprintf("tid-%d?", id)
	}
	return d.names[id]
}

// Len returns the number of interned tags.
func (d *Dict) Len() int { return len(d.names) }

// Clone returns an independent copy of the dictionary. Interning into
// the original after the clone does not affect the copy.
func (d *Dict) Clone() *Dict {
	return &Dict{byName: maps.Clone(d.byName), names: slices.Clone(d.names)}
}

// Entry is one element of a tag's path list. Its sid path is the
// segment's (Segment.Path).
type Entry struct {
	SID   segment.SID // the segment
	Count int         // occurrences of the tag in the segment
}

// chunkCap bounds the length of a live path list's chunks: an update
// moves at most one chunk's entries (16 bytes each), and a sorted search
// probes about log2(chunkCap) entries past the chunk boundaries.
const chunkCap = 256

// pathList is the per-tag list of entries, kept as consecutive chunks.
// On a live list every chunk is non-empty and at most chunkCap long, and
// owns its backing array up to its capacity, so a chunk grows and
// shrinks in place without touching its neighbours. A clone's list is
// one chunk, sliced from the clone's slab.
type pathList struct {
	chunks [][]Entry
	n      int // entries over all chunks
	// sorted reports whether entries are currently sorted by segment
	// global position (always true in LD mode).
	sorted bool
}

// flat returns the list's entries as one slice: the chunk itself when
// there is one, else a copy.
func (pl *pathList) flat() []Entry {
	if len(pl.chunks) == 1 {
		return pl.chunks[0]
	}
	out := make([]Entry, 0, pl.n)
	for _, ch := range pl.chunks {
		out = append(out, ch...)
	}
	return out
}

// end returns the position one past the last entry.
func (pl *pathList) end() (ci, i int) {
	if n := len(pl.chunks); n > 0 {
		return n - 1, len(pl.chunks[n-1])
	}
	return 0, 0
}

// chunked cuts entries into chunks of chunkCap, each capped at its own
// length so that growing one reallocates it rather than overwriting the
// next.
func chunked(entries []Entry) [][]Entry {
	chunks := make([][]Entry, 0, (len(entries)+chunkCap-1)/chunkCap)
	for len(entries) > 0 {
		n := min(len(entries), chunkCap)
		chunks = append(chunks, entries[:n:n])
		entries = entries[n:]
	}
	return chunks
}

// insert puts e before position (ci, i). A full chunk is split in two
// halves first.
func (pl *pathList) insert(ci, i int, e Entry) {
	pl.n++
	if len(pl.chunks) == 0 {
		pl.chunks = [][]Entry{{e}}
		return
	}
	if ch := pl.chunks[ci]; len(ch) >= chunkCap {
		half := len(ch) / 2
		pl.chunks = slices.Insert(pl.chunks, ci+1, slices.Clone(ch[half:]))
		pl.chunks[ci] = ch[:half]
		if i > half {
			ci, i = ci+1, i-half
		}
	}
	pl.chunks[ci] = slices.Insert(pl.chunks[ci], i, e)
}

// tidy drops the empty chunks among chunks [from, to) and merges a
// short chunk there into its successor while both fit in half a chunk,
// so a list that shrinks does not stay cut into slivers.
func (pl *pathList) tidy(from, to int) {
	to = min(to, len(pl.chunks))
	for ci := to - 1; ci >= from; ci-- {
		if len(pl.chunks[ci]) == 0 {
			pl.chunks = slices.Delete(pl.chunks, ci, ci+1)
			continue
		}
		if ci+1 < len(pl.chunks) && len(pl.chunks[ci])+len(pl.chunks[ci+1]) <= chunkCap/2 {
			pl.chunks[ci] = append(pl.chunks[ci], pl.chunks[ci+1]...)
			pl.chunks = slices.Delete(pl.chunks, ci+1, ci+2)
		}
	}
}

// Mode selects the maintenance strategy.
type Mode int

const (
	// LD keeps path lists sorted on every insertion (lazy dynamic).
	LD Mode = iota
	// LS appends unsorted and sorts once before querying (lazy static).
	LS
)

func (m Mode) String() string {
	switch m {
	case LD:
		return "LD"
	case LS:
		return "LS"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// List is the tag-list.
type List struct {
	sb   *segment.Tree
	mode Mode
	tags []*pathList // by TID; nil for a tag with no entries
}

// New returns an empty tag-list reading segment positions from sb.
func New(sb *segment.Tree, mode Mode) *List {
	return &List{sb: sb, mode: mode}
}

// list returns tid's path list, or nil.
func (l *List) list(tid TID) *pathList {
	if int(tid) < 0 || int(tid) >= len(l.tags) {
		return nil
	}
	return l.tags[tid]
}

// setList installs pl as tid's path list, growing the slice to reach it.
func (l *List) setList(tid TID, pl *pathList) {
	if n := int(tid) + 1 - len(l.tags); n > 0 {
		l.tags = append(l.tags, make([]*pathList, n)...)
	}
	l.tags[tid] = pl
}

// Mode returns the maintenance mode.
func (l *List) Mode() Mode { return l.mode }

// CloneFor returns an independent copy of the tag-list bound to sb —
// the caller's clone of the segment tree, so the copied list reads
// global positions from the same frozen state it was captured with.
// The entries are copied (they hold no pointers, so that is a plain
// memory copy), and later insertions and removals on the original never
// reach the clone. Each copied list is one flat chunk, so Segments hands
// it out as is. The copy takes four allocations however many tags there
// are: the path lists, their chunk headers and the entries share one
// slab each, each list capped at its own entries.
func (l *List) CloneFor(sb *segment.Tree) *List {
	tags, total := 0, 0
	for _, pl := range l.tags {
		if pl != nil {
			tags++
			total += pl.n
		}
	}
	lists := make([]pathList, 0, tags)
	heads := make([][]Entry, 0, tags)
	entries := make([]Entry, 0, total)
	nl := &List{sb: sb, mode: l.mode, tags: make([]*pathList, len(l.tags))}
	for tid, pl := range l.tags {
		if pl != nil {
			at := len(entries)
			for _, ch := range pl.chunks {
				entries = append(entries, ch...)
			}
			k := len(heads)
			heads = append(heads, entries[at:len(entries):len(entries)])
			lists = append(lists, pathList{chunks: heads[k : k+1 : k+1], n: pl.n, sorted: pl.sorted})
			nl.tags[tid] = &lists[len(lists)-1]
		}
	}
	return nl
}

// gpOf returns the current global position of the segment, used as the
// sort key of path lists.
func (l *List) gpOf(sid segment.SID) int {
	s, ok := l.sb.Lookup(sid)
	if !ok {
		// Deleted segments sort last, until RemoveSegments purges them.
		return int(^uint(0) >> 1)
	}
	return s.GP()
}

// AddSegment records that the newly inserted segment contains counts[t]
// elements of tag t.
func (l *List) AddSegment(seg *segment.Segment, counts map[TID]int) {
	gp := seg.GP()
	for tid, n := range counts {
		if n <= 0 {
			continue
		}
		pl := l.list(tid)
		if pl == nil {
			pl = &pathList{sorted: true}
			l.setList(tid, pl)
		}
		e := Entry{SID: seg.SID, Count: n}
		if l.mode == LD && pl.sorted {
			ci, i := l.search(pl, gp)
			pl.insert(ci, i, e)
		} else {
			ci, i := pl.end()
			pl.insert(ci, i, e)
			pl.sorted = false
		}
	}
}

// RemoveCounts decrements the per-tag occurrence counts of a surviving
// segment after elements were deleted from it (the removedCounts come
// from the element index, as in Section 3.3). Entries whose count
// reaches zero are dropped from the path list.
func (l *List) RemoveCounts(sid segment.SID, removedCounts map[TID]int) {
	for tid, n := range removedCounts {
		if n <= 0 {
			continue
		}
		pl := l.list(tid)
		if pl == nil {
			continue
		}
		ci, i, ok := l.find(pl, sid)
		if !ok {
			continue
		}
		ch := pl.chunks[ci]
		ch[i].Count -= n
		if ch[i].Count > 0 {
			continue
		}
		pl.chunks[ci] = slices.Delete(ch, i, i+1)
		pl.n--
		pl.tidy(max(ci-1, 0), ci+1)
		if pl.n == 0 {
			l.tags[tid] = nil
		}
	}
}

// find returns the position of sid's entry in pl. A sorted list is
// binary-searched by the segment's global position, then scanned over
// the entries tied at it; an unsorted (LS) one is scanned whole.
func (l *List) find(pl *pathList, sid segment.SID) (ci, i int, ok bool) {
	seg, live := l.sb.Lookup(sid)
	if !pl.sorted || !live {
		for ci, ch := range pl.chunks {
			if i := slices.IndexFunc(ch, func(e Entry) bool { return e.SID == sid }); i >= 0 {
				return ci, i, true
			}
		}
		return 0, 0, false
	}
	gp := seg.GP()
	for ci, i = l.search(pl, gp); ci < len(pl.chunks); ci, i = ci+1, 0 {
		for ch := pl.chunks[ci]; i < len(ch); i++ {
			if ch[i].SID == sid {
				return ci, i, true
			}
			if l.gpOf(ch[i].SID) != gp {
				return 0, 0, false
			}
		}
	}
	return 0, 0, false
}

// search returns the position (chunk, index) of the first entry of a
// sorted list whose segment starts at or after gp, or the end of the
// last chunk when there is none. The chunk is found by the last entries
// of the ones before it (the last chunk needs no probe), then the entry
// inside it.
func (l *List) search(pl *pathList, gp int) (ci, i int) {
	if len(pl.chunks) == 0 {
		return 0, 0
	}
	ci = sort.Search(len(pl.chunks)-1, func(c int) bool {
		ch := pl.chunks[c]
		return l.gpOf(ch[len(ch)-1].SID) >= gp
	})
	ch := pl.chunks[ci]
	return ci, sort.Search(len(ch), func(i int) bool { return l.gpOf(ch[i].SID) >= gp })
}

// RemoveSegments drops the path-list entries of segments deleted by the
// removal of the range starting at global position gp (the SB-tree has
// already applied it). dead maps each deleted segment to its per-tag
// occurrence counts, as the element index reports them: only those
// tags' lists are touched.
//
// A sorted list is not filtered whole: the dead entries form one run
// that is spliced out, in O(log n + k) plus one chunk's tail. Every
// deleted segment began inside the removed range, so its entry follows
// the first entry at or past gp. A live entry past gp began after the
// whole range, so it follows every dead one. Before that first live
// entry past gp, the only live entries mixed in with the dead are
// survivors that now sit at exactly gp: segments the removal
// right-intersected (their dead descendants follow them) and the segment
// that began where the range ended. (Deleted segments are gone from the
// SB-tree and so sort last, which keeps the binary search's predicate
// monotone.) Unsorted (LS) lists are filtered.
func (l *List) RemoveSegments(dead map[segment.SID]map[TID]int, gp int) {
	holders := map[TID]int{} // dead segments holding each tag
	for _, counts := range dead {
		for tid := range counts {
			holders[tid]++
		}
	}
	for tid, want := range holders {
		pl := l.list(tid)
		if pl == nil {
			continue
		}
		first, i := 0, 0
		if pl.sorted {
			first, i = l.search(pl, gp)
		}
		removed, ci := 0, first
		for ; ci < len(pl.chunks) && removed < want; ci, i = ci+1, 0 {
			ch := pl.chunks[ci]
			kept, stop := i, false
			for ; i < len(ch) && removed < want; i++ {
				e := ch[i]
				if _, ok := dead[e.SID][tid]; ok {
					removed++
					continue
				}
				if pl.sorted && l.gpOf(e.SID) > gp {
					stop = true
					break
				}
				ch[kept] = e
				kept++
			}
			kept += copy(ch[kept:], ch[i:])
			pl.chunks[ci] = ch[:kept]
			if stop {
				break
			}
		}
		pl.n -= removed
		pl.tidy(max(first-1, 0), ci+1)
		if pl.n == 0 {
			l.tags[tid] = nil
		}
	}
}

// Segments returns the path-list entries for tid ordered by segment
// global position — the SL lists consumed by the Lazy-Join algorithm.
// A clone's sorted list is returned as is; a live list of several
// chunks is copied into one slice. In LS mode the list must have been
// sorted (SortAll) since the last insertion; otherwise Segments sorts a
// copy on the fly.
func (l *List) Segments(tid TID) []Entry {
	pl := l.list(tid)
	if pl == nil {
		return nil
	}
	if !pl.sorted {
		out := append([]Entry(nil), pl.flat()...)
		l.sortByGP(out)
		return out
	}
	return pl.flat()
}

// SortAll sorts every path list by current segment global position. In
// LS mode this is the "sort just before querying" step of Section 5.1.
// A one-chunk list (a clone's) is sorted in place; a longer one is
// sorted whole and cut into chunks again.
func (l *List) SortAll() {
	for _, pl := range l.tags {
		if pl == nil {
			continue
		}
		if len(pl.chunks) == 1 {
			l.sortByGP(pl.chunks[0])
		} else {
			all := pl.flat()
			l.sortByGP(all)
			pl.chunks = chunked(all)
		}
		pl.sorted = true
	}
}

// sortByGP stably sorts entries by current segment global position,
// deleted segments last. Each entry's position is looked up in the
// SB-tree once, before the sort, so the comparisons are on ints.
func (l *List) sortByGP(entries []Entry) {
	if len(entries) < 2 {
		return
	}
	type keyed struct {
		gp int
		e  Entry
	}
	ks := make([]keyed, len(entries))
	for i, e := range entries {
		ks[i] = keyed{gp: l.gpOf(e.SID), e: e}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int { return cmp.Compare(a.gp, b.gp) })
	for i, k := range ks {
		entries[i] = k.e
	}
}

// NumTags returns the number of tags with at least one entry.
func (l *List) NumTags() int {
	n := 0
	for _, pl := range l.tags {
		if pl != nil {
			n++
		}
	}
	return n
}

// NumEntries returns the total number of path-list entries.
func (l *List) NumEntries() int {
	n := 0
	for _, pl := range l.tags {
		if pl != nil {
			n += pl.n
		}
	}
	return n
}

// SizeBytes estimates the in-memory footprint of the tag-list for the
// Figure 11 space accounting, in the paper's layout: per entry, the sid
// path (one word per component, read from the segment) plus the count,
// plus one word per tag id.
func (l *List) SizeBytes() int {
	const word = 8
	total := 0
	for _, pl := range l.tags {
		if pl == nil {
			continue
		}
		total += word
		for _, ch := range pl.chunks {
			for _, e := range ch {
				pathLen := 0
				if seg, ok := l.sb.Lookup(e.SID); ok {
					pathLen = len(seg.Path())
				}
				total += word*pathLen + word + word
			}
		}
	}
	return total
}

// Validate checks internal invariants: chunks non-empty and counted,
// entry counts positive, entries reference live segments, LD lists
// sorted by global position.
func (l *List) Validate() error {
	for tid, pl := range l.tags {
		if pl == nil {
			continue
		}
		prevGP, n := -1, 0
		for _, ch := range pl.chunks {
			if len(ch) == 0 {
				return fmt.Errorf("taglist: tag %d has an empty chunk", tid)
			}
			n += len(ch)
			for _, e := range ch {
				if e.Count <= 0 {
					return fmt.Errorf("taglist: tag %d segment %d has count %d", tid, e.SID, e.Count)
				}
				s, ok := l.sb.Lookup(e.SID)
				if !ok {
					return fmt.Errorf("taglist: tag %d references deleted segment %d", tid, e.SID)
				}
				if pl.sorted {
					if s.GP() < prevGP {
						return fmt.Errorf("taglist: tag %d entries out of GP order", tid)
					}
					prevGP = s.GP()
				}
			}
		}
		if n != pl.n {
			return fmt.Errorf("taglist: tag %d holds %d entries, counted %d", tid, n, pl.n)
		}
	}
	return nil
}

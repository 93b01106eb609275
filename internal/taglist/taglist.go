// Package taglist implements the tag-list of the lazy XML update log: an
// inverted list mapping element tag ids to the segments that contain at
// least one element with that tag.
//
// Each list entry stores the segment's full sid path (the concatenation
// of the segment ids of all its ancestors plus its own id, as in the
// paper's Figure 4) and the number of occurrences of the tag inside the
// segment. The occurrence count decides when a path must be dropped
// after a deletion: a path is removed only when no elements with that tag
// remain in the segment.
//
// Tag ids are kept in ascending order (a B+-tree, O(log T) lookup) and,
// within a tag's path list, entries are ordered by the global position of
// the corresponding segment. Two maintenance modes mirror the paper's
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
	"slices"
	"sort"

	"repro/internal/btree"
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
	nd := &Dict{
		byName: make(map[string]TID, len(d.byName)),
		names:  append([]string(nil), d.names...),
	}
	for name, id := range d.byName {
		nd.byName[name] = id
	}
	return nd
}

// Entry is one element of a tag's path list.
type Entry struct {
	SID   segment.SID   // the segment (last component of Path)
	Path  []segment.SID // root-to-segment sid chain
	Count int           // occurrences of the tag in the segment
}

// pathList is the per-tag list of entries.
type pathList struct {
	entries []Entry
	// byGP reports whether entries are currently sorted by segment
	// global position (always true in LD mode).
	sorted bool
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
	tags *btree.Tree[TID, *pathList]
}

// New returns an empty tag-list reading segment positions from sb.
func New(sb *segment.Tree, mode Mode) *List {
	return &List{
		sb:   sb,
		mode: mode,
		tags: btree.New[TID, *pathList](func(a, b TID) int { return int(a - b) }),
	}
}

// Mode returns the maintenance mode.
func (l *List) Mode() Mode { return l.mode }

// CloneFor returns an independent copy of the tag-list bound to sb —
// the caller's clone of the segment tree, so the copied list reads
// global positions from the same frozen state it was captured with.
// Entry paths are shared (immutable); the per-tag entry slices are
// copied, so later insertions and removals on the original never reach
// the clone.
func (l *List) CloneFor(sb *segment.Tree) *List {
	nl := &List{
		sb:   sb,
		mode: l.mode,
		tags: btree.New[TID, *pathList](func(a, b TID) int { return int(a - b) }),
	}
	l.tags.Ascend(func(tid TID, pl *pathList) bool {
		nl.tags.Set(tid, &pathList{
			entries: append([]Entry(nil), pl.entries...),
			sorted:  pl.sorted,
		})
		return true
	})
	return nl
}

// gpOf returns the current global position of the segment, used as the
// sort key of path lists.
func (l *List) gpOf(sid segment.SID) int {
	s, ok := l.sb.Lookup(sid)
	if !ok {
		// Deleted segments sort last; they are purged lazily.
		return int(^uint(0) >> 1)
	}
	return s.GP
}

// AddSegment records that the newly inserted segment contains counts[t]
// elements of tag t. The segment's path is taken from the SB-tree (it
// was just computed by the insertion algorithm of Figure 5).
func (l *List) AddSegment(seg *segment.Segment, counts map[TID]int) {
	for tid, n := range counts {
		if n <= 0 {
			continue
		}
		pl, ok := l.tags.Get(tid)
		if !ok {
			pl = &pathList{sorted: true}
			l.tags.Set(tid, pl)
		}
		e := Entry{SID: seg.SID, Path: seg.Path(), Count: n}
		if l.mode == LD && pl.sorted {
			gp := seg.GP
			idx := sort.Search(len(pl.entries), func(i int) bool {
				return l.gpOf(pl.entries[i].SID) >= gp
			})
			pl.entries = append(pl.entries, Entry{})
			copy(pl.entries[idx+1:], pl.entries[idx:])
			pl.entries[idx] = e
		} else {
			pl.entries = append(pl.entries, e)
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
		pl, ok := l.tags.Get(tid)
		if !ok {
			continue
		}
		for i := range pl.entries {
			if pl.entries[i].SID != sid {
				continue
			}
			pl.entries[i].Count -= n
			if pl.entries[i].Count <= 0 {
				pl.entries = append(pl.entries[:i], pl.entries[i+1:]...)
			}
			break
		}
		if len(pl.entries) == 0 {
			l.tags.Delete(tid)
		}
	}
}

// RemoveSegments drops the path-list entries of deleted segments. dead
// maps each deleted segment to its per-tag occurrence counts, as the
// element index reports them: only those tags' lists are touched.
func (l *List) RemoveSegments(dead map[segment.SID]map[TID]int) {
	byTag := map[TID]map[segment.SID]bool{}
	for sid, counts := range dead {
		for tid := range counts {
			if byTag[tid] == nil {
				byTag[tid] = map[segment.SID]bool{}
			}
			byTag[tid][sid] = true
		}
	}
	for tid, sids := range byTag {
		pl, ok := l.tags.Get(tid)
		if !ok {
			continue
		}
		kept := pl.entries[:0]
		for _, e := range pl.entries {
			if !sids[e.SID] {
				kept = append(kept, e)
			}
		}
		clear(pl.entries[len(kept):])
		pl.entries = kept
		if len(pl.entries) == 0 {
			l.tags.Delete(tid)
		}
	}
}

// Segments returns the path-list entries for tid ordered by segment
// global position — the SL lists consumed by the Lazy-Join algorithm.
// In LS mode the list must have been sorted (SortAll) since the last
// insertion; otherwise Segments sorts a copy on the fly.
func (l *List) Segments(tid TID) []Entry {
	pl, ok := l.tags.Get(tid)
	if !ok {
		return nil
	}
	if !pl.sorted {
		out := append([]Entry(nil), pl.entries...)
		l.sortByGP(out)
		return out
	}
	return pl.entries
}

// SortAll sorts every path list by current segment global position. In
// LS mode this is the "sort just before querying" step of Section 5.1.
func (l *List) SortAll() {
	l.tags.Ascend(func(_ TID, pl *pathList) bool {
		l.sortByGP(pl.entries)
		pl.sorted = true
		return true
	})
}

// sortByGP stably sorts entries by current segment global position,
// deleted segments last. Each entry's position is looked up in the
// SB-tree once, before the sort, so the comparisons are on ints.
func (l *List) sortByGP(entries []Entry) {
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
func (l *List) NumTags() int { return l.tags.Len() }

// NumEntries returns the total number of path-list entries.
func (l *List) NumEntries() int {
	n := 0
	l.tags.Ascend(func(_ TID, pl *pathList) bool {
		n += len(pl.entries)
		return true
	})
	return n
}

// SizeBytes estimates the in-memory footprint of the tag-list for the
// Figure 11 space accounting: per entry, the sid path (one word per
// component) plus the count, plus one word per tag id.
func (l *List) SizeBytes() int {
	const word = 8
	total := 0
	l.tags.Ascend(func(_ TID, pl *pathList) bool {
		total += word
		for _, e := range pl.entries {
			total += word*len(e.Path) + word + word
		}
		return true
	})
	return total
}

// Validate checks internal invariants: entry counts positive, entries
// reference live segments, LD lists sorted by global position.
func (l *List) Validate() error {
	var err error
	l.tags.Ascend(func(tid TID, pl *pathList) bool {
		prevGP := -1
		for _, e := range pl.entries {
			if e.Count <= 0 {
				err = fmt.Errorf("taglist: tag %d segment %d has count %d", tid, e.SID, e.Count)
				return false
			}
			s, ok := l.sb.Lookup(e.SID)
			if !ok {
				err = fmt.Errorf("taglist: tag %d references deleted segment %d", tid, e.SID)
				return false
			}
			if n := len(e.Path); n == 0 || e.Path[n-1] != e.SID {
				err = fmt.Errorf("taglist: tag %d segment %d has malformed path %v", tid, e.SID, e.Path)
				return false
			}
			if pl.sorted {
				if s.GP < prevGP {
					err = fmt.Errorf("taglist: tag %d entries out of GP order", tid)
					return false
				}
				prevGP = s.GP
			}
		}
		return true
	})
	return err
}

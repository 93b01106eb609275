// Package elemindex implements the element index of the lazy XML update
// log (Section 3.4 of the paper): a B+-tree whose records represent XML
// elements keyed by the tuple (tid, sid, start, end, level).
//
//   - tid is the element's tag id;
//   - sid is the segment the element belongs to;
//   - start/end are the element's local starting and ending positions in
//     the segment's original coordinates (immutable once assigned);
//   - level is the depth of the element in the super document.
//
// Each element is univocally identified by (sid, start). The key starts
// with tid so that a structural join can range-scan all A-elements of a
// segment with a single (tid, sid) prefix scan.
package elemindex

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/segment"
	"repro/internal/taglist"
)

// Key is the element index key of the paper: (tid, sid, start, end,
// LevelNum).
type Key struct {
	TID   taglist.TID
	SID   segment.SID
	Start int
	End   int
	Level int
}

// Compare orders keys lexicographically. Explicit comparisons rather
// than subtraction: range-scan bounds use extreme sentinel values that
// would overflow a difference.
func Compare(a, b Key) int {
	if c := cmpOrd(int64(a.TID), int64(b.TID)); c != 0 {
		return c
	}
	if c := cmpOrd(int64(a.SID), int64(b.SID)); c != 0 {
		return c
	}
	if c := cmpOrd(int64(a.Start), int64(b.Start)); c != 0 {
		return c
	}
	if c := cmpOrd(int64(a.End), int64(b.End)); c != 0 {
		return c
	}
	return cmpOrd(int64(a.Level), int64(b.Level))
}

func cmpOrd(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Elem is an element record as consumed by the join algorithms: local
// start/end in the owning segment's original coordinates plus the
// element's depth in the super document.
type Elem struct {
	Start int
	End   int
	Level int
}

// Index is the element index.
type Index struct {
	t *btree.Tree[Key, struct{}]
}

// New returns an empty element index.
func New() *Index {
	return &Index{t: btree.New[Key, struct{}](Compare)}
}

// Len returns the number of element records.
func (ix *Index) Len() int { return ix.t.Len() }

// Clone returns an independent copy of the index. Keys are plain value
// tuples, so the underlying B+-tree clone is a full deep copy.
func (ix *Index) Clone() *Index { return &Index{t: ix.t.Clone()} }

// Add inserts one element record.
func (ix *Index) Add(k Key) { ix.t.Set(k, struct{}{}) }

// Has reports whether the exact record exists.
func (ix *Index) Has(k Key) bool { return ix.t.Has(k) }

// AddSegment inserts all element records of a newly inserted segment and
// returns the per-tag occurrence counts the tag-list needs.
func (ix *Index) AddSegment(keys []Key) map[taglist.TID]int {
	counts := make(map[taglist.TID]int)
	for _, k := range keys {
		ix.t.Set(k, struct{}{})
		counts[k.TID]++
	}
	return counts
}

// ElementsOf returns the elements with the given tag inside the given
// segment, ordered by (start, end, level) — the per-segment element list
// consumed by the join algorithms.
func (ix *Index) ElementsOf(tid taglist.TID, sid segment.SID) []Elem {
	var out []Elem
	lo := Key{TID: tid, SID: sid, Start: minInt, End: minInt, Level: minInt}
	hi := Key{TID: tid, SID: sid + 1, Start: minInt, End: minInt, Level: minInt}
	ix.t.AscendRange(lo, hi, func(k Key, _ struct{}) bool {
		out = append(out, Elem{Start: k.Start, End: k.End, Level: k.Level})
		return true
	})
	return out
}

// EndOf returns the end label of the element of tag tid that starts at
// local position start of segment sid, if there is one: the (tid, sid,
// start) prefix of the key identifies at most one element.
func (ix *Index) EndOf(tid taglist.TID, sid segment.SID, start int) (end int, ok bool) {
	lo := Key{TID: tid, SID: sid, Start: start, End: minInt, Level: minInt}
	hi := Key{TID: tid, SID: sid, Start: start + 1, End: minInt, Level: minInt}
	ix.t.AscendRange(lo, hi, func(k Key, _ struct{}) bool {
		end, ok = k.End, true
		return false
	})
	return end, ok
}

// CountOf returns the number of elements with the given tag inside the
// given segment.
func (ix *Index) CountOf(tid taglist.TID, sid segment.SID) int {
	n := 0
	lo := Key{TID: tid, SID: sid, Start: minInt, End: minInt, Level: minInt}
	hi := Key{TID: tid, SID: sid + 1, Start: minInt, End: minInt, Level: minInt}
	ix.t.AscendRange(lo, hi, func(Key, struct{}) bool {
		n++
		return true
	})
	return n
}

const minInt = -int(^uint(0)>>1) - 1

// RemoveSegments deletes every record belonging to the given (fully
// deleted) segments and returns per-segment, per-tag removal counts.
// tids enumerates the tags that may occur (the scan is per (tid, sid)
// prefix, matching the paper's index layout).
func (ix *Index) RemoveSegments(sids []segment.SID, tids []taglist.TID) map[segment.SID]map[taglist.TID]int {
	out := make(map[segment.SID]map[taglist.TID]int, len(sids))
	for _, sid := range sids {
		for _, tid := range tids {
			n := ix.removeRange(tid, sid, minInt, int(^uint(0)>>1))
			if n > 0 {
				m := out[sid]
				if m == nil {
					m = map[taglist.TID]int{}
					out[sid] = m
				}
				m[tid] += n
			}
		}
	}
	return out
}

// RemovePart deletes the records of segment sid whose [start,end) labels
// fall entirely inside the removed original-coordinate range [la, lb)
// (a RemovedPart reported by the segment layer), and returns the per-tag
// counts of elements actually removed — the information Section 3.3
// feeds back into the tag-list.
func (ix *Index) RemovePart(part segment.RemovedPart, tids []taglist.TID) map[taglist.TID]int {
	counts := make(map[taglist.TID]int)
	for _, tid := range tids {
		n := ix.removePartRange(tid, part.SID, part.Start, part.End)
		if n > 0 {
			counts[tid] = n
		}
	}
	return counts
}

// removeRange deletes all records of (tid, sid) with start in [la, lb)
// regardless of end, returning how many were removed.
func (ix *Index) removeRange(tid taglist.TID, sid segment.SID, la, lb int) int {
	var victims []Key
	lo := Key{TID: tid, SID: sid, Start: la, End: minInt, Level: minInt}
	hi := Key{TID: tid, SID: sid, Start: lb, End: minInt, Level: minInt}
	ix.t.AscendRange(lo, hi, func(k Key, _ struct{}) bool {
		victims = append(victims, k)
		return true
	})
	for _, k := range victims {
		ix.t.Delete(k)
	}
	return len(victims)
}

// removePartRange deletes records of (tid, sid) fully inside [la, lb):
// la <= start and end <= lb.
func (ix *Index) removePartRange(tid taglist.TID, sid segment.SID, la, lb int) int {
	var victims []Key
	lo := Key{TID: tid, SID: sid, Start: la, End: minInt, Level: minInt}
	hi := Key{TID: tid, SID: sid, Start: lb, End: minInt, Level: minInt}
	ix.t.AscendRange(lo, hi, func(k Key, _ struct{}) bool {
		if k.End <= lb {
			victims = append(victims, k)
		}
		return true
	})
	for _, k := range victims {
		ix.t.Delete(k)
	}
	return len(victims)
}

// WalkAll visits every record in key order until fn returns false.
func (ix *Index) WalkAll(fn func(Key) bool) {
	ix.t.Ascend(func(k Key, _ struct{}) bool { return fn(k) })
}

// MaxStraddleLevel returns the maximum level among elements of segment
// sid that strictly straddle local position p (start < p < end), across
// the given tags. ok is false when no element straddles p. This is how
// the store finds the depth of the element enclosing an insertion point.
func (ix *Index) MaxStraddleLevel(sid segment.SID, p int, tids []taglist.TID) (int, bool) {
	best, ok := 0, false
	for _, tid := range tids {
		lo := Key{TID: tid, SID: sid, Start: minInt, End: minInt, Level: minInt}
		hi := Key{TID: tid, SID: sid, Start: p, End: minInt, Level: minInt}
		ix.t.AscendRange(lo, hi, func(k Key, _ struct{}) bool {
			if k.End > p && (!ok || k.Level > best) {
				best, ok = k.Level, true
			}
			return true
		})
	}
	return best, ok
}

// SizeBytes estimates the in-memory footprint of the index (five words
// per record).
func (ix *Index) SizeBytes() int { return ix.t.Len() * 5 * 8 }

// Validate checks that records are well-formed (start < end, level >= 0).
func (ix *Index) Validate() error {
	var err error
	ix.t.Ascend(func(k Key, _ struct{}) bool {
		if k.Start >= k.End {
			err = fmt.Errorf("elemindex: record %+v has start >= end", k)
			return false
		}
		if k.Level < 0 {
			err = fmt.Errorf("elemindex: record %+v has negative level", k)
			return false
		}
		return true
	})
	return err
}

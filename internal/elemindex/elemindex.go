// Package elemindex implements the element index of the lazy XML update
// log (Section 3.4 of the paper): records representing XML elements keyed
// by the tuple (tid, sid, start, end, level).
//
//   - tid is the element's tag id;
//   - sid is the segment the element belongs to;
//   - start/end are the element's local starting and ending positions in
//     the segment's original coordinates (immutable once assigned);
//   - level is the depth of the element in the super document.
//
// Each element is univocally identified by (sid, start).
//
// The paper stores the records in a B+-tree. This package uses the fact
// the paper's design rests on instead: no existing record is ever touched
// by an update. Records arrive with their segment and leave with it, or
// with a range of it. So the index is a map from sid to one run per
// segment: an immutable slice of 16-byte packed records sorted by (tid,
// start, end, level). An insert stores a run, a segment delete drops one,
// and a partial remove builds the segment's new run and swaps it in. No
// run is ever written after it is stored, which lets Clone share every
// run and copy only the map. The (tid, sid) element list a structural
// join reads is a sub-slice of one run, found by binary search.
package elemindex

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/segment"
	"repro/internal/taglist"
)

// Key is the element index key of the paper: (tid, sid, start, end,
// LevelNum). It is the form records take on their way in and out of the
// index; stored records are packed into a Rec.
type Key struct {
	TID   taglist.TID
	SID   segment.SID
	Start int
	End   int
	Level int
}

// Compare orders keys lexicographically. Within one segment this is the
// order of the segment's run. Explicit comparisons rather than
// subtraction: a difference of extreme values would overflow.
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

// Rec is one stored element record: a Key without its sid, which the run
// holding it implies, packed into 16 bytes. Labels are local offsets into
// one segment, so int32 bounds the length of a segment, not of the
// database.
type Rec struct {
	TID   taglist.TID
	Start int32
	End   int32
	Level int32
}

// cmpRec is Compare restricted to one segment's records.
func cmpRec(a, b Rec) int {
	if c := cmpOrd(int64(a.TID), int64(b.TID)); c != 0 {
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

func (r Rec) key(sid segment.SID) Key {
	return Key{TID: r.TID, SID: sid, Start: int(r.Start), End: int(r.End), Level: int(r.Level)}
}

// pack converts k to a Rec, failing if a label does not fit in int32.
func pack(k Key) (Rec, error) {
	for _, v := range [...]int{k.Start, k.End, k.Level} {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return Rec{}, fmt.Errorf("elemindex: record %+v: label %d does not fit in 32 bits", k, v)
		}
	}
	return Rec{TID: k.TID, Start: int32(k.Start), End: int32(k.End), Level: int32(k.Level)}, nil
}

// Index is the element index.
type Index struct {
	runs map[segment.SID][]Rec
	n    int
}

// New returns an empty element index.
func New() *Index {
	return &Index{runs: map[segment.SID][]Rec{}}
}

// Len returns the number of element records.
func (ix *Index) Len() int { return ix.n }

// Clone returns a copy of the index that later updates to either side
// do not reach. Runs are immutable, so the copy shares all of them: its
// cost is the map, one slot per segment, not the records.
func (ix *Index) Clone() *Index { return &Index{runs: maps.Clone(ix.runs), n: ix.n} }

// AddSegment inserts the element records of a newly inserted segment and
// returns the per-tag counts of records added, which the tag-list needs.
// keys is sorted in place. Each segment named gets one new run, holding
// its old run's records too (a record already there is not added twice).
// AddSegment fails without changing the index if a label does not fit in
// 32 bits.
func (ix *Index) AddSegment(keys []Key) (map[taglist.TID]int, error) {
	slices.SortFunc(keys, func(a, b Key) int {
		if c := cmpOrd(int64(a.SID), int64(b.SID)); c != 0 {
			return c
		}
		return Compare(a, b)
	})
	recs := make([]Rec, len(keys))
	for i, k := range keys {
		r, err := pack(k)
		if err != nil {
			return nil, err
		}
		recs[i] = r
	}
	counts := make(map[taglist.TID]int)
	for len(keys) > 0 {
		sid := keys[0].SID
		n := 1
		for n < len(keys) && keys[n].SID == sid {
			n++
		}
		add := slices.Compact(recs[:n:n])
		old := ix.runs[sid]
		run := add
		if len(old) > 0 {
			run = mergeRuns(old, add)
		}
		for i, j := 0, 0; i < len(run); i++ {
			// run is old plus the new records, both in order: a record
			// not found at old[j] is new.
			if j < len(old) && old[j] == run[i] {
				j++
				continue
			}
			counts[run[i].TID]++
		}
		ix.n += len(run) - len(old)
		ix.runs[sid] = run
		keys, recs = keys[n:], recs[n:]
	}
	return counts, nil
}

// mergeRuns returns the ordered union of two sorted, duplicate-free runs
// in a new slice.
func mergeRuns(a, b []Rec) []Rec {
	out := make([]Rec, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := cmpRec(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// Run returns the records with tag tid inside segment sid, ordered by
// (start, end, level) — the per-segment element list consumed by the
// join algorithms. The slice is shared with the index and every clone of
// it: callers must not write to it.
func (ix *Index) Run(tid taglist.TID, sid segment.SID) []Rec {
	run := ix.runs[sid]
	lo := sort.Search(len(run), func(i int) bool { return run[i].TID >= tid })
	hi := lo + sort.Search(len(run)-lo, func(i int) bool { return run[lo+i].TID > tid })
	return run[lo:hi:hi]
}

// EndOf returns the end label of the element of tag tid that starts at
// local position start of segment sid, if there is one: the (tid, sid,
// start) prefix of the key identifies at most one element.
func (ix *Index) EndOf(tid taglist.TID, sid segment.SID, start int) (end int, ok bool) {
	recs := ix.Run(tid, sid)
	i := sort.Search(len(recs), func(i int) bool { return int(recs[i].Start) >= start })
	if i < len(recs) && int(recs[i].Start) == start {
		return int(recs[i].End), true
	}
	return 0, false
}

// RemoveSegments deletes every record belonging to the given (fully
// deleted) segments and returns per-segment, per-tag removal counts —
// exactly the tag-list entries the deletion ends.
func (ix *Index) RemoveSegments(sids []segment.SID) map[segment.SID]map[taglist.TID]int {
	out := make(map[segment.SID]map[taglist.TID]int, len(sids))
	for _, sid := range sids {
		run, ok := ix.runs[sid]
		if !ok {
			continue
		}
		m := make(map[taglist.TID]int)
		for _, r := range run {
			m[r.TID]++
		}
		out[sid] = m
		ix.n -= len(run)
		delete(ix.runs, sid)
	}
	return out
}

// RemovePart deletes the records of segment part.SID whose [start,end)
// labels fall entirely inside the removed original-coordinate range
// [part.Start, part.End) (a RemovedPart reported by the segment layer),
// and returns the per-tag counts of elements actually removed — the
// information Section 3.3 feeds back into the tag-list. The survivors go
// into a new run; the old one is left as it was for the views that hold
// it.
func (ix *Index) RemovePart(part segment.RemovedPart) map[taglist.TID]int {
	run := ix.runs[part.SID]
	gone := func(r Rec) bool { return part.Start <= int(r.Start) && int(r.End) <= part.End }
	first := slices.IndexFunc(run, gone)
	if first < 0 {
		return nil
	}
	counts := make(map[taglist.TID]int)
	removed := 0
	for _, r := range run[first:] {
		if gone(r) {
			counts[r.TID]++
			removed++
		}
	}
	ix.n -= removed
	if removed == len(run) {
		delete(ix.runs, part.SID)
		return counts
	}
	kept := make([]Rec, 0, len(run)-removed)
	for _, r := range run {
		if !gone(r) {
			kept = append(kept, r)
		}
	}
	ix.runs[part.SID] = kept
	return counts
}

// WalkAll visits every record, one segment's run at a time in ascending
// sid order, until fn returns false.
func (ix *Index) WalkAll(fn func(Key) bool) {
	sids := make([]segment.SID, 0, len(ix.runs))
	for sid := range ix.runs {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	for _, sid := range sids {
		for _, r := range ix.runs[sid] {
			if !fn(r.key(sid)) {
				return
			}
		}
	}
}

// Per-record and per-run bytes of the index: a packed record, and a map
// slot holding a sid and a slice header.
const (
	recBytes = 16
	runBytes = 8 + 24
)

// SizeBytes estimates the in-memory footprint of the index: 16 bytes per
// record plus one map slot per segment.
func (ix *Index) SizeBytes() int { return ix.n*recBytes + len(ix.runs)*runBytes }

// Validate checks that records are well-formed (start < end, level >= 0)
// and that every run is non-empty, strictly ordered and counted.
func (ix *Index) Validate() error {
	n := 0
	for sid, run := range ix.runs {
		if len(run) == 0 {
			return fmt.Errorf("elemindex: segment %d has an empty run", sid)
		}
		for i, r := range run {
			if r.Start >= r.End {
				return fmt.Errorf("elemindex: record %+v has start >= end", r.key(sid))
			}
			if r.Level < 0 {
				return fmt.Errorf("elemindex: record %+v has negative level", r.key(sid))
			}
			if i > 0 && cmpRec(run[i-1], r) >= 0 {
				return fmt.Errorf("elemindex: segment %d run out of order at %+v", sid, r.key(sid))
			}
		}
		n += len(run)
	}
	if n != ix.n {
		return fmt.Errorf("elemindex: runs hold %d records, count says %d", n, ix.n)
	}
	return nil
}

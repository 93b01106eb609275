// Per-segment span indexes: for every segment, the sorted element starts
// and ends (in original coordinates). They answer "how many elements of
// this segment are open at local position p" in O(log n), which is how
// InsertSegment finds the depth of an insertion point without scanning
// the element index — the LevelNum assignment stays O(path · log n)
// regardless of document size.

package core

import (
	"slices"
	"sort"

	"repro/internal/segment"
)

// spanIndex holds 32-bit offsets: a segment is at most MaxInt32 bytes
// (insertLocked refuses a longer one), so every local label fits.
type spanIndex struct {
	starts []int32 // sorted element start offsets
	ends   []int32 // sorted element end offsets
}

// openAt returns the number of elements strictly containing p: elements
// opened before p minus elements closed at or before p. (An element with
// start < p and end <= p has fully closed; one with start >= p has not
// opened. Elements never share boundaries in well-formed XML.)
func (si *spanIndex) openAt(p int) int {
	if si == nil {
		return 0
	}
	opened := countBelow(si.starts, p) // starts < p
	closed := countBelow(si.ends, p+1) // ends <= p
	return opened - closed
}

// countBelow returns the number of values in the sorted xs below p.
func countBelow(xs []int32, p int) int {
	return sort.Search(len(xs), func(i int) bool { return int(xs[i]) >= p })
}

// add registers element spans (starts must already be sorted — preorder
// emission guarantees it; ends are sorted here).
func (si *spanIndex) add(starts, ends []int32) {
	si.starts = mergeSorted(si.starts, starts)
	slices.Sort(ends)
	si.ends = mergeSorted(si.ends, ends)
}

// removeRange drops the spans of elements removed by a partial deletion:
// those with la <= start and end <= lb.
func (si *spanIndex) removeRange(la, lb int) {
	// Element pairing is not stored, but the removed set is exactly the
	// elements fully inside [la, lb): their starts lie in [la, lb) and
	// their ends lie in (la, lb]. Surviving elements cannot have a start
	// in [la, lb) (they would straddle lb, which a well-formed removal
	// forbids), nor an end in (la, lb].
	si.starts = slices.DeleteFunc(si.starts, func(s int32) bool { return int(s) >= la && int(s) < lb })
	si.ends = slices.DeleteFunc(si.ends, func(e int32) bool { return int(e) > la && int(e) <= lb })
}

func mergeSorted(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// depthAtLocked returns the number of elements of the super document
// strictly containing the insertion point of the freshly inserted
// segment seg: the sum, over seg's ancestor segments, of the elements
// open at the local position leading toward seg.
func (s *Store) depthAtLocked(seg *segment.Segment) int {
	depth := 0
	for anc := seg.Parent; anc != nil && anc.SID != segment.RootSID; anc = anc.Parent {
		p, err := segment.ChildLPToward(anc, seg)
		if err != nil {
			continue
		}
		depth += s.spans[anc.SID].openAt(p)
	}
	return depth
}

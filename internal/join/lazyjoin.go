// Lazy-Join (Figure 9 of the paper): a structural join that merges two
// lists of *segments* rather than two lists of elements, using the
// update log to skip entire segments that cannot produce results.

package join

import (
	"sort"

	"repro/internal/elemindex"
	"repro/internal/segment"
	"repro/internal/taglist"
)

// Options toggles the two optimizations of Section 4.2; both default to
// on in Lazy. They are exposed separately for the ablation benchmarks.
type Options struct {
	// PushFilter pushes only the A-elements that straddle at least one
	// child-segment insertion point (optimization (i)): only those can
	// ever produce cross-segment joins.
	PushFilter bool
	// TrimTop removes from the stack's top segment the A-elements that
	// end at or before the insertion point leading to the newly pushed
	// segment (optimization (ii)).
	TrimTop bool
}

// DefaultOptions enables both optimizations.
func DefaultOptions() Options { return Options{PushFilter: true, TrimTop: true} }

// lazyStackEntry is one A-segment on the Lazy-Join stack.
type lazyStackEntry struct {
	seg   *segment.Segment
	elems []stackElem // A-elements (possibly filtered/trimmed), owned by the entry
	// pNext is P of Proposition 3 for every descendant segment reached
	// through the stack entry pushed above this one: the local position
	// of this segment's child on the path toward it. Valid for all
	// non-top entries (set at push time of the successor).
	pNext int
}

// stackElem is an A-element on the Lazy-Join stack: its record, and its
// global Node once a cross-segment match needs it (node.End is 0 until
// then; a resolved element ends after global position 0).
type stackElem struct {
	elemindex.Rec
	node Node
}

// LazyEmit computes the structural join between A-elements (tag atid)
// and D-elements (tag dtid) using the Lazy-Join algorithm, handing each
// match to emit; emit returning false stops the merge (the return value
// reports whether it ran to completion). sla and sld are the tag-list
// path lists for the two tags, ordered by segment global position; sb is
// the SB-tree and ix the element index.
//
// Matches are ordered by descendant segment and, within a segment, by
// the in-segment generation order. The join resolves global positions
// where it holds each element's segment, each record at most once: an
// A-element when it first straddles P for a D-segment with elements, a
// D-segment's run once. The operator state is the segment stack plus one
// segment's element lists, independent of the result size.
func LazyEmit(sb *segment.Tree, ix *elemindex.Index, atid, dtid taglist.TID,
	sla, sld []taglist.Entry, axis Axis, opt Options, emit func(Match) bool) bool {

	la := resolveEntries(sb, sla)
	ld := resolveEntries(sb, sld)

	var stack []lazyStackEntry
	var aBuf, dBuf []Node // per-segment Node buffers, reused across D-segments
	ai, di := 0, 0
	for di < len(ld) {
		sd := ld[di]
		// Step 1 — pop segments that end at or before sd's start: no
		// current or future descendant segment can be inside them.
		for len(stack) > 0 && sd.GP() >= stack[len(stack)-1].seg.End() {
			stack = stack[:len(stack)-1]
		}

		if ai < len(la) {
			sa := la[ai]
			if segBefore(sa, sd) {
				// Step 2 — sa starts before sd (or is a strict ancestor
				// sharing sd's start after a deletion). Push it if it
				// contains sd; either way advance SL_A.
				if segContains(sa, sd) {
					stack = pushLazy(stack, sa, atid, ix, opt)
				}
				ai++
				continue
			}
		}

		// Step 3 — join generation: every stack entry is an ancestor
		// segment of sd; emit cross-segment joins per Proposition 3.
		if dElems := ix.Run(dtid, sd.SID); len(dElems) > 0 {
			var dNodes []Node // sd's D-run, resolved on first need
			dRun := func() []Node {
				if dNodes == nil {
					dBuf = Resolve(dBuf[:0], sd.Segment, dElems)
					dNodes = dBuf
				}
				return dNodes
			}
			for i := range stack {
				e := &stack[i]
				var p int
				if i == len(stack)-1 {
					// Top of stack: compute P for this sd directly.
					var ok bool
					p, ok = childLPTowardGP(e.seg, sd)
					if !ok {
						continue
					}
					if opt.TrimTop {
						e.elems = trimEnded(e.elems, p)
					}
				} else {
					p = e.pNext
				}
				// For the Child axis the paper restricts cross joins to
				// (stack.top, sd); the LevelNum filter below subsumes
				// that restriction (an ancestor exactly one level up IS
				// the parent) and stays correct even when deletions have
				// emptied the direct parent segment.
				for j := range e.elems {
					a := &e.elems[j]
					if int(a.Start) >= p || p >= int(a.End) {
						continue
					}
					if a.node.End == 0 {
						a.node = resolve(e.seg, a.Rec)
					}
					for _, d := range dRun() {
						if axis == Child && a.node.Level+1 != d.Level {
							continue
						}
						if !emit(match(a.node, d)) {
							return false
						}
					}
				}
			}
			// In-segment joins: the current SL_A segment is the same
			// segment as sd. Computed with the classic stack algorithm
			// on the resolved runs. Local → global is monotone within one
			// segment, and strictly increasing at live start tags, so the
			// runs stay sorted by start and every containment (and
			// disjointness) of two local labels holds of their global
			// positions too: the join finds the pairs, in the order, it
			// would find on the local labels.
			if ai < len(la) && la[ai].SID == sd.SID {
				if aElems := ix.Run(atid, sd.SID); len(aElems) > 0 {
					aBuf = Resolve(aBuf[:0], sd.Segment, aElems)
					if !StackTreeDescEmit(aBuf, dRun(), axis, emit) {
						return false
					}
				}
			}
		}
		di++
	}
	return true
}

// resolvedEntry is a tag-list entry with its live segment resolved.
type resolvedEntry struct {
	*segment.Segment
	PathLen int
}

// resolveEntries looks up the segments of a tag-list path list and
// refines the global-position ordering with a deterministic ancestor-
// first tie-break (ties appear only when deletions have made segment
// boundaries coincide).
func resolveEntries(sb *segment.Tree, entries []taglist.Entry) []resolvedEntry {
	out := make([]resolvedEntry, 0, len(entries))
	for _, e := range entries {
		s, ok := sb.Lookup(e.SID)
		if !ok {
			continue
		}
		out = append(out, resolvedEntry{Segment: s, PathLen: len(s.Path())})
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.GP() != b.GP() {
			return a.GP() < b.GP()
		}
		if a.End() != b.End() {
			return a.End() > b.End() // wider (ancestor) first
		}
		return a.PathLen < b.PathLen
	})
	return out
}

// segBefore reports whether the SL_A cursor should be consumed (step 2)
// before generating joins for sd: sa strictly starts earlier, or shares
// sd's start while being a distinct segment that contains it.
func segBefore(sa, sd resolvedEntry) bool {
	if sa.GP() != sd.GP() {
		return sa.GP() < sd.GP()
	}
	return sa.SID != sd.SID && segContains(sa, sd)
}

// segContains reports whether segment sa contains sd (weakly: boundary
// sharing can appear after deletions; distinct segments with nested spans
// are always ancestor-related in a segment tree).
func segContains(sa, sd resolvedEntry) bool {
	if sa.SID == sd.SID {
		return false
	}
	if sa.GP() > sd.GP() || sa.End() < sd.End() {
		return false
	}
	if sa.GP() == sd.GP() && sa.End() == sd.End() {
		return sa.PathLen < sd.PathLen
	}
	return true
}

// pushLazy pushes sa onto the stack, recording P on the previous top and
// applying the configured optimizations.
func pushLazy(stack []lazyStackEntry, sa resolvedEntry, atid taglist.TID,
	ix *elemindex.Index, opt Options) []lazyStackEntry {

	// The entry trims its list in place and resolves its elements in
	// place, so it takes a copy of the index's shared run.
	var elems []stackElem
	for _, r := range ix.Run(atid, sa.SID) {
		if !opt.PushFilter || straddlesChild(r, sa.Segment) {
			elems = append(elems, stackElem{Rec: r})
		}
	}
	if len(stack) > 0 {
		top := &stack[len(stack)-1]
		if p, ok := childLPTowardGP(top.seg, sa); ok {
			top.pNext = p
			if opt.TrimTop {
				top.elems = trimEnded(top.elems, p)
			}
		}
	}
	return append(stack, lazyStackEntry{seg: sa.Segment, elems: elems})
}

// straddlesChild reports whether element r of segment s strictly
// straddles at least one child-segment insertion point — only such
// elements can satisfy Proposition 3(2) for any descendant segment.
func straddlesChild(r elemindex.Rec, s *segment.Segment) bool {
	// First child insertion point > r.Start; it must also be < r.End.
	i := sort.Search(len(s.Children), func(i int) bool { return s.Children[i].LP > int(r.Start) })
	return i < len(s.Children) && s.Children[i].LP < int(r.End)
}

// trimEnded drops elements whose end is at or before p: they cannot
// straddle p or any later insertion point.
func trimEnded(elems []stackElem, p int) []stackElem {
	out := elems[:0]
	for _, e := range elems {
		if int(e.End) > p {
			out = append(out, e)
		}
	}
	return out
}

// childLPTowardGP returns P of Proposition 3: the local position, in
// segment s's original coordinates, of s's child segment on the path
// toward descendant segment t, located by global position. ok is false
// when t is not inside s (possible only in post-deletion boundary ties).
func childLPTowardGP(s *segment.Segment, t resolvedEntry) (int, bool) {
	children := s.Children
	// Last child starting at or before t.
	i := sort.Search(len(children), func(i int) bool { return children[i].GP() > t.GP() })
	for j := i - 1; j >= 0; j-- {
		c := children[j]
		if c.GP() > t.GP() {
			continue
		}
		if c.GP() <= t.GP() && t.End() <= c.End() {
			return c.LP, true
		}
		// Children with the same GP can stack up after deletions; only
		// look left while the GP still matches.
		if c.GP() < t.GP() {
			break
		}
	}
	return 0, false
}

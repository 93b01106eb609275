// Lazy-Join (Figure 9 of the paper): a structural join that merges two
// lists of *segments* rather than two lists of elements, using the
// update log to skip entire segments that cannot produce results.

package join

import (
	"slices"
	"sort"
	"sync"

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
	elems []elemindex.Rec // A-elements (possibly filtered/trimmed), owned by the entry
	// pNext is P of Proposition 3 for every descendant segment reached
	// through the stack entry pushed above this one: the local position
	// of this segment's child on the path toward it. Valid for all
	// non-top entries (set at push time of the successor).
	pNext int
}

// Lazy computes the structural join between A-elements (tag atid) and
// D-elements (tag dtid) using the Lazy-Join algorithm. sla and sld are
// the tag-list path lists for the two tags, ordered by segment global
// position; sb is the SB-tree and ix the element index.
//
// Results are pairs of (segment id, local label) element references,
// ordered by descendant segment and, within a segment, by the in-segment
// generation order.
func Lazy(sb *segment.Tree, ix *elemindex.Index, atid, dtid taglist.TID,
	sla, sld []taglist.Entry, axis Axis, opt Options) []Pair {

	var out []Pair
	LazyEmit(sb, ix, atid, dtid, sla, sld, axis, opt, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// LazyEmit is Lazy in push form: pairs are handed to emit in the order
// the slice variant returns them, and emit returning false stops the
// merge (the return value reports whether it ran to completion). This is
// the lowest-memory entry point of the package — the operator state is
// the segment stack plus one segment's element lists, independent of the
// result size.
func LazyEmit(sb *segment.Tree, ix *elemindex.Index, atid, dtid taglist.TID,
	sla, sld []taglist.Entry, axis Axis, opt Options, emit func(Pair) bool) bool {

	la := resolveEntries(sb, sla)
	ld := resolveEntries(sb, sld)

	var stack []lazyStackEntry
	ai, di := 0, 0
	for di < len(ld) {
		sd := ld[di]
		// Step 1 — pop segments that end at or before sd's start: no
		// current or future descendant segment can be inside them.
		for len(stack) > 0 && sd.GP >= stack[len(stack)-1].seg.End() {
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
		if len(stack) > 0 {
			dElems := ix.Run(dtid, sd.SID)
			if len(dElems) > 0 {
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
					for _, a := range e.elems {
						if int(a.Start) < p && p < int(a.End) {
							for _, d := range dElems {
								if axis == Child && a.Level+1 != d.Level {
									continue
								}
								if !emit(Pair{Anc: recRef(e.seg.SID, a), Desc: recRef(sd.SID, d)}) {
									return false
								}
							}
						}
					}
				}
			}
		}
		// In-segment joins: the current SL_A segment is the same segment
		// as sd. Computed with the classic stack algorithm on the local
		// labels (both element lists live in the same original
		// coordinate space).
		if ai < len(la) && la[ai].SID == sd.SID {
			if !inSegmentEmit(ix, atid, dtid, sd.SID, axis, emit) {
				return false
			}
		}
		di++
	}
	return true
}

// LazyParallel runs Lazy-Join with the descendant segment list
// partitioned across workers — the parallelization the paper's
// introduction points out segments enable ("segments can be used for
// parallelizing query processing"). Each worker merges the full A-list
// against its GP-contiguous slice of the D-list; results are identical
// to Lazy because join generation for a descendant segment depends only
// on the A-segments containing it, which every worker rediscovers from
// its own merge. Results are concatenated in D-list order, preserving
// Lazy's output order.
func LazyParallel(sb *segment.Tree, ix *elemindex.Index, atid, dtid taglist.TID,
	sla, sld []taglist.Entry, axis Axis, opt Options, workers int) []Pair {

	if workers <= 1 || len(sld) < 2*workers {
		return Lazy(sb, ix, atid, dtid, sla, sld, axis, opt)
	}
	// Partition sld by GP order. The entries must be sliced after the
	// same ordering Lazy itself uses; taglist.Segments already returns
	// GP order, so contiguous slices are GP ranges.
	chunk := (len(sld) + workers - 1) / workers
	results := make([][]Pair, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(sld))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			results[w] = Lazy(sb, ix, atid, dtid, sla, sld[lo:hi], axis, opt)
		}(w, lo, hi)
	}
	wg.Wait()
	var out []Pair
	for _, r := range results {
		out = append(out, r...)
	}
	return out
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
		if a.GP != b.GP {
			return a.GP < b.GP
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
	if sa.GP != sd.GP {
		return sa.GP < sd.GP
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
	if sa.GP > sd.GP || sa.End() < sd.End() {
		return false
	}
	if sa.GP == sd.GP && sa.End() == sd.End() {
		return sa.PathLen < sd.PathLen
	}
	return true
}

// pushLazy pushes sa onto the stack, recording P on the previous top and
// applying the configured optimizations.
func pushLazy(stack []lazyStackEntry, sa resolvedEntry, atid taglist.TID,
	ix *elemindex.Index, opt Options) []lazyStackEntry {

	// The entry trims its list in place, so it takes a copy of the
	// index's shared run.
	elems := ix.Run(atid, sa.SID)
	if opt.PushFilter {
		elems = filterStraddlers(elems, sa.Segment)
	} else {
		elems = slices.Clone(elems)
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

// filterStraddlers keeps only the elements that strictly straddle at
// least one child-segment insertion point — the only elements that can
// satisfy Proposition 3(2) for any descendant segment.
func filterStraddlers(elems []elemindex.Rec, s *segment.Segment) []elemindex.Rec {
	if len(s.Children) == 0 {
		return nil
	}
	lps := make([]int, len(s.Children))
	for i, c := range s.Children {
		lps[i] = c.LP
	}
	out := make([]elemindex.Rec, 0, len(elems))
	for _, e := range elems {
		// First child insertion point > e.Start; it must also be < e.End.
		i := sort.SearchInts(lps, int(e.Start)+1)
		if i < len(lps) && lps[i] < int(e.End) {
			out = append(out, e)
		}
	}
	return out
}

// trimEnded drops elements whose end is at or before p: they cannot
// straddle p or any later insertion point.
func trimEnded(elems []elemindex.Rec, p int) []elemindex.Rec {
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
	// Last child with GP <= t.GP.
	i := sort.Search(len(children), func(i int) bool { return children[i].GP > t.GP })
	for j := i - 1; j >= 0; j-- {
		c := children[j]
		if c.GP > t.GP {
			continue
		}
		if c.GP <= t.GP && t.End() <= c.End() {
			return c.LP, true
		}
		// Children with the same GP can stack up after deletions; only
		// look left while the GP still matches.
		if c.GP < t.GP {
			break
		}
	}
	return 0, false
}

// inSegmentEmit joins the A- and D-elements that live inside one segment
// using StackTreeDesc on their local labels, pushing pairs to emit.
func inSegmentEmit(ix *elemindex.Index, atid, dtid taglist.TID, sid segment.SID, axis Axis, emit func(Pair) bool) bool {
	aElems := ix.Run(atid, sid)
	dElems := ix.Run(dtid, sid)
	if len(aElems) == 0 || len(dElems) == 0 {
		return true
	}
	nodes := func(recs []elemindex.Rec) []Node {
		out := make([]Node, len(recs))
		for i, r := range recs {
			ref := recRef(sid, r)
			out[i] = Node{Start: ref.Start, End: ref.End, Level: ref.Level, Ref: ref}
		}
		return out
	}
	return StackTreeDescEmit(nodes(aElems), nodes(dElems), axis, emit)
}

// recRef names the element a record of segment sid stands for.
func recRef(sid segment.SID, r elemindex.Rec) ElemRef {
	return ElemRef{SID: sid, Start: int(r.Start), End: int(r.End), Level: int(r.Level)}
}

// Package xbtree implements the XB-tree of Bruno, Koudas and Srivastava
// (SIGMOD 2002, reference [2] of the paper): a hierarchy of (position,
// extent) summaries over a start-sorted element stream, letting a
// structural join advance over whole regions that cannot participate in
// any result instead of touching every element.
//
// Each region summarizes a fixed-fanout block of the level below with
// three numbers: the smallest start, the largest start and the largest
// end among the covered elements. JoinDesc merges two XB-trees with the
// classic stack discipline, but when the stack is empty it climbs the
// summary hierarchy to skip the largest aligned dead block in one step —
// the page-skipping behaviour of the published structure, here over
// in-memory arrays.
package xbtree

import (
	"fmt"
	"sort"

	"repro/internal/join"
)

// DefaultFanout is the summary fanout used by Build.
const DefaultFanout = 16

// region summarizes a block of the level below.
type region struct {
	minStart  int
	lastStart int
	maxEnd    int
}

// Tree is an XB-tree over one element stream.
type Tree struct {
	fanout int
	leaves []join.Node
	levels [][]region // levels[0] summarizes leaves, levels[k] summarizes levels[k-1]
}

// Build constructs an XB-tree with the given fanout (DefaultFanout when
// <= 1). The nodes need not be sorted.
func Build(nodes []join.Node, fanout int) *Tree {
	if fanout <= 1 {
		fanout = DefaultFanout
	}
	leaves := append([]join.Node(nil), nodes...)
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Start < leaves[j].Start })
	t := &Tree{fanout: fanout, leaves: leaves}
	// Build summary levels bottom-up until one region remains.
	cur := make([]region, 0, (len(leaves)+fanout-1)/fanout)
	for i := 0; i < len(leaves); i += fanout {
		j := min(i+fanout, len(leaves))
		r := region{minStart: leaves[i].Start, lastStart: leaves[j-1].Start}
		for _, n := range leaves[i:j] {
			if n.End > r.maxEnd {
				r.maxEnd = n.End
			}
		}
		cur = append(cur, r)
	}
	for len(cur) > 1 {
		t.levels = append(t.levels, cur)
		next := make([]region, 0, (len(cur)+fanout-1)/fanout)
		for i := 0; i < len(cur); i += fanout {
			j := min(i+fanout, len(cur))
			r := region{minStart: cur[i].minStart, lastStart: cur[j-1].lastStart}
			for _, c := range cur[i:j] {
				if c.maxEnd > r.maxEnd {
					r.maxEnd = c.maxEnd
				}
			}
			next = append(next, r)
		}
		cur = next
	}
	if len(cur) == 1 {
		t.levels = append(t.levels, cur)
	}
	return t
}

// Len returns the number of indexed elements.
func (t *Tree) Len() int { return len(t.leaves) }

// Leaf returns the i-th element in start order.
func (t *Tree) Leaf(i int) join.Node { return t.leaves[i] }

// Depth returns the number of summary levels.
func (t *Tree) Depth() int { return len(t.levels) }

// Region returns the summary at (level, idx) — for inspection and tests.
func (t *Tree) Region(level, idx int) (minStart, lastStart, maxEnd int, err error) {
	if level < 0 || level >= len(t.levels) || idx < 0 || idx >= len(t.levels[level]) {
		return 0, 0, 0, fmt.Errorf("xbtree: no region (%d,%d)", level, idx)
	}
	r := t.levels[level][idx]
	return r.minStart, r.lastStart, r.maxEnd, nil
}

// skipDeadEnds advances from leaf index ai over the largest aligned
// blocks in which every element ends at or before deadEnd (and therefore
// cannot contain anything at or after it). Returns the first index not
// provably dead.
func (t *Tree) skipDeadEnds(ai, deadEnd int) int {
	for ai < len(t.leaves) {
		bestSpan := 0
		if t.leaves[ai].End <= deadEnd {
			bestSpan = 1
		} else {
			return ai
		}
		span := t.fanout
		idx := ai
		for l := 0; l < len(t.levels); l++ {
			if idx%t.fanout != 0 {
				break
			}
			idx /= t.fanout
			if idx >= len(t.levels[l]) {
				break
			}
			if t.levels[l][idx].maxEnd <= deadEnd {
				bestSpan = span
				span *= t.fanout
			} else {
				break
			}
		}
		ai += bestSpan
	}
	return ai
}

// skipDeadStarts advances from leaf index di over the largest aligned
// blocks in which every element starts at or before maxStart (and
// therefore cannot be contained by anything starting there or later).
func (t *Tree) skipDeadStarts(di, maxStart int) int {
	for di < len(t.leaves) {
		bestSpan := 0
		if t.leaves[di].Start <= maxStart {
			bestSpan = 1
		} else {
			return di
		}
		span := t.fanout
		idx := di
		for l := 0; l < len(t.levels); l++ {
			if idx%t.fanout != 0 {
				break
			}
			idx /= t.fanout
			if idx >= len(t.levels[l]) {
				break
			}
			if t.levels[l][idx].lastStart <= maxStart {
				bestSpan = span
				span *= t.fanout
			} else {
				break
			}
		}
		di += bestSpan
	}
	return di
}

// JoinDesc computes the structural join between the two indexed streams
// — identical output (pairs and order) to join.StackTreeDesc over the
// same leaves — skipping dead regions through the summary hierarchy.
func JoinDesc(aT, dT *Tree, axis join.Axis) []join.Pair {
	alist, dlist := aT.leaves, dT.leaves
	var out []join.Pair
	var stack []join.Node
	ai, di := 0, 0
	for di < len(dlist) {
		d := dlist[di]
		for len(stack) > 0 && stack[len(stack)-1].End <= d.Start {
			stack = stack[:len(stack)-1]
		}
		if ai < len(alist) && alist[ai].Start < d.Start {
			if len(stack) == 0 && alist[ai].End <= d.Start {
				// Dead ancestors: climb the A summaries.
				ai = aT.skipDeadEnds(ai, d.Start)
				continue
			}
			a := alist[ai]
			for len(stack) > 0 && stack[len(stack)-1].End <= a.Start {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, a)
			ai++
			continue
		}
		if len(stack) == 0 {
			if ai >= len(alist) {
				break
			}
			// Dead descendants: climb the D summaries past everything
			// starting at or before the next ancestor's start.
			di = dT.skipDeadStarts(di, alist[ai].Start)
			continue
		}
		for _, a := range stack {
			if a.Start < d.Start && d.End <= a.End {
				if axis == join.Child && a.Level+1 != d.Level {
					continue
				}
				out = append(out, join.Pair{Anc: a.Ref, Desc: d.Ref})
			}
		}
		di++
	}
	return out
}

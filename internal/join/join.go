// Package join implements the structural join algorithms of the paper:
// Stack-Tree-Desc (Al-Khalifa et al., ICDE 2002), the baseline the paper
// calls STD, and Lazy-Join (Figure 9), the segment-aware variant that is
// the paper's query-side contribution.
package join

import (
	"slices"

	"repro/internal/elemindex"
	"repro/internal/segment"
)

// Axis selects the structural relationship being joined.
type Axis int

const (
	// Descendant computes ancestor//descendant pairs.
	Descendant Axis = iota
	// Child computes parent/child pairs (LevelNum difference of one).
	Child
)

func (a Axis) String() string {
	if a == Child {
		return "child"
	}
	return "descendant"
}

// ElemRef identifies an element of the super document: the segment it
// belongs to and its immutable local (start, end, level) label.
type ElemRef struct {
	SID        segment.SID
	Start, End int
	Level      int
}

// Match is one structural-join result: the lazy identity of both
// elements (segment + immutable local label) and their global positions
// in the current super document. Every join emits it.
type Match struct {
	Anc, Desc          ElemRef
	AncStart, AncEnd   int // global
	DescStart, DescEnd int // global
}

// Node is an input element for StackTreeDesc: an interval plus the
// element's identity. Start/End are positions in one global order — the
// super document's offsets, or a labeling baseline's labels — and a
// join's matches carry them.
type Node struct {
	Start, End int
	Level      int
	Ref        ElemRef
}

// match pairs ancestor a with descendant d.
func match(a, d Node) Match {
	return Match{Anc: a.Ref, Desc: d.Ref, AncStart: a.Start, AncEnd: a.End, DescStart: d.Start, DescEnd: d.End}
}

// Resolve appends to dst the Nodes of run, records of segment s, with
// their global positions: each immutable local label is mapped through
// its own segment (Section 4, first paragraph). It is the one place a
// join turns local labels into global positions. Within one segment the
// map is monotone, and strictly increasing at live start tags, so the
// Nodes keep run's order and nesting.
func Resolve(dst []Node, s *segment.Segment, run []elemindex.Rec) []Node {
	dst = slices.Grow(dst, len(run))
	for _, r := range run {
		dst = append(dst, resolve(s, r))
	}
	return dst
}

// resolve maps one record of segment s to its global Node.
func resolve(s *segment.Segment, r elemindex.Rec) Node {
	start, end, level := int(r.Start), int(r.End), int(r.Level)
	return Node{
		Start: s.GlobalOf(start),
		End:   s.GlobalOfEnd(end),
		Level: level,
		Ref:   ElemRef{SID: s.SID, Start: start, End: end, Level: level},
	}
}

// StackTreeDesc is the stack-based structural join of [1]: it merges an
// ancestor candidate list and a descendant candidate list, both sorted by
// start position, and returns all pairs related by the requested axis,
// sorted by descendant position. Each match carries the Nodes' positions.
//
// Intervals are half-open [Start, End) with strict containment semantics:
// a contains d iff a.Start < d.Start && d.End <= a.End — in XML terms the
// descendant's tags lie strictly inside the ancestor's tags, so for
// offset-accurate labels d.End < a.End always holds too; <= keeps the
// predicate correct for degenerate equal boundaries.
func StackTreeDesc(alist, dlist []Node, axis Axis) []Match {
	var out []Match
	StackTreeDescEmit(alist, dlist, axis, func(m Match) bool {
		out = append(out, m)
		return true
	})
	return out
}

// StackTreeDescEmit is StackTreeDesc in push form: each match is
// handed to emit as soon as the merge produces it, in the same order the
// slice variant returns. emit returning false stops the join; the return
// value reports whether the merge ran to completion. The operator's own
// memory stays bounded by the stack depth (document nesting), so a
// consumer that stops early really does bound the work.
func StackTreeDescEmit(alist, dlist []Node, axis Axis, emit func(Match) bool) bool {
	var stack []Node
	ai, di := 0, 0
	for di < len(dlist) {
		d := dlist[di]
		// Pop stack entries that end before d starts: they cannot
		// contain d or any later descendant.
		for len(stack) > 0 && stack[len(stack)-1].End <= d.Start {
			stack = stack[:len(stack)-1]
		}
		if ai < len(alist) && alist[ai].Start < d.Start {
			a := alist[ai]
			// a could contain d or a later d: push it if it is nested in
			// the current stack chain (it always is after the pop above,
			// because candidate lists come from one properly nested
			// document), else the pop above already discarded dead tops.
			for len(stack) > 0 && stack[len(stack)-1].End <= a.Start {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, a)
			ai++
			continue
		}
		// Emit all stack entries that contain d.
		for _, a := range stack {
			if a.Start < d.Start && d.End <= a.End {
				if axis == Child && a.Level+1 != d.Level {
					continue
				}
				if !emit(match(a, d)) {
					return false
				}
			}
		}
		di++
	}
	return true
}

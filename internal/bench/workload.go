// Package bench builds the controlled workloads behind the paper's
// evaluation (Section 5) and provides the measurement helpers shared by
// its Go benchmarks (bench_test.go) and cmd/labreport.
//
// The central construct is the cross-join workload of Figure 12: a super
// document with a fixed number of segments and a fixed total number of
// A//D join results, in which the fraction of results produced by
// cross-segment joins (ancestor and descendant in different segments) is
// an exact, tunable parameter.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/chopper"
	"repro/internal/core"
)

// Shape mirrors chopper's ER-tree shapes for workload construction.
type Shape int

// Workload ER-tree shapes.
const (
	// Balanced builds a two-level ER-tree (base + N-1 child segments).
	Balanced Shape = iota
	// Nested builds a linear chain of N segments.
	Nested
)

func (s Shape) String() string {
	if s == Nested {
		return "nested"
	}
	return "balanced"
}

// CrossWorkload is a constructed super document with exact join
// accounting for the query A//D.
type CrossWorkload struct {
	Ops        []chopper.Op // segment insertions that build the document
	Segments   int
	CrossJoins int // results whose ancestor and descendant sit in different segments
	InJoins    int // results inside one segment
}

// TotalJoins returns the total number of A//D results.
func (w CrossWorkload) TotalJoins() int { return w.CrossJoins + w.InJoins }

// CrossPct returns the achieved cross-join percentage.
func (w CrossWorkload) CrossPct() float64 {
	t := w.TotalJoins()
	if t == 0 {
		return 0
	}
	return 100 * float64(w.CrossJoins) / float64(t)
}

// BuildCrossWorkload constructs a super document with nSegments segments
// whose A//D join produces ~totalJoins results, of which crossPct percent
// (0..100) are cross-segment. The shape selects the ER-tree: Balanced
// (a base segment with N-1 children) or Nested (a chain of N segments).
//
// Balanced layout: the base holds N-1 carrier elements; a carrier is
// <A></A> for cross-type children (whose child segment holds m bare
// <D/> elements, each joining exactly the carrier) and <z></z> for
// in-type children (whose child segment holds m <A><D/></A> units, each
// an in-segment join invisible outside). A cross child brings one A
// (its carrier) where an in child brings m, so empty <A/> padding in the
// base, after the carriers, tops the A elements up to (N-1)*m at every
// point of a balanced sweep, as the nested layout's padding does.
//
// Nested layout: a chain where only the deepest nA carriers are <A> and
// all cross D's live in the final segment (cross = nA*mCross), while the
// in-segment payloads live above every A carrier, so no unintended pair
// ever forms. The in-segment joins come in <A><D/></A> units, so the
// joining elements alone would shrink as the cross share rises; empty
// <A/> and <D/> padding in the top segment, outside every A, tops both
// up to totalJoins+N, so every point of a nested sweep joins the same
// number of A and D elements.
func BuildCrossWorkload(shape Shape, nSegments, totalJoins int, crossPct float64) (CrossWorkload, error) {
	if nSegments < 2 {
		return CrossWorkload{}, fmt.Errorf("bench: need at least 2 segments, got %d", nSegments)
	}
	if crossPct < 0 || crossPct > 100 {
		return CrossWorkload{}, fmt.Errorf("bench: crossPct %.1f out of range", crossPct)
	}
	switch shape {
	case Balanced:
		return buildBalanced(nSegments, totalJoins, crossPct)
	case Nested:
		return buildNested(nSegments, totalJoins, crossPct)
	default:
		return CrossWorkload{}, fmt.Errorf("bench: unknown shape %d", shape)
	}
}

func buildBalanced(nSegments, totalJoins int, crossPct float64) (CrossWorkload, error) {
	children := nSegments - 1
	m := max(totalJoins/children, 1)
	nCross := int(crossPct/100*float64(children) + 0.5)

	// Joining elements: nCross carriers plus m A's per in child, and m
	// D's per child of either kind.
	fixed := children * m
	pad, err := padding(fixed, nCross+(children-nCross)*m, fixed)
	if err != nil {
		return CrossWorkload{}, err
	}
	var base strings.Builder
	base.WriteString("<r>")
	for i := 0; i < children; i++ {
		if i < nCross {
			base.WriteString("<A></A>")
		} else {
			base.WriteString("<z></z>")
		}
	}
	base.WriteString(pad)
	base.WriteString("</r>")
	w := CrossWorkload{Segments: nSegments}
	w.Ops = append(w.Ops, chopper.Op{GP: 0, Fragment: []byte(base.String())})

	crossChild := "<x>" + strings.Repeat("<D/>", m) + "</x>"
	inChild := "<x>" + strings.Repeat("<A><D/></A>", m) + "</x>"
	// Content offsets of the i-th carrier inside the base: carriers are
	// fixed-width (7 bytes "<A></A>" / "<z></z>"), content sits after
	// "<A>"/"<z>".
	const rOpen = 3 // len("<r>")
	const carrierW = 7
	const carrierOpen = 3
	// Insert children back to front so earlier offsets stay valid.
	for i := children - 1; i >= 0; i-- {
		gp := rOpen + i*carrierW + carrierOpen
		frag := inChild
		if i < nCross {
			frag = crossChild
			w.CrossJoins += m
		} else {
			w.InJoins += m
		}
		w.Ops = append(w.Ops, chopper.Op{GP: gp, Fragment: []byte(frag)})
	}
	return w, nil
}

func buildNested(nSegments, totalJoins int, crossPct float64) (CrossWorkload, error) {
	chain := nSegments // segments 1..N, each containing the next
	wantCross := int(crossPct / 100 * float64(totalJoins))
	wantIn := totalJoins - wantCross

	// Deepest nA carriers are <A>; all cross D's sit in the final
	// segment, giving exactly nA*mCross cross joins. Half the chain acts
	// as A carriers (the whole chain when no in-segment joins are
	// wanted), so the Lazy-Join stack really is exercised in depth.
	nA := 0
	mCross := 0
	if wantCross > 0 {
		nA = max(1, (chain-1)/2)
		if wantIn == 0 {
			nA = chain - 1
		}
		mCross = max(1, (wantCross+nA/2)/nA)
	}
	payloadSegs := chain - 1 - nA // segments that may carry in-segment units
	mIn := 0
	if wantIn > 0 {
		if payloadSegs == 0 {
			return CrossWorkload{}, fmt.Errorf(
				"bench: nested chain of %d segments cannot hold in-segment joins at %.0f%% cross", nSegments, crossPct)
		}
		mIn = max(1, wantIn/payloadSegs)
	}

	// Padding: the joining elements are nA carriers plus one A per
	// in-segment unit, and mCross D's plus one D per unit.
	pad, err := padding(totalJoins+nSegments, nA+mIn*payloadSegs, mCross+mIn*payloadSegs)
	if err != nil {
		return CrossWorkload{}, fmt.Errorf("bench: nested chain of %d segments at %.0f%% cross: %w", nSegments, crossPct, err)
	}

	w := CrossWorkload{Segments: nSegments}
	gp := 0
	for i := 1; i <= chain; i++ {
		var sb strings.Builder
		sb.WriteString("<x>")
		payloadW := 0
		if i == 1 {
			sb.WriteString(pad)
			payloadW = len(pad)
		}
		if i <= payloadSegs && mIn > 0 {
			payload := strings.Repeat("<A><D/></A>", mIn)
			sb.WriteString(payload)
			payloadW += len(payload)
			w.InJoins += mIn
		}
		if i == chain {
			if mCross > 0 {
				sb.WriteString(strings.Repeat("<D/>", mCross))
				w.CrossJoins += nA * mCross
			}
			sb.WriteString("</x>")
			w.Ops = append(w.Ops, chopper.Op{GP: gp, Fragment: []byte(sb.String())})
			break
		}
		// Carrier for the next segment: <A> for the deepest nA levels.
		carrier := "<z></z>"
		if i >= chain-nA {
			carrier = "<A></A>"
		}
		sb.WriteString(carrier)
		sb.WriteString("</x>")
		w.Ops = append(w.Ops, chopper.Op{GP: gp, Fragment: []byte(sb.String())})
		// Next segment goes inside this carrier's content.
		gp += len("<x>") + payloadW + len("<A>")
	}
	return w, nil
}

// padding returns the empty <A/> and <D/> elements that top a workload
// holding a joining A's and d joining D's up to fixed of each. Placed
// outside every A, they join nothing.
func padding(fixed, a, d int) (string, error) {
	if a > fixed || d > fixed {
		return "", fmt.Errorf("bench: %d A and %d D elements exceed the fixed %d", a, d, fixed)
	}
	return strings.Repeat("<A/>", fixed-a) + strings.Repeat("<D/>", fixed-d), nil
}

// BuildStore replays the workload into a fresh store with the given
// maintenance mode.
func (w CrossWorkload) BuildStore(mode core.Mode) (*core.Store, error) {
	return buildFromOps(w.Ops, mode)
}

// buildFromOps replays segment insertions into a fresh store: the one
// store builder behind every workload, figure and benchmark here.
func buildFromOps(ops []chopper.Op, mode core.Mode, opts ...core.Option) (*core.Store, error) {
	s := core.NewStore(mode, opts...)
	for _, op := range ops {
		if _, err := s.InsertSegment(op.GP, op.Fragment); err != nil {
			return nil, err
		}
	}
	return s, nil
}

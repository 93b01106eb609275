package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/join"
)

// countJoins classifies the A//D results of a store into cross-segment
// and in-segment pairs — the ground truth the workload builder promises.
func countJoins(t *testing.T, s *core.Store) (cross, in int) {
	t.Helper()
	ms, err := s.Query("A", "D", join.Descendant, core.STD)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Anc.SID == m.Desc.SID {
			in++
		} else {
			cross++
		}
	}
	return cross, in
}

func TestBalancedWorkloadAccounting(t *testing.T) {
	for _, crossPct := range []float64{0, 20, 50, 80, 100} {
		w, err := BuildCrossWorkload(Balanced, 21, 400, crossPct)
		if err != nil {
			t.Fatalf("pct=%v: %v", crossPct, err)
		}
		if w.Segments != 21 || len(w.Ops) != 21 {
			t.Fatalf("pct=%v: segments=%d ops=%d", crossPct, w.Segments, len(w.Ops))
		}
		s, err := w.BuildStore(core.LD)
		if err != nil {
			t.Fatalf("pct=%v: %v", crossPct, err)
		}
		if err := s.CheckAgainstText(); err != nil {
			t.Fatalf("pct=%v: %v", crossPct, err)
		}
		cross, in := countJoins(t, s)
		if cross != w.CrossJoins || in != w.InJoins {
			t.Fatalf("pct=%v: claimed cross/in = %d/%d, actual %d/%d",
				crossPct, w.CrossJoins, w.InJoins, cross, in)
		}
		got := w.CrossPct()
		if got < crossPct-6 || got > crossPct+6 {
			t.Fatalf("pct=%v: achieved %.1f%%", crossPct, got)
		}
	}
}

func TestNestedWorkloadAccounting(t *testing.T) {
	for _, crossPct := range []float64{0, 25, 50, 75, 100} {
		w, err := BuildCrossWorkload(Nested, 20, 400, crossPct)
		if err != nil {
			t.Fatalf("pct=%v: %v", crossPct, err)
		}
		if w.Segments != 20 || len(w.Ops) != 20 {
			t.Fatalf("pct=%v: segments=%d ops=%d", crossPct, w.Segments, len(w.Ops))
		}
		s, err := w.BuildStore(core.LD)
		if err != nil {
			t.Fatalf("pct=%v: %v", crossPct, err)
		}
		if err := s.CheckAgainstText(); err != nil {
			t.Fatalf("pct=%v: %v", crossPct, err)
		}
		// The ER-tree must be one chain.
		depth, cur := 0, s.SegmentTree().Root()
		for len(cur.Children) > 0 {
			if len(cur.Children) != 1 {
				t.Fatalf("pct=%v: fan-out %d in nested workload", crossPct, len(cur.Children))
			}
			cur = cur.Children[0]
			depth++
		}
		if depth != 20 {
			t.Fatalf("pct=%v: chain depth %d", crossPct, depth)
		}
		cross, in := countJoins(t, s)
		if cross != w.CrossJoins || in != w.InJoins {
			t.Fatalf("pct=%v: claimed cross/in = %d/%d, actual %d/%d",
				crossPct, w.CrossJoins, w.InJoins, cross, in)
		}
	}
}

// TestNestedSweepHoldsElementCounts: across a cross-share sweep the
// nested workload joins the same number of A and D elements at every
// point, as the paper's Figure 12 does, so a change in join time is the
// cross share's doing, not the input size's.
func TestNestedSweepHoldsElementCounts(t *testing.T) { sweepHoldsElementCounts(t, Nested) }

// TestBalancedSweepHoldsElementCounts is the same check on the balanced
// (two-level) workload.
func TestBalancedSweepHoldsElementCounts(t *testing.T) { sweepHoldsElementCounts(t, Balanced) }

func sweepHoldsElementCounts(t *testing.T, shape Shape) {
	for _, n := range []int{20, 50, 100} {
		wantA, wantD := -1, -1
		for _, crossPct := range []float64{0, 20, 40, 60, 80, 100} {
			w, err := BuildCrossWorkload(shape, n, 2000, crossPct)
			if err != nil {
				t.Fatalf("n=%d pct=%v: %v", n, crossPct, err)
			}
			s, err := w.BuildStore(core.LD)
			if err != nil {
				t.Fatalf("n=%d pct=%v: %v", n, crossPct, err)
			}
			a, d := s.TagCardinality("A"), s.TagCardinality("D")
			if wantA < 0 {
				wantA, wantD = a, d
			}
			if a != wantA || d != wantD {
				t.Fatalf("n=%d pct=%v: %d A and %d D, the 0%% point has %d and %d", n, crossPct, a, d, wantA, wantD)
			}
			if cross, in := countJoins(t, s); cross != w.CrossJoins || in != w.InJoins {
				t.Fatalf("n=%d pct=%v: claimed cross/in = %d/%d, actual %d/%d", n, crossPct, w.CrossJoins, w.InJoins, cross, in)
			}
		}
	}
}

func TestWorkloadLazyEqualsSTD(t *testing.T) {
	for _, shape := range []Shape{Balanced, Nested} {
		w, err := BuildCrossWorkload(shape, 15, 300, 40)
		if err != nil {
			t.Fatal(err)
		}
		s, err := w.BuildStore(core.LD)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := s.Query("A", "D", join.Descendant, core.LazyJoin)
		if err != nil {
			t.Fatal(err)
		}
		std, err := s.Query("A", "D", join.Descendant, core.STD)
		if err != nil {
			t.Fatal(err)
		}
		if len(lazy) != len(std) || len(lazy) != w.TotalJoins() {
			t.Fatalf("shape %v: lazy %d, std %d, claimed %d", shape, len(lazy), len(std), w.TotalJoins())
		}
	}
}

func TestWorkloadErrors(t *testing.T) {
	if _, err := BuildCrossWorkload(Balanced, 1, 100, 50); err == nil {
		t.Fatal("1 segment accepted")
	}
	if _, err := BuildCrossWorkload(Balanced, 10, 100, 120); err == nil {
		t.Fatal("pct > 100 accepted")
	}
	if _, err := BuildCrossWorkload(Nested, 2, 100, 50); err == nil {
		t.Fatal("chain of 2 with mixed joins accepted")
	}
}

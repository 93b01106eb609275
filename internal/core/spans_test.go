package core

import "testing"

func TestSpanIndexOpenAt(t *testing.T) {
	si := &spanIndex{}
	// Elements: [0,100), [10,40), [20,30), [50,60).
	si.add([]int32{0, 10, 20, 50}, []int32{100, 40, 30, 60})
	cases := []struct{ p, want int }{
		{-5, 0},  // before everything
		{0, 0},   // at the outer start: not strictly inside
		{5, 1},   // inside [0,100) only
		{15, 2},  // inside [0,100) and [10,40)
		{25, 3},  // all three nested
		{30, 2},  // [20,30) just closed
		{40, 1},  // [10,40) closed too
		{55, 2},  // [0,100) and [50,60)
		{100, 0}, // everything closed
		{999, 0},
	}
	for _, c := range cases {
		if got := si.openAt(c.p); got != c.want {
			t.Errorf("openAt(%d) = %d, want %d", c.p, got, c.want)
		}
	}
	// nil receiver is a valid empty index.
	var empty *spanIndex
	if empty.openAt(5) != 0 {
		t.Error("nil spanIndex not empty")
	}
}

func TestSpanIndexIncrementalAdd(t *testing.T) {
	si := &spanIndex{}
	si.add([]int32{10, 20}, []int32{40, 30})
	si.add([]int32{0, 15}, []int32{100, 18})
	// Merged set: [0,100), [10,40), [15,18), [20,30).
	if got := si.openAt(16); got != 3 {
		t.Fatalf("openAt(16) = %d, want 3", got)
	}
	if got := si.openAt(25); got != 3 {
		t.Fatalf("openAt(25) = %d, want 3", got)
	}
	// Starts must remain sorted after merging.
	for i := 1; i < len(si.starts); i++ {
		if si.starts[i-1] > si.starts[i] {
			t.Fatal("starts unsorted after add")
		}
	}
}

func TestSpanIndexRemoveRange(t *testing.T) {
	si := &spanIndex{}
	// [0,100), [10,20), [30,40), [50,60).
	si.add([]int32{0, 10, 30, 50}, []int32{100, 20, 40, 60})
	// Remove original range [10,45): drops [10,20) and [30,40).
	si.removeRange(10, 45)
	if got := si.openAt(15); got != 1 {
		t.Fatalf("openAt(15) = %d, want 1 (only the outer element)", got)
	}
	if got := si.openAt(55); got != 2 {
		t.Fatalf("openAt(55) = %d, want 2", got)
	}
	if len(si.starts) != 2 || len(si.ends) != 2 {
		t.Fatalf("starts/ends = %v/%v", si.starts, si.ends)
	}
}

func TestDepthAtViaStore(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><b><c></c></b></a>")
	// Insert inside <c>: content of c begins at offset 9.
	sid, err := s.InsertSegment(9, []byte("<x/>"))
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := s.sb.Lookup(sid)
	if got := s.depthAtLocked(seg); got != 3 {
		t.Fatalf("depth = %d, want 3 (a,b,c enclose)", got)
	}
}

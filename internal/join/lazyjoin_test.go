package join

import (
	"testing"

	"repro/internal/elemindex"
	"repro/internal/segment"
	"repro/internal/taglist"
)

// lazyFixture wires a segment tree, element index and tag-list directly
// (the core package normally does this from parsed XML).
type lazyFixture struct {
	sb   *segment.Tree
	ix   *elemindex.Index
	tl   *taglist.List
	atid taglist.TID
	dtid taglist.TID
}

func newLazyFixture(t *testing.T) *lazyFixture {
	t.Helper()
	return &lazyFixture{
		sb:   segment.NewTree(),
		ix:   elemindex.New(),
		atid: 0,
		dtid: 1,
	}
}

// addSegment inserts a segment at gp with the given A and D element
// labels (local coordinates).
func (f *lazyFixture) addSegment(t *testing.T, gp, l int, aElems, dElems []elemindex.Rec) *segment.Segment {
	t.Helper()
	seg, err := f.sb.Insert(gp, l)
	if err != nil {
		t.Fatal(err)
	}
	if f.tl == nil {
		f.tl = taglist.New(f.sb, taglist.LD)
	}
	var keys []elemindex.Key
	for _, e := range aElems {
		keys = append(keys, elemindex.Key{TID: f.atid, SID: seg.SID, Start: int(e.Start), End: int(e.End), Level: int(e.Level)})
	}
	for _, e := range dElems {
		keys = append(keys, elemindex.Key{TID: f.dtid, SID: seg.SID, Start: int(e.Start), End: int(e.End), Level: int(e.Level)})
	}
	counts, err := f.ix.AddSegment(keys)
	if err != nil {
		t.Fatal(err)
	}
	f.tl.AddSegment(seg, counts)
	return seg
}

func (f *lazyFixture) run(axis Axis, opt Options) []Match {
	var out []Match
	LazyEmit(f.sb, f.ix, f.atid, f.dtid,
		f.tl.Segments(f.atid), f.tl.Segments(f.dtid), axis, opt, func(m Match) bool {
			out = append(out, m)
			return true
		})
	return out
}

func TestLazyCrossSegment(t *testing.T) {
	f := newLazyFixture(t)
	// Parent segment: an A element [0,100) at level 1.
	f.addSegment(t, 0, 100, []elemindex.Rec{{Start: 0, End: 100, Level: 1}}, nil)
	// Child segment inserted at global 50 (inside the A element): two D
	// elements at level 2 and 3.
	f.addSegment(t, 50, 30,
		nil, []elemindex.Rec{{Start: 0, End: 30, Level: 2}, {Start: 5, End: 10, Level: 3}})
	got := f.run(Descendant, DefaultOptions())
	if len(got) != 2 {
		t.Fatalf("got %d pairs, want 2", len(got))
	}
	// Child axis: only the level-2 D is a child of the level-1 A.
	got = f.run(Child, DefaultOptions())
	if len(got) != 1 {
		t.Fatalf("child axis: got %d pairs, want 1", len(got))
	}
}

func TestLazyElementMustStraddleInsertionPoint(t *testing.T) {
	f := newLazyFixture(t)
	// Two A elements in the parent: one straddles the insertion point at
	// local 50, one ends before it.
	f.addSegment(t, 0, 100, []elemindex.Rec{
		{Start: 0, End: 100, Level: 1},
		{Start: 10, End: 40, Level: 2},
	}, nil)
	f.addSegment(t, 50, 10, nil, []elemindex.Rec{{Start: 0, End: 10, Level: 2}})
	got := f.run(Descendant, DefaultOptions())
	if len(got) != 1 {
		t.Fatalf("got %d pairs, want 1 (Proposition 3(2) filter)", len(got))
	}
	if got[0].Anc.Start != 0 {
		t.Fatalf("wrong ancestor: %+v", got[0].Anc)
	}
}

func TestLazyInSegmentOnly(t *testing.T) {
	f := newLazyFixture(t)
	f.addSegment(t, 0, 100, []elemindex.Rec{{Start: 10, End: 60, Level: 2}},
		[]elemindex.Rec{{Start: 20, End: 30, Level: 3}, {Start: 70, End: 80, Level: 3}})
	got := f.run(Descendant, DefaultOptions())
	if len(got) != 1 {
		t.Fatalf("got %d pairs, want 1 (in-segment)", len(got))
	}
	if got[0].Anc.SID != got[0].Desc.SID {
		t.Fatal("pair is not in-segment")
	}
}

func TestLazySkipsSegmentsOutsideAncestors(t *testing.T) {
	f := newLazyFixture(t)
	// Segment 1: an A spanning [0,100); D-segment inside it; another
	// D-segment AFTER it (no enclosing A: no results from it).
	f.addSegment(t, 0, 100, []elemindex.Rec{{Start: 0, End: 100, Level: 1}}, nil)
	f.addSegment(t, 50, 10, nil, []elemindex.Rec{{Start: 0, End: 10, Level: 2}})
	f.addSegment(t, 110, 10, nil, []elemindex.Rec{{Start: 0, End: 10, Level: 1}})
	got := f.run(Descendant, DefaultOptions())
	if len(got) != 1 {
		t.Fatalf("got %d pairs, want 1", len(got))
	}
}

func TestLazyAllOptionCombos(t *testing.T) {
	combos := []Options{
		{}, {PushFilter: true}, {TrimTop: true}, {PushFilter: true, TrimTop: true},
	}
	f := newLazyFixture(t)
	f.addSegment(t, 0, 200, []elemindex.Rec{
		{Start: 0, End: 200, Level: 1},
		{Start: 5, End: 60, Level: 2},
		{Start: 70, End: 90, Level: 2},
	}, []elemindex.Rec{{Start: 75, End: 80, Level: 3}})
	f.addSegment(t, 20, 30, nil, []elemindex.Rec{{Start: 0, End: 30, Level: 3}})
	f.addSegment(t, 130, 40, []elemindex.Rec{{Start: 0, End: 40, Level: 2}},
		[]elemindex.Rec{{Start: 10, End: 20, Level: 3}})
	want := len(f.run(Descendant, combos[0]))
	if want == 0 {
		t.Fatal("fixture produces no results")
	}
	for _, opt := range combos[1:] {
		if got := len(f.run(Descendant, opt)); got != want {
			t.Fatalf("options %+v: got %d, want %d", opt, got, want)
		}
	}
}

func TestLazyEmptyLists(t *testing.T) {
	f := newLazyFixture(t)
	f.addSegment(t, 0, 100, []elemindex.Rec{{Start: 0, End: 100, Level: 1}}, nil)
	if got := f.run(Descendant, DefaultOptions()); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestAxisString(t *testing.T) {
	if Descendant.String() != "descendant" || Child.String() != "child" {
		t.Fatal("axis strings wrong")
	}
}

func TestGallop(t *testing.T) {
	list := []int{1, 3, 5, 7, 9, 11, 13}
	for from := 0; from <= len(list); from++ {
		for target := 0; target <= 14; target++ {
			got := gallop(len(list), from, func(j int) bool { return list[j] >= target })
			want := from
			for want < len(list) && list[want] < target {
				want++
			}
			if got != want {
				t.Fatalf("gallop(from=%d, target=%d) = %d, want %d", from, target, got, want)
			}
		}
	}
}

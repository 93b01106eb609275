package taglist

import (
	"testing"

	"repro/internal/segment"
)

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Intern("article")
	b := d.Intern("book")
	if a == b {
		t.Fatal("two tags share an id")
	}
	if got := d.Intern("article"); got != a {
		t.Fatalf("re-intern gave %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if name := d.Name(a); name != "article" {
		t.Fatalf("Name = %q", name)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("found missing tag")
	}
	if id, ok := d.Lookup("book"); !ok || id != b {
		t.Fatalf("Lookup(book) = %d,%v", id, ok)
	}
	if d.Name(TID(99)) == "" {
		t.Fatal("Name of unknown id should not be empty")
	}
}

// buildSegments creates a root segment with three children at distinct
// global positions.
func buildSegments(t *testing.T) (*segment.Tree, []*segment.Segment) {
	t.Helper()
	tr := segment.NewTree()
	segs := make([]*segment.Segment, 0, 4)
	root, err := tr.Insert(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	segs = append(segs, root)
	for _, gp := range []int{100, 300, 500} {
		s, err := tr.Insert(gp, 50)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, s)
	}
	return tr, segs
}

func TestAddSegmentSortedLD(t *testing.T) {
	tr, segs := buildSegments(t)
	l := New(tr, LD)
	tid := TID(1)
	// Insert out of document order: the list must come back GP-sorted.
	l.AddSegment(segs[2], map[TID]int{tid: 3})
	l.AddSegment(segs[0], map[TID]int{tid: 1})
	l.AddSegment(segs[3], map[TID]int{tid: 2})
	l.AddSegment(segs[1], map[TID]int{tid: 5})
	got := l.Segments(tid)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	wantOrder := []segment.SID{segs[0].SID, segs[1].SID, segs[2].SID, segs[3].SID}
	for i, e := range got {
		if e.SID != wantOrder[i] {
			t.Fatalf("order = %v, want %v", got, wantOrder)
		}
	}
	if got[1].Count != 5 {
		t.Fatalf("count = %d", got[1].Count)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLSModeSortsLazily(t *testing.T) {
	tr, segs := buildSegments(t)
	l := New(tr, LS)
	tid := TID(7)
	l.AddSegment(segs[3], map[TID]int{tid: 1})
	l.AddSegment(segs[1], map[TID]int{tid: 1})
	l.AddSegment(segs[2], map[TID]int{tid: 1})
	// Segments() on an unsorted LS list sorts a copy on the fly.
	got := l.Segments(tid)
	if got[0].SID != segs[1].SID || got[2].SID != segs[3].SID {
		t.Fatalf("on-the-fly sort wrong: %v", got)
	}
	// After SortAll the list itself is sorted.
	l.SortAll()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	got = l.Segments(tid)
	for i := 1; i < len(got); i++ {
		s0, _ := tr.Lookup(got[i-1].SID)
		s1, _ := tr.Lookup(got[i].SID)
		if s0.GP() > s1.GP() {
			t.Fatal("not sorted after SortAll")
		}
	}
}

func TestRemoveCounts(t *testing.T) {
	tr, segs := buildSegments(t)
	l := New(tr, LD)
	tid := TID(1)
	l.AddSegment(segs[1], map[TID]int{tid: 3})
	l.AddSegment(segs[2], map[TID]int{tid: 1})
	l.RemoveCounts(segs[1].SID, map[TID]int{tid: 2})
	got := l.Segments(tid)
	if len(got) != 2 || got[0].Count != 1 {
		t.Fatalf("after partial removal: %v", got)
	}
	// Removing the last occurrence drops the path.
	l.RemoveCounts(segs[1].SID, map[TID]int{tid: 1})
	got = l.Segments(tid)
	if len(got) != 1 || got[0].SID != segs[2].SID {
		t.Fatalf("after full removal: %v", got)
	}
	// Removing the final entry drops the tag id itself.
	l.RemoveCounts(segs[2].SID, map[TID]int{tid: 1})
	if l.NumTags() != 0 {
		t.Fatalf("NumTags = %d", l.NumTags())
	}
}

func TestRemoveSegments(t *testing.T) {
	tr, segs := buildSegments(t)
	l := New(tr, LD)
	t1, t2 := TID(1), TID(2)
	l.AddSegment(segs[1], map[TID]int{t1: 1, t2: 2})
	l.AddSegment(segs[2], map[TID]int{t1: 1})
	l.RemoveSegments(map[segment.SID]map[TID]int{segs[1].SID: {t1: 1, t2: 2}}, segs[1].GP())
	if got := l.Segments(t1); len(got) != 1 || got[0].SID != segs[2].SID {
		t.Fatalf("t1 = %v", got)
	}
	if got := l.Segments(t2); got != nil {
		t.Fatalf("t2 = %v, want empty", got)
	}
	if l.NumTags() != 1 {
		t.Fatalf("NumTags = %d", l.NumTags())
	}
	l.RemoveSegments(nil, 0) // no-op
}

func TestZeroCountsIgnored(t *testing.T) {
	tr, segs := buildSegments(t)
	l := New(tr, LD)
	l.AddSegment(segs[1], map[TID]int{TID(1): 0, TID(2): -3})
	if l.NumTags() != 0 || l.NumEntries() != 0 {
		t.Fatal("zero/negative counts created entries")
	}
}

func TestSizeBytesGrowsWithPathLength(t *testing.T) {
	// Nested segments have longer paths, so the same number of entries
	// must report a larger footprint — the effect behind Figure 11(a).
	flatTree := segment.NewTree()
	nestedTree := segment.NewTree()
	flat := New(flatTree, LD)
	nested := New(nestedTree, LD)
	tid := TID(1)

	if _, err := flatTree.Insert(0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := nestedTree.Insert(0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		fs, err := flatTree.Insert(10+20*i, 10)
		if err != nil {
			t.Fatal(err)
		}
		flat.AddSegment(fs, map[TID]int{tid: 1})
		ns, err := nestedTree.Insert(10+5*i, 10) // always nests inside the previous
		if err != nil {
			t.Fatal(err)
		}
		nested.AddSegment(ns, map[TID]int{tid: 1})
	}
	if nested.SizeBytes() <= flat.SizeBytes() {
		t.Fatalf("nested size %d <= flat size %d", nested.SizeBytes(), flat.SizeBytes())
	}
}

func TestSegmentsUnknownTag(t *testing.T) {
	tr, _ := buildSegments(t)
	l := New(tr, LD)
	if got := l.Segments(TID(42)); got != nil {
		t.Fatalf("Segments(unknown) = %v", got)
	}
}

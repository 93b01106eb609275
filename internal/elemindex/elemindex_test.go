package elemindex

import (
	"testing"

	"repro/internal/segment"
	"repro/internal/taglist"
)

func key(tid taglist.TID, sid segment.SID, start, end, level int) Key {
	return Key{TID: tid, SID: sid, Start: start, End: end, Level: level}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Key
		want int // sign
	}{
		{key(1, 1, 0, 10, 0), key(1, 1, 0, 10, 0), 0},
		{key(1, 1, 0, 10, 0), key(2, 1, 0, 10, 0), -1},
		{key(2, 1, 0, 10, 0), key(1, 9, 9, 99, 9), 1},
		{key(1, 1, 0, 10, 0), key(1, 2, 0, 10, 0), -1},
		{key(1, 1, 5, 10, 0), key(1, 1, 6, 10, 0), -1},
		{key(1, 1, 5, 10, 0), key(1, 1, 5, 11, 0), -1},
		{key(1, 1, 5, 10, 1), key(1, 1, 5, 10, 2), -1},
	}
	for _, c := range cases {
		got := Compare(c.a, c.b)
		if (got < 0) != (c.want < 0) || (got > 0) != (c.want > 0) || (got == 0) != (c.want == 0) {
			t.Errorf("Compare(%v,%v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAddSegmentCounts(t *testing.T) {
	ix := New()
	keys := []Key{
		key(1, 5, 0, 100, 1),
		key(1, 5, 10, 20, 2),
		key(2, 5, 30, 40, 2),
	}
	counts := ix.AddSegment(keys)
	if counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestElementsOfOrderingAndIsolation(t *testing.T) {
	ix := New()
	// Same tag in two segments, plus a different tag in the first.
	ix.Add(key(1, 5, 50, 60, 3))
	ix.Add(key(1, 5, 0, 100, 1))
	ix.Add(key(1, 5, 10, 20, 2))
	ix.Add(key(1, 6, 0, 10, 1))
	ix.Add(key(2, 5, 0, 5, 1))
	got := ix.ElementsOf(1, 5)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	wantStarts := []int{0, 10, 50}
	for i, e := range got {
		if e.Start != wantStarts[i] {
			t.Fatalf("starts = %v, want %v", got, wantStarts)
		}
	}
	if n := ix.CountOf(1, 6); n != 1 {
		t.Fatalf("CountOf(1,6) = %d", n)
	}
	if n := ix.CountOf(3, 5); n != 0 {
		t.Fatalf("CountOf(3,5) = %d", n)
	}
	if got := ix.ElementsOf(1, 99); got != nil {
		t.Fatalf("ElementsOf unknown segment = %v", got)
	}
}

func TestEndOf(t *testing.T) {
	ix := New()
	ix.AddSegment([]Key{key(1, 5, 0, 100, 1), key(1, 5, 10, 20, 2), key(2, 5, 30, 40, 2), key(1, 6, 30, 35, 1)})
	if end, ok := ix.EndOf(1, 5, 10); !ok || end != 20 {
		t.Fatalf("EndOf(1,5,10) = %d, %v", end, ok)
	}
	if end, ok := ix.EndOf(2, 5, 30); !ok || end != 40 {
		t.Fatalf("EndOf(2,5,30) = %d, %v", end, ok)
	}
	// Same start under another tag, another segment, or one byte off: none.
	for _, q := range [][3]int{{1, 5, 30}, {2, 6, 30}, {1, 5, 11}, {1, 5, 9}} {
		if end, ok := ix.EndOf(taglist.TID(q[0]), segment.SID(q[1]), q[2]); ok {
			t.Fatalf("EndOf(%v) = %d, want none", q, end)
		}
	}
}

func TestRemoveSegments(t *testing.T) {
	ix := New()
	ix.Add(key(1, 5, 0, 10, 1))
	ix.Add(key(1, 5, 20, 30, 1))
	ix.Add(key(2, 5, 0, 10, 1))
	ix.Add(key(1, 6, 0, 10, 1))
	counts := ix.RemoveSegments([]segment.SID{5}, []taglist.TID{1, 2})
	if counts[5][1] != 2 || counts[5][2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.CountOf(1, 6) != 1 {
		t.Fatal("unrelated segment affected")
	}
}

func TestRemovePartOnlyFullyContained(t *testing.T) {
	ix := New()
	// Element [0,100) spans the removed range [10,50): it must survive.
	ix.Add(key(1, 5, 0, 100, 1))
	ix.Add(key(1, 5, 10, 20, 2)) // fully inside: removed
	ix.Add(key(1, 5, 30, 50, 2)) // fully inside (end == lb): removed
	ix.Add(key(1, 5, 60, 70, 2)) // after the range: survives
	counts := ix.RemovePart(segment.RemovedPart{SID: 5, Start: 10, End: 50}, []taglist.TID{1})
	if counts[1] != 2 {
		t.Fatalf("counts = %v, want {1:2}", counts)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if !ix.Has(key(1, 5, 0, 100, 1)) || !ix.Has(key(1, 5, 60, 70, 2)) {
		t.Fatal("wrong survivors")
	}
}

func TestRemovePartBoundaryExactStart(t *testing.T) {
	ix := New()
	ix.Add(key(1, 5, 10, 20, 1)) // start == la, end < lb: removed
	counts := ix.RemovePart(segment.RemovedPart{SID: 5, Start: 10, End: 20}, []taglist.TID{1})
	if counts[1] != 1 || ix.Len() != 0 {
		t.Fatalf("counts = %v, len = %d", counts, ix.Len())
	}
}

func TestRemovePartNoMatch(t *testing.T) {
	ix := New()
	ix.Add(key(1, 5, 0, 100, 1))
	counts := ix.RemovePart(segment.RemovedPart{SID: 5, Start: 200, End: 300}, []taglist.TID{1})
	if len(counts) != 0 || ix.Len() != 1 {
		t.Fatalf("counts = %v, len = %d", counts, ix.Len())
	}
}

func TestLargeScanIsSorted(t *testing.T) {
	ix := New()
	for i := 999; i >= 0; i-- {
		ix.Add(key(1, 5, i*10, i*10+5, i%7))
	}
	got := ix.ElementsOf(1, 5)
	if len(got) != 1000 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Start >= got[i].Start {
			t.Fatal("not sorted by start")
		}
	}
}

package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/segment"
)

func TestNormalizeValue(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"x", "x", true},
		{"  padded  ", "padded", true},
		{"", "", false},
		{"   ", "", false},
		{strings.Repeat("y", MaxValueLen), strings.Repeat("y", MaxValueLen), true},
		{strings.Repeat("y", MaxValueLen+1), "", false},
	}
	for _, c := range cases {
		got, ok := normalizeValue(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("normalizeValue(%q) = %q,%v want %q,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestValueIndexAddRefsRemove(t *testing.T) {
	v := newValueIndex()
	v.add(1, "x", 5, 0, 10, 1)
	v.add(1, "x", 5, 20, 30, 2)
	v.add(1, "y", 5, 40, 50, 2)
	v.add(2, "x", 6, 0, 10, 1)
	if v.len() != 4 {
		t.Fatalf("len = %d", v.len())
	}
	refs := v.refs(1, "x")
	if len(refs) != 2 {
		t.Fatalf("refs(1,x) = %v", refs)
	}
	if got := v.refs(1, "zzz"); got != nil {
		t.Fatalf("refs of unknown value = %v", got)
	}
	if got := v.refs(1, "   "); got != nil {
		t.Fatalf("refs of empty value = %v", got)
	}
	// Partial removal: drop [15,35) of segment 5 -> only the [20,30) rec.
	v.removeSpanRange(5, 15, 35)
	if v.len() != 3 || len(v.refs(1, "x")) != 1 {
		t.Fatalf("after partial removal: len %d refs %v", v.len(), v.refs(1, "x"))
	}
	// Whole-segment removal.
	v.removeSegment(5)
	if v.len() != 1 || len(v.refs(2, "x")) != 1 {
		t.Fatalf("after segment removal: len %d", v.len())
	}
}

func TestValueIndexStraddlingRecordSurvives(t *testing.T) {
	v := newValueIndex()
	v.add(1, "x", 5, 0, 100, 1) // spans the removed range: survives
	v.add(1, "x", 5, 10, 20, 2) // inside: removed
	v.removeSpanRange(5, 5, 50)
	if v.len() != 1 {
		t.Fatalf("len = %d, want 1", v.len())
	}
	if len(v.refs(1, "x")) != 1 {
		t.Fatal("surviving record lost")
	}
}

func TestValueElementsThroughView(t *testing.T) {
	s := NewStore(LD, WithValues())
	if !s.HasValues() {
		t.Fatal("HasValues false")
	}
	mustInsert(t, s, 0, "<a><b>x</b><b>y</b><b>x</b></a>")
	v := s.AcquireView()
	defer v.Release()
	nodes, err := v.ValueElements("b", "x")
	if err != nil || len(nodes) != 2 {
		t.Fatalf("got %v, %v", nodes, err)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].Start >= nodes[i].Start {
			t.Fatal("not sorted by global start")
		}
	}
	// Unknown tag and store without values.
	if nodes, err := v.ValueElements("nope", "x"); err != nil || nodes != nil {
		t.Fatalf("unknown tag: %v, %v", nodes, err)
	}
	plain := NewStore(LD).AcquireView()
	defer plain.Release()
	if _, err := plain.ValueElements("b", "x"); err != ErrNoValues {
		t.Fatalf("err = %v, want ErrNoValues", err)
	}
}

func TestValueIndexCodecRoundTrip(t *testing.T) {
	s := NewStore(LS, WithValues())
	mustInsert(t, s, 0, "<a><b>alpha</b><c>beta</c></a>")
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasValues() {
		t.Fatal("value index lost")
	}
	v := got.AcquireView()
	defer v.Release()
	nodes, err := v.ValueElements("b", "alpha")
	if err != nil || len(nodes) != 1 {
		t.Fatalf("got %v, %v", nodes, err)
	}
	if err := got.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickValueIndexAgainstModel drives the value index against a map
// model with random adds and removals.
func TestQuickValueIndexAgainstModel(t *testing.T) {
	vals := []string{"u", "v", "w"}
	type rec struct {
		tid        int
		val        string
		sid        segment.SID
		start, end int
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := newValueIndex()
		model := map[rec]bool{}
		for op := 0; op < 60; op++ {
			switch r.Intn(4) {
			case 0, 1, 2:
				rc := rec{
					tid: r.Intn(3), val: vals[r.Intn(len(vals))],
					sid: segment.SID(r.Intn(4) + 1), start: r.Intn(100),
				}
				rc.end = rc.start + r.Intn(20) + 1
				// (sid,start) is the identity: replace any model record
				// at the same position, as the btree does.
				for old := range model {
					if old.sid == rc.sid && old.start == rc.start {
						delete(model, old)
					}
				}
				v.add(taglistTID(rc.tid), rc.val, rc.sid, rc.start, rc.end, 1)
				model[rc] = true
			case 3:
				sid := segment.SID(r.Intn(4) + 1)
				la := r.Intn(100)
				lb := la + r.Intn(40) + 1
				v.removeSpanRange(sid, la, lb)
				for rc := range model {
					if rc.sid == sid && la <= rc.start && rc.end <= lb {
						delete(model, rc)
					}
				}
			}
			if v.len() != len(model) {
				t.Logf("seed %d op %d: len %d model %d", seed, op, v.len(), len(model))
				return false
			}
		}
		for tid := 0; tid < 3; tid++ {
			for _, val := range vals {
				want := 0
				for rc := range model {
					if rc.tid == tid && rc.val == val {
						want++
					}
				}
				if got := len(v.refs(taglistTID(tid), val)); got != want {
					t.Logf("seed %d tid %d val %q: %d vs %d", seed, tid, val, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// taglistTID converts the test's small ints without importing taglist at
// every call site.
func taglistTID(i int) VID { return VID(i) }

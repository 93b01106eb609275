package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/join"
	"repro/internal/xmltree"
)

func mustInsert(t *testing.T, s *Store, gp int, frag string) {
	t.Helper()
	if _, err := s.InsertSegment(gp, []byte(frag)); err != nil {
		t.Fatalf("InsertSegment(%d, %q): %v", gp, frag, err)
	}
}

func TestInsertAndQuerySingleSegment(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><b><d/></b><d/></a>")
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Query("a", "d", join.Descendant, LazyJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("a//d = %d matches, want 2", len(got))
	}
	got, err = s.Query("b", "d", join.Descendant, LazyJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("b//d = %d matches, want 1", len(got))
	}
	// Child axis: only the d directly under b and the d directly under a.
	got, err = s.Query("a", "d", join.Child, LazyJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("a/d = %d matches, want 1", len(got))
	}
}

func TestCrossSegmentJoin(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><x></x></a>")
	// Insert a segment with d elements inside the x element: content of
	// <x> starts after "<a><x>" (offset 6).
	mustInsert(t, s, 6, "<d><d/></d>")
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	text, _ := s.Text()
	if string(text) != "<a><x><d><d/></d></x></a>" {
		t.Fatalf("text = %s", text)
	}
	for _, alg := range []Algorithm{LazyJoin, STD} {
		got, err := s.Query("a", "d", join.Descendant, alg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("%v: a//d = %d matches, want 2", alg, len(got))
		}
		got, err = s.Query("x", "d", join.Descendant, alg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("%v: x//d = %d matches, want 2", alg, len(got))
		}
		// x is the parent of the outer d only.
		got, err = s.Query("x", "d", join.Child, alg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("%v: x/d = %d matches, want 1", alg, len(got))
		}
	}
}

func TestQueryUnknownTag(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a/>")
	got, err := s.Query("a", "nope", join.Descendant, LazyJoin)
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
	got, err = s.Query("nope", "a", join.Descendant, STD)
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestInsertInvalidFragment(t *testing.T) {
	s := NewStore(LD)
	for _, frag := range []string{"", "<a>", "<a></b>", "text"} {
		if _, err := s.InsertSegment(0, []byte(frag)); err == nil {
			t.Errorf("InsertSegment(%q) succeeded", frag)
		}
	}
	if _, err := s.InsertSegment(5, []byte("<a/>")); err == nil {
		t.Error("insert beyond document end succeeded")
	}
}

func TestRemoveWholeSegment(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><x></x></a>")
	mustInsert(t, s, 6, "<d><d/></d>")
	if err := s.RemoveSegment(6, len("<d><d/></d>")); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	text, _ := s.Text()
	if string(text) != "<a><x></x></a>" {
		t.Fatalf("text = %s", text)
	}
	got, err := s.Query("a", "d", join.Descendant, LazyJoin)
	if err != nil || len(got) != 0 {
		t.Fatalf("a//d after removal = %v, %v", got, err)
	}
	st := s.Stats()
	if st.Segments != 1 || st.Elements != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemoveElementInsideSegment(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><b/><c/><b/></a>")
	// Remove the <c/> element: it sits at offset 7, length 4.
	if err := s.RemoveSegment(7, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	text, _ := s.Text()
	if string(text) != "<a><b/><b/></a>" {
		t.Fatalf("text = %s", text)
	}
	got, err := s.Query("a", "b", join.Descendant, LazyJoin)
	if err != nil || len(got) != 2 {
		t.Fatalf("a//b = %v, %v", got, err)
	}
	got, err = s.Query("a", "c", join.Descendant, LazyJoin)
	if err != nil || len(got) != 0 {
		t.Fatalf("a//c = %v, %v", got, err)
	}
}

func TestLevelsAcrossSegments(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><b></b></a>")
	// Insert inside <b>: content position is after "<a><b>" = 6.
	mustInsert(t, s, 6, "<c><d/></c>")
	// Insert inside <d/>? No: <d/> has no content. Insert inside <c>,
	// before <d/>: global offset of "<c>" end = 6+3 = 9.
	mustInsert(t, s, 9, "<e/>")
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	// Levels: a=1, b=2, c=3, d=4, e=4. Check via child-axis joins.
	cases := []struct {
		a, d string
		want int
	}{
		{"a", "b", 1}, {"b", "c", 1}, {"c", "d", 1}, {"c", "e", 1},
		{"a", "c", 0}, {"b", "d", 0}, {"d", "e", 0},
	}
	for _, c := range cases {
		got, err := s.Query(c.a, c.d, join.Child, LazyJoin)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.want {
			t.Errorf("%s/%s = %d matches, want %d", c.a, c.d, len(got), c.want)
		}
	}
}

func TestLSModeMatchesLD(t *testing.T) {
	build := func(mode Mode) *Store {
		s := NewStore(mode)
		mustInsert(t, s, 0, "<a><p></p><p></p></a>")
		mustInsert(t, s, 6, "<d/>")
		mustInsert(t, s, 17, "<d><d/></d>")
		return s
	}
	ld := build(LD)
	ls := build(LS)
	for _, q := range [][2]string{{"a", "d"}, {"p", "d"}, {"d", "d"}} {
		g1, err1 := ld.Query(q[0], q[1], join.Descendant, LazyJoin)
		g2, err2 := ls.Query(q[0], q[1], join.Descendant, LazyJoin)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !sameMatchSet(g1, g2) {
			t.Fatalf("%s//%s: LD %v != LS %v", q[0], q[1], g1, g2)
		}
	}
}

func TestRebuild(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><x></x></a>")
	mustInsert(t, s, 6, "<d/>")
	mustInsert(t, s, 6, "<d/>")
	before, err := s.Query("a", "d", join.Descendant, LazyJoin)
	if err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 3 {
		t.Fatalf("segments = %d", s.Segments())
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 1 {
		t.Fatalf("segments after rebuild = %d", s.Segments())
	}
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
	after, err := s.Query("a", "d", join.Descendant, LazyJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGlobalPairs(before, after) {
		t.Fatalf("rebuild changed results: %v -> %v", before, after)
	}
}

func TestWithoutText(t *testing.T) {
	s := NewStore(LD, WithoutText())
	mustInsert(t, s, 0, "<a><d/></a>")
	if _, err := s.Text(); err == nil {
		t.Fatal("Text succeeded without text")
	}
	if err := s.Rebuild(); err == nil {
		t.Fatal("Rebuild succeeded without text")
	}
	got, err := s.Query("a", "d", join.Descendant, LazyJoin)
	if err != nil || len(got) != 1 {
		t.Fatalf("query = %v, %v", got, err)
	}
}

func TestStats(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><b/><c/></a>")
	st := s.Stats()
	if st.Segments != 1 || st.Elements != 3 || st.Tags != 3 || st.TextLen != 15 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SBTreeBytes <= 0 || st.TagListBytes <= 0 || st.ElemIdxBytes <= 0 {
		t.Fatalf("sizes = %+v", st)
	}
	if st.Inserts != 1 || st.Removes != 0 {
		t.Fatalf("counters = %+v", st)
	}
}

// --- randomized end-to-end equivalence ---

var oracleTags = []string{"a", "b", "c", "d"}

// randomFragment emits a small well-formed fragment over oracleTags.
func randomFragment(r *rand.Rand, maxDepth int) string {
	var sb strings.Builder
	var emit func(depth int)
	emit = func(depth int) {
		tag := oracleTags[r.Intn(len(oracleTags))]
		if depth >= maxDepth || r.Intn(3) == 0 {
			sb.WriteString("<" + tag + "/>")
			return
		}
		sb.WriteString("<" + tag + ">")
		for i, n := 0, r.Intn(3); i < n; i++ {
			if r.Intn(4) == 0 {
				sb.WriteString("tx")
			}
			emit(depth + 1)
		}
		sb.WriteString("</" + tag + ">")
	}
	emit(0)
	return sb.String()
}

// insertionPoints lists the global offsets where a fragment can legally
// be inserted: the super-document boundaries, every element boundary, and
// every position just after a non-empty element's start tag.
func insertionPoints(text []byte) []int {
	pts := []int{0, len(text)}
	if len(text) == 0 {
		return pts[:1]
	}
	wrapped := append(append([]byte("<r>"), text...), "</r>"...)
	doc, err := xmltree.Parse(wrapped)
	if err != nil {
		return pts
	}
	const off = 3
	doc.Walk(func(e *xmltree.Element) bool {
		if e == doc.Root {
			return true
		}
		pts = append(pts, e.Start-off, e.End-off)
		region := e.Region(doc.Text)
		if !strings.HasSuffix(string(region), "/>") {
			// Position just after the start tag's '>'.
			if i := strings.IndexByte(string(region), '>'); i >= 0 {
				pts = append(pts, e.Start-off+i+1)
			}
		}
		return true
	})
	return pts
}

// removableRanges lists (gp, l) ranges whose removal keeps the super
// document well-formed: every single element, and runs of consecutive
// siblings.
func removableRanges(text []byte) [][2]int {
	if len(text) == 0 {
		return nil
	}
	wrapped := append(append([]byte("<r>"), text...), "</r>"...)
	doc, err := xmltree.Parse(wrapped)
	if err != nil {
		return nil
	}
	const off = 3
	var out [][2]int
	doc.Walk(func(e *xmltree.Element) bool {
		if e != doc.Root {
			out = append(out, [2]int{e.Start - off, e.End - e.Start})
		}
		// Sibling runs.
		for i := 0; i < len(e.Children); i++ {
			for j := i + 1; j < len(e.Children); j++ {
				s, t := e.Children[i], e.Children[j]
				out = append(out, [2]int{s.Start - off, t.End - s.Start})
			}
		}
		return true
	})
	return out
}

// bruteForcePairs computes A(axis)D pairs straight from the parsed text:
// the ground truth for join equivalence.
func bruteForcePairs(text []byte, aTag, dTag string, axis join.Axis) map[[2]int]bool {
	out := map[[2]int]bool{}
	if len(text) == 0 {
		return out
	}
	wrapped := append(append([]byte("<r>"), text...), "</r>"...)
	doc, err := xmltree.Parse(wrapped)
	if err != nil {
		return out
	}
	const off = 3
	var as, ds []*xmltree.Element
	doc.Walk(func(e *xmltree.Element) bool {
		if e == doc.Root {
			return true
		}
		if e.Tag == aTag {
			as = append(as, e)
		}
		if e.Tag == dTag {
			ds = append(ds, e)
		}
		return true
	})
	for _, a := range as {
		for _, d := range ds {
			match := false
			if axis == join.Descendant {
				match = a.Contains(d)
			} else {
				match = d.Parent == a
			}
			if match {
				out[[2]int{a.Start - off, d.Start - off}] = true
			}
		}
	}
	return out
}

func matchPairs(ms []Match) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, m := range ms {
		out[[2]int{m.AncStart, m.DescStart}] = true
	}
	return out
}

func samePairs(a, b map[[2]int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sameMatchSet(a, b []Match) bool { return samePairs(matchPairs(a), matchPairs(b)) }

func sameGlobalPairs(a, b []Match) bool {
	// After a rebuild the refs change but global positions must not.
	return samePairs(matchPairs(a), matchPairs(b))
}

// runRandomWorkload drives a store through n random valid updates,
// verifying text consistency and join equivalence along the way.
func runRandomWorkload(t *testing.T, seed int64, n int, withRemoves bool) bool {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := NewStore(LD)
	for i := 0; i < n; i++ {
		text, err := s.Text()
		if err != nil {
			t.Log(err)
			return false
		}
		doRemove := withRemoves && len(text) > 0 && r.Intn(10) < 3
		if doRemove {
			ranges := removableRanges(text)
			if len(ranges) == 0 {
				continue
			}
			rg := ranges[r.Intn(len(ranges))]
			if err := s.RemoveSegment(rg[0], rg[1]); err != nil {
				t.Logf("op %d: remove %v: %v", i, rg, err)
				return false
			}
		} else {
			pts := insertionPoints(text)
			gp := pts[r.Intn(len(pts))]
			frag := randomFragment(r, 3)
			if _, err := s.InsertSegment(gp, []byte(frag)); err != nil {
				t.Logf("op %d: insert at %d: %v", i, gp, err)
				return false
			}
		}
		if err := s.CheckAgainstText(); err != nil {
			t.Logf("op %d: %v", i, err)
			return false
		}
	}
	// Join equivalence on the final state: Lazy vs STD vs brute force,
	// both axes, all tag pairs.
	text, _ := s.Text()
	for _, aTag := range oracleTags {
		for _, dTag := range oracleTags {
			for _, axis := range []join.Axis{join.Descendant, join.Child} {
				want := bruteForcePairs(text, aTag, dTag, axis)
				lazy, err := s.Query(aTag, dTag, axis, LazyJoin)
				if err != nil {
					t.Log(err)
					return false
				}
				std, err := s.Query(aTag, dTag, axis, STD)
				if err != nil {
					t.Log(err)
					return false
				}
				if !samePairs(matchPairs(lazy), want) {
					t.Logf("seed %d %s(%v)%s: lazy %v != truth %v (text %s)",
						seed, aTag, axis, dTag, matchPairs(lazy), want, text)
					return false
				}
				if !samePairs(matchPairs(std), want) {
					t.Logf("seed %d %s(%v)%s: std %v != truth %v (text %s)",
						seed, aTag, axis, dTag, matchPairs(std), want, text)
					return false
				}
			}
		}
	}
	return true
}

func TestQuickInsertOnlyEquivalence(t *testing.T) {
	f := func(seed int64) bool { return runRandomWorkload(t, seed, 12, false) }
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInsertRemoveEquivalence(t *testing.T) {
	f := func(seed int64) bool { return runRandomWorkload(t, seed, 16, true) }
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLazyOptionCombos verifies that the Figure 9 optimizations are
// pure optimizations: every combination produces the same result set.
func TestQuickLazyOptionCombos(t *testing.T) {
	combos := []join.Options{
		{PushFilter: false, TrimTop: false},
		{PushFilter: true, TrimTop: false},
		{PushFilter: false, TrimTop: true},
		{PushFilter: true, TrimTop: true},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore(LD)
		for i := 0; i < 14; i++ {
			text, _ := s.Text()
			if len(text) > 0 && r.Intn(10) < 2 {
				ranges := removableRanges(text)
				if len(ranges) > 0 {
					rg := ranges[r.Intn(len(ranges))]
					if err := s.RemoveSegment(rg[0], rg[1]); err != nil {
						return false
					}
					continue
				}
			}
			pts := insertionPoints(text)
			if _, err := s.InsertSegment(pts[r.Intn(len(pts))], []byte(randomFragment(r, 3))); err != nil {
				return false
			}
		}
		for _, aTag := range oracleTags[:2] {
			for _, dTag := range oracleTags {
				for _, axis := range []join.Axis{join.Descendant, join.Child} {
					base, err := s.QueryLazyOpts(aTag, dTag, axis, combos[0])
					if err != nil {
						return false
					}
					for _, opt := range combos[1:] {
						got, err := s.QueryLazyOpts(aTag, dTag, axis, opt)
						if err != nil {
							return false
						}
						if !sameMatchSet(base, got) {
							t.Logf("seed %d %s/%s opt %+v differs", seed, aTag, dTag, opt)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRegression(t *testing.T) {
	// Pin a few seeds so failures reproduce without quick's shrinking.
	for _, seed := range []int64{1, 2, 3, 42, 1234, 99999} {
		if !runRandomWorkload(t, seed, 20, true) {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// TestMatchOrderingDescendantMajor documents the output order contract:
// results arrive grouped by descendant segment in document order.
func TestMatchOrderingDescendantMajor(t *testing.T) {
	s := NewStore(LD)
	mustInsert(t, s, 0, "<a><a><d/></a><d/></a>")
	got, err := s.Query("a", "d", join.Descendant, LazyJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("matches = %d, want 3", len(got))
	}
	descStarts := make([]int, len(got))
	for i, m := range got {
		descStarts[i] = m.DescStart
	}
	if !sort.IntsAreSorted(descStarts) {
		t.Fatalf("descendant starts not sorted: %v", descStarts)
	}
}

func ExampleStore() {
	s := NewStore(LD)
	if _, err := s.InsertSegment(0, []byte("<library><shelf></shelf></library>")); err != nil {
		panic(err)
	}
	// Insert a book inside the shelf (offset of "<library><shelf>" = 16).
	if _, err := s.InsertSegment(16, []byte("<book><title/></book>")); err != nil {
		panic(err)
	}
	ms, err := s.Query("shelf", "title", join.Descendant, LazyJoin)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(ms), "match(es)")
	// Output: 1 match(es)
}

func TestAlgorithmString(t *testing.T) {
	for alg, want := range map[Algorithm]string{
		LazyJoin: "Lazy-Join", STD: "STD", SkipSTD: "Skip-STD",
	} {
		if got := fmt.Sprint(alg); got != want {
			t.Errorf("String(%d) = %q, want %q", alg, got, want)
		}
	}
}

package labeling

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/join"
	"repro/internal/xmltree"
)

// --- IntervalStore ---

func TestIntervalInsertAndQuery(t *testing.T) {
	st := NewIntervalStore()
	if err := st.InsertSegment(0, []byte("<a><b><d/></b></a>")); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 || st.TextLen() != 18 {
		t.Fatalf("len=%d textLen=%d", st.Len(), st.TextLen())
	}
	got := st.Query("a", "d", join.Descendant)
	if len(got) != 1 {
		t.Fatalf("a//d = %d", len(got))
	}
	got = st.Query("a", "d", join.Child)
	if len(got) != 0 {
		t.Fatalf("a/d = %d", len(got))
	}
	got = st.Query("b", "d", join.Child)
	if len(got) != 1 {
		t.Fatalf("b/d = %d", len(got))
	}
}

func TestIntervalRelabelOnInsert(t *testing.T) {
	st := NewIntervalStore()
	if err := st.InsertSegment(0, []byte("<a><x/><y/></a>")); err != nil {
		t.Fatal(err)
	}
	before := st.Relabeled
	// Insert between <x/> and <y/> (offset 7): a stretches, y shifts.
	if err := st.InsertSegment(7, []byte("<m/>")); err != nil {
		t.Fatal(err)
	}
	if st.Relabeled-before != 2 {
		t.Fatalf("relabeled %d labels, want 2 (a stretches, y shifts)", st.Relabeled-before)
	}
	// Positions must match a straight parse of the spliced text.
	want := map[string]IntervalLabel{
		"a": {0, 19, 1}, "x": {3, 7, 2}, "m": {7, 11, 2}, "y": {11, 15, 2},
	}
	for tag, w := range want {
		list := st.Elements(tag)
		if len(list) != 1 || list[0] != w {
			t.Fatalf("%s = %v, want %v", tag, list, w)
		}
	}
}

func TestIntervalRemove(t *testing.T) {
	st := NewIntervalStore()
	if err := st.InsertSegment(0, []byte("<a><x/><y/></a>")); err != nil {
		t.Fatal(err)
	}
	// Remove <x/> at [3,7).
	if err := st.RemoveRange(3, 4); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 || st.TextLen() != 11 {
		t.Fatalf("len=%d textLen=%d", st.Len(), st.TextLen())
	}
	y := st.Elements("y")
	if len(y) != 1 || y[0].Start != 3 || y[0].End != 7 {
		t.Fatalf("y = %v", y)
	}
	a := st.Elements("a")
	if len(a) != 1 || a[0].End != 11 {
		t.Fatalf("a = %v", a)
	}
	if st.Elements("x") != nil {
		t.Fatal("x still present")
	}
}

func TestIntervalErrors(t *testing.T) {
	st := NewIntervalStore()
	if err := st.InsertSegment(5, []byte("<a/>")); err == nil {
		t.Fatal("out-of-range insert succeeded")
	}
	if err := st.InsertSegment(0, []byte("<a>")); err == nil {
		t.Fatal("malformed insert succeeded")
	}
	if err := st.RemoveRange(0, 1); err == nil {
		t.Fatal("out-of-range remove succeeded")
	}
}

// quick check: interval store agrees with a from-scratch parse after a
// random sequence of top-level sibling insertions.
func TestQuickIntervalMatchesReparse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := NewIntervalStore()
		var text []byte
		frags := []string{"<a><b/></a>", "<b><a/><c/></b>", "<c/>", "<a><a><c/></a></a>"}
		for i := 0; i < 8; i++ {
			frag := frags[r.Intn(len(frags))]
			// Valid points: top-level boundaries of the current text.
			gp := 0
			if len(text) > 0 {
				pts := topLevelBoundaries(text)
				gp = pts[r.Intn(len(pts))]
			}
			if err := st.InsertSegment(gp, []byte(frag)); err != nil {
				return false
			}
			next := make([]byte, 0, len(text)+len(frag))
			next = append(next, text[:gp]...)
			next = append(next, frag...)
			next = append(next, text[gp:]...)
			text = next
		}
		// Compare every tag's label set with a straight parse.
		wrapped := append(append([]byte("<r>"), text...), "</r>"...)
		doc, err := xmltree.Parse(wrapped)
		if err != nil {
			return false
		}
		want := map[IntervalLabel]string{}
		doc.Walk(func(e *xmltree.Element) bool {
			if e != doc.Root {
				want[IntervalLabel{e.Start - 3, e.End - 3, e.Level}] = e.Tag
			}
			return true
		})
		got := 0
		for _, tag := range []string{"a", "b", "c"} {
			for _, lab := range st.Elements(tag) {
				if want[lab] != tag {
					return false
				}
				got++
			}
		}
		return got == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// topLevelBoundaries returns the offsets between top-level elements.
func topLevelBoundaries(text []byte) []int {
	wrapped := append(append([]byte("<r>"), text...), "</r>"...)
	doc, err := xmltree.Parse(wrapped)
	if err != nil {
		return []int{0}
	}
	pts := []int{0}
	for _, c := range doc.Root.Children {
		pts = append(pts, c.End-3)
	}
	return pts
}

// --- PrimeStore ---

func parseDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.Parse([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPrimeLabelsAncestry(t *testing.T) {
	doc := parseDoc(t, "<a><b><c/></b><d/></a>")
	st := NewPrimeStore(doc, 3)
	if st.Len() != 4 {
		t.Fatalf("len = %d", st.Len())
	}
	a, b, c, d := st.Node(0), st.Node(1), st.Node(2), st.Node(3)
	if !IsAncestor(a, b) || !IsAncestor(a, c) || !IsAncestor(b, c) || !IsAncestor(a, d) {
		t.Fatal("missing ancestry")
	}
	if IsAncestor(b, d) || IsAncestor(c, b) || IsAncestor(d, a) || IsAncestor(a, a) {
		t.Fatal("false ancestry")
	}
}

func TestPrimeOrderRecovery(t *testing.T) {
	doc := parseDoc(t, "<a><b/><c/><d/><e/><f/></a>")
	for _, k := range []int{1, 2, 3, 10} {
		st := NewPrimeStore(doc, k)
		if err := st.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestPrimeInsertRecomputesSC(t *testing.T) {
	doc := parseDoc(t, "<a><b/><c/><d/><e/><f/><g/><h/></a>")
	st := NewPrimeStore(doc, 3)
	root := st.Node(0)
	// Insert right after the root: its group [a b c] overflows K=3 and
	// splits, recomputing two simultaneous congruences.
	n, err := st.InsertAfter(0, "x", root)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recomputed %d SC values, want 2 (overflow split)", n)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Insert at the very end: only the last group changes.
	n, err = st.InsertAfter(st.Len()-1, "y", root)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recomputed %d groups for tail insert, want 1", n)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPrimeInsertErrors(t *testing.T) {
	st := NewPrimeStore(parseDoc(t, "<a/>"), 2)
	if _, err := st.InsertAfter(-2, "x", nil); err == nil {
		t.Fatal("bad position accepted")
	}
	if _, err := st.InsertAfter(5, "x", nil); err == nil {
		t.Fatal("bad position accepted")
	}
}

func TestPrimeAgainstIntervalContainment(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		text := randomDoc(r)
		doc, err := xmltree.Parse([]byte(text))
		if err != nil {
			return false
		}
		st := NewPrimeStore(doc, 3)
		els := doc.Elements()
		if len(els) != st.Len() {
			return false
		}
		for i := range els {
			for j := range els {
				want := els[i].Contains(els[j])
				if IsAncestor(st.Node(i), st.Node(j)) != want {
					return false
				}
			}
		}
		return st.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimeLabelBitsGrow(t *testing.T) {
	small := NewPrimeStore(parseDoc(t, "<a><b/></a>"), 2)
	var sb strings.Builder
	sb.WriteString("<a>")
	for i := 0; i < 100; i++ {
		sb.WriteString("<b><c/></b>")
	}
	sb.WriteString("</a>")
	big := NewPrimeStore(parseDoc(t, sb.String()), 2)
	if big.LabelBits() <= small.LabelBits() {
		t.Fatal("label bits did not grow")
	}
	// Per-label cost grows with depth/position: the scheme's storage
	// overhead argument.
	if big.LabelBits()/big.Len() <= small.LabelBits()/small.Len() {
		t.Fatal("per-label bits did not grow")
	}
}

// randomDoc builds a small random document string.
func randomDoc(r *rand.Rand) string {
	var sb strings.Builder
	tags := []string{"a", "b", "c"}
	var emit func(depth int)
	emit = func(depth int) {
		tag := tags[r.Intn(len(tags))]
		if depth > 3 || r.Intn(3) == 0 {
			sb.WriteString("<" + tag + "/>")
			return
		}
		sb.WriteString("<" + tag + ">")
		for i, n := 0, r.Intn(3); i < n; i++ {
			emit(depth + 1)
		}
		sb.WriteString("</" + tag + ">")
	}
	emit(0)
	return sb.String()
}

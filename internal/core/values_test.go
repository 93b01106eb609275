package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/join"
	"repro/internal/xmltree"
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

// valueCount is len(ValueElements(tag, value)) on a fresh view of s.
func valueCount(t *testing.T, s *Store, tag, value string) int {
	t.Helper()
	v := s.AcquireView()
	defer v.Release()
	nodes, err := v.ValueElements(tag, value)
	if err != nil {
		t.Fatal(err)
	}
	return len(nodes)
}

// TestValueIndexAddRefsRemove: value records arrive with their segment
// and leave with a removed range of it or with the whole segment.
func TestValueIndexAddRefsRemove(t *testing.T) {
	s := NewStore(LD, WithValues())
	mustInsert(t, s, 0, "<a><b>x</b><b>x</b><b>y</b></a>")
	mustInsert(t, s, s.Len(), "<c>x</c>")
	for _, c := range []struct {
		tag, value string
		want       int
	}{{"b", "x", 2}, {"b", "y", 1}, {"c", "x", 1}, {"b", "zzz", 0}, {"b", "   ", 0}} {
		if got := valueCount(t, s, c.tag, c.value); got != c.want {
			t.Fatalf("%s=%q: %d elements, want %d", c.tag, c.value, got, c.want)
		}
	}
	// Partial removal: the second <b>x</b> of the first segment.
	if err := s.RemoveSegment(len("<a><b>x</b>"), len("<b>x</b>")); err != nil {
		t.Fatal(err)
	}
	if got := valueCount(t, s, "b", "x"); got != 1 {
		t.Fatalf("after partial removal: b=x has %d elements", got)
	}
	// Whole-segment removal.
	if err := s.RemoveSegment(s.Len()-len("<c>x</c>"), len("<c>x</c>")); err != nil {
		t.Fatal(err)
	}
	if got := valueCount(t, s, "c", "x"); got != 0 {
		t.Fatalf("after segment removal: c=x has %d elements", got)
	}
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
}

// TestValueIndexStraddlingRecordSurvives: a removal inside an element
// keeps the element's value record; only the records inside the range go.
func TestValueIndexStraddlingRecordSurvives(t *testing.T) {
	s := NewStore(LD, WithValues())
	mustInsert(t, s, 0, "<a>x<a>x</a></a>")
	if err := s.RemoveSegment(len("<a>x"), len("<a>x</a>")); err != nil {
		t.Fatal(err)
	}
	if got := valueCount(t, s, "a", "x"); got != 1 {
		t.Fatalf("a=x has %d elements, want the surviving outer one", got)
	}
	if err := s.CheckAgainstText(); err != nil {
		t.Fatal(err)
	}
}

func TestValueElementsThroughView(t *testing.T) {
	s := NewStore(LD, WithValues())
	if !s.values {
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
	if !got.values {
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

// valuedFragment is a random fragment whose elements and attributes
// carry values from a three-letter alphabet.
func valuedFragment(r *rand.Rand, depth int) string {
	vals := []string{"u", "v", "w"}
	tag := []string{"a", "b"}[r.Intn(2)]
	attr := ""
	if r.Intn(2) == 0 {
		attr = fmt.Sprintf(` id="%s"`, vals[r.Intn(len(vals))])
	}
	if depth >= 3 || r.Intn(3) == 0 {
		return "<" + tag + attr + ">" + vals[r.Intn(len(vals))] + "</" + tag + ">"
	}
	var sb strings.Builder
	sb.WriteString("<" + tag + attr + ">")
	for i, n := 0, r.Intn(3); i < n; i++ {
		sb.WriteString(valuedFragment(r, depth+1))
	}
	sb.WriteString("</" + tag + ">")
	return sb.String()
}

// TestQuickValueIndexAgainstModel drives value-indexed stores in both
// modes with random inserts and removals, and after each checks every
// (tag, value) pair's elements against the ones the text holds.
func TestQuickValueIndexAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, mode := range []Mode{LD, LS} {
			s := NewStore(mode, WithValues(), WithAttributes())
			mustInsert(t, s, 0, valuedFragment(r, 0))
			for op := 0; op < 20; op++ {
				text, _ := s.Text()
				if ranges := removableRanges(text); r.Intn(3) == 0 && len(ranges) > 1 {
					rg := ranges[r.Intn(len(ranges))]
					if rg[1] < len(text) {
						if err := s.RemoveSegment(rg[0], rg[1]); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					pts := insertionPoints(text)
					mustInsert(t, s, pts[r.Intn(len(pts))], valuedFragment(r, 1))
				}
				if err := s.CheckAgainstText(); err != nil {
					t.Logf("seed %d %v op %d: %v", seed, mode, op, err)
					return false
				}
				if !valuesMatchText(t, s) {
					t.Logf("seed %d %v op %d", seed, mode, op)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// valuesMatchText reports whether each (tag, value) pair of the text has
// exactly its elements' global spans in ValueElements.
func valuesMatchText(t *testing.T, s *Store) bool {
	text, _ := s.Text()
	doc, err := xmltree.Parse(append(append([]byte("<r>"), text...), "</r>"...))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]join.Node{}
	doc.Walk(func(e *xmltree.Element) bool {
		if e == doc.Root {
			return true
		}
		if v, ok := normalizeValue(e.DirectText(doc.Text)); ok {
			want[e.Tag+"="+v] = append(want[e.Tag+"="+v], join.Node{Start: e.Start - 3, End: e.End - 3})
		}
		for _, a := range e.Attrs {
			want["@"+a.Name+"="+a.Value] = append(want["@"+a.Name+"="+a.Value], join.Node{Start: a.Start - 3, End: a.End - 3})
		}
		return true
	})
	v := s.AcquireView()
	defer v.Release()
	for _, tag := range []string{"a", "b", "@id"} {
		for _, val := range []string{"u", "v", "w"} {
			got, err := v.ValueElements(tag, val)
			if err != nil {
				t.Fatal(err)
			}
			exp := want[tag+"="+val]
			if len(got) != len(exp) {
				t.Logf("%s=%s: %d elements, text has %d", tag, val, len(got), len(exp))
				return false
			}
			for i := range got {
				if got[i].Start != exp[i].Start || got[i].End != exp[i].End {
					t.Logf("%s=%s: element %d at [%d,%d), text has [%d,%d)", tag, val, i, got[i].Start, got[i].End, exp[i].Start, exp[i].End)
					return false
				}
			}
		}
	}
	return true
}

// TestValueStatsCountElementsOnly: value records and pseudo-tags stay
// out of Stats, through updates and a snapshot.
func TestValueStatsCountElementsOnly(t *testing.T) {
	for _, c := range []struct {
		opts             []Option
		elements, tags   int
		elements2, tags2 int
	}{
		{[]Option{WithValues()}, 4, 3, 2, 2},
		{[]Option{WithValues(), WithAttributes()}, 5, 4, 3, 3},
	} {
		s := NewStore(LD, c.opts...)
		mustInsert(t, s, 0, `<a id="1"><b>x</b><c>y</c><b>z</b></a>`)
		if st := s.Stats(); st.Elements != c.elements || st.Tags != c.tags {
			t.Fatalf("%d options: %d elements, %d tags; want %d, %d", len(c.opts), st.Elements, st.Tags, c.elements, c.tags)
		}
		if err := s.RemoveSegment(len(`<a id="1">`), len("<b>x</b><c>y</c>")); err != nil {
			t.Fatal(err)
		}
		// Tags count dictionary names, which removals never take back.
		if st := s.Stats(); st.Elements != c.elements2 || st.Tags != c.tags {
			t.Fatalf("%d options after removal: %d elements, %d tags; want %d, %d", len(c.opts), st.Elements, st.Tags, c.elements2, c.tags)
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := RestoreStore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if ws, gs := s.Stats(), got.Stats(); ws != gs {
			t.Fatalf("stats diverged over a snapshot: %+v vs %+v", ws, gs)
		}
		if err := got.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if st := got.Stats(); st.Elements != c.elements2 || st.Tags != c.tags2 {
			t.Fatalf("%d options after rebuild: %d elements, %d tags; want %d, %d", len(c.opts), st.Elements, st.Tags, c.elements2, c.tags2)
		}
	}
}

// TestExtentIgnoresValueTags: ElementExtentAt tries element tags only,
// however many distinct values the store holds, and a value record is
// never an element: an attribute's offset stays ErrNotAnElement.
func TestExtentIgnoresValueTags(t *testing.T) {
	s := NewStore(LD, WithValues())
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, `<v k="%d">%d</v>`, i, i)
	}
	sb.WriteString("</r>")
	mustInsert(t, s, 0, sb.String())
	if n := len(s.census.elems); n != 2 {
		t.Fatalf("extent candidates: %d tags, want r and v", n)
	}
	if s.dict.Len() < 1000 {
		t.Fatalf("dictionary holds %d names, want the 1000 value pseudo-tags too", s.dict.Len())
	}
	at := len("<r>")
	if n, err := s.ElementExtentAt(at); err != nil || n != len(`<v k="0">0</v>`) {
		t.Fatalf("extent at <v> = %d, %v", n, err)
	}
	if _, err := s.ElementExtentAt(at + len("<v ")); err != ErrNotAnElement {
		t.Fatalf("extent at an attribute = %v, want ErrNotAnElement", err)
	}
}

package lazyxml

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

func mustAppend(t *testing.T, db *DB, frag string) SID {
	t.Helper()
	sid, err := db.Append([]byte(frag))
	if err != nil {
		t.Fatalf("Append(%q): %v", frag, err)
	}
	return sid
}

func TestOpenInsertQuery(t *testing.T) {
	db := Open(LD)
	mustAppend(t, db, "<library><shelf></shelf></library>")
	if _, err := db.Insert(16, []byte("<book><title/></book>")); err != nil {
		t.Fatal(err)
	}
	n, err := db.Count("shelf//title")
	if err != nil || n != 1 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	n, err = db.Count("library//book")
	if err != nil || n != 1 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if db.Segments() != 2 {
		t.Fatalf("Segments = %d", db.Segments())
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleStepPath(t *testing.T) {
	db := Open(LD)
	mustAppend(t, db, "<a><b/><b/><c/></a>")
	ms, err := db.Query("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("b = %d matches", len(ms))
	}
	for _, m := range ms {
		if m.DescEnd <= m.DescStart {
			t.Fatalf("bad span %+v", m)
		}
	}
}

func TestMultiStepPath(t *testing.T) {
	db := Open(LD)
	mustAppend(t, db, "<a><b><c><d/></c></b><c><d/></c></a>")
	// a//c/d : both c's contain a d child.
	ms, err := db.Query("a//c/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("a//c/d = %d matches, want 2", len(ms))
	}
	// b/c//d : only the first c is a child of b.
	ms, err = db.Query("b/c//d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("b/c//d = %d matches, want 1", len(ms))
	}
	for _, m := range ms {
		if m.AncEnd <= m.AncStart || m.DescEnd <= m.DescStart {
			t.Fatalf("unresolved globals: %+v", m)
		}
	}
}

func TestParsePath(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"a//b", "a//b", false},
		{"a/b/c", "a/b/c", false},
		{"//a//b", "a//b", false},
		{"/a", "a", false},
		{"a", "a", false},
		{" a//b ", "a//b", false},
		{"", "", true},
		{"//", "", true},
		{"a//", "", true},
		{"a///b", "", true},
		{"a b//c", "", true},
	}
	for _, c := range cases {
		p, err := ParsePath(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParsePath(%q) succeeded: %v", c.in, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePath(%q): %v", c.in, err)
			continue
		}
		if p.String() != c.want {
			t.Errorf("ParsePath(%q) = %q, want %q", c.in, p.String(), c.want)
		}
	}
}

func TestQueryAlgorithmsAgree(t *testing.T) {
	db := Open(LD)
	mustAppend(t, db, "<a><p><q/></p></a>")
	if _, err := db.Insert(6, []byte("<q><r/></q>")); err != nil {
		t.Fatal(err)
	}
	for _, j := range []struct {
		anc, desc string
		axis      Axis
	}{{"a", "q", Descendant}, {"p", "q", Descendant}, {"q", "r", Descendant}, {"p", "q", Child}} {
		lazy, err := db.QueryPair(j.anc, j.desc, j.axis, LazyJoin)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{STD, SkipSTD} {
			other, err := db.QueryPair(j.anc, j.desc, j.axis, alg)
			if err != nil {
				t.Fatal(err)
			}
			if len(other) != len(lazy) {
				t.Fatalf("%s %v %s: lazy %d != %v %d", j.anc, j.axis, j.desc, len(lazy), alg, len(other))
			}
		}
	}
}

func TestRemoveElementAt(t *testing.T) {
	db := Open(LD)
	mustAppend(t, db, "<a><b/><c/></a>")
	if err := db.RemoveElementAt(3); err != nil { // <b/>
		t.Fatal(err)
	}
	text, _ := db.Text()
	if string(text) != "<a><c/></a>" {
		t.Fatalf("text = %s", text)
	}
	if err := db.RemoveElementAt(99); err == nil {
		t.Fatal("removal at non-element offset succeeded")
	}
	if err := db.RemoveElementAt(1); err != ErrNotAnElement {
		t.Fatalf("err = %v, want ErrNotAnElement", err)
	}
}

func TestSaveAndOpenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.xml")
	db := Open(LD)
	mustAppend(t, db, "<a><b/></a>")
	mustAppend(t, db, "<c/>")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// A super document with two top-level segments is not one XML
	// document; OpenFile requires a single root, so save a rebuilt
	// single-rooted database instead.
	db2 := Open(LD)
	mustAppend(t, db2, "<a><b/><c/></a>")
	if err := db2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenFile(path, LS)
	if err != nil {
		t.Fatal(err)
	}
	if got.Segments() != 1 {
		t.Fatalf("Segments = %d", got.Segments())
	}
	n, err := got.Count("a//b")
	if err != nil || n != 1 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	raw, _ := os.ReadFile(path)
	text, _ := got.Text()
	if !bytes.Equal(raw, text) {
		t.Fatal("round trip changed the document")
	}
	if _, err := OpenFile(filepath.Join(dir, "missing.xml"), LD); err == nil {
		t.Fatal("OpenFile(missing) succeeded")
	}
}

func TestRebuildFacade(t *testing.T) {
	db := Open(LD)
	mustAppend(t, db, "<a><x></x></a>")
	if _, err := db.Insert(6, []byte("<b/>")); err != nil {
		t.Fatal(err)
	}
	if db.Segments() != 2 {
		t.Fatal("expected 2 segments")
	}
	if err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if db.Segments() != 1 {
		t.Fatalf("Segments after rebuild = %d", db.Segments())
	}
	if n, _ := db.Count("a//b"); n != 1 {
		t.Fatal("query broken after rebuild")
	}
}

func TestWithoutTextFacade(t *testing.T) {
	db := Open(LD, WithoutText())
	mustAppend(t, db, "<a><b/></a>")
	if n, _ := db.Count("a//b"); n != 1 {
		t.Fatal("query broken without text")
	}
	if _, err := db.Text(); err == nil {
		t.Fatal("Text succeeded")
	}
	if err := db.RemoveElementAt(0); err == nil {
		t.Fatal("RemoveElementAt succeeded")
	}
}

func TestStatsFacade(t *testing.T) {
	db := Open(LS)
	mustAppend(t, db, "<a><b/></a>")
	st := db.Stats()
	if st.Segments != 1 || st.Elements != 2 || st.Mode != LS {
		t.Fatalf("stats = %+v", st)
	}
	if db.Mode() != LS {
		t.Fatal("Mode() wrong")
	}
	if db.Len() != 11 {
		t.Fatalf("Len = %d", db.Len())
	}
}

// TestQuickPathAgainstBruteForce verifies multi-step path evaluation on
// random documents against a straight tree walk.
func TestQuickPathAgainstBruteForce(t *testing.T) {
	tags := []string{"a", "b", "c"}
	genDoc := func(r *rand.Rand) string {
		var sb strings.Builder
		var emit func(depth int)
		emit = func(depth int) {
			tag := tags[r.Intn(len(tags))]
			if depth > 4 || r.Intn(3) == 0 {
				sb.WriteString("<" + tag + "/>")
				return
			}
			sb.WriteString("<" + tag + ">")
			for i, n := 0, r.Intn(3); i < n; i++ {
				emit(depth + 1)
			}
			sb.WriteString("</" + tag + ">")
		}
		sb.WriteString("<root>")
		for i := 0; i < 3; i++ {
			emit(1)
		}
		sb.WriteString("</root>")
		return sb.String()
	}
	paths := []string{"a//b", "a/b", "a//b//c", "a//b/c", "a/b//c", "root//a//c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		text := genDoc(r)
		db := Open(LD)
		if _, err := db.Append([]byte(text)); err != nil {
			return false
		}
		doc, err := xmltree.Parse([]byte(text))
		if err != nil {
			return false
		}
		for _, pexpr := range paths {
			p, err := ParsePath(pexpr)
			if err != nil {
				return false
			}
			want := brutePath(doc, p)
			got, err := db.Query(pexpr)
			if err != nil {
				return false
			}
			gotSet := map[[2]int]bool{}
			for _, m := range got {
				gotSet[[2]int{m.AncStart, m.DescStart}] = true
			}
			if len(gotSet) != len(want) {
				t.Logf("seed %d path %s: got %v want %v (doc %s)", seed, pexpr, gotSet, want, text)
				return false
			}
			for k := range want {
				if !gotSet[k] {
					t.Logf("seed %d path %s: missing %v", seed, pexpr, k)
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

// brutePath computes the expected (ancStart, descStart) pairs of a path:
// the pairs are (second-to-last step element, last step element).
func brutePath(doc *xmltree.Document, p Path) map[[2]int]bool {
	// frontier: elements matching the path up to step i.
	frontier := map[*xmltree.Element]bool{}
	doc.Walk(func(e *xmltree.Element) bool {
		if e.Tag == p.First {
			frontier[e] = true
		}
		return true
	})
	type pair struct{ a, d *xmltree.Element }
	var lastPairs []pair
	for _, step := range p.Steps {
		lastPairs = nil
		next := map[*xmltree.Element]bool{}
		doc.Walk(func(d *xmltree.Element) bool {
			if d.Tag != step.Tag {
				return true
			}
			for a := range frontier {
				ok := false
				if step.Axis == Descendant {
					ok = a.Contains(d)
				} else {
					ok = d.Parent == a
				}
				if ok {
					next[d] = true
					lastPairs = append(lastPairs, pair{a, d})
				}
			}
			return true
		})
		frontier = next
	}
	out := map[[2]int]bool{}
	for _, pr := range lastPairs {
		out[[2]int{pr.a.Start, pr.d.Start}] = true
	}
	return out
}

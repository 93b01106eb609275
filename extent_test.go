package lazyxml

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// parseExtentAt is the reference ElementExtentAt is checked against: the
// body DB.ElementExtentAt had while it still parsed the whole super
// document to learn one element's length.
func parseExtentAt(db *DB, gp int) (int, error) {
	text, err := db.store.Text()
	if err != nil {
		return 0, err
	}
	wrapped := append(append([]byte("<r>"), text...), "</r>"...)
	doc, err := xmltree.Parse(wrapped)
	if err != nil {
		return 0, fmt.Errorf("lazyxml: super document unparsable: %w", err)
	}
	const off = 3
	length := 0
	doc.Walk(func(e *xmltree.Element) bool {
		if e != doc.Root && e.Start-off == gp {
			length = e.End - e.Start
			return false
		}
		return true
	})
	if length == 0 {
		return 0, ErrNotAnElement
	}
	return length, nil
}

// checkExtents compares the index-resolved extent with the parse-based
// one at every offset of the super document, and one past each end.
func checkExtents(t *testing.T, db *DB, when string) {
	t.Helper()
	for gp := -1; gp <= db.Len(); gp++ {
		want, werr := parseExtentAt(db, gp)
		got, gerr := db.ElementExtentAt(gp)
		if werr != nil || gerr != nil {
			if !errors.Is(werr, ErrNotAnElement) || !errors.Is(gerr, ErrNotAnElement) {
				text, _ := db.Text()
				t.Fatalf("%s: gp %d of %q: index says (%d, %v), parse says (%d, %v)", when, gp, text, got, gerr, want, werr)
			}
			continue
		}
		if got != want {
			text, _ := db.Text()
			t.Fatalf("%s: gp %d of %q: index extent %d, parse extent %d\n%s", when, gp, text, got, want, db.store.SegmentTree().Dump())
		}
	}
}

// extentFragment draws a small element tree: containers hold only
// elements, leaves hold a value, so removing a run of whole children
// never changes a surviving element's direct text (the WithValues
// contract of Remove).
func extentFragment(r *rand.Rand) string {
	tags := []string{"a", "b", "c", "d"}
	var sb strings.Builder
	var emit func(depth int)
	emit = func(depth int) {
		tag := tags[r.Intn(len(tags))]
		sb.WriteString("<" + tag)
		if r.Intn(2) == 0 {
			fmt.Fprintf(&sb, ` id="x%d"`, r.Intn(50))
		}
		switch {
		case depth > 2 || r.Intn(4) == 0:
			fmt.Fprintf(&sb, ">v%d</%s>", r.Intn(9), tag)
		case r.Intn(5) == 0:
			sb.WriteString("/>")
		default:
			sb.WriteString(">")
			for i, n := 0, 1+r.Intn(3); i < n; i++ {
				emit(depth + 1)
			}
			sb.WriteString("</" + tag + ">")
		}
	}
	emit(0)
	return sb.String()
}

// extentStep applies one random well-formed update and names it.
func extentStep(t *testing.T, r *rand.Rand, db *DB) string {
	t.Helper()
	text, err := db.Text()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse(append(append([]byte("<r>"), text...), "</r>"...))
	if err != nil {
		t.Fatalf("history left %q ill-formed: %v", text, err)
	}
	const off = 3
	elems := doc.Elements()[1:]
	if len(elems) < 4 {
		if _, err := db.Insert(r.Intn(2)*db.Len(), []byte(extentFragment(r))); err != nil {
			t.Fatal(err)
		}
		return "top-level insert"
	}
	e := elems[r.Intn(len(elems))]
	op := r.Intn(10)
	if db.Len() > 400 {
		op = 4 + r.Intn(6) // big enough: shrink or collapse
	}
	switch {
	case op < 4:
		// Before e, after e, or just inside either of e's tags: when e is a
		// segment's root these are the segment's first byte, the byte past
		// its last, and nested inserts at its first and last content byte.
		at := []int{e.Start, e.End, e.ContentStart, e.ContentEnd}[r.Intn(4)] - off
		if _, err := db.Insert(at, []byte(extentFragment(r))); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("insert at %d", at)
	case op < 6:
		if err := db.RemoveElementAt(e.Start - off); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("remove element at %d", e.Start-off)
	case op < 9:
		// A raw range over a run of e's children: e survives around a
		// tombstone (or around dropped child segments).
		if len(e.Children) == 0 {
			return "no-op"
		}
		i := r.Intn(len(e.Children))
		j := i + r.Intn(len(e.Children)-i)
		lo, hi := e.Children[i].Start-off, e.Children[j].End-off
		if err := db.Remove(lo, hi-lo); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("remove range [%d,%d)", lo, hi)
	default:
		sid := SID(1 + r.Intn(db.Stats().Inserts))
		if _, err := db.Collapse(sid); err != nil {
			return "no-op" // collapsed away or removed earlier
		}
		return fmt.Sprintf("collapse %d", sid)
	}
}

// TestElementExtentOracle is the property behind Store.ElementExtentAt:
// over random update histories — nested and boundary inserts, element
// removes, raw range removes that leave tombstones inside surviving
// elements, collapses — the extent read from the ER-tree and the element
// index equals the extent of a fresh parse at every offset.
func TestElementExtentOracle(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"attrs", []Option{WithAttributes()}},
		{"values", []Option{WithValues()}},
		{"attrs+values", []Option{WithAttributes(), WithValues()}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				r := rand.New(rand.NewSource(seed))
				db := Open(LD, cfg.opts...)
				collapsed := false
				for step := 0; step < 40 || !collapsed; step++ {
					what := extentStep(t, r, db)
					collapsed = collapsed || strings.HasPrefix(what, "collapse")
					checkExtents(t, db, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
				}
				if err := db.CheckConsistency(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestElementExtentPinned names the cases the descent and the probe have
// to get right one by one.
func TestElementExtentPinned(t *testing.T) {
	extent := func(t *testing.T, db *DB, gp int) (int, error) {
		t.Helper()
		want, werr := parseExtentAt(db, gp)
		got, gerr := db.ElementExtentAt(gp)
		if got != want || !errors.Is(gerr, werr) {
			t.Fatalf("gp %d: index says (%d, %v), parse says (%d, %v)", gp, got, gerr, want, werr)
		}
		return got, gerr
	}

	t.Run("gp at a child segment's first byte", func(t *testing.T) {
		db := Open(LD)
		mustAppend(t, db, "<a><b/></a>")
		if _, err := db.Insert(3, []byte("<c><d/></c>")); err != nil {
			t.Fatal(err)
		}
		// <a><c><d/></c><b/></a>: offset 3 is the child segment's root, not
		// the parent's <b/> whose original coordinate it shares.
		if l, err := extent(t, db, 3); l != len("<c><d/></c>") || err != nil {
			t.Fatalf("extent = %d, %v", l, err)
		}
		if l, err := extent(t, db, 3+len("<c><d/></c>")); l != len("<b/>") || err != nil {
			t.Fatalf("extent of <b/> = %d, %v", l, err)
		}
		if l, err := extent(t, db, 0); l != db.Len() || err != nil {
			t.Fatalf("extent of <a> = %d, %v", l, err)
		}
	})

	t.Run("gp on an @attr pseudo-element's start", func(t *testing.T) {
		db := Open(LD, WithAttributes(), WithValues())
		mustAppend(t, db, `<a id="1"><b k="v"/></a>`)
		if n, _ := db.Count("@id"); n != 1 {
			t.Fatal("attributes not indexed")
		}
		for _, gp := range []int{strings.Index(`<a id="1"><b k="v"/></a>`, "id"), strings.Index(`<a id="1"><b k="v"/></a>`, "k=")} {
			if _, err := extent(t, db, gp); !errors.Is(err, ErrNotAnElement) {
				t.Fatalf("gp %d: err = %v, want ErrNotAnElement", gp, err)
			}
		}
	})

	t.Run("gp inside an element whose interior was partly removed", func(t *testing.T) {
		db := Open(LD)
		mustAppend(t, db, "<a><b/><c><x/></c><d/><e/></a>")
		if _, err := db.Insert(strings.Index("<a><b/><c><x/></c><d/><e/></a>", "<d/>"), []byte("<n><m/></n>")); err != nil {
			t.Fatal(err)
		}
		// <a><b/><c><x/></c><n><m/></n><d/><e/></a>: drop <c>…</c> with a
		// raw range, leaving a tombstone inside <a> before the child
		// segment and the elements that follow it.
		if err := db.Remove(7, len("<c><x/></c>")); err != nil {
			t.Fatal(err)
		}
		want := "<a><b/><n><m/></n><d/><e/></a>"
		if text, _ := db.Text(); string(text) != want {
			t.Fatalf("text = %s", text)
		}
		for _, el := range []string{"<a>", "<b/>", "<n>", "<m/>", "<d/>", "<e/>"} {
			if _, err := extent(t, db, strings.Index(want, el)); err != nil {
				t.Fatalf("%s: %v", el, err)
			}
		}
		if l, _ := extent(t, db, 0); l != len(want) {
			t.Fatalf("extent of <a> = %d, want %d", l, len(want))
		}
		checkExtents(t, db, "after the raw remove")
	})
}

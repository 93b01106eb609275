package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/labeling"
	"repro/internal/xmltree"
)

// The figure runners are exercised at reduced scale: the tests assert
// the qualitative shapes the paper reports, not absolute numbers.

func cell(t *testing.T, tab Table, row int, col string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("table %q has no column %q", tab.Title, col)
	return ""
}

func cellF(t *testing.T, tab Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell(t, tab, row, col), err)
	}
	return v
}

func TestFig11Shapes(t *testing.T) {
	tab := Fig11([]int{10, 40}, 8)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Tag-list grows faster than the SB-tree and dominates at larger N.
	for _, row := range []int{1, 3} { // the 40-segment rows
		sb := cellF(t, tab, row, "sbtree_kb")
		tl := cellF(t, tab, row, "taglist_kb")
		if tl <= sb {
			t.Errorf("row %d: taglist %.1f KB <= sbtree %.1f KB", row, tl, sb)
		}
	}
	// Nested tag-list (rows 2,3) larger than balanced (rows 0,1) at the
	// same segment count: longer paths.
	if cellF(t, tab, 3, "taglist_kb") <= cellF(t, tab, 1, "taglist_kb") {
		t.Error("nested tag-list not larger than balanced")
	}
	// Size grows with segment count.
	if cellF(t, tab, 1, "total_kb") <= cellF(t, tab, 0, "total_kb") {
		t.Error("total size did not grow with segments")
	}
	if !strings.Contains(tab.String(), "Figure 11") {
		t.Error("table renders without title")
	}
}

func TestFig12Runs(t *testing.T) {
	for _, shape := range []Shape{Balanced, Nested} {
		tab := Fig12(shape, 12, 600, []float64{0, 50, 100})
		if len(tab.Rows) != 3 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
		// All three algorithms return the same cardinality per row.
		for i := range tab.Rows {
			if cell(t, tab, i, "results") == "0" {
				t.Errorf("shape %v row %d: no results", shape, i)
			}
			for _, col := range []string{"LS_ms", "LD_ms", "STD_ms"} {
				if cellF(t, tab, i, col) < 0 {
					t.Errorf("negative time in %s", col)
				}
			}
		}
	}
}

func TestFig13Runs(t *testing.T) {
	tab := Fig13(Balanced, []int{5, 15}, 300)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig14Cardinalities(t *testing.T) {
	tab := Fig14(30, 6, 10)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		n, _ := strconv.Atoi(cell(t, tab, i, "cardinality"))
		if n <= 0 {
			t.Errorf("query %s has cardinality %d", cell(t, tab, i, "query"), n)
		}
	}
	// Q4 (person//watch) >= Q3 (watches//watch): every watch under
	// watches is also under a person.
	q3, _ := strconv.Atoi(cell(t, tab, 2, "cardinality"))
	q4, _ := strconv.Atoi(cell(t, tab, 3, "cardinality"))
	if q4 < q3 {
		t.Errorf("Q4 %d < Q3 %d", q4, q3)
	}
}

func TestFig15Runs(t *testing.T) {
	tab := Fig15(30, 6, 10)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig16TraditionalSlowerAtScale(t *testing.T) {
	tab := Fig16([]int{50, 400})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The headline result, in work rather than wall-clock time so a busy
	// machine cannot flip the verdict: the lazy insert's work does not
	// grow with the document, the traditional insert's does, and on the
	// larger document the traditional insert does more.
	ld50, trad50 := fig16Work(50)
	ld400, trad400 := fig16Work(400)
	t.Logf("LD %d / %d records, traditional %d / %d labels at 50 / 400 persons", ld50, ld400, trad50, trad400)
	if ld400 > ld50 {
		t.Errorf("LD work grew with the document: %d records at 50 persons, %d at 400", ld50, ld400)
	}
	if trad400 <= trad50 {
		t.Errorf("traditional work did not grow: %d labels at 50 persons, %d at 400", trad50, trad400)
	}
	if trad400 <= ld400 {
		t.Errorf("traditional %d labels <= LD %d records on the large document", trad400, ld400)
	}
}

// fig16Work is Figure 16's comparison counted rather than timed: the
// records one LD segment insert adds (counted as fig17Work counts them),
// and the labels the traditional insert rewrites plus the labels it adds.
func fig16Work(persons int) (ld, trad int) {
	text, doc, gp, frag := fig16Input(persons)
	tags := map[string]bool{}
	fdoc, err := xmltree.ParseFragment(frag)
	if err != nil {
		panic(err)
	}
	for _, d := range []*xmltree.Document{doc, fdoc} {
		d.Walk(func(e *xmltree.Element) bool {
			tags[e.Tag] = true
			return true
		})
	}
	s := core.NewStore(core.LD)
	if _, err := s.InsertSegment(0, text); err != nil {
		panic(err)
	}
	before := ldRecords(s, tags)
	if _, err := s.InsertSegment(gp, frag); err != nil {
		panic(err)
	}
	ld = ldRecords(s, tags) - before

	st := labeling.NewIntervalStore()
	if err := st.InsertSegment(0, text); err != nil {
		panic(err)
	}
	relabeled, labels := st.Relabeled, st.Len()
	if err := st.InsertSegment(gp, frag); err != nil {
		panic(err)
	}
	return ld, st.Relabeled - relabeled + st.Len() - labels
}

// ldRecords counts what a lazy store holds for the given tags: segments,
// element records and tag-list entries.
func ldRecords(s *core.Store, tags map[string]bool) int {
	v := s.AcquireView()
	defer v.Release()
	entries := 0
	for tag := range tags {
		_, segs, _ := v.TagPlanStat(tag)
		entries += segs
	}
	st := s.Stats()
	return st.Segments + st.Elements + entries
}

func TestFig17ElementsShape(t *testing.T) {
	cfg := Fig17Config{BaseSegments: 20, BaseElements: 2000, PrimeKs: []int{5}}
	tab := Fig17Elements([]int{8, 256}, cfg)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Work, not wall-clock time, so a busy machine cannot flip the
	// verdict. Per-element lazy cost falls as the segment carries more
	// elements: one segment insert covers all of them.
	ld8, _ := fig17Work(8, cfg)
	ld256, prime256 := fig17Work(256, cfg)
	if ld256 >= ld8 {
		t.Errorf("LD per-element work did not fall with segment size: %.2f at 8 elements, %.2f at 256", ld8, ld256)
	}
	// PRIME does more work than the lazy approach at the larger size.
	if prime256 <= ld256 {
		t.Errorf("PRIME per-element work %.2f not above LD's %.2f", prime256, ld256)
	}
}

// fig17Work is Figure 17(a)'s comparison counted in records rather than
// timed, per inserted element: what one LD segment insert of n elements
// adds to the update log and the element index (element records, tag-list
// entries and the SB-tree node), and what PRIME computes inserting the
// same n elements one at a time (a label each, plus every simultaneous
// congruence it recomputes).
func fig17Work(n int, cfg Fig17Config) (ld, prime float64) {
	cfg = cfg.withDefaults()
	tags := map[string]bool{}
	for i := 0; i < 10; i++ {
		tags[fmt.Sprintf("t%d", i)] = true
	}
	records := func(s *core.Store) int { return ldRecords(s, tags) }
	s := buildChoppedBase(core.LD, cfg)
	before := records(s)
	if _, err := s.InsertSegment(alignInsertionPoint(s, s.Len()/2), fragmentWithElements(n, 10)); err != nil {
		panic(err)
	}
	ld = float64(records(s)-before) / float64(n)

	ps := buildPrimeBase(cfg, cfg.PrimeKs[0])
	recomputed, pos, parent := ps.Recomputed, ps.Len()/2, ps.Node(0)
	for i := 0; i < n; i++ {
		if _, err := ps.InsertAfter(pos+i, "t0", parent); err != nil {
			panic(err)
		}
	}
	prime = float64(n+ps.Recomputed-recomputed) / float64(n)
	return ld, prime
}

func TestFig17TagsRuns(t *testing.T) {
	cfg := Fig17Config{BaseSegments: 20, BaseElements: 2000, PrimeKs: []int{5}}
	tab := Fig17Tags([]int{2, 16}, cfg)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFigAblationsShapes(t *testing.T) {
	tab := FigAblations()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if indexOfRow(tab, "collapse (§5.3 remedy)") < 0 {
		t.Fatal("no collapse row")
	}
	// The §5.3 collapse remedy must actually help: the collapsed join
	// walks strictly fewer segments than the one over 300 chopped ones,
	// and touches no more elements. Work, not wall-clock time, so a busy
	// machine cannot flip the verdict.
	collapsed, chopped := collapseAblation()
	if collapsed.segments >= chopped.segments || collapsed.elements > chopped.elements {
		t.Errorf("collapse did not help: %d segments / %d elements collapsed vs %d / %d chopped",
			collapsed.segments, collapsed.elements, chopped.segments, chopped.elements)
	}
	if chopped.elements == 0 {
		t.Error("the chopped join touched no elements")
	}
}

func indexOfRow(tab Table, name string) int {
	for i, row := range tab.Rows {
		if row[0] == name {
			return i
		}
	}
	return -1
}

func TestFig17SegmentsRuns(t *testing.T) {
	cfg := Fig17Config{BaseElements: 2000, PrimeKs: []int{5}}
	tab := Fig17Segments([]int{10, 40}, cfg)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

// Figure runners: one function per table/figure of the paper's Section 5.
// Each returns structured rows and can render itself as a paper-style
// text table; cmd/labreport drives them and EXPERIMENTS.md records their
// output next to the published shapes.

package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/chopper"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/labeling"
	"repro/internal/xbtree"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// Table is a rendered experiment: a header plus rows of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
func us(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000) }
func kb(bytes int) string       { return fmt.Sprintf("%.1f", float64(bytes)/1024) }

// timeIt runs f `reps` times and returns the average duration.
// timeIt reports the fastest of reps runs: the minimum is the estimate
// least distorted by GC pauses and scheduler noise, which under -race
// is the difference between a stable shape assertion and a flaky one.
func timeIt(reps int, f func()) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// --- Figure 11: update log size and building time ---

// buildLogWorkload builds a store of n segments, each containing every
// one of `tags` element tags (the paper's worst case for the tag-list),
// with the requested ER-tree shape.
func buildLogWorkload(mode core.Mode, n, tags int, shape Shape) (*core.Store, error) {
	s := core.NewStore(mode, core.WithoutText())
	frag := segmentWithAllTags(tags)
	hole := strings.Index(frag, "</x>") // children nest before the close tag
	gp := 0
	for i := 0; i < n; i++ {
		if _, err := s.InsertSegment(gp, []byte(frag)); err != nil {
			return nil, err
		}
		switch shape {
		case Nested:
			gp += hole // next segment goes just inside this one
		default:
			// Balanced: all segments after the first become children of
			// the first, side by side at its content start.
			if i == 0 {
				gp = hole
			}
		}
	}
	return s, nil
}

func segmentWithAllTags(tags int) string {
	var sb strings.Builder
	sb.WriteString("<x>")
	for t := 0; t < tags; t++ {
		fmt.Fprintf(&sb, "<t%d/>", t)
	}
	sb.WriteString("</x>")
	return sb.String()
}

// Fig11 reports update-log size (a) and building time (b) for nested and
// balanced ER-trees as the number of segments grows.
func Fig11(segCounts []int, tags int) Table {
	t := Table{
		Title:  "Figure 11: update log size (KB) and building time (ms) vs #segments",
		Header: []string{"segments", "shape", "sbtree_kb", "taglist_kb", "total_kb", "build_ms"},
	}
	for _, shape := range []Shape{Balanced, Nested} {
		for _, n := range segCounts {
			var s *core.Store
			d := timeIt(1, func() {
				var err error
				s, err = buildLogWorkload(core.LD, n, tags, shape)
				if err != nil {
					panic(err)
				}
			})
			sb, tl := s.UpdateLogBytes()
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), shape.String(), kb(sb), kb(tl), kb(sb + tl), ms(d),
			})
		}
	}
	return t
}

// --- Figure 12: join time vs cross-segment join percentage ---

// Fig12 reports the elapsed time of A//D for LS, LD and STD while the
// percentage of cross-segment joins sweeps, at fixed segment count and
// fixed total join count.
func Fig12(shape Shape, nSegments, totalJoins int, crossPcts []float64) Table {
	t := Table{
		Title: fmt.Sprintf("Figure 12: A//D elapsed time (ms) vs cross-join %% — %s ER-tree, %d segments",
			shape, nSegments),
		Header: []string{"cross_pct", "achieved_pct", "LS_ms", "LD_ms", "STD_ms", "results"},
	}
	for _, pct := range crossPcts {
		w, err := BuildCrossWorkload(shape, nSegments, totalJoins, pct)
		if err != nil {
			panic(err)
		}
		ld, err := w.BuildStore(core.LD)
		if err != nil {
			panic(err)
		}
		ls, err := w.BuildStore(core.LS)
		if err != nil {
			panic(err)
		}
		const reps = 20
		dLD := timeIt(reps, func() { mustQuery(ld, "A", "D", core.LazyJoin) })
		dLS := timeIt(reps, func() { mustQuery(ls, "A", "D", core.LazyJoin) })
		dSTD := timeIt(reps, func() { mustQuery(ld, "A", "D", core.STD) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", pct), fmt.Sprintf("%.1f", w.CrossPct()),
			ms(dLS), ms(dLD), ms(dSTD), fmt.Sprint(w.TotalJoins()),
		})
	}
	return t
}

func mustQuery(s *core.Store, a, d string, alg core.Algorithm) int {
	msr, err := s.Query(a, d, join.Descendant, alg)
	if err != nil {
		panic(err)
	}
	return len(msr)
}

// --- Figure 13: join time vs number of segments ---

// Fig13 reports LD vs STD elapsed time while the same document is chopped
// into more and more segments (~20% cross joins).
func Fig13(shape Shape, segCounts []int, totalJoins int) Table {
	t := Table{
		Title:  fmt.Sprintf("Figure 13: A//D elapsed time (ms) vs #segments — %s ER-tree", shape),
		Header: []string{"segments", "LD_ms", "STD_ms", "results"},
	}
	for _, n := range segCounts {
		w, err := BuildCrossWorkload(shape, n, totalJoins, 20)
		if err != nil {
			panic(err)
		}
		s, err := w.BuildStore(core.LD)
		if err != nil {
			panic(err)
		}
		const reps = 10
		dLD := timeIt(reps, func() { mustQuery(s, "A", "D", core.LazyJoin) })
		dSTD := timeIt(reps, func() { mustQuery(s, "A", "D", core.STD) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(dLD), ms(dSTD), fmt.Sprint(w.TotalJoins()),
		})
	}
	return t
}

// --- Figures 14 and 15: XMark queries ---

// XMarkStores builds an XMark-like document, chops it into nSegments
// balanced segments, and returns LD and LS stores plus the text.
func XMarkStores(persons, items, nSegments int) (ld, ls *core.Store, text []byte, err error) {
	text = xmlgen.XMark(xmlgen.XMarkConfig{Seed: 2005, Persons: persons, Items: items})
	ops, err := chopper.Chop(text, nSegments, chopper.Balanced, 2005)
	if err != nil {
		return nil, nil, nil, err
	}
	build := func(mode core.Mode) (*core.Store, error) {
		s := core.NewStore(mode, core.WithoutText())
		for _, op := range ops {
			if _, err := s.InsertSegment(op.GP, op.Fragment); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	if ld, err = build(core.LD); err != nil {
		return nil, nil, nil, err
	}
	if ls, err = build(core.LS); err != nil {
		return nil, nil, nil, err
	}
	return ld, ls, text, nil
}

// Fig14 reports the XMark queries and their result cardinalities.
func Fig14(persons, items, nSegments int) Table {
	ld, _, _, err := XMarkStores(persons, items, nSegments)
	if err != nil {
		panic(err)
	}
	t := Table{
		Title:  "Figure 14: XMark queries and result cardinality",
		Header: []string{"query", "xpath", "cardinality"},
	}
	for i, q := range xmlgen.XMarkQueries() {
		n := mustQuery(ld, q[0], q[1], core.LazyJoin)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Q%d", i+1), q[0] + "//" + q[1], fmt.Sprint(n),
		})
	}
	return t
}

// Fig15 reports elapsed time of Q1-Q5 for LS, LD and STD on the chopped
// XMark document.
func Fig15(persons, items, nSegments int) Table {
	ld, ls, _, err := XMarkStores(persons, items, nSegments)
	if err != nil {
		panic(err)
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 15: XMark query elapsed time (ms) — %d segments, balanced", nSegments),
		Header: []string{"query", "LS_ms", "LD_ms", "STD_ms", "results"},
	}
	for i, q := range xmlgen.XMarkQueries() {
		const reps = 5
		dLD := timeIt(reps, func() { mustQuery(ld, q[0], q[1], core.LazyJoin) })
		dLS := timeIt(reps, func() { mustQuery(ls, q[0], q[1], core.LazyJoin) })
		dSTD := timeIt(reps, func() { mustQuery(ld, q[0], q[1], core.STD) })
		n := mustQuery(ld, q[0], q[1], core.LazyJoin)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Q%d", i+1), ms(dLS), ms(dLD), ms(dSTD), fmt.Sprint(n),
		})
	}
	return t
}

// --- Ablations (DESIGN.md §4) ---

// FigAblations reports the effect of each optional design choice:
// the two Figure 9 optimizations, LS-vs-LD update cost, and the §5.3
// segment-collapse remedy.
func FigAblations() Table {
	t := Table{
		Title:  "Ablations: design-choice effects",
		Header: []string{"ablation", "on_ms", "off_ms"},
	}
	// Push filter and stack-top trim on a nested cross-join workload.
	w, err := BuildCrossWorkload(Nested, 100, 40_000, 60)
	if err != nil {
		panic(err)
	}
	s, err := w.BuildStore(core.LD)
	if err != nil {
		panic(err)
	}
	lazyTime := func(opt join.Options) time.Duration {
		return timeIt(5, func() {
			if _, err := s.QueryLazyOpts("A", "D", join.Descendant, opt); err != nil {
				panic(err)
			}
		})
	}
	t.Rows = append(t.Rows, []string{"push-filter (Fig.9 i)",
		ms(lazyTime(join.Options{PushFilter: true})), ms(lazyTime(join.Options{}))})
	t.Rows = append(t.Rows, []string{"stack-top trim (Fig.9 ii)",
		ms(lazyTime(join.Options{TrimTop: true})), ms(lazyTime(join.Options{}))})

	// Segment collapse: 300 chopped segments vs one collapsed segment.
	wc, err := BuildCrossWorkload(Balanced, 300, 40_000, 20)
	if err != nil {
		panic(err)
	}
	chopped := core.NewStore(core.LD)
	for _, op := range wc.Ops {
		if _, err := chopped.InsertSegment(op.GP, op.Fragment); err != nil {
			panic(err)
		}
	}
	dChopped := timeIt(5, func() { mustQuery(chopped, "A", "D", core.LazyJoin) })
	if err := chopped.Rebuild(); err != nil {
		panic(err)
	}
	dCollapsed := timeIt(5, func() { mustQuery(chopped, "A", "D", core.LazyJoin) })
	t.Rows = append(t.Rows, []string{"collapse (§5.3 remedy)", ms(dCollapsed), ms(dChopped)})

	// LS vs LD segment-insert cost.
	insertTime := func(mode core.Mode) time.Duration {
		st := core.NewStore(mode, core.WithoutText())
		if _, err := st.InsertSegment(0, []byte(segmentWithAllTags(200))); err != nil {
			panic(err)
		}
		frag := []byte(segmentWithAllTags(50))
		return timeIt(50, func() {
			if _, err := st.InsertSegment(3, frag); err != nil {
				panic(err)
			}
		})
	}
	t.Rows = append(t.Rows, []string{"LS update cost (vs LD)",
		ms(insertTime(core.LS)), ms(insertTime(core.LD))})
	return t
}

// FigExtras reports the beyond-the-paper structures built in this repo
// against their in-paper baselines: the related-work joins ([3]/[5]
// skipping, [2] XB-tree) on a sparse workload, and the order-maintenance
// structures of [9] on an adversarial insertion workload.
func FigExtras() Table {
	t := Table{
		Title:  "Extras: related-work structures vs their baselines",
		Header: []string{"experiment", "metric", "value"},
	}
	// Sparse join: STD vs SkipJoin vs XB-tree join.
	var alist, dlist []join.Node
	pos := 0
	for i := 0; i < 50; i++ {
		for j := 0; j < 200; j++ {
			alist = append(alist, join.Node{Start: pos, End: pos + 1, Level: 1})
			pos += 2
		}
		for j := 0; j < 200; j++ {
			dlist = append(dlist, join.Node{Start: pos, End: pos + 1, Level: 1})
			pos += 2
		}
	}
	alist = append(alist, join.Node{Start: pos, End: pos + 10, Level: 1})
	dlist = append(dlist, join.Node{Start: pos + 2, End: pos + 4, Level: 2})
	aT := xbtree.Build(alist, xbtree.DefaultFanout)
	dT := xbtree.Build(dlist, xbtree.DefaultFanout)
	const reps = 30
	t.Rows = append(t.Rows,
		[]string{"sparse join 20k elems", "STD_ms", ms(timeIt(reps, func() { join.StackTreeDesc(alist, dlist, join.Descendant) }))},
		[]string{"sparse join 20k elems", "SkipJoin_ms", ms(timeIt(reps, func() { join.SkipJoin(alist, dlist, join.Descendant) }))},
		[]string{"sparse join 20k elems", "XBJoin_ms", ms(timeIt(reps, func() { xbtree.JoinDesc(aT, dT, join.Descendant) }))},
	)
	// Order maintenance under adversarial one-point insertion.
	const inserts = 2000
	wb := labeling.NewWBox(48)
	anchor, err := wb.InsertAfter(nil)
	if err != nil {
		panic(err)
	}
	dW := timeIt(1, func() {
		for i := 0; i < inserts; i++ {
			if _, err := wb.InsertAfter(anchor); err != nil {
				panic(err)
			}
		}
	})
	bb := labeling.NewBBox(1)
	banchor := bb.InsertAfter(nil)
	dB := timeIt(1, func() {
		for i := 0; i < inserts; i++ {
			bb.InsertAfter(banchor)
		}
	})
	t.Rows = append(t.Rows,
		[]string{"order maintenance 2k inserts", "WBOX_us_per_insert", us(dW / inserts)},
		[]string{"order maintenance 2k inserts", "WBOX_relabels_per_insert", fmt.Sprintf("%.1f", float64(wb.Relabeled)/inserts)},
		[]string{"order maintenance 2k inserts", "BBOX_us_per_insert", us(dB / inserts)},
	)
	return t
}

// --- Figure 16: insertion time vs document size ---

// Fig16 compares the time to insert one segment into documents of growing
// size: the lazy approach (LD) against the traditional approach that
// relabels every shifted element.
func Fig16(personCounts []int) Table {
	t := Table{
		Title:  "Figure 16: elapsed time (ms) of inserting one segment vs document size",
		Header: []string{"persons", "doc_kb", "elements", "LD_ms", "traditional_ms"},
	}
	for _, p := range personCounts {
		text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: 7, Persons: p, Items: p / 5})
		doc, err := xmltree.Parse(text)
		if err != nil {
			panic(err)
		}
		// Insert in the middle of <people>, so about half the elements
		// shift — the paper's average case.
		gp := insertionPointAtMiddle(doc)
		frag := []byte(xmlgen.Person(newRand(9), 999_999, xmlgen.XMarkConfig{}))

		// The store the daemon runs: text retained, so LD_ms includes
		// splicing the fragment into the super document.
		lazy := core.NewStore(core.LD)
		if _, err := lazy.InsertSegment(0, text); err != nil {
			panic(err)
		}
		dLD := timeIt(3, func() {
			if _, err := lazy.InsertSegment(gp, frag); err != nil {
				panic(err)
			}
		})

		trad := labeling.NewIntervalStore()
		if err := trad.InsertSegment(0, text); err != nil {
			panic(err)
		}
		dTrad := timeIt(3, func() {
			if err := trad.InsertSegment(gp, frag); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p), kb(len(text)), fmt.Sprint(doc.Len()), ms(dLD), ms(dTrad),
		})
	}
	return t
}

// insertionPointAtMiddle returns a valid insertion offset with about half
// the document's elements before it: the start of the middle person.
func insertionPointAtMiddle(doc *xmltree.Document) int {
	persons := doc.ElementsByTag("person")
	if len(persons) == 0 {
		return 0
	}
	return persons[len(persons)/2].Start
}

// --- Figure 17: per-element insertion time, lazy vs PRIME ---

// Fig17Config parameterizes the three sweeps of Figure 17.
type Fig17Config struct {
	BaseSegments int   // segments in the pre-chopped document (default 100)
	BaseElements int   // elements in the base document
	PrimeKs      []int // K values for PRIME (paper uses two)
}

// Fig17Elements sweeps the number of elements in the inserted segment
// (Figure 17(a)): per-element cost falls for the lazy approaches because
// one segment insertion covers all of them.
func Fig17Elements(elementCounts []int, cfg Fig17Config) Table {
	cfg = cfg.withDefaults()
	t := Table{
		Title:  "Figure 17(a): per-element insertion time (µs) vs #elements in segment",
		Header: []string{"elements", "LD_us", "LS_us"},
	}
	for _, k := range cfg.PrimeKs {
		t.Header = append(t.Header, fmt.Sprintf("PRIME_K%d_us", k))
	}
	// W-BOX is the mutable-labeling structure of [9]; comparing against
	// it is the paper's stated future work, included here.
	t.Header = append(t.Header, "WBOX_us")
	for _, n := range elementCounts {
		frag := fragmentWithElements(n, 10)
		row := []string{fmt.Sprint(n)}
		for _, mode := range []core.Mode{core.LD, core.LS} {
			s := buildChoppedBase(mode, cfg)
			gp := s.Len() / 2
			gp = alignInsertionPoint(s, gp)
			d := timeIt(3, func() {
				if _, err := s.InsertSegment(gp, frag); err != nil {
					panic(err)
				}
			})
			row = append(row, us(d/time.Duration(n)))
		}
		for _, k := range cfg.PrimeKs {
			ps := buildPrimeBase(cfg, k)
			d := timeIt(1, func() {
				pos := ps.Len() / 2
				parent := ps.Node(0)
				for i := 0; i < n; i++ {
					if _, err := ps.InsertAfter(pos+i, "t0", parent); err != nil {
						panic(err)
					}
				}
			})
			row = append(row, us(d/time.Duration(n)))
		}
		{
			ws := buildWBoxBase(cfg)
			parent := ws.Elem(ws.Len() / 2)
			d := timeIt(1, func() {
				for i := 0; i < n; i++ {
					if _, err := ws.InsertLeafAfter("t0", parent, nil); err != nil {
						panic(err)
					}
				}
			})
			row = append(row, us(d/time.Duration(n)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig17Tags sweeps the number of distinct tag names in the inserted
// segment (Figure 17(b)): lazy insertion cost rises with the number of
// path lists to update.
func Fig17Tags(tagCounts []int, cfg Fig17Config) Table {
	cfg = cfg.withDefaults()
	t := Table{
		Title:  "Figure 17(b): per-element insertion time (µs) vs #tag names in segment",
		Header: []string{"tags", "LD_us", "LS_us"},
	}
	const elements = 64
	for _, tags := range tagCounts {
		frag := fragmentWithElements(elements, tags)
		row := []string{fmt.Sprint(tags)}
		for _, mode := range []core.Mode{core.LD, core.LS} {
			s := buildChoppedBase(mode, cfg)
			gp := alignInsertionPoint(s, s.Len()/2)
			d := timeIt(3, func() {
				if _, err := s.InsertSegment(gp, frag); err != nil {
					panic(err)
				}
			})
			row = append(row, us(d/elements))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig17Segments sweeps the number of pre-existing segments (Figure
// 17(c)): lazy insertion cost grows roughly linearly with the segment
// count (global position propagation).
func Fig17Segments(segCounts []int, cfg Fig17Config) Table {
	cfg = cfg.withDefaults()
	t := Table{
		Title:  "Figure 17(c): per-element insertion time (µs) vs #segments",
		Header: []string{"segments", "LD_us", "LS_us"},
	}
	// A small fragment keeps the per-insert parse cost low so the
	// segment-count-proportional work (global position propagation) is
	// visible, as in the paper's near-linear curve.
	const elements = 16
	frag := fragmentWithElements(elements, 10)
	for _, n := range segCounts {
		c := cfg
		c.BaseSegments = n
		row := []string{fmt.Sprint(n)}
		for _, mode := range []core.Mode{core.LD, core.LS} {
			s := buildChoppedBase(mode, c)
			gp := alignInsertionPoint(s, s.Len()/2)
			d := timeIt(3, func() {
				if _, err := s.InsertSegment(gp, frag); err != nil {
					panic(err)
				}
			})
			row = append(row, us(d/elements))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func (c Fig17Config) withDefaults() Fig17Config {
	if c.BaseSegments == 0 {
		c.BaseSegments = 100
	}
	if c.BaseElements == 0 {
		c.BaseElements = 20_000
	}
	if len(c.PrimeKs) == 0 {
		c.PrimeKs = []int{10, 100}
	}
	return c
}

// fragmentWithElements builds a segment with n elements drawn from the
// given number of distinct tags.
func fragmentWithElements(n, tags int) []byte {
	var sb strings.Builder
	sb.WriteString("<t0>")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, "<t%d/>", i%max(tags, 1))
	}
	sb.WriteString("</t0>")
	return []byte(sb.String())
}

// buildChoppedBase builds the base document chopped into segments.
func buildChoppedBase(mode core.Mode, cfg Fig17Config) *core.Store {
	text := xmlgen.Synthetic(xmlgen.SyntheticConfig{Seed: 1, Elements: cfg.BaseElements,
		Tags: []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9"}})
	ops, err := chopper.Chop(text, cfg.BaseSegments, chopper.Balanced, 1)
	if err != nil {
		panic(err)
	}
	s := core.NewStore(mode, core.WithoutText())
	for _, op := range ops {
		if _, err := s.InsertSegment(op.GP, op.Fragment); err != nil {
			panic(err)
		}
	}
	return s
}

// buildWBoxBase labels the same base document with W-BOX order labels.
func buildWBoxBase(cfg Fig17Config) *labeling.WBoxStore {
	text := xmlgen.Synthetic(xmlgen.SyntheticConfig{Seed: 1, Elements: cfg.BaseElements,
		Tags: []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9"}})
	doc, err := xmltree.Parse(text)
	if err != nil {
		panic(err)
	}
	ws, err := labeling.NewWBoxStore(doc, 48)
	if err != nil {
		panic(err)
	}
	return ws
}

// buildPrimeBase labels the same base document with the PRIME scheme.
func buildPrimeBase(cfg Fig17Config, k int) *labeling.PrimeStore {
	text := xmlgen.Synthetic(xmlgen.SyntheticConfig{Seed: 1, Elements: cfg.BaseElements,
		Tags: []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9"}})
	doc, err := xmltree.Parse(text)
	if err != nil {
		panic(err)
	}
	return labeling.NewPrimeStore(doc, k)
}

// alignInsertionPoint nudges gp to a valid insertion offset of the
// store's super document (between elements), searching nearby positions.
func alignInsertionPoint(s *core.Store, gp int) int {
	// WithoutText stores cannot re-parse; use element boundaries from a
	// probe query instead: pick the global start of an element near gp.
	nodes := s.GlobalElements("t0")
	if len(nodes) == 0 {
		return 0
	}
	best := nodes[0].Start
	for _, n := range nodes {
		if abs(n.Start-gp) < abs(best-gp) {
			best = n.Start
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

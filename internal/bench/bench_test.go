// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5), one Benchmark per figure, plus ablations of the
// design choices called out in DESIGN.md. Absolute numbers differ from
// the 2005 testbed; the shapes (who wins, by what factor, where the
// crossovers fall) are the reproduction target. cmd/labreport prints the
// same experiments as paper-style tables, from the same builders; every
// timed query is one firstRead, as in the figures.
package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	lazyxml "repro"
	"repro/internal/chopper"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/labeling"
	"repro/internal/plan"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// --- Figure 11: update log size (a) and building time (b) ---

func BenchmarkFig11aLogSize(b *testing.B) {
	for _, shape := range []Shape{Balanced, Nested} {
		for _, n := range []int{50, 100, 200, 300} {
			b.Run(fmt.Sprintf("%s/segments=%d", shape, n), func(b *testing.B) {
				var sbBytes, tlBytes int
				for i := 0; i < b.N; i++ {
					s, err := buildLogWorkload(core.LD, n, 20, shape)
					if err != nil {
						b.Fatal(err)
					}
					sbBytes, tlBytes = s.UpdateLogBytes()
				}
				b.ReportMetric(float64(sbBytes)/1024, "sbtree-KB")
				b.ReportMetric(float64(tlBytes)/1024, "taglist-KB")
				b.ReportMetric(float64(sbBytes+tlBytes)/1024, "total-KB")
			})
		}
	}
}

func BenchmarkFig11bLogBuild(b *testing.B) {
	for _, shape := range []Shape{Balanced, Nested} {
		for _, n := range []int{50, 100, 200, 300} {
			b.Run(fmt.Sprintf("%s/segments=%d", shape, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := buildLogWorkload(core.LD, n, 20, shape); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 12: join time vs cross-segment join percentage ---

func BenchmarkFig12Join(b *testing.B) {
	for _, shape := range []Shape{Nested, Balanced} {
		for _, nSeg := range []int{50, 100} {
			for _, pct := range []float64{0, 20, 40, 60, 80, 100} {
				w, err := BuildCrossWorkload(shape, nSeg, 20_000, pct)
				if err != nil {
					b.Fatal(err)
				}
				ld, err := w.BuildStore(core.LD)
				if err != nil {
					b.Fatal(err)
				}
				ls, err := w.BuildStore(core.LS)
				if err != nil {
					b.Fatal(err)
				}
				name := fmt.Sprintf("%s/segments=%d/cross=%.0f%%", shape, nSeg, pct)
				b.Run(name+"/LD", func(b *testing.B) { queryBench(b, ld, "A", "D", core.LazyJoin) })
				b.Run(name+"/LS", func(b *testing.B) { queryBench(b, ls, "A", "D", core.LazyJoin) })
				b.Run(name+"/STD", func(b *testing.B) { queryBench(b, ld, "A", "D", core.STD) })
			}
		}
	}
}

func queryBench(b *testing.B, s *core.Store, a, d string, alg core.Algorithm) {
	b.Helper()
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		n = mustQuery(s, a, d, alg)
	}
	b.ReportMetric(float64(n), "results")
}

// --- Figure 13: join time vs number of segments ---

func BenchmarkFig13SegCount(b *testing.B) {
	for _, shape := range []Shape{Nested, Balanced} {
		for _, nSeg := range []int{20, 60, 120, 180, 240, 300} {
			w, err := BuildCrossWorkload(shape, nSeg, 60_000, 20)
			if err != nil {
				b.Fatal(err)
			}
			s, err := w.BuildStore(core.LD)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s/segments=%d", shape, nSeg)
			b.Run(name+"/LD", func(b *testing.B) { queryBench(b, s, "A", "D", core.LazyJoin) })
			b.Run(name+"/STD", func(b *testing.B) { queryBench(b, s, "A", "D", core.STD) })
		}
	}
}

// --- Figures 14/15: XMark queries (cardinalities and elapsed time) ---

func BenchmarkFig15XMark(b *testing.B) {
	ld, ls, _, err := XMarkStores(2000, 400, 100)
	if err != nil {
		b.Fatal(err)
	}
	for i, q := range xmlgen.XMarkQueries() {
		name := fmt.Sprintf("Q%d_%s//%s", i+1, q[0], q[1])
		// results is the Figure 14 cardinality column.
		b.Run(name+"/LD", func(b *testing.B) { queryBench(b, ld, q[0], q[1], core.LazyJoin) })
		b.Run(name+"/LS", func(b *testing.B) { queryBench(b, ls, q[0], q[1], core.LazyJoin) })
		b.Run(name+"/STD", func(b *testing.B) { queryBench(b, ld, q[0], q[1], core.STD) })
	}
}

// --- Figure 16: one segment insertion vs document size ---

func BenchmarkFig16Insert(b *testing.B) {
	for _, persons := range []int{200, 800, 3200} {
		text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: 7, Persons: persons, Items: persons / 5})
		doc, err := xmltree.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		gp := insertionPointAtMiddle(doc)
		frag := []byte(xmlgen.Person(newRand(9), 999_999, xmlgen.XMarkConfig{}))
		name := fmt.Sprintf("persons=%d", persons)

		b.Run(name+"/LD", func(b *testing.B) {
			s := core.NewStore(core.LD)
			if _, err := s.InsertSegment(0, text); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.InsertSegment(gp, frag); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/Traditional", func(b *testing.B) {
			st := labeling.NewIntervalStore()
			if err := st.InsertSegment(0, text); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.InsertSegment(gp, frag); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Update-log apply cost vs database size ---

// BenchmarkApply applies a pre-built history of inserts and whole-segment
// removes, one commit unit per op, to a fresh store: what log replay and
// a follower do. ns/unit is the cost of one op; the paper's update claim
// is that it does not grow with the database, so the ratio of ns/unit
// between the sizes guards against an update path that does.
//
//   - 2k and 12k are applyHistory's units: fragments nest deep and a
//     removal takes a random subtree, so few segments stay live.
//   - wide/2k and wide/8k are wideHistory's, shaped like the
//     ingest-batch workload: inserts at random tag boundaries of 16 large
//     documents keep about 2 000 and 8 000 segments live, most of them
//     siblings, so an update path that walks later segments or shifts a
//     tag's whole path list shows in the 8k/2k ratio.
func BenchmarkApply(b *testing.B) {
	run := func(name string, units [][]core.Op) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := core.NewStore(core.LD)
				b.StartTimer()
				for _, u := range units {
					if err := s.Apply(u, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(units)), "ns/unit")
		})
	}
	for _, n := range []int{2_000, 12_000} {
		units, err := applyHistory(n)
		if err != nil {
			b.Fatal(err)
		}
		run(fmt.Sprintf("%dk", n/1000), units)
	}
	for _, segs := range []int{2_000, 8_000} {
		units, err := wideHistory(segs)
		if err != nil {
			b.Fatal(err)
		}
		run(fmt.Sprintf("wide/%dk", segs/1000), units)
	}
}

// wideHistory builds commit units shaped like the ingest-batch workload
// until segs inserted segments are live: 16 XMark documents of 250
// persons and 100 items, one segment each, then persons and items
// inserted at random tag boundaries of a random document — inside
// earlier fragments as often as their text makes it — and after every
// second insert the removal of a random inserted element, with whatever
// was inserted inside it. Tag boundaries are read off a text model of
// each document; positions of removed elements off a scratch store.
// Fragments are parsed here, once, so Apply times the update log rather
// than the parser.
func wideHistory(segs int) ([][]core.Op, error) {
	const docs = 16
	r := newRand(7)
	s := core.NewStore(core.LD, core.WithoutText())
	texts := make([][]byte, docs)
	var units [][]core.Op
	var live []lazyxml.SID
	insert := func(gp int, frag []byte) error {
		doc, err := xmltree.ParseFragment(frag)
		if err != nil {
			return err
		}
		sid, err := s.InsertSegment(gp, frag)
		if err != nil {
			return err
		}
		live = append(live, sid)
		units = append(units, []core.Op{{Kind: core.OpInsert, GP: gp, Frag: frag, Doc: doc}})
		return nil
	}
	// docAt returns the document holding global position gp and where
	// that document starts.
	docAt := func(gp int) (d, start int) {
		for d = 0; d < docs-1 && gp >= start+len(texts[d]); d++ {
			start += len(texts[d])
		}
		return d, start
	}
	docStart := func(d int) (start int) {
		for _, text := range texts[:d] {
			start += len(text)
		}
		return start
	}
	for d := range texts {
		texts[d] = xmlgen.XMark(xmlgen.XMarkConfig{Seed: r.Int63(), Persons: 250, Items: 100})
		if err := insert(s.Len(), texts[d]); err != nil {
			return nil, err
		}
	}
	live = live[:0]
	for id := 0; s.Segments()-docs < segs; id++ {
		d := r.Intn(docs)
		text := texts[d]
		off := 1 + r.Intn(len(text)-1)
		for off < len(text) && !(text[off-1] == '>' && text[off] == '<') {
			off++
		}
		if off == len(text) {
			continue
		}
		frag := []byte(xmlgen.Person(r, 1_000_000+id, xmlgen.XMarkConfig{}))
		if id%4 == 0 {
			frag = []byte(xmlgen.Item(r, 1_000_000+id))
		}
		if err := insert(docStart(d)+off, frag); err != nil {
			return nil, err
		}
		texts[d] = slices.Insert(text, off, frag...)
		if id%2 == 0 {
			continue
		}
		for len(live) > 0 {
			i := r.Intn(len(live))
			gp, end, ok := s.SegmentSpan(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !ok {
				continue // removed with an element it was inserted in
			}
			if err := s.RemoveSegment(gp, end-gp); err != nil {
				return nil, err
			}
			units = append(units, []core.Op{{Kind: core.OpRemove, GP: gp, L: end - gp}})
			e, start := docAt(gp)
			texts[e] = slices.Delete(texts[e], gp-start, end-start)
			break
		}
	}
	return units, nil
}

// applyHistory builds n commit units over 32 documents: XMark person
// fragments inserted just inside the root element of a random live
// segment (so segments nest), and after every third insert the removal
// of a random inserted segment with its subtree. Positions are read off
// a scratch store as the history is built. Fragments are parsed here,
// once, so Apply times the update log rather than the parser.
func applyHistory(n int) ([][]core.Op, error) {
	const docs = 32
	r := newRand(5)
	s := core.NewStore(core.LD)
	var units [][]core.Op
	var segs []lazyxml.SID           // live segments, documents first
	openLen := map[lazyxml.SID]int{} // length of each segment's root start tag
	insert := func(gp int, frag string) error {
		doc, err := xmltree.ParseFragment([]byte(frag))
		if err != nil {
			return err
		}
		sid, err := s.InsertSegment(gp, []byte(frag))
		if err != nil {
			return err
		}
		segs = append(segs, sid)
		openLen[sid] = strings.IndexByte(frag, '>') + 1
		units = append(units, []core.Op{{Kind: core.OpInsert, GP: gp, Frag: []byte(frag), Doc: doc}})
		return nil
	}
	// pick returns a random live segment from segs[from:], dropping the
	// ones a removal took with it.
	pick := func(from int) (lazyxml.SID, int, int, bool) {
		for len(segs) > from {
			i := from + r.Intn(len(segs)-from)
			if gp, end, ok := s.SegmentSpan(segs[i]); ok {
				return segs[i], gp, end, true
			}
			segs[i] = segs[len(segs)-1]
			segs = segs[:len(segs)-1]
		}
		return 0, 0, 0, false
	}
	for i := 0; i < docs; i++ {
		if err := insert(s.Len(), "<site>"+xmlgen.Person(r, i, xmlgen.XMarkConfig{})+"</site>"); err != nil {
			return nil, err
		}
	}
	for id := docs; len(units) < n; id++ {
		sid, gp, _, _ := pick(0)
		if err := insert(gp+openLen[sid], xmlgen.Person(r, id, xmlgen.XMarkConfig{})); err != nil {
			return nil, err
		}
		if id%3 != 0 || len(units) == n {
			continue
		}
		if _, gp, end, ok := pick(docs); ok {
			if err := s.RemoveSegment(gp, end-gp); err != nil {
				return nil, err
			}
			units = append(units, []core.Op{{Kind: core.OpRemove, GP: gp, L: end - gp}})
		}
	}
	return units, nil
}

// --- Figure 17: per-element insertion, lazy vs PRIME ---

func BenchmarkFig17ElementInsert(b *testing.B) {
	cfg := Fig17Config{BaseSegments: 100, BaseElements: 20_000}
	for _, elems := range []int{16, 64, 256, 1024} {
		frag := fragmentWithElements(elems, 10)
		for _, mode := range []core.Mode{core.LD, core.LS} {
			b.Run(fmt.Sprintf("elements=%d/%v", elems, mode), func(b *testing.B) {
				s := buildChoppedBase(mode, cfg)
				gp := alignInsertionPoint(s, s.Len()/2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.InsertSegment(gp, frag); err != nil {
						b.Fatal(err)
					}
				}
				// Per-element metric, as the paper divides segment time
				// by element count.
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/element")
			})
		}
		// The baseline stores are built once per sub-benchmark and keep
		// growing across iterations (exactly like the lazy stores above);
		// rebuilding 20k-element stores under StopTimer would make the
		// wall-clock explode as b.N ramps while the timer sees only the
		// cheap part.
		b.Run(fmt.Sprintf("elements=%d/WBOX", elems), func(b *testing.B) {
			ws := buildWBoxBase(cfg)
			parent := ws.Elem(ws.Len() / 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < elems; j++ {
					if _, err := ws.InsertLeafAfter("t0", parent, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/element")
		})
		for _, k := range []int{10, 100} {
			b.Run(fmt.Sprintf("elements=%d/PRIME_K%d", elems, k), func(b *testing.B) {
				ps := buildPrimeBase(cfg, k)
				pos := ps.Len() / 2
				parent := ps.Node(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < elems; j++ {
						if _, err := ps.InsertAfter(pos, "t0", parent); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/element")
			})
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationPushFilter isolates optimization (i) of Figure 9:
// pushing only A-elements that straddle a child-segment insertion point.
func BenchmarkAblationPushFilter(b *testing.B) {
	benchLazyOptions(b, join.Options{PushFilter: true, TrimTop: false},
		join.Options{PushFilter: false, TrimTop: false})
}

// BenchmarkAblationTrim isolates optimization (ii): trimming stack-top
// elements that end before the next pushed segment starts.
func BenchmarkAblationTrim(b *testing.B) {
	benchLazyOptions(b, join.Options{PushFilter: false, TrimTop: true},
		join.Options{PushFilter: false, TrimTop: false})
}

func benchLazyOptions(b *testing.B, on, off join.Options) {
	b.Helper()
	w, err := BuildCrossWorkload(Nested, 100, 40_000, 60)
	if err != nil {
		b.Fatal(err)
	}
	s, err := w.BuildStore(core.LD)
	if err != nil {
		b.Fatal(err)
	}
	run := func(opt join.Options) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				firstRead(s, func(v *core.View, emit func(core.Match) bool) error {
					return v.QueryLazyOpts("A", "D", join.Descendant, opt, emit)
				})
			}
		}
	}
	b.Run("on", run(on))
	b.Run("off", run(off))
}

// BenchmarkAblationCollapse measures the Section 5.3 remedy for
// high-segment-count stores: collapsing segments (a rebuild) restores
// query performance.
func BenchmarkAblationCollapse(b *testing.B) {
	w, err := BuildCrossWorkload(Balanced, 300, 40_000, 20)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *core.Store {
		s, err := w.BuildStore(core.LD)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("chopped300", func(b *testing.B) { queryBench(b, build(), "A", "D", core.LazyJoin) })
	b.Run("collapsed", func(b *testing.B) {
		s := build()
		if err := s.Rebuild(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		queryBench(b, s, "A", "D", core.LazyJoin)
	})
}

// BenchmarkAblationTwig compares the two multi-step evaluators on a
// 3-step XMark path: the binary-join pipeline (Query) materializes the
// intermediate person//watches result; holistic PathStack (QueryTwig)
// does not — the motivation of Bruno et al. [2].
func BenchmarkAblationTwig(b *testing.B) {
	text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: 11, Persons: 3000, Items: 600})
	db := lazyxml.Open(lazyxml.LD)
	if _, err := db.Insert(0, text); err != nil {
		b.Fatal(err)
	}
	const path = "person//watches/watch"
	b.Run("pipeline", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			ms, err := db.Query(path)
			if err != nil {
				b.Fatal(err)
			}
			n = len(ms)
		}
		b.ReportMetric(float64(n), "results")
	})
	b.Run("holistic", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			ts, err := db.QueryTwig(path)
			if err != nil {
				b.Fatal(err)
			}
			n = len(ts)
		}
		b.ReportMetric(float64(n), "results")
	})
}

// BenchmarkAblationLSvsLD measures the update-side cost difference of the
// two maintenance modes (deferred tag-list sorting).
func BenchmarkAblationLSvsLD(b *testing.B) {
	frag := fragmentWithElements(64, 10)
	for _, mode := range []core.Mode{core.LD, core.LS} {
		b.Run(mode.String(), func(b *testing.B) {
			s := core.NewStore(mode, core.WithoutText())
			if _, err := s.InsertSegment(0, fragmentWithElements(1000, 10)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.InsertSegment(3, frag); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationViewBuild measures the read-side half of the same
// trade: what a first read after a write pays before it joins — dropping
// the published view and building a fresh one — on the Fig. 12 balanced
// 100-segment store. An LS view build is where the tag-list is sorted.
func BenchmarkAblationViewBuild(b *testing.B) {
	w, err := BuildCrossWorkload(Balanced, 100, 20_000, 20)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []core.Mode{core.LD, core.LS} {
		s, err := w.BuildStore(mode)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.InvalidateViews()
				s.AcquireView().Release()
			}
		})
	}
}

// planStatsSink keeps BenchmarkPlanStats' result live.
var planStatsSink plan.View

// BenchmarkPlanStats measures what a planned query's cache miss pays for
// its statistics: plan.ViewOf over the view it pinned, for the two tags
// of XMark Q1 on a ~3 000-segment store. cold is the first read on a
// freshly built view (the build itself is untimed); warm repeats it on
// the same view, answered from the view's per-tag memo.
func BenchmarkPlanStats(b *testing.B) {
	text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: 2005, Persons: 2000, Items: 400})
	ops, err := chopper.Chop(text, 3000, chopper.Balanced, 2005)
	if err != nil {
		b.Fatal(err)
	}
	s, err := buildFromOps(ops, core.LD, core.WithoutText())
	if err != nil {
		b.Fatal(err)
	}
	tags := []string{"person", "phone"}
	stats := func(v *core.View) { planStatsSink = plan.ViewOf(v, v.NumNames(), tags) }
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.InvalidateViews()
			v := s.AcquireView()
			b.StartTimer()
			stats(v)
			b.StopTimer()
			v.Release()
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		v := s.AcquireView()
		defer v.Release()
		stats(v)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats(v)
		}
	})
}

// BenchmarkLimitedScan times the first page of a large scan: an
// auto-planned //person//phone stream cut at 100 rows on one in-memory
// shard of 16 XMark documents (500 persons, 200 items each), drained to
// EOF with the result cache bypassed. The first join streams, so the
// work done tracks the limit, not the shard's ~16k-row result; the
// produced metric is the pipeline's emitted-row count.
func BenchmarkLimitedScan(b *testing.B) {
	c := lazyxml.NewShardedCollection(1, lazyxml.LD)
	for i := 0; i < 16; i++ {
		text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: int64(i + 1), Persons: 500, Items: 200})
		if err := c.Put(fmt.Sprintf("doc-%02d", i), text); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var produced int64
	for i := 0; i < b.N; i++ {
		rs, err := c.QueryStream("//person//phone", lazyxml.StreamOpt{Limit: 100, NoCache: true})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := rs.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		produced = rs.Produced()
		rs.Close()
		if n != 100 {
			b.Fatalf("got %d rows, want 100", n)
		}
	}
	b.ReportMetric(float64(produced), "produced")
}

// valueOps chops a 2 000-person XMark document into 300 balanced
// segments, the store the two value benchmarks share.
func valueOps(b *testing.B) []chopper.Op {
	text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: 48, Persons: 2000, Items: 400})
	ops, err := chopper.Chop(text, 300, chopper.Balanced, 48)
	if err != nil {
		b.Fatal(err)
	}
	return ops
}

// BenchmarkValuePredicate times a twig pattern with an equality
// predicate on an element value and one on an attribute value, on a
// WithValues store of 300 segments. The view is built once; each query
// reads the predicates' elements from it.
func BenchmarkValuePredicate(b *testing.B) {
	db := lazyxml.Open(lazyxml.LD, lazyxml.WithValues(), lazyxml.WithAttributes())
	for _, op := range valueOps(b) {
		if _, err := db.Insert(op.GP, op.Fragment); err != nil {
			b.Fatal(err)
		}
	}
	for _, expr := range []string{"person[name='u42']//phone", "person[@id='p1234']/name"} {
		b.Run(expr, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				ms, err := db.QueryPattern(expr)
				if err != nil {
					b.Fatal(err)
				}
				n = len(ms)
			}
			if n == 0 {
				b.Fatalf("%s matched nothing", expr)
			}
		})
	}
}

// BenchmarkValueViewBuild is BenchmarkAblationViewBuild on the same
// value-indexed store: the cost a first read after a write pays for a
// view of every element's and attribute's value.
func BenchmarkValueViewBuild(b *testing.B) {
	ops := valueOps(b)
	for _, mode := range []core.Mode{core.LD, core.LS} {
		s, err := buildFromOps(ops, mode, core.WithValues(), core.WithAttributes())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.InvalidateViews()
				s.AcquireView().Release()
			}
		})
	}
}

// BenchmarkReopen times a restart: opening a durable one-shard
// collection — restoring snapshot.lxml and replaying the log above it —
// plus the first query, after 2.4k, 4.8k and 9.6k updates to 16
// documents. The updates insert and remove persons so that no document
// holds more than eight of them: the store stays the same size while the
// log grows, so the time shows what the log's length costs a restart.
// Checkpoints keep the log above the newest snapshot under about one
// budget (1 MiB), so it should not grow with the number of updates;
// replayed_B is the log the open applied.
func BenchmarkReopen(b *testing.B) {
	for _, n := range []int{2_400, 4_800, 9_600} {
		dir := b.TempDir()
		if err := reopenHistory(dir, n); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%.1fk", float64(n)/1000), func(b *testing.B) {
			var replayed int64
			for i := 0; i < b.N; i++ {
				sc, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sc.Count("person//phone"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				replayed = sc.ShardStats()[0].ReplayedBytes
				if err := sc.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(replayed), "replayed_B")
		})
	}
}

// reopenHistory writes n updates to 16 documents of a durable one-shard
// collection in dir: an XMark person inserted just inside a random
// document's root element, or the removal of the person most recently
// inserted there, at random, keeping each document between none and
// eight inserted persons.
func reopenHistory(dir string, n int) error {
	sc, err := lazyxml.OpenShardedCollection(dir, 1, lazyxml.LD, nil)
	if err != nil {
		return err
	}
	const docs, most, open = 16, 8, len("<people>")
	r := newRand(11)
	depth := make([]int, docs)
	for d := 0; d < docs; d++ {
		if err := sc.Put(fmt.Sprint("doc", d), []byte("<people></people>")); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		d := r.Intn(docs)
		name := fmt.Sprint("doc", d)
		if depth[d] == most || depth[d] > 0 && r.Intn(2) == 0 {
			err = sc.RemoveElementAt(name, open)
			depth[d]--
		} else {
			_, err = sc.Insert(name, open, []byte(xmlgen.Person(r, i, xmlgen.XMarkConfig{})))
			depth[d]++
		}
		if err != nil {
			return err
		}
	}
	return sc.Close()
}

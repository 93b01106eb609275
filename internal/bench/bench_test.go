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
// is that it does not grow with the database, so the 12k/2k ratio of
// ns/unit guards against an update path that does.
func BenchmarkApply(b *testing.B) {
	for _, n := range []int{2_000, 12_000} {
		units, err := applyHistory(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
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

// BenchmarkParallelLazyJoin measures the segment-partitioned parallel
// Lazy-Join the paper's introduction suggests, at several worker counts.
func BenchmarkParallelLazyJoin(b *testing.B) {
	w, err := BuildCrossWorkload(Balanced, 200, 100_000, 40)
	if err != nil {
		b.Fatal(err)
	}
	s, err := w.BuildStore(core.LD)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				firstRead(s, func(v *core.View, _ func(core.Match) bool) error {
					_, err := v.QueryParallel("A", "D", join.Descendant, workers)
					return err
				})
			}
		})
	}
}

// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5), one Benchmark per figure, plus ablations of the
// design choices called out in DESIGN.md. Absolute numbers differ from
// the 2005 testbed; the shapes (who wins, by what factor, where the
// crossovers fall) are the reproduction target. cmd/labreport prints the
// same experiments as paper-style tables.
package lazyxml

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/chopper"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/labeling"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// --- Figure 11: update log size (a) and building time (b) ---

func BenchmarkFig11aLogSize(b *testing.B) {
	for _, shape := range []bench.Shape{bench.Balanced, bench.Nested} {
		for _, n := range []int{50, 100, 200, 300} {
			b.Run(fmt.Sprintf("%s/segments=%d", shape, n), func(b *testing.B) {
				var sbBytes, tlBytes int
				for i := 0; i < b.N; i++ {
					s := buildLogStore(b, n, 20, shape)
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
	for _, shape := range []bench.Shape{bench.Balanced, bench.Nested} {
		for _, n := range []int{50, 100, 200, 300} {
			b.Run(fmt.Sprintf("%s/segments=%d", shape, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buildLogStore(b, n, 20, shape)
				}
			})
		}
	}
}

// buildLogStore inserts n segments, each containing `tags` distinct tags,
// shaped as a chain (nested) or a star (balanced).
func buildLogStore(b *testing.B, n, tags int, shape bench.Shape) *core.Store {
	b.Helper()
	var frag string
	{
		f := "<x>"
		for t := 0; t < tags; t++ {
			f += fmt.Sprintf("<t%d/>", t)
		}
		frag = f + "</x>"
	}
	hole := len(frag) - len("</x>")
	s := core.NewStore(core.LD, core.WithoutText())
	gp := 0
	for i := 0; i < n; i++ {
		if _, err := s.InsertSegment(gp, []byte(frag)); err != nil {
			b.Fatal(err)
		}
		if shape == bench.Nested {
			gp += hole
		} else if i == 0 {
			gp = hole
		}
	}
	return s
}

// --- Figure 12: join time vs cross-segment join percentage ---

func BenchmarkFig12Join(b *testing.B) {
	for _, shape := range []bench.Shape{bench.Nested, bench.Balanced} {
		for _, nSeg := range []int{50, 100} {
			for _, pct := range []float64{0, 20, 40, 60, 80, 100} {
				w, err := bench.BuildCrossWorkload(shape, nSeg, 20_000, pct)
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
				b.Run(name+"/LD", func(b *testing.B) { queryBench(b, ld, core.LazyJoin) })
				b.Run(name+"/LS", func(b *testing.B) { queryBench(b, ls, core.LazyJoin) })
				b.Run(name+"/STD", func(b *testing.B) { queryBench(b, ld, core.STD) })
			}
		}
	}
}

func queryBench(b *testing.B, s *core.Store, alg core.Algorithm) {
	b.Helper()
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		ms, err := s.Query("A", "D", join.Descendant, alg)
		if err != nil {
			b.Fatal(err)
		}
		n = len(ms)
	}
	b.ReportMetric(float64(n), "results")
}

// --- Figure 13: join time vs number of segments ---

func BenchmarkFig13SegCount(b *testing.B) {
	for _, shape := range []bench.Shape{bench.Nested, bench.Balanced} {
		for _, nSeg := range []int{20, 60, 120, 180, 240, 300} {
			w, err := bench.BuildCrossWorkload(shape, nSeg, 60_000, 20)
			if err != nil {
				b.Fatal(err)
			}
			s, err := w.BuildStore(core.LD)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s/segments=%d", shape, nSeg)
			b.Run(name+"/LD", func(b *testing.B) { queryBench(b, s, core.LazyJoin) })
			b.Run(name+"/STD", func(b *testing.B) { queryBench(b, s, core.STD) })
		}
	}
}

// --- Figures 14/15: XMark queries (cardinalities and elapsed time) ---

func BenchmarkFig15XMark(b *testing.B) {
	ld, ls, _, err := bench.XMarkStores(2000, 400, 100)
	if err != nil {
		b.Fatal(err)
	}
	for i, q := range xmlgen.XMarkQueries() {
		name := fmt.Sprintf("Q%d_%s//%s", i+1, q[0], q[1])
		run := func(s *core.Store, alg core.Algorithm) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				n := 0
				for i := 0; i < b.N; i++ {
					ms, err := s.Query(q[0], q[1], join.Descendant, alg)
					if err != nil {
						b.Fatal(err)
					}
					n = len(ms)
				}
				b.ReportMetric(float64(n), "results") // the Figure 14 cardinality column
			}
		}
		b.Run(name+"/LD", run(ld, core.LazyJoin))
		b.Run(name+"/LS", run(ls, core.LazyJoin))
		b.Run(name+"/STD", run(ld, core.STD))
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
		gp := doc.ElementsByTag("person")[persons/2].Start
		frag := []byte(xmlgen.Person(benchRand(9), 999_999, xmlgen.XMarkConfig{}))
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

// --- Figure 17: per-element insertion, lazy vs PRIME ---

func BenchmarkFig17ElementInsert(b *testing.B) {
	base := xmlgen.Synthetic(xmlgen.SyntheticConfig{Seed: 1, Elements: 20_000,
		Tags: []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9"}})
	baseDoc, err := xmltree.Parse(base)
	if err != nil {
		b.Fatal(err)
	}
	ops, err := chopper.Chop(base, 100, chopper.Balanced, 1)
	if err != nil {
		b.Fatal(err)
	}
	buildLazy := func(mode core.Mode) *core.Store {
		s := core.NewStore(mode, core.WithoutText())
		for _, op := range ops {
			if _, err := s.InsertSegment(op.GP, op.Fragment); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	for _, elems := range []int{16, 64, 256, 1024} {
		frag := segmentFragment(elems, 10)
		for _, mode := range []core.Mode{core.LD, core.LS} {
			b.Run(fmt.Sprintf("elements=%d/%v", elems, mode), func(b *testing.B) {
				s := buildLazy(mode)
				gp := nearestElementStart(s, s.Len()/2)
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
			ws, err := labeling.NewWBoxStore(baseDoc, 48)
			if err != nil {
				b.Fatal(err)
			}
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
				ps := labeling.NewPrimeStore(baseDoc, k)
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
	w, err := bench.BuildCrossWorkload(bench.Nested, 100, 40_000, 60)
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
				if _, err := s.QueryLazyOpts("A", "D", join.Descendant, opt); err != nil {
					b.Fatal(err)
				}
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
	w, err := bench.BuildCrossWorkload(bench.Balanced, 300, 40_000, 20)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *core.Store {
		s := core.NewStore(core.LD)
		for _, op := range w.Ops {
			if _, err := s.InsertSegment(op.GP, op.Fragment); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	b.Run("chopped300", func(b *testing.B) { queryBench(b, build(), core.LazyJoin) })
	b.Run("collapsed", func(b *testing.B) {
		s := build()
		if err := s.Rebuild(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		queryBench(b, s, core.LazyJoin)
	})
}

// BenchmarkAblationTwig compares the two multi-step evaluators on a
// 3-step XMark path: the binary-join pipeline (Query) materializes the
// intermediate person//watches result; holistic PathStack (QueryTwig)
// does not — the motivation of Bruno et al. [2].
func BenchmarkAblationTwig(b *testing.B) {
	text := xmlgen.XMark(xmlgen.XMarkConfig{Seed: 11, Persons: 3000, Items: 600})
	db := Open(LD)
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
	frag := segmentFragment(64, 10)
	for _, mode := range []core.Mode{core.LD, core.LS} {
		b.Run(mode.String(), func(b *testing.B) {
			s := core.NewStore(mode, core.WithoutText())
			if _, err := s.InsertSegment(0, segmentFragment(1000, 10)); err != nil {
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

// BenchmarkParallelLazyJoin measures the segment-partitioned parallel
// Lazy-Join the paper's introduction suggests, at several worker counts.
func BenchmarkParallelLazyJoin(b *testing.B) {
	w, err := bench.BuildCrossWorkload(bench.Balanced, 200, 100_000, 40)
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
				if _, err := s.QueryParallel("A", "D", join.Descendant, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- helpers ---

func segmentFragment(n, tags int) []byte {
	f := "<t0>"
	for i := 1; i < n; i++ {
		f += fmt.Sprintf("<t%d/>", i%tags)
	}
	return []byte(f + "</t0>")
}

func nearestElementStart(s *core.Store, gp int) int {
	nodes := s.GlobalElements("t0")
	if len(nodes) == 0 {
		return 0
	}
	best := nodes[0].Start
	for _, n := range nodes {
		d1, d2 := n.Start-gp, best-gp
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d1 < d2 {
			best = n.Start
		}
	}
	return best
}

func benchRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

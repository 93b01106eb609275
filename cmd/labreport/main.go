// Command labreport regenerates the tables and figures of the paper's
// evaluation section (Section 5) and prints them as text tables.
//
// Usage:
//
//	labreport [-fig all|11|12|13|14|15|16|17] [-scale small|paper]
//
// -scale small (the default) runs every experiment in seconds at reduced
// sizes; -scale paper uses sizes comparable to the published experiments
// (a 100 MB-class XMark store, 3M-element documents) and takes minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

type scaleCfg struct {
	fig11Segs    []int
	fig12Joins   int
	fig13Joins   int
	fig13Segs    []int
	xmarkPersons int
	xmarkItems   int
	xmarkSegs    int
	fig16Persons []int
	fig17        bench.Fig17Config
	fig17Elems   []int
	fig17Tags    []int
	fig17Segs    []int
}

func scales(name string) (scaleCfg, error) {
	switch name {
	case "small":
		return scaleCfg{
			fig11Segs:    []int{50, 100, 200, 300},
			fig12Joins:   20_000,
			fig13Joins:   40_000,
			fig13Segs:    []int{20, 60, 120, 180, 240, 300},
			xmarkPersons: 1000,
			xmarkItems:   200,
			xmarkSegs:    100,
			fig16Persons: []int{100, 400, 1600, 6400},
			fig17:        bench.Fig17Config{BaseSegments: 100, BaseElements: 20_000, PrimeKs: []int{10, 100}},
			fig17Elems:   []int{16, 64, 256, 1024},
			fig17Tags:    []int{2, 8, 32, 128},
			fig17Segs:    []int{100, 400, 1600, 6400},
		}, nil
	case "paper":
		return scaleCfg{
			fig11Segs:    []int{50, 100, 200, 300},
			fig12Joins:   200_000,
			fig13Joins:   120_000, // the paper's 120k-element document
			fig13Segs:    []int{20, 60, 120, 180, 240, 300},
			xmarkPersons: 60_000, // ~3M elements, ~100MB-class store
			xmarkItems:   12_000,
			xmarkSegs:    100,
			fig16Persons: []int{1000, 4000, 16_000, 64_000},
			fig17:        bench.Fig17Config{BaseSegments: 100, BaseElements: 100_000, PrimeKs: []int{10, 100}},
			fig17Elems:   []int{16, 64, 256, 1024, 4096},
			fig17Tags:    []int{2, 8, 32, 128, 512},
			fig17Segs:    []int{100, 400, 1600, 6400, 12800},
		}, nil
	default:
		return scaleCfg{}, fmt.Errorf("unknown scale %q (want small or paper)", name)
	}
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 11, 12, 13, 14, 15, 16, 17 or ablations")
	scale := flag.String("scale", "small", "experiment scale: small or paper")
	flag.Parse()

	cfg, err := scales(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "labreport:", err)
		os.Exit(2)
	}
	if err := report(os.Stdout, *fig, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "labreport:", err)
		os.Exit(2)
	}
}

// report writes the requested figure(s) at the given scale.
func report(w io.Writer, fig string, cfg scaleCfg) error {
	want := func(f string) bool { return fig == "all" || fig == f }
	ran := false

	if want("11") {
		ran = true
		fmt.Fprintln(w, bench.Fig11(cfg.fig11Segs, 20))
	}
	if want("12") {
		ran = true
		pcts := []float64{0, 20, 40, 60, 80, 100}
		for _, shape := range []bench.Shape{bench.Nested, bench.Balanced} {
			for _, n := range []int{50, 100} {
				fmt.Fprintln(w, bench.Fig12(shape, n, cfg.fig12Joins, pcts))
			}
		}
	}
	if want("13") {
		ran = true
		for _, shape := range []bench.Shape{bench.Nested, bench.Balanced} {
			fmt.Fprintln(w, bench.Fig13(shape, cfg.fig13Segs, cfg.fig13Joins))
		}
	}
	if want("14") {
		ran = true
		fmt.Fprintln(w, bench.Fig14(cfg.xmarkPersons, cfg.xmarkItems, cfg.xmarkSegs))
	}
	if want("15") {
		ran = true
		fmt.Fprintln(w, bench.Fig15(cfg.xmarkPersons, cfg.xmarkItems, cfg.xmarkSegs))
	}
	if want("16") {
		ran = true
		fmt.Fprintln(w, bench.Fig16(cfg.fig16Persons))
	}
	if want("17") {
		ran = true
		fmt.Fprintln(w, bench.Fig17Elements(cfg.fig17Elems, cfg.fig17))
		fmt.Fprintln(w, bench.Fig17Tags(cfg.fig17Tags, cfg.fig17))
		fmt.Fprintln(w, bench.Fig17Segments(cfg.fig17Segs, cfg.fig17))
	}
	if want("ablations") {
		ran = true
		fmt.Fprintln(w, bench.FigAblations())
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

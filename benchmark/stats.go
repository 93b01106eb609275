package main

import (
	"math"
	"sort"
)

// metric is one reported number. Samples is how many measurements it
// summarizes (zero for a count or a ratio).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// at reads sorted values at a fractional rank, interpolating linearly
// between the two nearest and clamping to the data.
func at(sorted []float64, rank float64) float64 {
	switch {
	case len(sorted) == 0:
		return math.NaN()
	case rank <= 0:
		return sorted[0]
	case rank >= float64(len(sorted)-1):
		return sorted[len(sorted)-1]
	}
	lo := int(rank)
	return sorted[lo] + (rank-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantile returns the q-quantile (0..1) of sorted values, the lowest
// value being the 0-quantile and the highest the 1-quantile.
func quantile(sorted []float64, q float64) float64 { return at(sorted, q*float64(len(sorted)-1)) }

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 { return quantile(sortedCopy(values), 0.5) }

// tailPercentiles are the percentiles a latency may be reported at, in
// thousandths so that counting the samples beyond one is exact.
var tailPercentiles = []int{500, 900, 950, 990, 999}

// highestPercentile returns the highest of tailPercentiles that still
// has at least ten of n samples beyond it, so that the reported tail is
// never set by a handful of requests. With fewer than twenty samples
// even the median does not qualify and ok is false.
func highestPercentile(n int) (p float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		if n*(1000-tailPercentiles[i]) >= 10*1000 {
			return float64(tailPercentiles[i]) / 1000, true
		}
	}
	return 0, false
}

// spread summarizes repeated runs of one metric: the median, the
// quartiles as Python's statistics.quantiles(values, n=4) gives them
// (exclusive method), and the distance between the quartiles as a share
// of the median.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQR    float64 `json:"iqr_share"` // (Q3-Q1)/median
	Runs   int     `json:"runs"`
}

func newSpread(values []float64) spread {
	s := sortedCopy(values)
	sp := spread{Median: quantile(s, 0.5), Runs: len(s)}
	sp.Q1, sp.Q3 = exclusiveQuantile(s, 0.25), exclusiveQuantile(s, 0.75)
	if sp.Median != 0 {
		sp.IQR = (sp.Q3 - sp.Q1) / math.Abs(sp.Median)
	}
	return sp
}

// exclusiveQuantile places the q-quantile at rank q*(n+1), counted from
// one and clamped to the data, as the exclusive method does.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	return at(sorted, q*float64(len(sorted)+1)-1)
}

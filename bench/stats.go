package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q*n samples at or below it. At n=40,
// quantile(xs, 0.75) is the 30th sample, leaving exactly ten beyond it.
// It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the middle sample, averaging the two middle ones when
// the count is even. NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// splitHalfSpread estimates how far a statistic of xs moves between two
// runs, from one run: the statistic is computed on the even-indexed and
// the odd-indexed samples separately and the spread is their distance as
// a share of the statistic over all samples. Interleaving keeps slow
// drift out of the estimate. Zero when there are fewer than four samples.
func splitHalfSpread(xs []float64, stat func([]float64) float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	var even, odd []float64
	for i, x := range xs {
		if i%2 == 0 {
			even = append(even, x)
		} else {
			odd = append(odd, x)
		}
	}
	all := stat(xs)
	if all == 0 {
		return 0
	}
	return math.Abs(stat(even)-stat(odd)) / math.Abs(all)
}

func p75(xs []float64) float64 { return quantile(xs, 0.75) }

// mbps is bytes per second in MB/s (MB = 10^6 bytes) for a duration given
// in milliseconds.
func mbps(bytes int64, millis float64) float64 {
	if millis <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (millis / 1e3)
}

// verdict is the outcome of comparing one metric between two runs.
type verdict string

const (
	verdictSame       verdict = "same"       // within the bound, either way
	verdictBetter     verdict = "better"     // improved by more than the bound
	verdictWorse      verdict = "worse"      // worsened by more than the bound
	verdictUnresolved verdict = "unresolved" // the runs' own spread exceeds the bound
)

// compareBound applies a metric's direction and bound to a baseline value
// a and a candidate value b. The change is measured as a share of a. A
// spread (the larger of the two runs' own run-to-run estimates) above the
// bound makes the comparison unresolved: the benchmark cannot tell a
// change of that size from noise. A zero bound demands equality.
func compareBound(better string, bound, a, b, spread float64) verdict {
	if spread > bound {
		return verdictUnresolved
	}
	if a == b {
		return verdictSame
	}
	worsening := b - a // positive = worse when lower is better
	if better == "higher" {
		worsening = a - b
	}
	if a != 0 {
		worsening /= math.Abs(a)
	}
	switch {
	case worsening > bound:
		return verdictWorse
	case worsening < -bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

package main

import (
	"math"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(quantile(nil, 0.75)) {
		t.Error("empty input must give NaN, not a number that looks measured")
	}
	// 40 samples 1..40, shuffled order irrelevant: p75 is the 30th, with
	// exactly ten samples beyond it.
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	got := p75(xs)
	if got != 30 {
		t.Fatalf("p75 of 1..40 = %v, want 30", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the p75, want 10", beyond)
	}
	if xs[0] != 40 {
		t.Error("quantile reordered its input")
	}
}

func TestSplitHalfSpread(t *testing.T) {
	steady := []float64{10, 10, 10, 10, 10, 10}
	if got := splitHalfSpread(steady, median); got != 0 {
		t.Errorf("steady samples spread %v, want 0", got)
	}
	// Even-indexed samples 10, odd-indexed 12: halves disagree by 2 of 11.
	split := []float64{10, 12, 10, 12, 10, 12}
	if got, want := splitHalfSpread(split, median), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	if got := splitHalfSpread([]float64{1, 2, 3}, median); got != 0 {
		t.Errorf("too few samples must give 0, got %v", got)
	}
}

func TestCompareBound(t *testing.T) {
	cases := []struct {
		name                string
		better              string
		bound, a, b, spread float64
		want                verdict
	}{
		{"lower-is-better within bound", "lower", 0.10, 100, 109, 0, verdictSame},
		{"lower-is-better worse", "lower", 0.10, 100, 111, 0, verdictWorse},
		{"lower-is-better better", "lower", 0.10, 100, 80, 0, verdictBetter},
		{"higher-is-better worse", "higher", 0.10, 100, 89, 0, verdictWorse},
		{"higher-is-better better", "higher", 0.10, 100, 115, 0, verdictBetter},
		{"higher-is-better within bound", "higher", 0.10, 100, 91, 0, verdictSame},
		{"spread above bound hides a regression", "lower", 0.10, 100, 150, 0.11, verdictUnresolved},
		{"spread above bound hides equality too", "lower", 0.10, 100, 100, 0.11, verdictUnresolved},
		{"zero bound demands equality", "lower", 0, 0, 0, 0, verdictSame},
		{"zero bound, any failure is worse", "lower", 0, 0, 0.01, 0, verdictWorse},
		{"count ratio off by a hair", "lower", 0.005, 1.65106, 1.66, 0, verdictWorse},
	}
	for _, c := range cases {
		if got := compareBound(c.better, c.bound, c.a, c.b, c.spread); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

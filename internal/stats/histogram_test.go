package stats

import (
	"math"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := MustHistogram(0, 100, 10)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v, want 1/100", h.Min(), h.Max())
	}
	if got, want := h.Mean(), 50.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// Uniform 1..100: quantiles should land within one bucket width (10).
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 10 {
			t.Errorf("Quantile(%v) = %v, want ≈ %v", tc.q, got, tc.want)
		}
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Errorf("extreme quantiles %v/%v, want exact min/max", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramEmptyAndDegenerate(t *testing.T) {
	h := MustHistogram(0, 10, 4)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	// All observations identical, zero-width range.
	d := MustHistogram(5, 5, 1)
	for i := 0; i < 3; i++ {
		d.Observe(5)
	}
	if got := d.Quantile(0.5); got != 5 {
		t.Fatalf("degenerate Quantile = %v, want 5", got)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := MustHistogram(0, 10, 5)
	h.Observe(-100)
	h.Observe(1000)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if h.Min() != -100 || h.Max() != 1000 {
		t.Fatalf("exact extremes lost: %v/%v", h.Min(), h.Max())
	}
	// Quantiles stay inside the exact observed range.
	if q := h.Quantile(0.5); q < -100 || q > 1000 {
		t.Fatalf("Quantile(0.5) = %v outside observed range", q)
	}
	h.Observe(math.NaN())
	if h.Count() != 2 {
		t.Fatal("NaN must be ignored")
	}
}

func TestHistogramInvalid(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("0 buckets must fail")
	}
	if _, err := NewHistogram(10, 0, 4); err == nil {
		t.Fatal("inverted range must fail")
	}
	if _, err := NewHistogram(math.NaN(), 0, 4); err == nil {
		t.Fatal("NaN bound must fail")
	}
}

func TestSamplePercentiles(t *testing.T) {
	if p := SamplePercentiles(nil); p != (Percentiles{}) {
		t.Fatalf("empty sample: %+v", p)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	p := SamplePercentiles(xs)
	// 256 buckets over [0, 999]: error bounded by one bucket width (~3.9).
	for _, tc := range []struct{ got, want float64 }{
		{p.P50, 499.5}, {p.P95, 949.05}, {p.P99, 989.01},
	} {
		if math.Abs(tc.got-tc.want) > 4 {
			t.Errorf("percentile %v, want ≈ %v", tc.got, tc.want)
		}
	}
	// A constant sample collapses to the constant.
	if p := SamplePercentiles([]float64{7, 7, 7}); p.P50 != 7 || p.P99 != 7 {
		t.Errorf("constant sample: %+v", p)
	}
}

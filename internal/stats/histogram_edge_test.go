package stats

import (
	"math"
	"testing"
)

// TestHistogramSingleSample pins the one-observation edge: every quantile
// collapses to that observation and the moments are exact.
func TestHistogramSingleSample(t *testing.T) {
	h := MustHistogram(0, 100, 16)
	h.Observe(42)
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, got)
		}
	}
	if h.Sum() != 42 || h.Mean() != 42 || h.Min() != 42 || h.Max() != 42 {
		t.Fatalf("moments wrong: sum %v mean %v min %v max %v",
			h.Sum(), h.Mean(), h.Min(), h.Max())
	}
	if p := SamplePercentiles([]float64{42}); p.P50 != 42 || p.P95 != 42 || p.P99 != 42 {
		t.Fatalf("single-sample percentiles: %+v", p)
	}
}

// TestHistogramQuantileDegenerateInputs covers the q-argument edges: NaN,
// below 0, above 1, and quantiles of an empty histogram.
func TestHistogramQuantileDegenerateInputs(t *testing.T) {
	h := MustHistogram(0, 10, 4)
	for _, q := range []float64{math.NaN(), -1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	h.Observe(3)
	h.Observe(7)
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("Quantile(NaN) = %v, want 0", got)
	}
	if got := h.Quantile(-0.5); got != 3 {
		t.Errorf("Quantile(q<0) = %v, want min 3", got)
	}
	if got := h.Quantile(1.5); got != 7 {
		t.Errorf("Quantile(q>1) = %v, want max 7", got)
	}
}

// TestHistogramSingleZeroPercentiles pins the Percentiles summary of a
// histogram holding one zero observation.
func TestHistogramSingleZeroPercentiles(t *testing.T) {
	h := MustHistogram(-5, 5, 8)
	h.Observe(0)
	if p := (Percentiles{P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99)}); p != (Percentiles{}) {
		t.Fatalf("single-zero percentiles: %+v", p)
	}
}

// TestHistogramClampedQuantilesStayOrdered observes far out-of-range values
// and checks the interpolated quantiles remain monotone in q — the clamped
// first/last buckets must not invert the interpolation.
func TestHistogramClampedQuantilesStayOrdered(t *testing.T) {
	h := MustHistogram(0, 10, 5)
	for _, v := range []float64{-50, -50, 2, 5, 8, 60, 60, 60} {
		h.Observe(v)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile not monotone at q=%v: %v < %v", q, got, prev)
		}
		if got < h.Min() || got > h.Max() {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, got, h.Min(), h.Max())
		}
		prev = got
	}
}

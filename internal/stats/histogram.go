package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bucket histogram over a closed value range [Lo, Hi]:
// Buckets equal-width bins plus exact Min/Max/Sum/Count side counters.
// Observations outside the range clamp into the first/last bucket (the side
// counters keep the exact extremes), so quantile estimates degrade gracefully
// instead of dropping samples. The zero Histogram is not usable — construct
// with NewHistogram.
//
// Quantiles are estimated by linear interpolation inside the bucket that
// contains the requested rank, clamped to the exactly-tracked [Min, Max], so
// on well-ranged data the error is bounded by one bucket width. This is the
// summary type behind the telemetry metrics registry and the P50/P95/P99
// fields of core.RunStats.
type Histogram struct {
	lo, hi float64
	counts []uint64
	n      uint64
	min    float64
	max    float64
	sum    float64
}

// NewHistogram builds a histogram over [lo, hi] with the given bucket count.
func NewHistogram(lo, hi float64, buckets int) (*Histogram, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("stats: histogram needs ≥ 1 bucket, got %d", buckets)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return nil, fmt.Errorf("stats: invalid histogram range [%v, %v]", lo, hi)
	}
	return &Histogram{
		lo: lo, hi: hi,
		counts: make([]uint64, buckets),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}, nil
}

// MustHistogram is NewHistogram for static configurations; it panics on an
// invalid range or bucket count.
func MustHistogram(lo, hi float64, buckets int) *Histogram {
	h, err := NewHistogram(lo, hi, buckets)
	if err != nil {
		panic(err)
	}
	return h
}

// bucketOf maps a value to its bucket index, clamping out-of-range values.
func (h *Histogram) bucketOf(x float64) int {
	if h.hi == h.lo {
		return 0
	}
	i := int(float64(len(h.counts)) * (x - h.lo) / (h.hi - h.lo))
	if i < 0 {
		return 0
	}
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// Observe records one value. NaN observations are ignored.
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.counts[h.bucketOf(x)]++
	h.n++
	h.sum += x
	if x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact sample mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the exact smallest observation (0 for an empty histogram).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observation (0 for an empty histogram).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (q ∈ [0, 1]) by locating the bucket that
// holds rank q·n and interpolating linearly inside it. Results are clamped to
// the exact [Min, Max]. An empty histogram yields 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.n)
	acc := 0.0
	width := (h.hi - h.lo) / float64(len(h.counts))
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := acc + float64(c)
		if next >= rank {
			frac := (rank - acc) / float64(c)
			v := h.lo + (float64(i)+frac)*width
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		acc = next
	}
	return h.max
}

// Reset clears all observations, keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// Percentiles is the fixed P50/P95/P99 summary the runtime statistics report.
type Percentiles struct {
	P50, P95, P99 float64
}

// SamplePercentiles summarizes a sample through a histogram sized to the
// sample's exact range: values are folded into a 256-bucket histogram over
// [min, max] and the three quantiles read back out. This keeps the quantile
// path identical to the metrics registry's (one shared implementation) while
// bounding the interpolation error to 1/256 of the observed range. An empty
// sample yields zero percentiles.
func SamplePercentiles(xs []float64) Percentiles {
	if len(xs) == 0 {
		return Percentiles{}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	h := MustHistogram(lo, hi, 256)
	for _, x := range xs {
		h.Observe(x)
	}
	return Percentiles{P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99)}
}

package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail percentile resting on fewer samples is one outlier.
const minTail = 10

// tailLevels are the percentiles the harness considers reporting, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// beyond counts the samples of an n-sample set that lie above its
// q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile picks the highest of tailLevels that has at least minTail
// samples beyond it; ok is false when even the median has too few.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLevels {
		if beyond(n, q) >= minTail {
			return q, true
		}
	}
	return 0, false
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks. xs is sorted in place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is num/den, or 0 when the base is empty.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// unaccountedPct is the share, in percent, of total step time that the
// measured layer times do not cover. A negative value means the layers were
// over-attributed (a layer timed outside the step ran slower than inside).
func unaccountedPct(total float64, layers ...float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * (total - sum(layers)) / total
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// clock is the time source of the open-loop generator; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// request is one open-loop request: when it was due, when the generator was
// free to send it (its due time, or the reply to the previous request if that
// came later), when it actually went out, when its reply arrived, and whether
// it succeeded.
type request struct {
	due, ready, sent, done time.Time
	ok                     bool
}

// latency is the request's time from when it was due, so a stall that holds
// up later sends is charged to them too. The generator's own oversleep past
// the moment it was free to send is not the system's and is left out.
func (r request) latency() time.Duration { return r.done.Sub(r.due) - r.sent.Sub(r.ready) }

// lateness is how far behind schedule the generator sent the request, for
// whatever reason.
func (r request) lateness() time.Duration { return r.sent.Sub(r.due) }

// openLoop sends n requests on a fixed schedule, request i being due at
// start + i·period, whatever happened to the earlier ones. send performs one
// request and reports whether it succeeded. A request whose predecessor is
// still outstanding at its due time is sent as soon as that one returns.
func openLoop(clk clock, start time.Time, period time.Duration, n int, send func(i int) bool) []request {
	reqs := make([]request, n)
	var prevDone time.Time
	for i := range reqs {
		r := &reqs[i]
		r.due = start.Add(time.Duration(i) * period)
		r.ready = r.due
		if prevDone.After(r.due) {
			r.ready = prevDone
		}
		clk.SleepUntil(r.due)
		r.sent = clk.Now()
		r.ok = send(i)
		r.done = clk.Now()
		prevDone = r.done
	}
	return reqs
}

// onTimeRatio is the share of requests answered successfully within one
// period of their due time; a failed request counts as late.
func onTimeRatio(reqs []request, period time.Duration) float64 {
	on := 0
	for _, r := range reqs {
		if r.ok && r.latency() <= period {
			on++
		}
	}
	return ratio(on, len(reqs))
}

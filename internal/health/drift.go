package health

import "ctgdvfs/internal/telemetry"

// driftState is the estimator drift detector: per fork node it maintains an
// EWMA of the realized branch-outcome indicator vector (a fast empirical
// frequency) and an EWMA of the absolute error between that frequency and
// the profiler's windowed estimate carried by each KindEstimate event. A
// healthy estimator keeps the two aligned; a growing error EWMA means the
// estimator's window is too long (or too short) for how fast the workload's
// branch statistics actually move. The worst fork's error EWMA is published
// as the adaptive.health.drift_err gauge, which the drift rule of
// examples/watch/health.json alerts on.
type driftState struct {
	forks []forkDrift
}

// forkDrift is the per-fork detector state.
type forkDrift struct {
	seen      bool
	realized  []float64 // EWMA of outcome indicators (empirical frequency)
	estimate  []float64 // last windowed estimate from the stream
	errEWMA   float64
	lastErr   float64
	estimates int
}

// observe consumes one KindEstimate event. Called with the recorder lock
// held; a is the owning recorder (metric sink).
func (d *driftState) observe(a *AnalyzerRecorder, e telemetry.Event) {
	for len(d.forks) <= e.Fork {
		d.forks = append(d.forks, forkDrift{})
	}
	f := &d.forks[e.Fork]
	if len(e.Probs) == 0 {
		return
	}
	if !f.seen || len(f.realized) != len(e.Probs) {
		// First sight of this fork: seed the realized frequency at the
		// estimate itself, so error measures subsequent divergence, not the
		// arbitrary distance from a zero vector.
		f.realized = append([]float64(nil), e.Probs...)
		f.seen = true
	}
	for k := range f.realized {
		f.realized[k] *= 1 - driftAlpha
	}
	if e.Outcome >= 0 && e.Outcome < len(f.realized) {
		f.realized[e.Outcome] += driftAlpha
	}
	f.estimate = append(f.estimate[:0], e.Probs...)

	err := 0.0
	for k := range f.realized {
		if d := abs(f.realized[k] - e.Probs[k]); d > err {
			err = d
		}
	}
	f.lastErr = err
	if f.estimates == 0 {
		f.errEWMA = err
	} else {
		f.errEWMA = (1-driftAlpha)*f.errEWMA + driftAlpha*err
	}
	f.estimates++

	a.hm.driftErr.Set(d.maxErr())
}

// maxErr is the worst per-fork error EWMA (the adaptive.health.drift_err
// gauge).
func (d *driftState) maxErr() float64 {
	m := 0.0
	for i := range d.forks {
		if d.forks[i].errEWMA > m {
			m = d.forks[i].errEWMA
		}
	}
	return m
}

// ForkDrift is the exported per-fork drift summary.
type ForkDrift struct {
	Fork      int       `json:"fork"`
	Estimates int       `json:"estimates"`
	ErrEWMA   float64   `json:"err_ewma"`
	LastErr   float64   `json:"last_err"`
	Estimate  []float64 `json:"estimate,omitempty"`
	Realized  []float64 `json:"realized,omitempty"`
}

func (d *driftState) snapshot() []ForkDrift {
	out := make([]ForkDrift, 0, len(d.forks))
	for fi := range d.forks {
		f := &d.forks[fi]
		if !f.seen {
			continue
		}
		out = append(out, ForkDrift{
			Fork:      fi,
			Estimates: f.estimates,
			ErrEWMA:   f.errEWMA,
			LastErr:   f.lastErr,
			Estimate:  append([]float64(nil), f.estimate...),
			Realized:  append([]float64(nil), f.realized...),
		})
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

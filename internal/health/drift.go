package health

import (
	"ctgdvfs/internal/stats"
	"ctgdvfs/internal/telemetry"
)

// driftState is the estimator drift detector: per fork node it folds the
// profiler's windowed estimate and the realized outcome carried by each
// KindEstimate event into a stats.Drift tracker — the same tracker, fed the
// same values, as the manager's adaptive.health.drift_err gauge, so the
// report's per-fork error EWMAs are the values the drift rule of
// examples/watch/health.json saw live.
type driftState struct {
	forks []forkDrift
}

// forkDrift is the per-fork detector state.
type forkDrift struct {
	stats.Drift
	estimate []float64 // last windowed estimate from the stream
}

// observe consumes one KindEstimate event.
func (d *driftState) observe(e telemetry.Event) {
	for len(d.forks) <= e.Fork {
		d.forks = append(d.forks, forkDrift{})
	}
	if len(e.Probs) == 0 {
		return
	}
	f := &d.forks[e.Fork]
	f.Observe(e.Probs, e.Outcome)
	f.estimate = append(f.estimate[:0], e.Probs...)
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
		if f.Updates == 0 {
			continue
		}
		out = append(out, ForkDrift{
			Fork:      fi,
			Estimates: f.Updates,
			ErrEWMA:   f.ErrEWMA,
			LastErr:   f.LastErr,
			Estimate:  f.estimate,
			Realized:  f.Realized,
		})
	}
	return out
}

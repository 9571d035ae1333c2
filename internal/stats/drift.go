package stats

import "math"

// DriftDecay is the EWMA decay of a Drift tracker, for both its realized
// outcome frequency and its error average.
const DriftDecay = 0.1

// Drift measures how far a windowed probability estimate trails the branch
// outcomes it estimates. It keeps an EWMA of the realized outcome indicator
// vector (a fast empirical frequency, seeded at the first estimate so the
// error measures later divergence, not the distance from a zero vector) and
// an EWMA of the largest absolute difference between that frequency and each
// new estimate. A growing error EWMA means the estimator's window is too long
// (or too short) for how fast the branch statistics actually move.
//
// The adaptive manager keeps one per fork and publishes the worst ErrEWMA as
// the adaptive.health.drift_err gauge; the offline health analyzer rebuilds
// the same trackers from a capture's estimate events.
type Drift struct {
	Realized []float64 // EWMA of the outcome indicators
	ErrEWMA  float64   // EWMA of the per-update error
	LastErr  float64   // the latest update's error
	Updates  int
}

// Observe folds in one estimate and the outcome observed with it. It
// allocates only while Realized's capacity is below the estimate's length.
func (d *Drift) Observe(estimate []float64, outcome int) {
	if d.Updates == 0 || len(d.Realized) != len(estimate) {
		d.Realized = append(d.Realized[:0], estimate...)
	}
	for k := range d.Realized {
		d.Realized[k] *= 1 - DriftDecay
	}
	if outcome >= 0 && outcome < len(d.Realized) {
		d.Realized[outcome] += DriftDecay
	}
	err := 0.0
	for k, r := range d.Realized {
		if x := math.Abs(r - estimate[k]); x > err {
			err = x
		}
	}
	d.LastErr = err
	if d.Updates == 0 {
		d.ErrEWMA = err
	} else {
		d.ErrEWMA = (1-DriftDecay)*d.ErrEWMA + DriftDecay*err
	}
	d.Updates++
}

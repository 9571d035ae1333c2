package platform

import (
	"fmt"
	"math"
	"sort"
)

// DefaultMinSpeed is the lowest normalized speed a task may be scaled to.
// A floor exists both physically (leakage and minimum operating voltage)
// and numerically (stretching to speed → 0 would take unbounded time).
const DefaultMinSpeed = 0.05

// DVFS models dynamic voltage and frequency scaling of a PE with the
// paper's unit-capacitance, V ∝ f assumptions:
//
//	time(s)   = WCET / s
//	energy(s) = E_nominal · s²
//
// for normalized speed s ∈ [MinSpeed, 1]. With Levels set, only the listed
// discrete speeds are available (an extension beyond the paper, which uses
// continuous scaling); speeds are rounded *up* so deadlines stay safe.
type DVFS struct {
	// MinSpeed is the lowest allowed speed; zero means DefaultMinSpeed.
	MinSpeed float64
	// Levels, when non-empty, restricts speeds to these values (each in
	// (0, 1], sorted ascending by Validate).
	Levels []float64
}

// Continuous is the paper's DVFS model: any speed in [DefaultMinSpeed, 1].
func Continuous() DVFS { return DVFS{} }

// Discrete returns a DVFS model restricted to the given speed levels.
func Discrete(levels ...float64) DVFS {
	return DVFS{Levels: append([]float64(nil), levels...)}
}

// Validate checks the model and normalizes it (sorts levels). It must be
// called (directly or via the schedulers, which call it) before Clamp.
func (d *DVFS) Validate() error {
	if d.MinSpeed == 0 {
		d.MinSpeed = DefaultMinSpeed
	}
	if d.MinSpeed < 0 || d.MinSpeed > 1 {
		return fmt.Errorf("platform: invalid MinSpeed %v", d.MinSpeed)
	}
	if len(d.Levels) > 0 {
		sort.Float64s(d.Levels)
		for _, l := range d.Levels {
			if !(l > 0) || l > 1 {
				return fmt.Errorf("platform: invalid DVFS level %v", l)
			}
		}
		if d.Levels[len(d.Levels)-1] != 1 {
			return fmt.Errorf("platform: DVFS levels must include full speed 1, got max %v", d.Levels[len(d.Levels)-1])
		}
	}
	return nil
}

// Clamp maps a desired speed to an allowed one: at least MinSpeed, at most
// 1, and — with discrete levels — rounded up to the next level so that the
// task never runs slower than requested (deadline safety).
func (d DVFS) Clamp(s float64) float64 {
	minSpeed := d.MinSpeed
	if minSpeed == 0 {
		minSpeed = DefaultMinSpeed
	}
	if math.IsNaN(s) || s > 1 {
		s = 1
	}
	if s < minSpeed {
		s = minSpeed
	}
	if len(d.Levels) == 0 {
		return s
	}
	// Round up to the next discrete level.
	i := sort.SearchFloat64s(d.Levels, s)
	if i == len(d.Levels) {
		i--
	}
	return d.Levels[i]
}

// SpeedForTime returns the (clamped) speed required to finish a task with
// the given full-speed WCET within the given time budget.
func (d DVFS) SpeedForTime(wcet, budget float64) float64 {
	if budget <= 0 {
		return 1
	}
	return d.Clamp(wcet / budget)
}

// GuardedSpeedForTime is SpeedForTime with a guard band: a fraction guard of
// the slack (budget − wcet) is reserved as margin rather than converted to
// speed reduction, so the task nominally finishes guard·slack early and a
// bounded execution-time overrun is absorbed before the budget is breached.
// guard ≤ 0 reproduces SpeedForTime exactly; guard ≥ 1 reserves all slack
// (full speed); NaN guards are treated as 0.
func (d DVFS) GuardedSpeedForTime(wcet, budget, guard float64) float64 {
	if guard > 0 && budget > wcet {
		if guard > 1 {
			guard = 1
		}
		budget = wcet + (budget-wcet)*(1-guard)
	}
	return d.SpeedForTime(wcet, budget)
}

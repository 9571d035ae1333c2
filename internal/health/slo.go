package health

import (
	"ctgdvfs/internal/stats"
	"ctgdvfs/internal/telemetry"
)

// sloState is the SLO tracker: per KindInstanceFinish it folds lateness,
// makespan and energy into rolling windows (quantiles are read back through
// stats.SamplePercentiles, i.e. the same fixed-bucket stats.Histogram the
// metrics registry uses), counts the deadline misses behind the budget burn
// rate and the miss streak (the streaks the manager publishes live as the
// adaptive.health.miss_streak and max_miss_streak gauges), and mirrors the
// recovery layer's circuit-breaker and fallback activity from the decision
// events.
type sloState struct {
	instances int
	misses    int
	overruns  int

	curStreak, maxStreak int

	fallbacks, fallbacksSaved int
	guardLevel, maxGuardLevel int
	reschedules, cacheHits    int

	totalEnergy   float64
	totalLateness float64

	lateness, makespan, energy rollWindow
	driftTrace                 rollPairs // (instance, manager MaxDrift) trajectory
}

func (s *sloState) init() {
	s.lateness.init(windowSize)
	s.makespan.init(windowSize)
	s.energy.init(windowSize)
	s.driftTrace.init(windowSize)
}

// rollWindow is a fixed-capacity ring of the most recent observations.
type rollWindow struct {
	buf   []float64
	pos   int
	full  bool
	total int
}

func (w *rollWindow) init(capacity int) { w.buf = make([]float64, 0, capacity) }

func (w *rollWindow) push(x float64) {
	w.total++
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, x)
		return
	}
	w.full = true
	w.buf[w.pos] = x
	w.pos = (w.pos + 1) % len(w.buf)
}

// values returns the window contents (arrival order not preserved; quantile
// summaries are order-independent).
func (w *rollWindow) values() []float64 { return w.buf }

// rollPairs is a fixed-capacity ring of (instance, value) pairs kept in
// arrival order — the drift trajectory the report samples.
type rollPairs struct {
	inst []int
	val  []float64
}

func (p *rollPairs) init(capacity int) {
	p.inst = make([]int, 0, capacity)
	p.val = make([]float64, 0, capacity)
}

func (p *rollPairs) push(instance int, v float64) {
	if len(p.inst) == cap(p.inst) {
		copy(p.inst, p.inst[1:])
		copy(p.val, p.val[1:])
		p.inst[len(p.inst)-1] = instance
		p.val[len(p.val)-1] = v
		return
	}
	p.inst = append(p.inst, instance)
	p.val = append(p.val, v)
}

func (s *sloState) observeFinish(e telemetry.Event) {
	s.instances++
	s.totalEnergy += e.Energy
	s.totalLateness += e.Lateness
	s.lateness.push(e.Lateness)
	s.makespan.push(e.Makespan)
	s.energy.push(e.Energy)
	s.driftTrace.push(e.Instance, e.Drift)
	if e.Met {
		s.curStreak = 0
	} else {
		s.misses++
		s.curStreak++
		if s.curStreak > s.maxStreak {
			s.maxStreak = s.curStreak
		}
	}
}

func (s *sloState) observeReschedule(e telemetry.Event) {
	s.reschedules++
	if e.CacheHit {
		s.cacheHits++
	}
}

func (s *sloState) observeFallback(e telemetry.Event) {
	s.fallbacks++
	if e.Met {
		s.fallbacksSaved++
	}
}

func (s *sloState) observeGuard(e telemetry.Event) {
	s.guardLevel = e.Level
	if e.Level > s.maxGuardLevel {
		s.maxGuardLevel = e.Level
	}
}

// missRate is the run-to-date deadline-miss fraction.
func (s *sloState) missRate() float64 {
	if s.instances == 0 {
		return 0
	}
	return float64(s.misses) / float64(s.instances)
}

// budgetBurn is the fraction of the miss budget consumed: actual miss rate
// over allowed miss rate (1.0 = budget exactly exhausted; disabled or
// instance-free runs report 0).
func (s *sloState) budgetBurn(opts *Options) float64 {
	if opts.SLO.MaxMissRate <= 0 || s.instances == 0 {
		return 0
	}
	return s.missRate() / opts.SLO.MaxMissRate
}

// verdicts scores the configured objectives against the current state.
func (s *sloState) verdicts(opts *Options) []Verdict {
	var out []Verdict
	if opts.SLO.MaxMissRate > 0 {
		out = append(out, Verdict{
			Name: "miss_rate", Actual: s.missRate(), Bound: opts.SLO.MaxMissRate,
			Pass: s.missRate() <= opts.SLO.MaxMissRate,
		})
	}
	if opts.SLO.MaxLatenessP95 > 0 {
		p := stats.SamplePercentiles(s.lateness.values())
		out = append(out, Verdict{
			Name: "lateness_p95", Actual: p.P95, Bound: opts.SLO.MaxLatenessP95,
			Pass: p.P95 <= opts.SLO.MaxLatenessP95,
		})
	}
	if opts.SLO.MaxMakespanP95 > 0 {
		p := stats.SamplePercentiles(s.makespan.values())
		out = append(out, Verdict{
			Name: "makespan_p95", Actual: p.P95, Bound: opts.SLO.MaxMakespanP95,
			Pass: p.P95 <= opts.SLO.MaxMakespanP95,
		})
	}
	if opts.SLO.MaxAvgEnergy > 0 && s.instances > 0 {
		avg := s.totalEnergy / float64(s.instances)
		out = append(out, Verdict{
			Name: "avg_energy", Actual: avg, Bound: opts.SLO.MaxAvgEnergy,
			Pass: avg <= opts.SLO.MaxAvgEnergy,
		})
	}
	return out
}

// Verdict is one scored SLO objective.
type Verdict struct {
	Name    string  `json:"name"`
	Actual  float64 `json:"actual"`
	Bound   float64 `json:"bound"`
	Pass    bool    `json:"pass"`
	Pending bool    `json:"pending,omitempty"`
}

// Quantiles is a rolling-window distribution summary (quantiles through
// stats.SamplePercentiles over the window).
type Quantiles struct {
	Count int     `json:"count"` // total observations (window keeps the last windowSize)
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func (w *rollWindow) quantiles() Quantiles {
	q := Quantiles{Count: w.total}
	vs := w.values()
	if len(vs) == 0 {
		return q
	}
	p := stats.SamplePercentiles(vs)
	q.P50, q.P95, q.P99 = p.P50, p.P95, p.P99
	for _, v := range vs {
		if v > q.Max {
			q.Max = v
		}
	}
	return q
}

// DriftPoint is one sampled point of the drift trajectory.
type DriftPoint struct {
	Instance int     `json:"instance"`
	Drift    float64 `json:"drift"`
}

// SLOStatus is the exported SLO-tracker summary.
type SLOStatus struct {
	Instances int     `json:"instances"`
	Misses    int     `json:"misses"`
	MissRate  float64 `json:"miss_rate"`
	Overruns  int     `json:"overruns"`

	CurStreak int `json:"cur_streak"`
	MaxStreak int `json:"max_streak"`

	Fallbacks      int `json:"fallbacks"`
	FallbacksSaved int `json:"fallbacks_saved"`
	GuardLevel     int `json:"guard_level"`
	MaxGuardLevel  int `json:"max_guard_level"`
	Reschedules    int `json:"reschedules"`
	CacheHits      int `json:"cache_hits"`

	AvgEnergy     float64 `json:"avg_energy"`
	TotalLateness float64 `json:"total_lateness"`

	Lateness Quantiles `json:"lateness"`
	Makespan Quantiles `json:"makespan"`
	Energy   Quantiles `json:"energy"`

	BudgetBurn float64   `json:"budget_burn"`
	Verdicts   []Verdict `json:"verdicts"`

	// DriftTrajectory samples the manager-reported MaxDrift over the rolling
	// window: up to 16 evenly spaced (instance, drift) points.
	DriftTrajectory []DriftPoint `json:"drift_trajectory,omitempty"`
}

func (s *sloState) snapshot(opts *Options) SLOStatus {
	st := SLOStatus{
		Instances: s.instances,
		Misses:    s.misses,
		MissRate:  s.missRate(),
		Overruns:  s.overruns,

		CurStreak: s.curStreak,
		MaxStreak: s.maxStreak,

		Fallbacks:      s.fallbacks,
		FallbacksSaved: s.fallbacksSaved,
		GuardLevel:     s.guardLevel,
		MaxGuardLevel:  s.maxGuardLevel,
		Reschedules:    s.reschedules,
		CacheHits:      s.cacheHits,

		TotalLateness: s.totalLateness,

		Lateness: s.lateness.quantiles(),
		Makespan: s.makespan.quantiles(),
		Energy:   s.energy.quantiles(),

		BudgetBurn: s.budgetBurn(opts),
	}
	if s.instances > 0 {
		st.AvgEnergy = s.totalEnergy / float64(s.instances)
	}
	st.Verdicts = s.verdicts(opts)
	if s.instances < sloWarmup {
		for i := range st.Verdicts {
			st.Verdicts[i].Pending = true
		}
	}
	// Sample the drift trajectory: at most 16 evenly spaced points of the
	// retained window, oldest to newest.
	n := len(s.driftTrace.inst)
	if n > 0 {
		step := 1
		if n > 16 {
			step = (n + 15) / 16
		}
		for i := 0; i < n; i += step {
			st.DriftTrajectory = append(st.DriftTrajectory,
				DriftPoint{Instance: s.driftTrace.inst[i], Drift: s.driftTrace.val[i]})
		}
		if (n-1)%step != 0 {
			st.DriftTrajectory = append(st.DriftTrajectory,
				DriftPoint{Instance: s.driftTrace.inst[n-1], Drift: s.driftTrace.val[n-1]})
		}
	}
	return st
}

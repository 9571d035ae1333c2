// Package health is the streaming monitoring layer of the adaptive
// framework: a set of online analyzers that subscribe to the
// internal/telemetry event stream and continuously answer the questions the
// raw stream only records — is the branch-probability estimator drifting
// away from reality, are the run's service-level objectives (deadline
// misses, lateness, energy) still inside budget, and which tasks, PEs and
// links dominate critical-path delay and energy.
//
// The entry point is the AnalyzerRecorder, a fan-in telemetry.Recorder that
// feeds every event to three analyzers:
//
//   - the estimator drift detector (drift.go) compares each fork's windowed
//     probability estimate against an EWMA of the realized branch outcomes
//     and tracks the EWMA of the absolute error;
//   - the SLO tracker (slo.go) maintains rolling lateness/makespan/energy
//     quantiles (reusing internal/stats.Histogram), a deadline-miss budget
//     burn rate, the current miss streak, and the circuit-breaker/fallback
//     counters of the recovery layer;
//   - the hotspot attributor (hotspot.go) ranks tasks, PEs and links by
//     their contribution to critical-path delay and energy across instances.
//
// Attach an AnalyzerRecorder anywhere a telemetry.Recorder goes (directly,
// or fanned in next to other sinks via telemetry.MultiRecorder); it observes
// only — the runtime's outputs are bit-for-bit identical with or without it.
// Health() snapshots the full state at any time and Snapshot.Report renders
// the deterministic diagnosis text the `ctgsched analyze` subcommand prints.
//
// The analyzer raises no alerts itself. It publishes the quantities worth
// alerting on as "adaptive.health.*" gauges (drift_err, miss_streak,
// budget_burn, pes_down); internal/series rules over those gauges
// (examples/watch/health.json) are the one alert engine, and the report
// lists the alert_firing/alert_resolved events those rules emitted.
package health

import (
	"sync"

	"ctgdvfs/internal/telemetry"
)

// Defaults for the analyzer knobs; see Options.
const (
	DefaultMaxMissRate = 0.05
	DefaultHotspots    = 5
)

// Fixed analyzer constants.
const (
	// driftAlpha is the EWMA decay used both for the realized-outcome
	// frequency tracker and for the per-fork absolute-error average.
	driftAlpha = 0.1
	// sloWarmup is the instance count below which SLO verdicts stay
	// "pending" (a single early miss should not instantly trip a miss-rate
	// objective).
	sloWarmup = 10
	// windowSize bounds the rolling-quantile windows (lateness, makespan,
	// energy, drift trajectory): the last windowSize instances.
	windowSize = 1024
	// timelineSize bounds the decision timeline (reschedules, fallbacks,
	// guard moves, rule alerts); older entries are dropped, keeping the
	// most recent.
	timelineSize = 64
)

// SLO is the service-level objective the tracker scores a run against. The
// zero value of the optional bounds disables them; MaxMissRate's zero value
// selects DefaultMaxMissRate (use a negative value to disable the miss-rate
// objective explicitly).
type SLO struct {
	// MaxMissRate is the allowed fraction of instances that miss the
	// deadline (after fallback recovery, where enabled). Zero selects
	// DefaultMaxMissRate; negative disables.
	MaxMissRate float64
	// MaxLatenessP95 bounds the rolling-window P95 lateness (0 disables).
	MaxLatenessP95 float64
	// MaxMakespanP95 bounds the rolling-window P95 makespan (0 disables).
	MaxMakespanP95 float64
	// MaxAvgEnergy bounds the running average per-instance energy
	// (0 disables).
	MaxAvgEnergy float64
}

// Options configures an AnalyzerRecorder. The zero value is a working
// configuration: every knob falls back to its Default* constant.
type Options struct {
	// SLO is the objective the tracker scores the run against.
	SLO SLO
	// Hotspots is the top-N cutoff of the snapshot's rankings.
	Hotspots int
	// Metrics, when non-nil, is the registry the analyzer publishes its
	// "adaptive.health.*" gauges to — point it at the registry a series
	// store samples so rules can alert on them; nil gives the analyzer a
	// private registry.
	Metrics *telemetry.Registry
}

func (o *Options) applyDefaults() {
	if o.SLO.MaxMissRate == 0 {
		o.SLO.MaxMissRate = DefaultMaxMissRate
	}
	if o.Hotspots <= 0 {
		o.Hotspots = DefaultHotspots
	}
}

// TimelineEntry is one decision-timeline record: a reschedule, fallback
// activation, guard-level move or rule alert, in stream order.
type TimelineEntry struct {
	Instance int    `json:"instance"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail"`
}

// healthMetrics holds the analyzer's resolved registry handles.
type healthMetrics struct {
	driftErr      *telemetry.Gauge
	missStreak    *telemetry.Gauge
	maxMissStreak *telemetry.Gauge
	budgetBurn    *telemetry.Gauge
	pesDown       *telemetry.Gauge
}

// AnalyzerRecorder is the fan-in sink of the health layer: it implements
// telemetry.Recorder, routes every event to the drift, SLO and hotspot
// analyzers, and maintains the bounded decision timeline. All methods are
// safe for concurrent use.
type AnalyzerRecorder struct {
	mu   sync.Mutex
	opts Options

	events  int
	drift   driftState
	slo     sloState
	hot     hotState
	avail   availState
	pipe    pipeState
	salerts seriesAlertState

	timeline        []TimelineEntry
	timelineDropped int

	hm healthMetrics
}

// New builds an AnalyzerRecorder; zero-value Options select the defaults.
func New(opts Options) *AnalyzerRecorder {
	opts.applyDefaults()
	a := &AnalyzerRecorder{opts: opts}
	a.slo.init()
	a.hot.init()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a.hm = healthMetrics{
		driftErr:      reg.Gauge("adaptive.health.drift_err"),
		missStreak:    reg.Gauge("adaptive.health.miss_streak"),
		maxMissStreak: reg.Gauge("adaptive.health.max_miss_streak"),
		budgetBurn:    reg.Gauge("adaptive.health.budget_burn"),
		pesDown:       reg.Gauge("adaptive.health.pes_down"),
	}
	return a
}

// Record consumes one telemetry event.
func (a *AnalyzerRecorder) Record(e telemetry.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	switch e.Kind {
	case telemetry.KindEstimate:
		a.drift.observe(a, e)
	case telemetry.KindInstanceFinish:
		a.hot.commit(e.Instance)
		a.slo.observeFinish(a, e)
	case telemetry.KindTaskSlice:
		a.hot.observeTask(e)
	case telemetry.KindCommSlice:
		a.hot.observeComm(e)
	case telemetry.KindOverrun:
		a.slo.overruns++
	case telemetry.KindReschedule:
		a.slo.observeReschedule(e)
		detail := e.Reason
		if e.CacheHit {
			detail += " (cache hit)"
		}
		a.note(e.Instance, "reschedule", detail)
	case telemetry.KindFallback:
		a.slo.observeFallback(e)
		detail := "missed again"
		if e.Met {
			detail = "met deadline"
		}
		a.note(e.Instance, "fallback", detail)
	case telemetry.KindGuardLevel:
		a.slo.observeGuard(e)
		a.note(e.Instance, "guard_level", levelMove(e.Level2, e.Level))
	case telemetry.KindPEDown, telemetry.KindPEUp,
		telemetry.KindLinkDown, telemetry.KindLinkUp, telemetry.KindRemap:
		a.avail.observe(a, e)
	case telemetry.KindTenantPanic:
		a.note(e.Instance, "tenant_panic", "contained worker panic: "+e.Reason)
	case telemetry.KindRestore:
		detail := "from latest snapshot"
		if e.Reason == "fallback" {
			detail = "from previous snapshot generation"
		}
		a.note(e.Instance, "restore", detail)
	case telemetry.KindSpan:
		a.pipe.observe(e)
	case telemetry.KindAlertFiring, telemetry.KindAlertResolved:
		a.salerts.observe(a, e)
	}
}

// note appends one timeline entry, evicting the oldest past capacity.
func (a *AnalyzerRecorder) note(instance int, kind, detail string) {
	e := TimelineEntry{Instance: instance, Kind: kind, Detail: detail}
	if len(a.timeline) == timelineSize {
		copy(a.timeline, a.timeline[1:])
		a.timeline[len(a.timeline)-1] = e
		a.timelineDropped++
		return
	}
	a.timeline = append(a.timeline, e)
}

// Health snapshots the analyzer state.
func (a *AnalyzerRecorder) Health() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Snapshot{
		Events:          a.events,
		Instances:       a.slo.instances,
		Drift:           a.drift.snapshot(),
		SLO:             a.slo.snapshot(&a.opts),
		Hotspots:        a.hot.snapshot(a.opts.Hotspots),
		Availability:    a.avail.snapshot(),
		Pipeline:        a.pipe.snapshot(),
		SeriesAlerts:    a.salerts.snapshot(),
		Timeline:        append([]TimelineEntry(nil), a.timeline...),
		TimelineDropped: a.timelineDropped,
	}
	if s.Instances == 0 {
		// Streams without instance summaries (e.g. a bare sim replay)
		// still carry per-instance slices; fall back to the hotspot
		// attributor's instance count.
		s.Instances = a.hot.instanceCount()
	}
	return s
}

// Analyze runs a recorded event stream through a fresh AnalyzerRecorder and
// returns the resulting snapshot — the offline entry point behind
// `ctgsched analyze`.
func Analyze(events []telemetry.Event, opts Options) Snapshot {
	a := New(opts)
	for _, e := range events {
		a.Record(e)
	}
	return a.Health()
}

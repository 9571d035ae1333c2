// Package health is the offline reader of a telemetry capture: it replays a
// recorded event stream (internal/telemetry, usually read back with
// telemetry.ReadJSONL) and answers the questions the raw stream only records
// — did the branch-probability estimator drift away from reality, did the
// run's service-level objectives (deadline misses, lateness, energy) stay
// inside budget, and which tasks, PEs and links dominated critical-path delay
// and energy.
//
// Analyze is the one entry point. It feeds every event to three analyzers:
//
//   - the estimator drift detector (drift.go) compares each fork's windowed
//     probability estimate against an EWMA of the realized branch outcomes
//     and tracks the EWMA of the absolute error (stats.Drift);
//   - the SLO tracker (slo.go) maintains rolling lateness/makespan/energy
//     quantiles (reusing internal/stats.Histogram), a deadline-miss budget
//     burn rate, the current miss streak, and the circuit-breaker/fallback
//     counters of the recovery layer;
//   - the hotspot attributor (hotspot.go) ranks tasks, PEs and links by
//     their contribution to critical-path delay and energy across instances.
//
// Snapshot.Report renders the deterministic diagnosis text the `ctgsched
// analyze` subcommand prints.
//
// The package raises no alerts and publishes no metrics. The adaptive
// manager publishes the live health quantities itself, as the
// "adaptive.health.*" gauges (drift_err, miss_streak, max_miss_streak,
// pes_down), computed with the same arithmetic this package replays;
// internal/series rules over those gauges (examples/watch/health.json) are
// the one alert engine, and the report lists the alert_firing/alert_resolved
// events those rules emitted.
package health

import "ctgdvfs/internal/telemetry"

// Defaults for the analyzer knobs; see Options.
const (
	DefaultMaxMissRate = 0.05
	DefaultHotspots    = 5
)

// Fixed analyzer constants.
const (
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

// Options configures Analyze. The zero value is a working configuration:
// every knob falls back to its Default* constant.
type Options struct {
	// SLO is the objective the tracker scores the run against.
	SLO SLO
	// Hotspots is the top-N cutoff of the snapshot's rankings.
	Hotspots int
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

// analyzer routes every event of a stream to the drift, SLO, hotspot,
// availability, pipeline and rule-alert trackers, and maintains the bounded
// decision timeline.
type analyzer struct {
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
}

// record consumes one telemetry event.
func (a *analyzer) record(e telemetry.Event) {
	a.events++
	switch e.Kind {
	case telemetry.KindEstimate:
		a.drift.observe(e)
	case telemetry.KindInstanceFinish:
		a.hot.commit(e.Instance)
		a.slo.observeFinish(e)
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
func (a *analyzer) note(instance int, kind, detail string) {
	e := TimelineEntry{Instance: instance, Kind: kind, Detail: detail}
	if len(a.timeline) == timelineSize {
		copy(a.timeline, a.timeline[1:])
		a.timeline[len(a.timeline)-1] = e
		a.timelineDropped++
		return
	}
	a.timeline = append(a.timeline, e)
}

// snapshot summarizes the analyzer state.
func (a *analyzer) snapshot() Snapshot {
	s := Snapshot{
		Events:          a.events,
		Instances:       a.slo.instances,
		Drift:           a.drift.snapshot(),
		SLO:             a.slo.snapshot(&a.opts),
		Hotspots:        a.hot.snapshot(a.opts.Hotspots),
		Availability:    a.avail.snapshot(),
		Pipeline:        a.pipe.snapshot(),
		SeriesAlerts:    a.salerts.snapshot(),
		Timeline:        a.timeline,
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

// Analyze runs a recorded event stream through fresh analyzers and returns
// the resulting snapshot — the entry point behind `ctgsched analyze`.
// Zero-value Options select the defaults.
func Analyze(events []telemetry.Event, opts Options) Snapshot {
	opts.applyDefaults()
	a := &analyzer{opts: opts}
	a.slo.init()
	a.hot.init()
	for _, e := range events {
		a.record(e)
	}
	return a.snapshot()
}

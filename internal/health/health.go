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
//     and alerts when the error EWMA crosses a threshold;
//   - the SLO tracker (slo.go) maintains rolling lateness/makespan/energy
//     quantiles (reusing internal/stats.Histogram), a deadline-miss budget
//     burn rate, miss-streak detection, and the circuit-breaker/fallback
//     counters of the recovery layer;
//   - the hotspot attributor (hotspot.go) ranks tasks, PEs and links by
//     their contribution to critical-path delay and energy across instances.
//
// Attach an AnalyzerRecorder anywhere a telemetry.Recorder goes (directly,
// or fanned in next to other sinks via telemetry.MultiRecorder); it observes
// only — the runtime's outputs are bit-for-bit identical with or without it.
// Health() snapshots the full state at any time (also exposed as JSON over
// HTTP via ServeHTTP), Snapshot.Report renders the deterministic diagnosis
// text the `ctgsched analyze` subcommand prints, and alerts are emitted as
// typed telemetry.KindHealthAlert events into an optional sink plus
// mirrored into "adaptive.health.*" metrics.
package health

import (
	"encoding/json"
	"net/http"
	"sync"

	"ctgdvfs/internal/telemetry"
)

// Defaults for the analyzer knobs; see Options.
const (
	DefaultDriftAlpha     = 0.1
	DefaultDriftThreshold = 0.2
	DefaultMissStreak     = 3
	DefaultMaxMissRate    = 0.05
	DefaultWindowSize     = 1024
	DefaultHotspots       = 5
	DefaultTimeline       = 64
	DefaultSLOWarmup      = 10
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
	// DriftAlpha is the EWMA decay used both for the realized-outcome
	// frequency tracker and for the per-fork absolute-error average.
	DriftAlpha float64
	// DriftThreshold is the per-fork error-EWMA level that raises a drift
	// alert. The alert latches: it re-arms only after the error falls back
	// below half the threshold (hysteresis against flapping).
	DriftThreshold float64
	// MissStreak raises an alert after this many consecutive missed
	// instances.
	MissStreak int
	// SLO is the objective the tracker scores the run against.
	SLO SLO
	// SLOWarmup is the instance count below which SLO verdicts stay
	// "pending" (a single early miss should not instantly trip a
	// miss-rate objective). Zero selects DefaultSLOWarmup.
	SLOWarmup int
	// WindowSize bounds the rolling-quantile windows (lateness, makespan,
	// energy, drift trajectory): the last WindowSize instances.
	WindowSize int
	// Hotspots is the top-N cutoff of the snapshot's rankings.
	Hotspots int
	// Timeline bounds the decision timeline (reschedules, fallbacks, guard
	// moves, alerts); older entries are dropped, keeping the most recent.
	Timeline int

	// Alerts, when non-nil, receives one telemetry.KindHealthAlert event
	// per raised alert — fan it into the same sink as the primary stream to
	// interleave alerts with the events that caused them.
	Alerts telemetry.Recorder
	// Metrics, when non-nil, is the registry the analyzer publishes its
	// "adaptive.health.*" gauges and counters to; nil gives the analyzer a
	// private registry, exposed via AnalyzerRecorder.Metrics.
	Metrics *telemetry.Registry
}

func (o *Options) applyDefaults() {
	if o.DriftAlpha <= 0 || o.DriftAlpha > 1 {
		o.DriftAlpha = DefaultDriftAlpha
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = DefaultDriftThreshold
	}
	if o.MissStreak <= 0 {
		o.MissStreak = DefaultMissStreak
	}
	if o.SLO.MaxMissRate == 0 {
		o.SLO.MaxMissRate = DefaultMaxMissRate
	}
	if o.SLOWarmup <= 0 {
		o.SLOWarmup = DefaultSLOWarmup
	}
	if o.WindowSize <= 0 {
		o.WindowSize = DefaultWindowSize
	}
	if o.Hotspots <= 0 {
		o.Hotspots = DefaultHotspots
	}
	if o.Timeline <= 0 {
		o.Timeline = DefaultTimeline
	}
}

// Alert is one raised health alert.
type Alert struct {
	// Type is "drift", "miss_streak" or "slo".
	Type string `json:"type"`
	// Instance is the instance id of the event that raised the alert.
	Instance int `json:"instance"`
	// Fork is the fork index of a drift alert (-1 otherwise).
	Fork int `json:"fork"`
	// Name is the SLO verdict name of an "slo" alert.
	Name string `json:"name,omitempty"`
	// Value is the observed value that crossed Threshold.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Message is the rendered one-line description.
	Message string `json:"message"`
}

// TimelineEntry is one decision-timeline record: a reschedule, fallback
// activation, guard-level move or alert, in stream order.
type TimelineEntry struct {
	Instance int    `json:"instance"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail"`
}

// healthMetrics holds the analyzer's resolved registry handles.
type healthMetrics struct {
	driftErr      *telemetry.Gauge
	driftAlerts   *telemetry.Counter
	missStreak    *telemetry.Gauge
	maxMissStreak *telemetry.Gauge
	budgetBurn    *telemetry.Gauge
	sloBreaches   *telemetry.Counter
	alerts        *telemetry.Counter
}

// AnalyzerRecorder is the fan-in sink of the health layer: it implements
// telemetry.Recorder, routes every event to the drift, SLO and hotspot
// analyzers, and maintains the bounded alert list and decision timeline.
// All methods are safe for concurrent use.
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
	alerts          []Alert
	alertsTotal     int

	metrics *telemetry.Registry
	hm      healthMetrics
}

// New builds an AnalyzerRecorder; zero-value Options select the defaults.
func New(opts Options) *AnalyzerRecorder {
	opts.applyDefaults()
	a := &AnalyzerRecorder{opts: opts}
	a.slo.init(&opts)
	a.hot.init()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a.metrics = reg
	a.hm = healthMetrics{
		driftErr:      reg.Gauge("adaptive.health.drift_err"),
		driftAlerts:   reg.Counter("adaptive.health.drift_alerts"),
		missStreak:    reg.Gauge("adaptive.health.miss_streak"),
		maxMissStreak: reg.Gauge("adaptive.health.max_miss_streak"),
		budgetBurn:    reg.Gauge("adaptive.health.budget_burn"),
		sloBreaches:   reg.Counter("adaptive.health.slo_breaches"),
		alerts:        reg.Counter("adaptive.health.alerts"),
	}
	return a
}

// Metrics returns the registry the analyzer publishes to — the one passed
// via Options.Metrics, or the private default. Never nil.
func (a *AnalyzerRecorder) Metrics() *telemetry.Registry { return a.metrics }

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
	case telemetry.KindTenantRestart:
		a.note(e.Instance, "tenant_restart", e.Reason)
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
	if len(a.timeline) == a.opts.Timeline {
		copy(a.timeline, a.timeline[1:])
		a.timeline[len(a.timeline)-1] = e
		a.timelineDropped++
		return
	}
	a.timeline = append(a.timeline, e)
}

// raise records one alert: bounded buffer, counter, metrics mirror, and the
// optional typed event into the alert sink. Called with the mutex held.
func (a *AnalyzerRecorder) raise(al Alert) {
	a.alertsTotal++
	a.hm.alerts.Inc()
	if len(a.alerts) == a.opts.Timeline {
		copy(a.alerts, a.alerts[1:])
		a.alerts[len(a.alerts)-1] = al
	} else {
		a.alerts = append(a.alerts, al)
	}
	a.note(al.Instance, "alert", al.Message)
	if a.opts.Alerts != nil {
		a.opts.Alerts.Record(telemetry.Event{
			Kind:      telemetry.KindHealthAlert,
			Instance:  al.Instance,
			Fork:      al.Fork,
			Reason:    al.Type,
			Name:      al.Name,
			Value:     al.Value,
			Threshold: al.Threshold,
		})
	}
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
		Alerts:          append([]Alert(nil), a.alerts...),
		AlertsTotal:     a.alertsTotal,
	}
	if s.Instances == 0 {
		// Streams without instance summaries (e.g. converted Chrome traces)
		// still carry per-instance slices; fall back to the hotspot
		// attributor's instance count.
		s.Instances = a.hot.instanceCount()
	}
	return s
}

// ServeHTTP writes the Health snapshot as indented JSON — mount the analyzer
// on a mux (e.g. at /health) next to the metrics registry.
func (a *AnalyzerRecorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a.Health()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
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

package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/stats"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/telemetry"
)

// Circuit-breaker constants: the miss-rate window and the windowed miss-rate
// bound above which the guard band escalates.
const (
	DefaultMissWindow    = 50
	DefaultMissRateBound = 0.1
	// maxGuardLevel caps the circuit breaker's escalation; at level k the
	// effective guard is 1 − (1 − base)/2^k, so level 6 already reserves
	// over 98% of the slack.
	maxGuardLevel = 6
)

// Options configures the adaptive framework.
type Options struct {
	// Window is the sliding-window length L. The zero value selects
	// DefaultWindow; to pass a literal value — including an invalid zero,
	// which New rejects explicitly — use SetWindow.
	Window int
	// Threshold is the drift threshold T. The zero value selects
	// DefaultThreshold; a genuine T = 0 (any observed drift triggers
	// re-scheduling, i.e. re-schedule on every instance) is therefore not
	// expressible by assignment — use SetThreshold(0).
	Threshold float64
	// DVFS is the speed-scaling model (default continuous).
	DVFS platform.DVFS
	// PerScenario replaces the paper's single-speed stretching with the
	// scenario-conditioned extension (stretch.PerScenario): every
	// re-schedule computes a speed table indexed by leaf scenario, and
	// replay dispatches each task at the speed of its realized knowledge
	// class. Strictly more energy-efficient at the cost of a
	// scenarios × tasks table per schedule.
	PerScenario bool
	// CacheSize bounds the memoized schedule cache (in schedules). The
	// zero value selects DefaultCacheSize; negative disables caching.
	// Cached schedules are exact: a hit returns bit-for-bit what
	// re-running DLS + stretching would produce, so caching never changes
	// energies or call counts — only the per-decision overhead.
	CacheSize int

	// WarmStart enables incremental rescheduling: when a drift-triggered
	// reschedule changes only a few forks' probabilities, the incumbent
	// task→PE mapping and ordering are kept and only the affected sub-DAG's
	// speeds are recomputed (stretch.Heuristic over an affected mask),
	// falling back to the full DLS + stretch pipeline when the diff is too
	// large (more than DefaultWarmMaxForks forks, or more than
	// DefaultWarmMaxAffected of the tasks) or the warm result fails
	// validation. Warm results stay within the incumbent's deadline
	// guarantee unconditionally; their speeds approximate (to first order)
	// what a full recompute would assign. See internal/core warmstart.go and
	// DESIGN.md.
	WarmStart bool

	// GuardBand ∈ [0,1] reserves that fraction of every task's slack as
	// overrun margin during stretching (stretch.Options.Guard and the guard
	// argument of stretch.PerScenario). Zero reproduces the paper's
	// stretching exactly.
	GuardBand float64
	// Faults, when non-nil, perturbs the replay of every Step with the
	// plan's execution-time factors; the fault-instance cursor advances
	// once per processed instance, so a run over N vectors consumes plan
	// instances 0..N−1 deterministically.
	Faults *faults.Plan
	// Failures, when non-nil, subjects the hardware itself to the
	// timeline's availability faults: at every instance boundary the
	// manager compares the timeline's mask against the one in force, and on
	// any change re-maps the workload onto the survivor set (restricting
	// the platform, rebuilding the full-speed fallback, and re-running the
	// online algorithm under a mask-qualified cache key). When a transient
	// outage heals, the healthy mask keys back to the pre-failure cache
	// entries, so restoration is a cache hit. Failures requires Recovery: a
	// degraded schedule that cannot meet the deadline escalates to the
	// full-speed fallback built for the same survivor set.
	Failures *faults.Timeline
	// Recovery enables the fault-tolerance layer: a precomputed full-speed
	// worst-case fallback schedule (an instance whose primary replay
	// misses the deadline is re-run on it), plus a miss-rate circuit
	// breaker — when more than DefaultMissRateBound of the last
	// DefaultMissWindow instances missed on the primary schedule, the guard
	// band escalates (halving the remaining unguarded slack per level); when
	// the windowed rate falls to DefaultMissRateBound/2 it relaxes one level.
	Recovery bool

	// Recorder, when non-nil, receives the runtime's structured telemetry
	// stream: instance start/finish, per-task and per-transfer slices (via
	// the simulator), per-fork window estimates, re-scheduling decisions
	// with cache outcome, stretch-pass summaries, fault overruns, fallback
	// activations and circuit-breaker level changes. Nil (the default)
	// disables the stream entirely: every emission site is nil-guarded
	// before any event is built, so the disabled path adds one branch and
	// zero allocations and the runtime's outputs are bit-for-bit identical
	// to a recorder-free build.
	Recorder telemetry.Recorder
	// Metrics, when non-nil, is the registry the manager publishes its
	// counters, gauges and latency/makespan histograms to (metric names
	// are prefixed "adaptive."); nil gives the manager a private registry,
	// exposed via Manager.Metrics. Sharing one registry across managers
	// aggregates their counters (the campaign-wide view); each manager's
	// RunStats remain per-manager either way.
	Metrics *telemetry.Registry
	// Sequencer, when non-nil, is the id source stamped onto every emitted
	// event (Event.Seq) so later events can reference earlier ones as their
	// Cause. Nil gives the manager a private sequencer whenever a Recorder
	// is attached. Share one across producers writing to one stream so ids
	// stay unique in the merged stream.
	Sequencer *telemetry.Sequencer
	// Series, when non-nil, is ticked once per processed instance after the
	// instance_finish event, sampling the manager's metrics registry into
	// fixed-capacity time series (internal/series) on the deterministic
	// sim-time axis (the instance index). The tick's cause is the
	// instance_finish seq, so alert firings chain back to the instance that
	// tripped them. Point the store at the same registry as Metrics — or, in
	// parallel campaigns, at a mirror of the shared registry
	// (telemetry.NewMirrorRegistry) so sampling stays deterministic. Nil
	// (the default) disables sampling at the cost of one branch.
	Series *series.Store

	// thresholdSet / windowSet record explicit SetThreshold / SetWindow
	// calls, so literal zeros are distinguishable from unset fields.
	thresholdSet bool
	windowSet    bool
}

// SetThreshold sets the drift threshold to a literal value, including a
// genuine T = 0 — the "always re-schedule" configuration the zero-as-default
// convention cannot express.
func (o *Options) SetThreshold(t float64) {
	o.Threshold = t
	o.thresholdSet = true
}

// SetWindow sets the sliding-window length to a literal value. Unlike plain
// assignment, an explicit 0 is passed through to validation (and rejected)
// instead of being silently replaced by the default.
func (o *Options) SetWindow(w int) {
	o.Window = w
	o.windowSet = true
}

func (o *Options) applyDefaults() {
	if o.Window == 0 && !o.windowSet {
		o.Window = DefaultWindow
	}
	if o.Threshold == 0 && !o.thresholdSet {
		o.Threshold = DefaultThreshold
	}
	if o.CacheSize == 0 {
		o.CacheSize = DefaultCacheSize
	}
}

// Manager is the runtime of the adaptive framework: it owns the current
// schedule, replays incoming CTG instances against it, feeds the observed
// branch decisions to the profiler, and re-runs the online algorithm
// whenever the probability estimates drift past the threshold.
type Manager struct {
	opts Options

	g *ctg.Graph // current probability estimates live here
	a *ctg.Analysis
	p *platform.Platform

	profiler *Profiler
	schedule *sched.Schedule
	// speeds is the scenario-conditioned table when opts.PerScenario is
	// set; nil otherwise.
	speeds *stretch.ScenarioSpeeds
	// cache memoizes (mapping, order, speeds) by exact probability state;
	// nil when disabled.
	cache *scheduleCache

	calls     int // re-scheduling invocations (the paper's "# of calls")
	instances int // processed instances; doubles as the telemetry instance id

	// Warm-start state (see warmstart.go) plus the reusable hot-path
	// buffers of the reschedule pipeline: the DLS workspace, a mapping
	// generation counter (bumped whenever the adopted schedule may carry a
	// different mapping — full recomputes and cache hits — so the stretch
	// workspace knows when to rebind), and a probability scratch slice for
	// the drift-update loop.
	warm     warmState
	mapGen   int
	dlsWS    *sched.Workspace
	probsBuf []float64

	// cancel is the cooperative-cancellation hook of the in-flight StepCtx
	// call (nil outside one): the reschedule pipeline threads it into the
	// DLS placement loop and the stretching passes, so a request whose
	// context expires aborts mid-pipeline instead of running to completion.
	// The incumbent schedule is only replaced at pipeline end, so a
	// cancelled reschedule never leaves a partial schedule behind — but the
	// estimator state observed this step's decisions before the pipeline
	// ran, so a cancelled Step leaves the manager mid-instance (instances is
	// not advanced). Callers that need replay determinism after a
	// cancellation rebuild the manager from their decision log (the serve
	// layer does exactly that).
	cancel func() error

	// Telemetry (inert unless Options.Recorder / Metrics set — rec nil
	// means no events; metrics always points at a registry, private by
	// default). The manager's logic state lives in the plain fields above
	// and is mirrored into the registry handles, never read back from
	// them: a registry shared across managers aggregates, and must not be
	// able to corrupt any single manager's RunStats.
	rec     telemetry.Recorder
	metrics *telemetry.Registry
	mm      managerMetrics
	// missesTotal is this manager's own deadline-miss count, backing the
	// adaptive.miss_rate gauge (the registry's miss counter may aggregate
	// several managers and cannot be read back — see the comment above).
	missesTotal int

	// Provenance state (live only while rec != nil): the sequencer stamping
	// event ids, the seq of the current instance's instance_start, the
	// trigger seq the in-flight reschedule pipeline chains its decision
	// events to, and the per-fork seqs of this step's window-estimate events
	// (so a drift-triggered reschedule can name the estimate that crossed the
	// threshold).
	seq      *telemetry.Sequencer
	startSeq uint64
	causeSeq uint64
	estSeqs  []uint64

	// Fault-tolerance state (inert unless Options.Recovery / Faults set).
	fallback      *sched.Schedule // precomputed full-speed worst-case schedule
	faultInstance int             // fault-plan cursor, advanced once per Step
	guardLevel    int             // circuit-breaker escalation level
	maxLevelSeen  int
	missRing      []bool // last DefaultMissWindow primary-schedule outcomes
	missCursor    int
	missFill      int
	missCount     int
	activations   int // fallback replays
	missesAvoided int // fallback replays that met the deadline

	// Availability state (inert unless Options.Failures set).
	base *platform.Platform // the full, unrestricted platform
	// healthyFallback preserves the full-topology fallback so recovering
	// from a transient outage never recomputes it.
	healthyFallback *sched.Schedule
	mask            platform.Mask // availability mask in force (zero = healthy)
	degraded        bool          // mask hides something
	remaps          int           // availability-driven re-mapping decisions
	degradedInsts   int           // instances executed under a degraded mask
	topoMisses      int           // final misses on degraded instances
}

// managerMetrics holds the manager's resolved registry handles so the hot
// path never touches the registry's name maps.
type managerMetrics struct {
	instances, misses, overruns   *telemetry.Counter
	calls, cacheHits, cacheMisses *telemetry.Counter
	fallbacks, missesAvoided      *telemetry.Counter
	warmStarts, warmFallbacks     *telemetry.Counter
	guardLevel, maxGuardLevel     *telemetry.Gauge
	drift                         *telemetry.Gauge
	missRate, missRateWindow      *telemetry.Gauge
	lateness, makespan            *telemetry.HistogramMetric
	pipeDiff, pipeDLS             *telemetry.HistogramMetric
	pipeStretch, pipeValidate     *telemetry.HistogramMetric
}

// spanHiUS is the upper bound of the pipeline-span histograms in
// microseconds; phases beyond it clamp into the last bucket (the histogram's
// exact max still records them).
const spanHiUS = 50_000

// resolveMetrics binds the manager's metric handles in reg under the
// "adaptive." prefix. Histogram ranges are deadline-relative: lateness can
// only fall in [0, deadline]-ish territory (clamping catches pathological
// overshoots) and makespans beyond twice the deadline carry no extra
// information.
func (m *Manager) resolveMetrics(reg *telemetry.Registry) {
	hi := m.g.Deadline()
	if !(hi > 0) {
		hi = 1
	}
	m.metrics = reg
	m.mm = managerMetrics{
		instances:      reg.Counter("adaptive.instances"),
		misses:         reg.Counter("adaptive.misses"),
		overruns:       reg.Counter("adaptive.overruns"),
		calls:          reg.Counter("adaptive.calls"),
		cacheHits:      reg.Counter("adaptive.cache_hits"),
		cacheMisses:    reg.Counter("adaptive.cache_misses"),
		fallbacks:      reg.Counter("adaptive.fallback_activations"),
		missesAvoided:  reg.Counter("adaptive.misses_avoided"),
		warmStarts:     reg.Counter("adaptive.warm_starts"),
		warmFallbacks:  reg.Counter("adaptive.warm_fallbacks"),
		guardLevel:     reg.Gauge("adaptive.guard_level"),
		maxGuardLevel:  reg.Gauge("adaptive.max_guard_level"),
		drift:          reg.Gauge("adaptive.drift"),
		missRate:       reg.Gauge("adaptive.miss_rate"),
		missRateWindow: reg.Gauge("adaptive.miss_rate_window"),
		lateness:       reg.Histogram("adaptive.lateness", 0, hi, 64),
		makespan:       reg.Histogram("adaptive.makespan", 0, 2*hi, 64),
		pipeDiff:       reg.Histogram("adaptive.pipeline_diff_us", 0, spanHiUS, 64),
		pipeDLS:        reg.Histogram("adaptive.pipeline_dls_us", 0, spanHiUS, 64),
		pipeStretch:    reg.Histogram("adaptive.pipeline_stretch_us", 0, spanHiUS, 64),
		pipeValidate:   reg.Histogram("adaptive.pipeline_validate_us", 0, spanHiUS, 64),
	}
}

// StepResult reports one processed CTG instance.
type StepResult struct {
	// Instance is the execution that counts: the primary replay, or — when
	// FallbackUsed — the full-speed fallback re-run.
	Instance    sim.Instance
	Rescheduled bool
	// Drift is the profiler drift measured after observing this
	// instance's branch decisions.
	Drift float64

	// FallbackUsed reports that the primary replay missed the deadline and
	// the instance was re-run on the worst-case fallback schedule; Primary
	// then keeps the failed primary replay.
	FallbackUsed bool
	Primary      sim.Instance
	// GuardLevel is the circuit breaker's escalation level after this
	// step (0 = base guard band).
	GuardLevel int
	// Degraded reports that the instance executed under an availability
	// mask hiding part of the topology (Failures mode); Remapped reports
	// that the mask changed at this instance's boundary and the workload
	// was re-mapped.
	Degraded bool
	Remapped bool
}

// RunStats aggregates a sequence of instances.
type RunStats struct {
	Instances   int
	TotalEnergy float64
	// AvgEnergy is TotalEnergy / Instances.
	AvgEnergy   float64
	AvgMakespan float64
	Misses      int
	// Calls counts online re-scheduling invocations (adaptive runs only).
	Calls int
	// CacheHits/CacheMisses report how many of those invocations (plus the
	// initial schedule) were served from the memoized schedule cache
	// versus computed fresh. Zero when caching is disabled.
	CacheHits, CacheMisses int
	// WarmStarts counts reschedules served incrementally from the incumbent
	// schedule (Options.WarmStart); WarmFallbacks counts eligible warm
	// attempts that fell back to a full recompute (diff too large, or the
	// warm result failed validation). Both zero when warm-starting is off.
	WarmStarts, WarmFallbacks int

	// FallbackActivations counts instances re-run on the full-speed
	// fallback schedule after a primary-schedule miss (Recovery mode).
	FallbackActivations int
	// MissesAvoided counts fallback activations whose re-run met the
	// deadline — misses the unguarded runtime would have taken.
	MissesAvoided int
	// TotalLateness sums the final deadline overshoot across instances
	// (after fallback, where enabled).
	TotalLateness float64
	// Overruns totals fault-plan perturbed task executions.
	Overruns int
	// MaxGuardLevel is the highest circuit-breaker escalation level the
	// run reached.
	MaxGuardLevel int

	// DegradedInstances counts instances executed with part of the topology
	// masked out (Failures mode); Remaps counts availability-driven
	// re-mapping decisions (both degradations and restorations);
	// TopologyMisses counts final deadline misses on degraded instances —
	// the misses attributable to running on a diminished survivor set.
	DegradedInstances int
	Remaps            int
	TopologyMisses    int

	// LatenessP50/P95/P99 and MakespanP50/P95/P99 are percentile summaries
	// of the per-instance final lateness and makespan distributions
	// (stats.SamplePercentiles — interpolated within 1/256 of the observed
	// range). All zero on an empty run.
	LatenessP50, LatenessP95, LatenessP99 float64
	MakespanP50, MakespanP95, MakespanP99 float64
}

// runAgg accumulates RunStats over a replayed instance sequence. Run and
// RunStatic share it so the adaptive and static runtimes aggregate — and
// round — identically. The plain-sum fields are updated in the same order the
// pre-telemetry runtime used, keeping accumulated floats bit-for-bit.
type runAgg struct {
	st       RunStats
	lateness []float64
	makespan []float64
}

func (a *runAgg) add(inst sim.Instance) {
	a.st.Instances++
	a.st.TotalEnergy += inst.Energy
	a.st.AvgMakespan += inst.Makespan
	if !inst.DeadlineMet {
		a.st.Misses++
	}
	a.st.TotalLateness += inst.Lateness
	a.st.Overruns += inst.Overruns
	a.lateness = append(a.lateness, inst.Lateness)
	a.makespan = append(a.makespan, inst.Makespan)
}

// finish computes the averages and percentile summaries.
func (a *runAgg) finish() RunStats {
	st := a.st
	if st.Instances > 0 {
		st.AvgEnergy = st.TotalEnergy / float64(st.Instances)
		st.AvgMakespan /= float64(st.Instances)
	}
	lp := stats.SamplePercentiles(a.lateness)
	mp := stats.SamplePercentiles(a.makespan)
	st.LatenessP50, st.LatenessP95, st.LatenessP99 = lp.P50, lp.P95, lp.P99
	st.MakespanP50, st.MakespanP95, st.MakespanP99 = mp.P50, mp.P95, mp.P99
	return st
}

// New builds an adaptive manager. The graph's current branch probabilities
// act as the initial profile; the initial schedule is built from them. The
// graph is cloned, so the caller's instance is never mutated.
func New(g *ctg.Graph, p *platform.Platform, opts Options) (*Manager, error) {
	opts.applyDefaults()
	if opts.Threshold < 0 || opts.Threshold > 1 {
		return nil, fmt.Errorf("core: threshold must be in [0,1], got %v", opts.Threshold)
	}
	if math.IsNaN(opts.GuardBand) || opts.GuardBand < 0 || opts.GuardBand > 1 {
		return nil, fmt.Errorf("core: guard band must be in [0,1], got %v", opts.GuardBand)
	}
	if opts.Failures != nil {
		if !opts.Recovery {
			// A degraded schedule needs somewhere to escalate: availability
			// faults run on the recovery machinery.
			return nil, fmt.Errorf("core: a failure timeline requires Recovery")
		}
		if opts.Failures.NumPEs() != p.NumPEs() {
			return nil, fmt.Errorf("core: failure timeline sized for %d PEs, platform has %d",
				opts.Failures.NumPEs(), p.NumPEs())
		}
		if p.Restricted() {
			// A timeline's masks replace the platform's availability state
			// wholesale, which would silently resurrect the masked-out part
			// of a pre-restricted base.
			return nil, fmt.Errorf("core: a failure timeline requires an unrestricted base platform")
		}
	}
	m := &Manager{opts: opts, g: g.Clone(), p: p, base: p}
	if opts.Failures != nil {
		// The timeline may already be degraded at instance 0: the initial
		// schedule must target the survivor set, not hardware that was never
		// there. No remap is recorded — there is no earlier schedule to move
		// away from — but the PE/link loss events are emitted so the stream
		// explains why the first schedule avoids part of the topology.
		mask0 := opts.Failures.MaskAt(0)
		if !mask0.IsFull() {
			rp, err := p.Restrict(mask0)
			if err != nil {
				return nil, fmt.Errorf("core: initial availability mask: %w", err)
			}
			m.p = rp
			m.mask = mask0
			m.degraded = true
		}
	}
	if opts.CacheSize > 0 {
		m.cache = newScheduleCache(opts.CacheSize)
	}
	m.rec = opts.Recorder
	if m.rec != nil {
		m.seq = opts.Sequencer
		if m.seq == nil {
			m.seq = telemetry.NewSequencer()
		}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m.resolveMetrics(reg)
	a, err := ctg.Analyze(m.g)
	if err != nil {
		return nil, err
	}
	m.a = a
	m.profiler, err = NewProfiler(m.g, opts.Window)
	if err != nil {
		return nil, err
	}
	m.initWarm()
	m.dlsWS = sched.NewWorkspace()
	if opts.Recovery {
		// The worst-case fallback: plain full-speed DLS, never stretched,
		// built once and bypassing the probability-keyed cache entirely (it
		// is probability-independent by construction — every task runs at
		// speed 1 — so caching it under a probability key would be both
		// wrong and polluting).
		fb, err := sched.DLS(m.a, m.p, sched.Modified())
		if err != nil {
			return nil, err
		}
		m.fallback = fb
		if !m.degraded {
			m.healthyFallback = fb
		}
		m.missRing = make([]bool, DefaultMissWindow)
	}
	if m.degraded {
		// The initial schedule's shape is explained by the already-degraded
		// topology: chain it to the last loss event.
		m.causeSeq = m.emitMaskDiff(platform.Mask{}, m.mask, 0)
	}
	if err := m.reschedule("initial"); err != nil {
		return nil, err
	}
	m.calls = 0 // the initial schedule does not count as an adaptive call
	m.mm.calls.Add(-1)
	return m, nil
}

// effectiveGuard is the guard band after circuit-breaker escalation: level k
// halves the unguarded slack fraction k times, 1 − (1 − base)/2^k.
func (m *Manager) effectiveGuard() float64 {
	g := m.opts.GuardBand
	if m.guardLevel > 0 {
		g = 1 - (1-g)/float64(uint64(1)<<uint(m.guardLevel))
	}
	if g > 1 {
		g = 1
	}
	return g
}

// emit stamps the event with the next sequence id and records it, returning
// the id so the event can be named as the Cause of its effects. Callers must
// have checked m.rec != nil (the provenance state only exists then).
func (m *Manager) emit(ev telemetry.Event) uint64 {
	ev.Seq = m.seq.Next()
	m.rec.Record(ev)
	return ev.Seq
}

// span closes one timed reschedule phase: the wall time since start goes into
// the phase's histogram and, when a recorder is listening, out as a
// pipeline_span event chained to the pipeline's trigger. Phases: "diff" (the
// warm path's fork diff + affected-set marking), "dls" (the full path's
// mapping/ordering run), "stretch" (slack distribution, full or partial),
// "validate" (the warm result's deadline + consistency checks).
func (m *Manager) span(phase string, h *telemetry.HistogramMetric, start time.Time) {
	us := float64(time.Since(start)) / float64(time.Microsecond)
	h.Observe(us)
	if m.rec != nil {
		m.emit(telemetry.Event{
			Kind: telemetry.KindSpan, Instance: m.instances,
			Name: phase, Value: us, Cause: m.causeSeq,
		})
	}
}

// GuardLevel returns the circuit breaker's current escalation level.
func (m *Manager) GuardLevel() int { return m.guardLevel }

// Degraded reports whether part of the topology is currently masked out.
func (m *Manager) Degraded() bool { return m.degraded }

// AvailabilityMask returns the availability mask currently in force (the
// zero mask — everything available — unless Failures is configured and the
// timeline has degraded the topology).
func (m *Manager) AvailabilityMask() platform.Mask { return m.mask }

// emitMaskDiff records the PE and link transitions between two availability
// masks, returning the last emitted event's seq (0 when no recorder or no
// transition) so the remap/reschedule that follows can chain to it. The
// events have no in-stream cause — the hardware failed on its own. PE deaths
// carry the timeline's permanence verdict; link events are reported only for
// links whose endpoints are alive under both masks, so a PE death is one
// pe_down event rather than a storm of implied link losses.
func (m *Manager) emitMaskDiff(old, cur platform.Mask, instance int) uint64 {
	if m.rec == nil {
		return 0
	}
	var last uint64
	n := m.base.NumPEs()
	alive := cur.NumAlive(n)
	for pe := 0; pe < n; pe++ {
		was, is := old.PEAlive(pe), cur.PEAlive(pe)
		switch {
		case was && !is:
			reason := "transient"
			if m.opts.Failures != nil && m.opts.Failures.PermanentlyDead(instance, pe) {
				reason = "permanent"
			}
			last = m.emit(telemetry.Event{
				Kind: telemetry.KindPEDown, Instance: instance,
				PE: pe, Reason: reason, Alive: alive,
			})
		case !was && is:
			last = m.emit(telemetry.Event{
				Kind: telemetry.KindPEUp, Instance: instance, PE: pe, Alive: alive,
			})
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !old.PEAlive(i) || !old.PEAlive(j) || !cur.PEAlive(i) || !cur.PEAlive(j) {
				continue
			}
			was, is := old.LinkUp(i, j), cur.LinkUp(i, j)
			switch {
			case was && !is:
				last = m.emit(telemetry.Event{
					Kind: telemetry.KindLinkDown, Instance: instance, PE: i, PE2: j,
				})
			case !was && is:
				last = m.emit(telemetry.Event{
					Kind: telemetry.KindLinkUp, Instance: instance, PE: i, PE2: j,
				})
			}
		}
	}
	return last
}

// applyTopology re-maps the runtime onto a changed survivor set: restrict
// the platform to the new mask, rebuild the full-speed fallback for the same
// survivors (reusing the preserved healthy fallback when the full topology
// returns), and re-run the online algorithm under the mask-qualified cache
// key. An infeasible mask (or an unroutable degraded topology, surfaced as
// sched.InfeasibleError) propagates as an error: the workload cannot run on
// what remains.
func (m *Manager) applyTopology(cur platform.Mask, instance int) error {
	old := m.mask
	// The remap and the topology reschedule below both chain to the last
	// hardware transition.
	topoSeq := m.emitMaskDiff(old, cur, instance)
	rp, err := m.base.Restrict(cur)
	if err != nil {
		return fmt.Errorf("core: instance %d availability mask: %w", instance, err)
	}
	m.p = rp
	m.mask = cur
	m.degraded = !cur.IsFull()
	if m.opts.Recovery {
		// Only the recovery machinery keeps a fallback; rebuilding one for a
		// manager that never had it would silently enable fallback replays.
		if m.degraded || m.healthyFallback == nil {
			fb, err := sched.DLS(m.a, m.p, sched.Modified())
			if err != nil {
				return err
			}
			m.fallback = fb
			if !m.degraded {
				m.healthyFallback = fb
			}
		} else {
			m.fallback = m.healthyFallback
		}
	}
	reason := "restored"
	if m.degraded {
		reason = "degraded"
	}
	m.causeSeq = topoSeq
	if err := m.reschedule("topology"); err != nil {
		return err
	}
	m.remaps++
	if m.rec != nil {
		m.emit(telemetry.Event{
			Kind: telemetry.KindRemap, Instance: instance,
			Reason: reason, Alive: m.p.NumAlivePEs(), Cause: topoSeq,
		})
	}
	return nil
}

// Fallback returns the precomputed worst-case fallback schedule (nil unless
// Recovery is enabled).
func (m *Manager) Fallback() *sched.Schedule { return m.fallback }

// reschedule runs the online algorithm (DLS + stretching) with the graph's
// current probability estimates, consulting the schedule cache first: if the
// exact probability state was scheduled for before, the memoized (mapping,
// order, speeds) is reused. Hits and misses both count as a call — the cache
// changes the cost of an invocation, never the invocation count or its
// result.
func (m *Manager) reschedule(reason string) error {
	guard := m.effectiveGuard()
	var key string
	if m.cache != nil {
		key = m.probKey()
		if guard > 0 {
			// Guarded schedules live under distinct keys: the same
			// probability state stretched at different guard levels
			// produces different speeds, and a guard-0 entry must stay
			// bit-for-bit what the paper's runtime would reuse.
			key += guardKey(guard)
		}
		if m.degraded {
			// Degraded schedules are keyed by the availability mask too:
			// the same probabilities on fewer PEs are a different schedule.
			// A healthy mask keys to "" (Mask.Key's contract), so once a
			// transient outage heals, lookups return to the pre-failure
			// cache entries verbatim.
			key += m.mask.Key(m.base.NumPEs())
		}
		if e, ok := m.cache.get(key); ok {
			m.schedule, m.speeds = e.schedule, e.speeds
			// The cached mapping may differ from the incumbent's: bump the
			// generation so the warm path rebinds its DAG model before the
			// next partial stretch.
			m.mapGen++
			m.calls++
			m.mm.calls.Inc()
			m.mm.cacheHits.Inc()
			m.noteScheduleState(guard)
			m.emitReschedule(reason, key, true, false)
			return nil
		}
		m.mm.cacheMisses.Inc()
	}
	// Cache miss (or caching off): try the incremental path before paying
	// for a full DLS + stretch pipeline.
	if ok, err := m.tryWarmStart(reason, guard); err != nil {
		return err
	} else if ok {
		return nil
	}
	dlsStart := time.Now()
	m.dlsWS.Cancel = m.cancel
	s, err := sched.DLSInto(m.a, m.p, sched.Modified(), m.dlsWS)
	if err != nil {
		return err
	}
	m.span("dls", m.mm.pipeDLS, dlsStart)
	stretchStart := time.Now()
	if m.opts.PerScenario {
		sp, err := stretch.PerScenario(s, m.opts.DVFS, guard, m.cancel)
		if err != nil {
			return err
		}
		m.speeds = sp
		m.span("stretch", m.mm.pipeStretch, stretchStart)
	} else {
		sr, err := stretch.Heuristic(s, m.opts.DVFS, stretch.Options{Guard: guard, Cancel: m.cancel})
		if err != nil {
			return err
		}
		m.speeds = nil
		m.span("stretch", m.mm.pipeStretch, stretchStart)
		m.emitStretch(sr, s)
	}
	m.schedule = s
	if m.cache != nil {
		m.cache.put(key, s, m.speeds)
	}
	m.mapGen++
	m.calls++
	m.mm.calls.Inc()
	m.noteScheduleState(guard)
	m.emitReschedule(reason, key, false, false)
	return nil
}

// emitStretch records the single-speed stretch-pass summary: how much slack
// Figure 2 distributed and how much of it the (guarded, possibly discrete)
// DVFS model actually converted. The per-scenario path has no single
// summary — its detail is a scenarios × tasks table. A masked (warm) pass
// leaves Result.ExpectedEnergy zero, so the energy is then evaluated on the
// stretched schedule s.
func (m *Manager) emitStretch(sr stretch.Result, s *sched.Schedule) {
	if m.rec == nil {
		return
	}
	if sr.ExpectedEnergy == 0 {
		sr.ExpectedEnergy = s.ExpectedEnergy()
	}
	m.emit(telemetry.Event{
		Kind:       telemetry.KindStretch,
		Instance:   m.instances,
		Tasks:      sr.Stretched,
		SlackFound: sr.SlackFound,
		SlackUsed:  sr.SlackUsed,
		Energy:     sr.ExpectedEnergy,
		Makespan:   sr.WorstDelay,
		Cause:      m.causeSeq,
	})
}

// emitReschedule records the re-scheduling decision event and consumes the
// pipeline's trigger seq (every reschedule path ends here, so the cause never
// leaks into an unrelated later decision). Drift-triggered decisions carry
// the threshold that tripped them. The hex rendering of the cache key (raw
// probability bits) is only materialized when a recorder is listening.
func (m *Manager) emitReschedule(reason, key string, hit, warm bool) {
	cause := m.causeSeq
	m.causeSeq = 0
	if m.rec == nil {
		return
	}
	ev := telemetry.Event{
		Kind:     telemetry.KindReschedule,
		Instance: m.instances,
		Reason:   reason,
		CacheHit: hit,
		Warm:     warm,
		Calls:    m.calls,
		Cause:    cause,
	}
	if reason == "drift" || reason == "drift+breaker" {
		ev.Threshold = m.opts.Threshold
	}
	if key != "" {
		ev.Key = fmt.Sprintf("%x", key)
	}
	m.emit(ev)
}

// Schedule returns the current schedule (read-only use).
func (m *Manager) Schedule() *sched.Schedule { return m.schedule }

// Metrics returns the registry the manager publishes to — the one passed via
// Options.Metrics, or the manager's private registry otherwise. Never nil.
func (m *Manager) Metrics() *telemetry.Registry { return m.metrics }

// Instances returns the number of instances processed so far.
func (m *Manager) Instances() int { return m.instances }

// ScenarioSpeeds returns the scenario-conditioned speed table of the current
// schedule, or nil outside PerScenario mode (read-only use).
func (m *Manager) ScenarioSpeeds() *stretch.ScenarioSpeeds { return m.speeds }

// Calls returns the number of adaptive re-scheduling invocations so far.
func (m *Manager) Calls() int { return m.calls }

// CacheStats returns the schedule cache counters (zero-valued when caching
// is disabled). The initial schedule counts as the first miss.
func (m *Manager) CacheStats() CacheStats {
	if m.cache == nil {
		return CacheStats{}
	}
	return m.cache.snapshot()
}

// Probs returns the current probability estimate for the fork with the
// given dense index, or nil when the index is out of range. The returned
// slice is a copy — mutating it never touches the manager's internal state.
func (m *Manager) Probs(forkIdx int) []float64 {
	forks := m.g.Forks()
	if forkIdx < 0 || forkIdx >= len(forks) {
		return nil
	}
	return m.g.BranchProbs(forks[forkIdx])
}

// StepCtx is Step under a context: the context's cancellation/deadline is
// polled at cooperative checkpoints inside the reschedule pipeline — once per
// DLS placement round, once per stretched task (single-speed heuristic and
// warm partial pass), and once per scenario in the per-scenario fan-out — so
// an expired request aborts within one unit of pipeline work rather than
// running to completion. The returned error is the context's own
// (context.DeadlineExceeded / context.Canceled), unwrapped, so callers can
// errors.Is it directly.
//
// Guarantees on cancellation: the incumbent schedule is untouched (a new
// schedule is only adopted when the pipeline completes), and a call that
// completed before the context expired is bit-for-bit identical to an
// uncancelled one. The estimator, however, observed this step's decisions
// before the pipeline ran, so a cancelled step leaves the manager
// mid-instance — Instances() is not advanced, and re-Stepping the same
// vector would double-observe it. Callers that need deterministic state
// after a cancellation rebuild the manager by replaying their decision log
// (see internal/serve).
func (m *Manager) StepCtx(ctx context.Context, decisions []int) (StepResult, error) {
	if err := ctx.Err(); err != nil {
		return StepResult{}, err
	}
	m.cancel = ctx.Err
	defer func() { m.cancel = nil }()
	return m.Step(decisions)
}

// Step processes one CTG instance: replay it under the current schedule,
// shift the decisions of the branch forks that actually executed into their
// windows, and re-run the online algorithm if the estimate drifted past the
// threshold.
func (m *Manager) Step(decisions []int) (StepResult, error) {
	si, err := m.a.ScenarioForDecisions(decisions)
	if err != nil {
		return StepResult{}, err
	}
	idx := m.instances
	remapped := false
	if m.opts.Failures != nil {
		// Availability changes are detected at instance boundaries: compare
		// the timeline's mask for this instance against the one in force and
		// re-map onto the survivor set on any difference.
		cur := m.opts.Failures.MaskAt(idx)
		if !cur.Equal(m.mask, m.base.NumPEs()) {
			if err := m.applyTopology(cur, idx); err != nil {
				return StepResult{}, err
			}
			remapped = true
		}
	}
	if m.rec != nil {
		m.startSeq = m.emit(telemetry.Event{Kind: telemetry.KindInstanceStart, Instance: idx, Scenario: si})
		// Estimate seqs are per-step: forks inactive this instance must not
		// leave a stale id for the drift trigger to pick up.
		if m.estSeqs == nil {
			m.estSeqs = make([]uint64, len(m.g.Forks()))
		}
		for i := range m.estSeqs {
			m.estSeqs[i] = 0
		}
	}
	var cfg sim.Config
	if m.speeds != nil {
		cfg.ScenarioSpeeds = m.speeds.Speeds
	}
	if m.opts.Faults != nil {
		cfg.Faults = m.opts.Faults
		cfg.FaultInstance = m.faultInstance
		m.faultInstance++
	}
	cfg.Recorder = m.rec
	cfg.InstanceID = idx
	cfg.Seq = m.seq
	cfg.Cause = m.startSeq
	inst, err := sim.Replay(m.schedule, si, cfg)
	if err != nil {
		return StepResult{}, err
	}
	res := StepResult{Instance: inst, Degraded: m.degraded, Remapped: remapped, Rescheduled: remapped}
	primaryMiss := !inst.DeadlineMet
	var fbSeq uint64 // the fallback decision, when one fired this step
	if primaryMiss && m.fallback != nil {
		// Recovery: re-run the instance at full speed on the worst-case
		// fallback schedule. The same fault instance applies — the overruns
		// that sank the primary run hit the fallback too, but without
		// stretching the timeline has the full static slack to absorb them.
		fcfg := cfg
		fcfg.ScenarioSpeeds = nil
		fcfg.Phase = telemetry.PhaseFallback
		fb, err := sim.Replay(m.fallback, si, fcfg)
		if err != nil {
			return StepResult{}, err
		}
		res.FallbackUsed = true
		res.Primary = inst
		res.Instance = fb
		m.activations++
		m.mm.fallbacks.Inc()
		if fb.DeadlineMet {
			m.missesAvoided++
			m.mm.missesAvoided.Inc()
		}
		if m.rec != nil {
			// Makespan is the fallback re-run's; Makespan2 keeps the failed
			// primary timeline for comparison. The cause is the primary
			// replay that missed (its overruns are the instance's
			// fault_overrun events).
			fbSeq = m.emit(telemetry.Event{
				Kind:      telemetry.KindFallback,
				Instance:  idx,
				Met:       fb.DeadlineMet,
				Makespan:  fb.Makespan,
				Makespan2: inst.Makespan,
				Phase:     telemetry.PhaseFallback,
				Cause:     m.startSeq,
			})
		}
	}
	// Only executed branch forks produce observable decisions.
	active := m.a.Scenario(inst.Scenario).Active
	for fi, fork := range m.g.Forks() {
		if !active.Get(int(fork)) {
			continue
		}
		if err := m.profiler.Observe(fi, decisions[fi]); err != nil {
			return StepResult{}, err
		}
	}
	res.Drift = m.profiler.MaxDrift()
	if m.rec != nil {
		// One window-estimate update per fork that actually executed (the
		// others observed nothing this instance).
		for fi, fork := range m.g.Forks() {
			if !active.Get(int(fork)) {
				continue
			}
			m.estSeqs[fi] = m.emit(telemetry.Event{
				Kind:     telemetry.KindEstimate,
				Instance: idx,
				Fork:     fi,
				Probs:    m.profiler.Estimate(fi),
				Drift:    res.Drift,
				Outcome:  decisions[fi],
				Cause:    m.startSeq,
			})
		}
	}
	prevLevel := m.guardLevel
	breakerMoved := false
	if m.fallback != nil {
		breakerMoved = m.recordPrimaryOutcome(primaryMiss)
	}
	var glSeq uint64 // the breaker move, when one fired this step
	if breakerMoved {
		m.mm.guardLevel.Set(float64(m.guardLevel))
		m.mm.maxGuardLevel.SetMax(float64(m.guardLevel))
		if m.rec != nil {
			// The breaker moved on this step's windowed outcome: chain to
			// the fallback when one fired (the miss that tipped the window),
			// to the instance otherwise (e.g. a relaxation on a clean run).
			cause := m.startSeq
			if fbSeq != 0 {
				cause = fbSeq
			}
			glSeq = m.emit(telemetry.Event{
				Kind:      telemetry.KindGuardLevel,
				Instance:  idx,
				Level:     m.guardLevel,
				Level2:    prevLevel,
				Threshold: DefaultMissRateBound,
				Cause:     cause,
			})
		}
	}
	// Update only the branches whose estimate crossed the threshold (the
	// paper's "the branch probability is updated with this new value");
	// any update triggers one re-scheduling. The comparison is inclusive:
	// see FilteredSeries for why "crosses" must admit equality.
	updated := false
	var trigSeq uint64 // the first threshold-crossing fork's estimate event
	for fi, fork := range m.g.Forks() {
		crossed := false
		for k := 0; k < m.profiler.NumOutcomes(fi); k++ {
			d := m.profiler.EstimateAt(fi, k) - m.g.BranchProb(fork, k)
			if d < 0 {
				d = -d
			}
			if d >= m.opts.Threshold-1e-12 {
				crossed = true
				break
			}
		}
		if crossed {
			if trigSeq == 0 && m.rec != nil {
				trigSeq = m.estSeqs[fi]
			}
			m.probsBuf = m.profiler.SmoothedEstimateInto(fi, m.probsBuf[:0])
			if err := m.g.SetBranchProbs(fork, m.probsBuf); err != nil {
				return StepResult{}, err
			}
			updated = true
		}
	}
	if updated {
		m.a.Reweight()
	}
	if updated || breakerMoved {
		reason := "drift"
		switch {
		case updated && breakerMoved:
			reason = "drift+breaker"
		case breakerMoved:
			reason = "breaker"
		}
		// The decision's provenance: the estimate that crossed the
		// threshold when drift triggered (or contributed), else the breaker
		// move that forced the re-stretch.
		if updated && trigSeq != 0 {
			m.causeSeq = trigSeq
		} else if breakerMoved {
			m.causeSeq = glSeq
		}
		if err := m.reschedule(reason); err != nil {
			return StepResult{}, err
		}
		res.Rescheduled = true
	}
	res.GuardLevel = m.guardLevel
	m.instances++
	m.mm.instances.Inc()
	if m.degraded {
		m.degradedInsts++
		if !res.Instance.DeadlineMet {
			m.topoMisses++
		}
	}
	if !res.Instance.DeadlineMet {
		m.mm.misses.Inc()
		m.missesTotal++
	}
	if res.Instance.Overruns > 0 {
		m.mm.overruns.Add(int64(res.Instance.Overruns))
	}
	m.mm.lateness.Observe(res.Instance.Lateness)
	m.mm.makespan.Observe(res.Instance.Makespan)
	m.mm.drift.Set(res.Drift)
	m.mm.missRate.Set(float64(m.missesTotal) / float64(m.instances))
	var finSeq uint64
	if m.rec != nil {
		finSeq = m.emit(telemetry.Event{
			Kind:        telemetry.KindInstanceFinish,
			Instance:    idx,
			Scenario:    res.Instance.Scenario,
			Energy:      res.Instance.Energy,
			Makespan:    res.Instance.Makespan,
			Lateness:    res.Instance.Lateness,
			Met:         res.Instance.DeadlineMet,
			Overruns:    res.Instance.Overruns,
			Rescheduled: res.Rescheduled,
			Drift:       res.Drift,
			Level:       m.guardLevel,
			Cause:       m.startSeq,
		})
	}
	// Sample the time-series store at this instance boundary (the sim-time
	// axis), chaining any alert firing to the instance_finish above.
	if m.opts.Series != nil {
		m.opts.Series.Tick(idx, m.rec, m.seq, finSeq)
	}
	return res, nil
}

// recordPrimaryOutcome shifts one primary-schedule outcome into the circuit
// breaker's sliding window and moves the escalation level when the windowed
// miss rate crosses the configured bounds. It reports whether the level
// changed (which requires a re-stretch at the new effective guard). The
// window is cleared on every transition, giving the breaker hysteresis: a
// fresh window must fill before the next move.
func (m *Manager) recordPrimaryOutcome(miss bool) bool {
	if m.missFill == len(m.missRing) {
		if m.missRing[m.missCursor] {
			m.missCount--
		}
	} else {
		m.missFill++
	}
	m.missRing[m.missCursor] = miss
	if miss {
		m.missCount++
	}
	m.missCursor = (m.missCursor + 1) % len(m.missRing)
	if m.missFill < len(m.missRing) {
		return false
	}
	rate := float64(m.missCount) / float64(len(m.missRing))
	m.mm.missRateWindow.Set(rate)
	switch {
	case rate > DefaultMissRateBound && m.guardLevel < maxGuardLevel:
		m.guardLevel++
	case rate <= DefaultMissRateBound/2 && m.guardLevel > 0:
		m.guardLevel--
	default:
		return false
	}
	if m.guardLevel > m.maxLevelSeen {
		m.maxLevelSeen = m.guardLevel
	}
	m.missFill, m.missCursor, m.missCount = 0, 0, 0
	for i := range m.missRing {
		m.missRing[i] = false
	}
	return true
}

// Run processes a whole decision-vector sequence and aggregates statistics.
func (m *Manager) Run(vectors [][]int) (RunStats, error) {
	var agg runAgg
	for _, v := range vectors {
		r, err := m.Step(v)
		if err != nil {
			return agg.st, err
		}
		agg.add(r.Instance)
	}
	st := agg.finish()
	st.Calls = m.calls
	cs := m.CacheStats()
	st.CacheHits, st.CacheMisses = cs.Hits, cs.Misses
	st.WarmStarts, st.WarmFallbacks = m.warm.starts, m.warm.fallbacks
	st.FallbackActivations = m.activations
	st.MissesAvoided = m.missesAvoided
	st.MaxGuardLevel = m.maxLevelSeen
	st.DegradedInstances = m.degradedInsts
	st.Remaps = m.remaps
	st.TopologyMisses = m.topoMisses
	return st, nil
}

// RunStatic replays a decision-vector sequence against a fixed schedule —
// the paper's non-adaptive "online algorithm", which profiles once (the
// probabilities baked into the schedule) and never adapts. cfg carries the
// simulator options; under a fault plan the instance cursor advances once
// per vector (vector i is plan instance i, matching the adaptive manager's
// cursor so the two runtimes face the identical perturbation sequence), and
// a cfg.Recorder receives each instance's start/finish events around its
// slices.
//
// A non-nil tl degrades the hardware per the failure timeline — the static
// baseline of the failover campaign. The static runtime cannot re-map: when
// the mask at an instance hides a PE hosting one of the scenario's active
// tasks, or a link carrying one of its transfers, the instance deadlocks.
// By convention a deadlocked instance counts as a deadline miss with
// lateness equal to one full deadline (the work never completes; charging
// exactly one period keeps the lateness totals finite and comparable) and
// the nominal replay's energy (the dispatch is attempted, then stalls); it
// also increments TopologyMisses. Instances whose active set happens to
// avoid the masked hardware execute normally.
func RunStatic(s *sched.Schedule, vectors [][]int, cfg sim.Config, tl *faults.Timeline) (RunStats, error) {
	if tl != nil && tl.NumPEs() != s.P.NumPEs() {
		return RunStats{}, fmt.Errorf("core: failure timeline sized for %d PEs, platform has %d",
			tl.NumPEs(), s.P.NumPEs())
	}
	var agg runAgg
	for i, v := range vectors {
		si, err := s.A.ScenarioForDecisions(v)
		if err != nil {
			return agg.st, err
		}
		ci := cfg
		if ci.Faults != nil {
			ci.FaultInstance = i
		}
		ci.InstanceID = i
		if ci.Recorder != nil {
			ci.Recorder.Record(telemetry.Event{Kind: telemetry.KindInstanceStart, Instance: i, Scenario: si})
		}
		inst, err := sim.Replay(s, si, ci)
		if err != nil {
			return agg.st, err
		}
		if tl != nil {
			if mask := tl.MaskAt(i); !mask.IsFull() {
				agg.st.DegradedInstances++
				if staticDeadlocked(s, si, mask) {
					inst.DeadlineMet = false
					inst.Lateness = s.G.Deadline()
					inst.Makespan = s.G.Deadline()
					agg.st.TopologyMisses++
				}
			}
		}
		if ci.Recorder != nil {
			ci.Recorder.Record(telemetry.Event{
				Kind:     telemetry.KindInstanceFinish,
				Instance: i,
				Scenario: inst.Scenario,
				Energy:   inst.Energy,
				Makespan: inst.Makespan,
				Lateness: inst.Lateness,
				Met:      inst.DeadlineMet,
				Overruns: inst.Overruns,
			})
		}
		agg.add(inst)
	}
	return agg.finish(), nil
}

// staticDeadlocked reports whether the scenario's execution under the fixed
// schedule touches masked-out hardware: an active task placed on a dead PE,
// or an active cross-PE transfer routed over a down link.
func staticDeadlocked(s *sched.Schedule, scenario int, mask platform.Mask) bool {
	active := s.A.Scenario(scenario).Active
	for t := 0; t < s.G.NumTasks(); t++ {
		if active.Get(t) && !mask.PEAlive(s.PE[t]) {
			return true
		}
	}
	for ei, e := range s.G.Edges() {
		if s.CommStart[ei] == sched.LocalComm {
			continue
		}
		if active.Get(int(e.From)) && active.Get(int(e.To)) &&
			!mask.LinkUp(s.PE[e.From], s.PE[e.To]) {
			return true
		}
	}
	return false
}

// TightenDeadline rebuilds the graph with deadline = factor × the nominal
// (full-speed) makespan of a modified-DLS schedule. The paper's experiments
// fix deadlines relative to the optimal schedule length (e.g. the cruise
// controller uses double the optimum); this helper reproduces that setup.
func TightenDeadline(g *ctg.Graph, p *platform.Platform, factor float64) (*ctg.Graph, error) {
	if !(factor > 0) {
		return nil, fmt.Errorf("core: deadline factor must be positive, got %v", factor)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		return nil, err
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		return nil, err
	}
	return g.WithDeadline(factor * s.Makespan)
}

// BuildOnline builds the non-adaptive online schedule for a graph whose
// branch probabilities hold the profiled values: modified DLS followed by
// the stretching heuristic.
func BuildOnline(g *ctg.Graph, p *platform.Platform, opts Options) (*sched.Schedule, error) {
	opts.applyDefaults()
	a, err := ctg.Analyze(g)
	if err != nil {
		return nil, err
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		return nil, err
	}
	if _, err := stretch.Heuristic(s, opts.DVFS, stretch.Options{}); err != nil {
		return nil, err
	}
	return s, nil
}

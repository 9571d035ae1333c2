package core

import (
	"fmt"
	"math"

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
	// DefaultWindow; New rejects a negative value.
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
	// CacheSize is an inert stand-in: the manager keeps no schedule cache.
	// Its one reader is perfbench, which sets it to -1; the perfbench-only
	// change of ROADMAP item 1 retires it. New refuses a positive value;
	// zero and negative values mean nothing.
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
	// online algorithm). When a transient outage heals, the same re-mapping
	// recomputes the healthy schedule, which is bit for bit the one in
	// force before the failure. Failures requires Recovery: a
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
	// and pipeline spans, stretch-pass summaries, fault overruns, fallback
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
	// tripped them. Point the store at the same registry as Metrics, one
	// registry per manager, so sampling stays deterministic. Nil (the
	// default) disables sampling at the cost of one branch.
	Series *series.Store

	// thresholdSet records an explicit SetThreshold call, so a literal zero
	// is distinguishable from an unset field.
	thresholdSet bool
}

// SetThreshold sets the drift threshold to a literal value, including a
// genuine T = 0 — the "always re-schedule" configuration the zero-as-default
// convention cannot express.
func (o *Options) SetThreshold(t float64) {
	o.Threshold = t
	o.thresholdSet = true
}

func (o *Options) applyDefaults() {
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.Threshold == 0 && !o.thresholdSet {
		o.Threshold = DefaultThreshold
	}
}

// Manager is the runtime of the adaptive framework: it owns the current
// schedule, replays incoming CTG instances against it, feeds the observed
// branch decisions to the profiler, and re-runs the online algorithm
// whenever the probability estimates drift past the threshold.
//
// Every step is a transaction (step.go): it stages its effects and only
// commit applies them, so a step that fails, is cancelled or panics leaves
// the manager exactly as the last committed step left it.
type Manager struct {
	opts Options

	g *ctg.Graph // current probability estimates live here
	a *ctg.Analysis
	// base is the full, unrestricted platform; st.p is the survivor set in
	// force.
	base *platform.Platform

	profiler *Profiler
	// drift tracks, per fork, how far the windowed estimate trails the
	// realized outcomes (adaptive.health.drift_err); adopt updates it right
	// after shifting the staged decisions into the windows.
	drift []stats.Drift

	// st is the committed state. missRing (the breaker's last
	// DefaultMissWindow primary-schedule outcomes) and warm.schedProbs are
	// committed too; a step stages copies of them.
	st       state
	missRing []bool
	warm     warmState

	// tx is the reusable staging area of the step in flight.
	tx *txn

	// Telemetry (inert unless Options.Recorder / Metrics set — rec nil
	// means no events; metrics always points at a registry, private by
	// default). The manager's logic state lives in st and is mirrored into
	// the registry handles, never read back from them: a registry shared
	// across managers aggregates, and must not be able to corrupt any single
	// manager's RunStats. seq stamps event ids (live only while rec != nil).
	rec     telemetry.Recorder
	metrics *telemetry.Registry
	mm      managerMetrics
	seq     *telemetry.Sequencer
}

// state is the part of the manager a step changes besides the estimator
// windows and the two committed slices: a step works on a copy, and commit
// adopts it whole.
type state struct {
	schedule *sched.Schedule
	// speeds is the scenario-conditioned table when opts.PerScenario is
	// set; nil otherwise.
	speeds *stretch.ScenarioSpeeds
	// mapGen identifies the schedule's mapping: a fresh value whenever the
	// adopted schedule may carry a different mapping (full recomputes), so
	// the warm path knows when to rebind its workspace.
	mapGen int

	calls     int // re-scheduling invocations (the paper's "# of calls")
	instances int // processed instances; doubles as the telemetry instance id
	// missesTotal is this manager's own deadline-miss count, backing the
	// adaptive.miss_rate gauge (the registry's miss counter may aggregate
	// several managers and cannot be read back).
	missesTotal int
	// missStreak counts the consecutive missed instances up to the last one
	// (after fallback, where enabled); maxMissStreak is its high-water mark.
	missStreak, maxMissStreak int

	// Warm-start bookkeeping (see warmstart.go): whether warm.schedProbs
	// and schedGuard describe the schedule, and the path's counters.
	warmValid                 bool
	schedGuard                float64
	warmStarts, warmFallbacks int

	// Fault-tolerance state (inert unless Options.Recovery / Faults set).
	fallback      *sched.Schedule // precomputed full-speed worst-case schedule
	faultInstance int             // fault-plan cursor, advanced once per Step
	guardLevel    int             // circuit-breaker escalation level
	maxLevelSeen  int
	missCursor    int // the breaker window's write position, fill and misses
	missFill      int
	missCount     int
	activations   int // fallback replays
	missesAvoided int // fallback replays that met the deadline

	// Availability state (inert unless Options.Failures set).
	p *platform.Platform // the platform in force (base restricted to mask)
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
	instances, misses, overruns *telemetry.Counter
	calls                       *telemetry.Counter
	fallbacks, missesAvoided    *telemetry.Counter
	warmStarts, warmFallbacks   *telemetry.Counter
	guardLevel, maxGuardLevel   *telemetry.Gauge
	drift                       *telemetry.Gauge
	missRate, missRateWindow    *telemetry.Gauge
	driftErr, pesDown           *telemetry.Gauge
	missStreak, maxMissStreak   *telemetry.Gauge
	lateness, makespan          *telemetry.HistogramMetric
	pipeDiff, pipeDLS           *telemetry.HistogramMetric
	pipeStretch, pipeValidate   *telemetry.HistogramMetric
}

// spanHiUS is the upper bound of the pipeline-span histograms in
// microseconds; phases beyond it clamp into the last bucket (the histogram's
// exact max still records them).
const spanHiUS = 50_000

// newManagerMetrics binds a manager's metric handles in reg under the
// "adaptive." prefix. The names never depend on the graph or the options
// (CheckRules relies on it). Histogram ranges are deadline-relative:
// lateness can only fall in [0, deadline]-ish territory (clamping catches
// pathological overshoots) and makespans beyond twice the deadline carry no
// extra information.
func newManagerMetrics(reg *telemetry.Registry, deadline float64) managerMetrics {
	hi := deadline
	if !(hi > 0) {
		hi = 1
	}
	return managerMetrics{
		instances:      reg.Counter("adaptive.instances"),
		misses:         reg.Counter("adaptive.misses"),
		overruns:       reg.Counter("adaptive.overruns"),
		calls:          reg.Counter("adaptive.calls"),
		fallbacks:      reg.Counter("adaptive.fallback_activations"),
		missesAvoided:  reg.Counter("adaptive.misses_avoided"),
		warmStarts:     reg.Counter("adaptive.warm_starts"),
		warmFallbacks:  reg.Counter("adaptive.warm_fallbacks"),
		guardLevel:     reg.Gauge("adaptive.guard_level"),
		maxGuardLevel:  reg.Gauge("adaptive.max_guard_level"),
		drift:          reg.Gauge("adaptive.drift"),
		missRate:       reg.Gauge("adaptive.miss_rate"),
		missRateWindow: reg.Gauge("adaptive.miss_rate_window"),
		driftErr:       reg.Gauge("adaptive.health.drift_err"),
		pesDown:        reg.Gauge("adaptive.health.pes_down"),
		missStreak:     reg.Gauge("adaptive.health.miss_streak"),
		maxMissStreak:  reg.Gauge("adaptive.health.max_miss_streak"),
		lateness:       reg.Histogram("adaptive.lateness", 0, hi, 64),
		makespan:       reg.Histogram("adaptive.makespan", 0, 2*hi, 64),
		pipeDiff:       reg.Histogram("adaptive.pipeline_diff_us", 0, spanHiUS, 64),
		pipeDLS:        reg.Histogram("adaptive.pipeline_dls_us", 0, spanHiUS, 64),
		pipeStretch:    reg.Histogram("adaptive.pipeline_stretch_us", 0, spanHiUS, 64),
		pipeValidate:   reg.Histogram("adaptive.pipeline_validate_us", 0, spanHiUS, 64),
	}
}

// CheckRules refuses the rules a manager's series store could never fire:
// threshold and rate rules over a metric no manager registers (see
// series.CheckMetrics). A manager registers the same names whatever its
// graph and options, so the check needs no manager.
func CheckRules(rules []series.Rule) error {
	reg := telemetry.NewRegistry()
	newManagerMetrics(reg, 1)
	return series.CheckMetrics(reg, rules)
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
	if opts.CacheSize > 0 {
		return nil, fmt.Errorf("core: CacheSize %d: the manager keeps no schedule cache", opts.CacheSize)
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
	m := &Manager{opts: opts, g: g.Clone(), base: p}
	m.st.p = p
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
			m.st.p = rp
			m.st.mask = mask0
			m.st.degraded = true
		}
	}
	m.rec = opts.Recorder
	if m.rec != nil {
		m.seq = opts.Sequencer
		if m.seq == nil {
			m.seq = telemetry.NewSequencer()
		}
	}
	m.metrics = opts.Metrics
	if m.metrics == nil {
		m.metrics = telemetry.NewRegistry()
	}
	m.mm = newManagerMetrics(m.metrics, m.g.Deadline())
	a, err := ctg.Analyze(m.g)
	if err != nil {
		return nil, err
	}
	m.a = a
	m.profiler, err = NewProfiler(m.g, opts.Window)
	if err != nil {
		return nil, err
	}
	m.drift = make([]stats.Drift, m.g.NumForks())
	for fi := range m.drift {
		m.drift[fi].Realized = make([]float64, 0, m.profiler.NumOutcomes(fi))
	}
	m.initWarm()
	if opts.Recovery {
		// The worst-case fallback: full-speed DLS, never stretched, so its
		// speeds are probability-independent (every task runs at speed 1)
		// and only a topology change rebuilds it. Its mapping is not: the
		// modified DLS weights fork static levels by the branch
		// probabilities the graph holds when it is built (drift rewrites
		// them), so a rebuild after drift may map differently.
		fb, err := sched.DLS(m.a, m.st.p, sched.Modified())
		if err != nil {
			return nil, err
		}
		m.st.fallback = fb
		if !m.st.degraded {
			m.st.healthyFallback = fb
		}
		m.missRing = make([]bool, DefaultMissWindow)
	}
	m.tx = newTxn(m)
	// The initial schedule goes through the step machinery too: staged,
	// then committed.
	t := m.begin(nil)
	if m.st.degraded {
		// The initial schedule's shape is explained by the already-degraded
		// topology: chain it to the last loss event.
		t.causeSeq = t.emitMaskDiff(platform.Mask{}, m.st.mask, 0)
	}
	if err := t.reschedule("initial"); err != nil {
		return nil, err
	}
	t.s.calls = 0 // the initial schedule does not count as an adaptive call
	m.adopt(t)
	return m, nil
}

// GuardLevel returns the circuit breaker's current escalation level.
func (m *Manager) GuardLevel() int { return m.st.guardLevel }

// Degraded reports whether part of the topology is currently masked out.
func (m *Manager) Degraded() bool { return m.st.degraded }

// Fallback returns the precomputed worst-case fallback schedule (nil unless
// Recovery is enabled).
func (m *Manager) Fallback() *sched.Schedule { return m.st.fallback }

// Schedule returns the current schedule (read-only use).
func (m *Manager) Schedule() *sched.Schedule { return m.st.schedule }

// Metrics returns the registry the manager publishes to — the one passed via
// Options.Metrics, or the manager's private registry otherwise. Never nil.
func (m *Manager) Metrics() *telemetry.Registry { return m.metrics }

// Instances returns the number of instances processed so far.
func (m *Manager) Instances() int { return m.st.instances }

// ScenarioSpeeds returns the scenario-conditioned speed table of the current
// schedule, or nil outside PerScenario mode (read-only use).
func (m *Manager) ScenarioSpeeds() *stretch.ScenarioSpeeds { return m.st.speeds }

// Calls returns the number of adaptive re-scheduling invocations so far.
func (m *Manager) Calls() int { return m.st.calls }

// CacheStats is an inert stand-in for the counters of the deleted schedule
// cache. Its one reader is perfbench; the perfbench-only change of ROADMAP
// item 1 retires it.
type CacheStats struct {
	Hits, Misses int
}

// CacheStats always returns zero counters: the manager keeps no schedule
// cache. Its one reader is perfbench; the perfbench-only change of ROADMAP
// item 1 retires it.
func (m *Manager) CacheStats() CacheStats { return CacheStats{} }

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
	st.Calls = m.st.calls
	st.WarmStarts, st.WarmFallbacks = m.st.warmStarts, m.st.warmFallbacks
	st.FallbackActivations = m.st.activations
	st.MissesAvoided = m.st.missesAvoided
	st.MaxGuardLevel = m.st.maxLevelSeen
	st.DegradedInstances = m.st.degradedInsts
	st.Remaps = m.st.remaps
	st.TopologyMisses = m.st.topoMisses
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

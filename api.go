package ctgdvfs

import (
	"io"
	"math/rand"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/ctgio"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/stats"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// Conditional task graph model (package internal/ctg).
type (
	// Graph is a conditional task graph: tasks, (conditional) edges,
	// branch probabilities and a common deadline.
	Graph = ctg.Graph
	// GraphBuilder assembles a Graph.
	GraphBuilder = ctg.Builder
	// TaskID identifies a task in a Graph.
	TaskID = ctg.TaskID
	// Task is a vertex of the CTG.
	Task = ctg.Task
	// Edge is a (possibly conditional) dependency between tasks.
	Edge = ctg.Edge
	// Cond is the branch-outcome guard of an edge.
	Cond = ctg.Cond
	// Kind distinguishes and-nodes from or-nodes.
	Kind = ctg.Kind
	// Analysis is the scenario (leaf-minterm) decomposition of a Graph.
	Analysis = ctg.Analysis
	// Scenario is one leaf minterm: outcome assignment, probability and
	// active task set.
	Scenario = ctg.Scenario
)

// Node kinds.
const (
	// AndNode activates when all incoming edges are satisfied.
	AndNode = ctg.AndNode
	// OrNode activates when at least one incoming edge is satisfied.
	OrNode = ctg.OrNode
)

// Platform and DVFS model (package internal/platform).
type (
	// Platform is the MPSoC: per-task per-PE costs plus the interconnect.
	Platform = platform.Platform
	// PlatformBuilder assembles a Platform.
	PlatformBuilder = platform.Builder
	// DVFS is the voltage/frequency scaling model (continuous or
	// discrete speed levels).
	DVFS = platform.DVFS
)

// Scheduling and stretching (packages internal/sched, internal/stretch).
type (
	// PlanResult is a mapped, ordered and (optionally) stretched
	// schedule.
	PlanResult = sched.Schedule
	// SchedOptions selects the list-scheduler variant.
	SchedOptions = sched.Options
	// StretchResult summarizes a DVFS stretching pass.
	StretchResult = stretch.Result
	// NLPOptions tunes the NLP reference stretcher.
	NLPOptions = stretch.NLPOptions
	// ScenarioSpeeds is a scenario-conditioned DVFS table (an extension
	// beyond the paper's single speed per task).
	ScenarioSpeeds = stretch.ScenarioSpeeds
)

// Simulation (package internal/sim).
type (
	// Instance is the outcome of replaying one CTG iteration.
	Instance = sim.Instance
	// SimSummary aggregates replays over all scenarios.
	SimSummary = sim.Summary
	// SimConfig selects optional runtime-fidelity features: strict
	// or-node dependencies and DVFS switching overhead.
	SimConfig = sim.Config
	// Breakdown attributes expected energy and load to PEs and links.
	Breakdown = sim.Breakdown
)

// Adaptive runtime (package internal/core).
type (
	// Adaptive is the window-based adaptive scheduling/DVFS runtime.
	Adaptive = core.Manager
	// AdaptiveOptions configures window, threshold, DVFS and the runtime layers.
	AdaptiveOptions = core.Options
	// StepResult reports one processed CTG instance.
	StepResult = core.StepResult
	// RunStats aggregates a replayed vector sequence.
	RunStats = core.RunStats
	// Profiler is the sliding-window branch-probability estimator.
	Profiler = core.Profiler
	// SeriesPoint is one instant of a filtered-probability series.
	SeriesPoint = core.SeriesPoint
)

// Telemetry (packages internal/telemetry, internal/stats): the runtime's
// structured event stream, metrics registry and Chrome-trace export. Attach
// a recorder via AdaptiveOptions.Recorder or SimConfig.Recorder; a nil
// recorder keeps every instrumented path allocation-free and bit-for-bit
// identical to an uninstrumented run.
type (
	// TelemetryEvent is one structured runtime event (task slice, window
	// estimate, reschedule decision, fallback activation, ...).
	TelemetryEvent = telemetry.Event
	// TelemetryKind discriminates TelemetryEvent payloads.
	TelemetryKind = telemetry.Kind
	// TelemetryRecorder is the event sink interface; nil disables the
	// stream.
	TelemetryRecorder = telemetry.Recorder
	// MemoryRecorder buffers events in memory (feed to ChromeTrace).
	MemoryRecorder = telemetry.MemoryRecorder
	// JSONLRecorder streams events as JSON lines to a writer.
	JSONLRecorder = telemetry.JSONLRecorder
	// MultiRecorder fans one event stream out to several sinks.
	MultiRecorder = telemetry.MultiRecorder
	// MetricsRegistry is the named counter/gauge/histogram registry with
	// JSON and HTTP exposition.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = telemetry.Snapshot
	// ChromeTrace exports recorded runs as Chrome trace-event JSON
	// (chrome://tracing, Perfetto).
	ChromeTrace = telemetry.ChromeTrace
	// FlightRecorder is the fixed-capacity ring-buffer recorder — the
	// runtime's black box. Steady-state recording allocates nothing; DumpTo
	// writes the current window as JSONL.
	FlightRecorder = telemetry.FlightRecorder
	// TruncatedTailError reports a JSONL capture whose final line is torn (a
	// recorder killed mid-write); ReadTelemetryJSONL returns it alongside
	// the intact prefix — treat it as a warning, not a failure.
	TruncatedTailError = telemetry.TruncatedTailError
	// Sequencer hands out the monotonic per-stream sequence ids behind event
	// provenance (Event.Seq / Event.Cause). Standalone runtimes make their
	// own; share one across runtimes only when they share a recorder.
	Sequencer = telemetry.Sequencer
	// Histogram is the fixed-bucket distribution summary behind the
	// registry and the RunStats percentiles.
	Histogram = stats.Histogram
	// Percentiles is a P50/P95/P99 summary.
	Percentiles = stats.Percentiles
)

// Telemetry event kinds.
const (
	KindInstanceStart  = telemetry.KindInstanceStart
	KindInstanceFinish = telemetry.KindInstanceFinish
	KindTaskSlice      = telemetry.KindTaskSlice
	KindCommSlice      = telemetry.KindCommSlice
	KindEstimate       = telemetry.KindEstimate
	KindReschedule     = telemetry.KindReschedule
	KindStretch        = telemetry.KindStretch
	KindOverrun        = telemetry.KindOverrun
	KindFallback       = telemetry.KindFallback
	KindGuardLevel     = telemetry.KindGuardLevel
	KindPEDown         = telemetry.KindPEDown
	KindPEUp           = telemetry.KindPEUp
	KindLinkDown       = telemetry.KindLinkDown
	KindLinkUp         = telemetry.KindLinkUp
	KindRemap          = telemetry.KindRemap
	KindSpan           = telemetry.KindSpan
	KindAlertFiring    = telemetry.KindAlertFiring
	KindAlertResolved  = telemetry.KindAlertResolved
)

// NewMemoryRecorder returns an empty in-memory event sink.
func NewMemoryRecorder() *MemoryRecorder { return telemetry.NewMemoryRecorder() }

// NewJSONLRecorder returns a sink streaming events as JSON lines to w
// (buffered; call Close — or Flush — before reading the output).
func NewJSONLRecorder(w io.Writer) *JSONLRecorder { return telemetry.NewJSONLRecorder(w) }

// ReadTelemetryJSONL parses a JSONL event stream back into events — the one
// reader of a capture, a flight-recorder window or a daemon event stream. A
// torn final line yields the intact prefix and a *TruncatedTailError.
func ReadTelemetryJSONL(r io.Reader) ([]TelemetryEvent, error) { return telemetry.ReadJSONL(r) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewChromeTrace returns an empty Chrome trace-event exporter.
func NewChromeTrace() *ChromeTrace { return telemetry.NewChromeTrace() }

// NewFlightRecorder builds a flight recorder keeping the most recent
// capacity events (capacity ≤ 0 selects 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	return telemetry.NewFlightRecorder(capacity)
}

// NewSequencer returns a sequencer whose first id is 1. Install it via
// AdaptiveOptions.Sequencer to stamp Seq/Cause provenance ids on the event
// stream.
func NewSequencer() *Sequencer { return telemetry.NewSequencer() }

// Time-series monitoring (package internal/series): a ring-buffer store that
// samples a metrics registry on deterministic sim-time boundaries (the
// instance index, never wall clock), evaluates threshold/rate/absence
// alerting rules against the sampled rings, and renders sparkline watch
// views. Attach a store via AdaptiveOptions.Series (the runtime ticks it once
// per instance); a nil store keeps the run bit-for-bit identical.
type (
	// SeriesStore is the sampling ring-buffer store; Tick is allocation-free
	// at steady state.
	SeriesStore = series.Store
	// SeriesStoreOptions configures a store (registry, ring capacity,
	// alerting rules).
	SeriesStoreOptions = series.StoreOptions
	// SeriesRule is one declarative alerting rule (threshold, rate or
	// absence, with for-holds and hysteresis).
	SeriesRule = series.Rule
	// SeriesRuleSet is the JSON rules-file payload.
	SeriesRuleSet = series.RuleSet
	// SeriesAlertStatus is one rule's live firing state.
	SeriesAlertStatus = series.AlertStatus
	// SeriesDump is the serialized store state `ctgsched watch -dump` renders.
	SeriesDump = series.Dump
	// SeriesWatchOptions configures the watch rendering (sparkline width).
	SeriesWatchOptions = series.WatchOptions
)

// NewSeriesStore builds a sampling store; opts.Registry is required.
func NewSeriesStore(opts SeriesStoreOptions) *SeriesStore { return series.NewStore(opts) }

// LoadSeriesRules reads a JSON alerting-rules file and validates every rule.
func LoadSeriesRules(path string) (SeriesRuleSet, error) { return series.LoadRules(path) }

// LoadSeriesDump reads a series dump written by SeriesStore.WriteJSON (the
// `experiments -series-out` format).
func LoadSeriesDump(path string) (SeriesDump, error) { return series.LoadDump(path) }

// RenderSeriesWatch renders a dump as the sparkline terminal view behind
// `ctgsched watch`.
func RenderSeriesWatch(d SeriesDump, opts SeriesWatchOptions) string {
	return series.RenderWatch(d, opts)
}

// Health analysis (package internal/health): the offline reader of a
// recorded event stream — estimator drift, SLO tracking, hotspot
// attribution. The live health quantities are the manager's own
// adaptive.health.* gauges, which series rules alert on
// (examples/watch/health.json); AnalyzeTelemetry replays a capture with the
// same arithmetic and reports what those rules fired.
type (
	// HealthOptions configures the analysis; the zero value works.
	HealthOptions = health.Options
	// HealthSLO is the service-level objective a run is scored against.
	HealthSLO = health.SLO
	// HealthSnapshot is the analysis of one stream (Report renders it as
	// the diagnosis text `ctgsched analyze` prints).
	HealthSnapshot = health.Snapshot
	// ExplainQuery selects the decision `ctgsched explain` reconstructs: an
	// exact seq id, or kind/instance/tenant filters (last match wins).
	ExplainQuery = health.ExplainQuery
	// Explanation is one reconstructed causal chain: the decision, its
	// trigger chain root-first, and its recorded downstream effects.
	Explanation = health.Explanation
	// ExplainEffect is one downstream event of an explained decision, with
	// its depth in the cause tree.
	ExplainEffect = health.ExplainEffect
)

// AnalyzeTelemetry replays a recorded event stream through fresh analyzers
// and returns the snapshot — the path behind `ctgsched analyze`.
func AnalyzeTelemetry(events []TelemetryEvent, opts HealthOptions) HealthSnapshot {
	return health.Analyze(events, opts)
}

// ExplainTelemetry reconstructs the causal provenance of one decision in a
// recorded event stream — the engine behind `ctgsched explain`. The stream
// must carry seq ids (recorded with a Sequencer installed).
func ExplainTelemetry(events []TelemetryEvent, q ExplainQuery) (*Explanation, error) {
	return health.Explain(events, q)
}

// TelemetryDecisions lists the stream's explainable decision events in order
// — the menu behind `ctgsched explain -list`.
func TelemetryDecisions(events []TelemetryEvent) []TelemetryEvent {
	return health.Decisions(events)
}

// DescribeTelemetryEvent renders one event as the one-line description the
// explain output uses.
func DescribeTelemetryEvent(e TelemetryEvent) string { return health.Describe(e) }

// NewHistogram builds a fixed-bucket histogram over [lo, hi].
func NewHistogram(lo, hi float64, buckets int) (*Histogram, error) {
	return stats.NewHistogram(lo, hi, buckets)
}

// SamplePercentiles summarizes a sample's P50/P95/P99.
func SamplePercentiles(xs []float64) Percentiles { return stats.SamplePercentiles(xs) }

// Fault injection (package internal/faults).
type (
	// FaultSpec parameterizes a deterministic execution-time fault plan:
	// multiplicative WCET overruns, bursty hot-task overruns and transient
	// PE slowdowns, all derived by pure hashing from the seed.
	FaultSpec = faults.Spec
	// FaultPlan is a validated, stateless fault plan; pass it via
	// SimConfig.Faults or AdaptiveOptions.Faults.
	FaultPlan = faults.Plan
	// FailureSpec parameterizes a deterministic hardware-availability
	// timeline: stochastic permanent PE deaths, transient PE outages with
	// repair times, link outages, and scripted events.
	FailureSpec = faults.FailureSpec
	// FailureEvent is one scripted availability change inside a
	// FailureSpec (kind "pe" or "link"; Duration 0 means permanent).
	FailureEvent = faults.FailureEvent
	// FailureTimeline is a validated availability timeline; pass it via
	// AdaptiveOptions.Failures to enable degraded-mode re-mapping.
	FailureTimeline = faults.Timeline
	// FaultSpecFile bundles a perturbation spec and a failure spec in one
	// JSON document (cmd/experiments -faults-spec).
	FaultSpecFile = faults.SpecFile
	// AvailabilityMask marks which PEs and links are in service at one
	// instance boundary.
	AvailabilityMask = platform.Mask
)

// Scripted availability-event kinds.
const (
	// FailureEventPE marks a FailureEvent that takes a PE out of service.
	FailureEventPE = faults.EventPE
	// FailureEventLink marks a FailureEvent that takes one directed link
	// out of service.
	FailureEventLink = faults.EventLink
)

// Workloads (packages internal/tgff, internal/apps/*, internal/trace).
type (
	// RandomConfig parameterizes the TGFF-style random CTG generator.
	RandomConfig = tgff.Config
	// RandomCategory selects fork-join (1) or flat (2) structure.
	RandomCategory = tgff.Category
	// Movie is a synthetic MPEG clip decision source.
	Movie = trace.Movie
	// Vectors is a sequence of branch decision vectors.
	Vectors = trace.Vectors
)

// Random CTG structural families.
const (
	// CategoryForkJoin is the paper's Category 1 (nested fork-join).
	CategoryForkJoin = tgff.ForkJoin
	// CategoryFlat is the paper's Category 2 (no fork-join, no nesting).
	CategoryFlat = tgff.Flat
)

// NewGraph returns an empty conditional-task-graph builder.
func NewGraph() *GraphBuilder { return ctg.NewBuilder() }

// NewPlatform returns a platform builder for the given number of tasks and
// PEs.
func NewPlatform(numTasks, numPEs int) *PlatformBuilder {
	return platform.NewBuilder(numTasks, numPEs)
}

// Uncond returns the unconditional edge guard.
func Uncond() Cond { return ctg.Uncond() }

// When returns the guard "fork selected the given outcome".
func When(fork TaskID, outcome int) Cond { return ctg.When(fork, outcome) }

// ContinuousDVFS is the paper's scaling model: any speed in (0, 1].
func ContinuousDVFS() DVFS { return platform.Continuous() }

// DiscreteDVFS restricts speeds to the given levels (must include 1).
func DiscreteDVFS(levels ...float64) DVFS { return platform.Discrete(levels...) }

// Analyze computes the scenario decomposition of a graph: leaf minterms,
// activation sets and probabilities, and the mutual-exclusion relation.
func Analyze(g *Graph) (*Analysis, error) { return ctg.Analyze(g) }

// ModifiedDLS returns the paper's scheduler options: probability-weighted
// static levels, mutual-exclusion-aware PE sharing, communication-aware
// start times.
func ModifiedDLS() SchedOptions { return sched.Modified() }

// PlainDLS returns the reference algorithm 1 ordering options.
func PlainDLS() SchedOptions { return sched.Plain() }

// Schedule maps and orders the tasks of an analyzed graph onto the platform
// with dynamic-level scheduling. All speeds start at 1; apply a stretcher to
// assign DVFS speeds.
func Schedule(a *Analysis, p *Platform, opts SchedOptions) (*PlanResult, error) {
	return sched.DLS(a, p, opts)
}

// Stretch runs the paper's online task-stretching heuristic on a schedule,
// assigning one DVFS speed per task in scheduling order. The fraction
// guard ∈ [0,1] of every task's slack is reserved as execution-time overrun
// margin instead of being spent on DVFS; guard 0 is the paper's stretching.
func Stretch(s *PlanResult, d DVFS, guard float64) (*StretchResult, error) {
	r, err := stretch.Heuristic(s, d, stretch.Options{Guard: guard})
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// StretchWorstCase runs the probability-blind critical-path stretcher
// (reference algorithm 1's DVFS stage).
func StretchWorstCase(s *PlanResult, d DVFS) (*StretchResult, error) {
	return stretch.WorstCase(s, d)
}

// StretchNLP runs the convex-programming stretcher (reference algorithm 2's
// DVFS stage).
func StretchNLP(s *PlanResult, d DVFS, opts NLPOptions) (*StretchResult, error) {
	return stretch.NLP(s, d, opts)
}

// StretchPerScenario computes scenario-conditioned speeds for an
// unstretched schedule: each task's speed may depend on the outcomes of the
// branch forks that precede it (see stretch.PerScenario). Replay with
// SimConfig.ScenarioSpeeds. guard reserves slack as in Stretch.
func StretchPerScenario(s *PlanResult, d DVFS, guard float64) (*ScenarioSpeeds, error) {
	return stretch.PerScenario(s, d, guard, nil)
}

// Plan is the one-call online algorithm: modified DLS followed by the
// stretching heuristic under continuous DVFS.
func Plan(g *Graph, p *Platform) (*PlanResult, error) {
	return core.BuildOnline(g, p, core.Options{})
}

// TightenDeadline rebuilds the graph with deadline = factor × the nominal
// full-speed makespan of a modified-DLS schedule.
func TightenDeadline(g *Graph, p *Platform, factor float64) (*Graph, error) {
	return core.TightenDeadline(g, p, factor)
}

// Replay executes a schedule under one leaf scenario and reports energy,
// makespan and deadline compliance. The zero SimConfig is the paper's
// runtime model; its fields enable the runtime-fidelity options (strict
// or-node dependencies, DVFS switching overhead, faults, telemetry).
func Replay(s *PlanResult, scenario int, cfg SimConfig) (Instance, error) {
	return sim.Replay(s, scenario, cfg)
}

// ReplayDecisions resolves a full branch decision vector and replays the
// matching scenario.
func ReplayDecisions(s *PlanResult, decisions []int) (Instance, error) {
	return sim.ReplayDecisions(s, decisions)
}

// Exhaustive replays every leaf scenario under cfg and aggregates by
// probability.
func Exhaustive(s *PlanResult, cfg SimConfig) (SimSummary, error) { return sim.Exhaustive(s, cfg) }

// AnalyzeBreakdown attributes a schedule's expected energy and load to its
// PEs and the interconnect.
func AnalyzeBreakdown(s *PlanResult) Breakdown { return sim.AnalyzeBreakdown(s) }

// Sample estimates expected energy/makespan by Monte-Carlo replay of n
// instances drawn from the graph's branch probabilities — for workloads
// whose scenario count makes Exhaustive expensive.
func Sample(s *PlanResult, rng *rand.Rand, n int, cfg SimConfig) (SimSummary, error) {
	return sim.Sample(s, rng, n, cfg)
}

// NewAdaptive builds the adaptive runtime: it schedules with the graph's
// current branch probabilities and re-runs the online algorithm whenever the
// sliding-window estimates drift past the threshold.
func NewAdaptive(g *Graph, p *Platform, opts AdaptiveOptions) (*Adaptive, error) {
	return core.New(g, p, opts)
}

// RunStatic replays a decision sequence against a fixed schedule (the
// paper's non-adaptive online algorithm) under the simulator options cfg —
// a fault plan's instance cursor advances once per vector, so static and
// adaptive runtimes face the identical perturbation sequence. A non-nil
// failure timeline degrades the hardware: instances whose active tasks or
// comms land on dead hardware deadlock and are charged a miss with one full
// deadline of lateness (the static baseline of -exp failover).
func RunStatic(s *PlanResult, vectors Vectors, cfg SimConfig, tl *FailureTimeline) (RunStats, error) {
	return core.RunStatic(s, vectors, cfg, tl)
}

// NewFailureTimeline validates a failure spec and derives the deterministic
// availability timeline for a platform with numPEs processors. The timeline
// is stateless: the mask at instance i is a pure function of (spec, i), so
// adaptive and static runtimes face the identical outage sequence, and it
// never takes the last surviving PE out of service.
func NewFailureTimeline(spec FailureSpec, numPEs int) (*FailureTimeline, error) {
	return faults.NewTimeline(spec, numPEs)
}

// LoadFaultSpecFile reads and validates a JSON fault-spec file bundling an
// execution-time perturbation spec and/or an availability failure spec.
func LoadFaultSpecFile(path string) (*FaultSpecFile, error) {
	return faults.LoadSpecFile(path)
}

// RestrictPlatform returns a view of the platform with the masked-out PEs
// and links removed from service, rejecting masks that leave no PE alive
// with *platform.InfeasibleMaskError. Schedulers called with the view place
// tasks only on surviving hardware.
func RestrictPlatform(p *Platform, m AvailabilityMask) (*Platform, error) {
	return p.Restrict(m)
}

// FullAvailability is the all-alive mask for a platform with numPEs
// processors.
func FullAvailability(numPEs int) AvailabilityMask { return platform.FullMask(numPEs) }

// NewFaultPlan validates and builds a deterministic fault plan for a
// workload of the given size. The plan is stateless: the factor applied to
// task t of instance i is a pure hash of (seed, i, t), so results never
// depend on replay order or the worker bound.
func NewFaultPlan(spec FaultSpec, numTasks, numPEs int) (*FaultPlan, error) {
	return faults.New(spec, numTasks, numPEs)
}

// NewProfiler builds a standalone sliding-window branch profiler seeded
// with the graph's current probabilities.
func NewProfiler(g *Graph, window int) (*Profiler, error) { return core.NewProfiler(g, window) }

// FilteredSeries reproduces the paper's Figure 4 mechanics for one
// two-outcome branch selection stream.
func FilteredSeries(selections []int, initProb float64, window int, threshold float64) []SeriesPoint {
	return core.FilteredSeries(selections, initProb, window, threshold)
}

// GenerateRandom builds a TGFF-style random CTG and a matching platform.
func GenerateRandom(cfg RandomConfig) (*Graph, *Platform, error) { return tgff.Generate(cfg) }

// BuildMPEG builds the MPEG macroblock decoder CTG (40 tasks, 9 branch
// forks) and its 3-PE platform.
func BuildMPEG() (*Graph, *Platform, error) { return mpeg.Build() }

// BuildCruise builds the vehicle cruise-controller CTG (32 tasks, 2 branch
// forks) and its 5-PE platform.
func BuildCruise() (*Graph, *Platform, error) { return cruise.Build() }

// BuildWLAN builds the 802.11b physical-layer receive CTG (22 tasks, a
// two-way preamble fork and a four-way rate fork) and its 3-PE platform —
// the paper's motivating example of task-level branching.
func BuildWLAN() (*Graph, *Platform, error) { return wlan.Build() }

// WLANChannelTrace generates frame decision vectors from a drifting-SNR
// 802.11b channel model.
func WLANChannelTrace(g *Graph, seed int64, n int) Vectors {
	return wlan.ChannelTrace(g, seed, n)
}

// MovieClips returns the eight synthetic MPEG movie-clip sources of the
// paper's Figure 5 / Table 2 experiment.
func MovieClips() []Movie { return trace.MovieClips() }

// RoadSequence generates cruise-controller branch decisions from a random
// sequence of road segments.
func RoadSequence(g *Graph, seed int64, n int) Vectors { return trace.RoadSequence(g, seed, n) }

// FluctuatingVectors generates decision vectors with equal long-run branch
// averages but large scene-level fluctuation (the paper's Tables 4/5
// workload).
func FluctuatingVectors(g *Graph, seed int64, n int, amplitude float64) Vectors {
	return trace.Fluctuating(g, seed, n, amplitude)
}

// AverageProbs measures the empirical per-fork outcome frequencies of a
// vector sequence.
func AverageProbs(g *Graph, v Vectors) [][]float64 { return trace.AverageProbs(g, v) }

// ApplyProfile writes a per-fork probability profile into the graph.
func ApplyProfile(g *Graph, profile [][]float64) error { return trace.ApplyProfile(g, profile) }

// SaveWorkload writes a graph and (optionally nil) platform to a file in
// the line-oriented text format of internal/ctgio.
func SaveWorkload(path string, g *Graph, p *Platform) error {
	return ctgio.WriteFile(path, g, p)
}

// LoadWorkload reads a workload file; the platform is nil when the file has
// no platform section.
func LoadWorkload(path string) (*Graph, *Platform, error) { return ctgio.ReadFile(path) }

// WriteWorkload renders a workload to an io.Writer.
func WriteWorkload(w io.Writer, g *Graph, p *Platform) error { return ctgio.Write(w, g, p) }

// ReadWorkload parses a workload from an io.Reader.
func ReadWorkload(r io.Reader) (*Graph, *Platform, error) { return ctgio.Read(r) }

// Parallelism returns the worker bound of the scenario engine (package
// internal/par): the maximum number of goroutines any one parallel stage —
// per-scenario stretching, exhaustive replay, experiment fan-out — uses.
func Parallelism() int { return par.Limit() }

// SetParallelism bounds the scenario engine's workers and returns the
// previous bound. n = 1 forces fully serial execution (useful for
// deterministic profiling baselines); n <= 0 restores the default
// (GOMAXPROCS). Results are bit-for-bit identical at every setting.
func SetParallelism(n int) int { return par.SetLimit(n) }

package ctgdvfs

import (
	"io"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/ctgio"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/sim"
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
	// Analysis is the scenario (leaf-minterm) decomposition of a Graph.
	Analysis = ctg.Analysis
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
	// RunStats aggregates a replayed vector sequence.
	RunStats = core.RunStats
)

// Telemetry (package internal/telemetry): the runtime's
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
	// MemoryRecorder buffers events in memory (feed to ChromeTrace).
	MemoryRecorder = telemetry.MemoryRecorder
	// JSONLRecorder streams events as JSON lines to a writer.
	JSONLRecorder = telemetry.JSONLRecorder
	// MetricsRegistry is the named counter/gauge/histogram registry with
	// JSON and HTTP exposition.
	MetricsRegistry = telemetry.Registry
	// ChromeTrace exports recorded runs as Chrome trace-event JSON
	// (chrome://tracing, Perfetto).
	ChromeTrace = telemetry.ChromeTrace
	// TruncatedTailError reports a JSONL capture whose final line is torn (a
	// recorder killed mid-write); ReadTelemetryJSONL returns it alongside
	// the intact prefix — treat it as a warning, not a failure.
	TruncatedTailError = telemetry.TruncatedTailError
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

// Fault injection (package internal/faults).
type (
	// FaultSpec parameterizes a deterministic execution-time fault plan:
	// multiplicative WCET overruns, bursty hot-task overruns and transient
	// PE slowdowns, all derived by pure hashing from the seed.
	FaultSpec = faults.Spec
	// FaultPlan is a validated, stateless fault plan; pass it via
	// SimConfig.Faults or AdaptiveOptions.Faults.
	FaultPlan = faults.Plan
	// FailureTimeline is a validated availability timeline; pass it via
	// AdaptiveOptions.Failures to enable degraded-mode re-mapping.
	FailureTimeline = faults.Timeline
)

// Workloads (packages internal/tgff, internal/apps/*, internal/trace).
type (
	// RandomConfig parameterizes the TGFF-style random CTG generator.
	RandomConfig = tgff.Config
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

// ContinuousDVFS is the paper's scaling model: any speed in (0, 1].
func ContinuousDVFS() DVFS { return platform.Continuous() }

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

// Exhaustive replays every leaf scenario under cfg and aggregates by
// probability.
func Exhaustive(s *PlanResult, cfg SimConfig) (SimSummary, error) { return sim.Exhaustive(s, cfg) }

// AnalyzeBreakdown attributes a schedule's expected energy and load to its
// PEs and the interconnect.
func AnalyzeBreakdown(s *PlanResult) Breakdown { return sim.AnalyzeBreakdown(s) }

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

// NewFaultPlan validates and builds a deterministic fault plan for a
// workload of the given size. The plan is stateless: the factor applied to
// task t of instance i is a pure hash of (seed, i, t), so results never
// depend on replay order or the worker bound.
func NewFaultPlan(spec FaultSpec, numTasks, numPEs int) (*FaultPlan, error) {
	return faults.New(spec, numTasks, numPEs)
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

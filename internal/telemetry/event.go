// Package telemetry is the runtime observability layer of the adaptive
// framework: a structured event stream, a metrics registry, and a Chrome
// trace-event exporter. (It is distinct from internal/trace, which generates
// branch-decision workloads.)
//
// The event stream answers *why* the runtime did what it did on a given CTG
// instance — which fork estimate drifted, whether the re-schedule was
// warm-started, how much slack the stretcher found, which task overran, when the
// fallback or the circuit breaker fired — where the end-of-run aggregates
// (core.RunStats) only say how often. Producers (core.Manager, internal/sim,
// internal/stretch) accept a Recorder through their options and emit nothing
// when it is nil: every emission site is guarded by a nil check before any
// event value is built, so the disabled path costs one predictable branch and
// zero allocations.
package telemetry

// Kind enumerates the event taxonomy. The values are stable strings (they
// appear in JSONL output and trace files), not iota constants.
type Kind string

const (
	// KindInstanceStart opens one CTG instance: Instance, Scenario.
	KindInstanceStart Kind = "instance_start"
	// KindInstanceFinish closes one CTG instance: Instance, Scenario,
	// Energy, Makespan, Met, Lateness, Overruns, plus Rescheduled for
	// adaptive runs.
	KindInstanceFinish Kind = "instance_finish"
	// KindTaskSlice is one executed task of a replay: Instance, Task,
	// Name, PE, Start, End, Speed, and Factor (> 1 when a fault plan
	// perturbed the execution).
	KindTaskSlice Kind = "task_slice"
	// KindCommSlice is one link transfer of a replay: Instance, Edge,
	// Task (producer), Task2 (consumer), PE (source), PE2 (destination),
	// Start, End.
	KindCommSlice Kind = "comm_slice"
	// KindEstimate is one fork's windowed probability estimate after an
	// instance's decisions were observed: Instance, Fork, Probs, Drift.
	KindEstimate Kind = "window_estimate"
	// KindReschedule is one re-scheduling decision: Instance, Reason
	// ("drift", "breaker", "initial"), Warm (served incrementally from the
	// incumbent schedule), Calls so far.
	KindReschedule Kind = "reschedule"
	// KindStretch summarizes one stretching pass: Instance, Stretched
	// task count (Tasks), SlackFound, SlackUsed, Energy (expected,
	// post-stretch). Emitted by every single-speed pass, full or warm; the
	// per-scenario table has no single summary.
	KindStretch Kind = "stretch_summary"
	// KindOverrun is one fault-plan perturbed task execution: Instance,
	// Task, PE, Factor.
	KindOverrun Kind = "fault_overrun"
	// KindFallback is one worst-case fallback activation: Instance, Met
	// (did the fallback re-run meet the deadline), Makespan (fallback),
	// Makespan2 (failed primary).
	KindFallback Kind = "fallback"
	// KindGuardLevel is one circuit-breaker level change: Instance,
	// Level (new), Level2 (previous).
	KindGuardLevel Kind = "guard_level"
	// KindPEDown marks a processing element leaving the survivor set at an
	// instance boundary: Instance, PE, Reason ("permanent" or "transient"),
	// Alive (survivor count after the loss).
	KindPEDown Kind = "pe_down"
	// KindPEUp marks a transient PE returning to service: Instance, PE,
	// Alive (survivor count after the repair).
	KindPEUp Kind = "pe_up"
	// KindLinkDown marks a directed link outage: Instance, PE (from), PE2
	// (to).
	KindLinkDown Kind = "link_down"
	// KindLinkUp marks a directed link repair: Instance, PE (from), PE2
	// (to).
	KindLinkUp Kind = "link_up"
	// KindRemap is one availability-driven re-mapping decision: Instance,
	// Reason ("degraded" when hardware was lost, "restored" when the full
	// topology returned), Alive (survivor count the new schedule targets).
	KindRemap Kind = "remap"
	// KindSpan is one timed phase of the reschedule pipeline: Instance,
	// Name (phase: "diff", "dls", "stretch", "validate"), Value (wall time
	// in microseconds), Cause (the trigger the pipeline ran for).
	KindSpan Kind = "pipeline_span"
	// KindAlertFiring is one series-rule alert starting to fire
	// (internal/series): Instance (sample tick), Name (rule name), Reason
	// (watched metric), Value (observed), Threshold (rule bound), Level
	// (consecutive breaching samples), Cause (the instance_finish the
	// triggering sample was taken at).
	KindAlertFiring Kind = "alert_firing"
	// KindAlertResolved closes a firing series-rule alert: the same fields
	// as KindAlertFiring, with Cause the alert_firing being resolved.
	KindAlertResolved Kind = "alert_resolved"
	// KindTenantPanic is one contained tenant-worker panic in the serving
	// daemon (internal/serve): Instance (the tenant's instance count when it
	// panicked), Name (tenant), Reason (the recovered panic value), Level
	// (consecutive panic count), Value (the breaker backoff served, in
	// milliseconds), Cause (the last committed event on the tenant's stream:
	// a panicking step records nothing).
	KindTenantPanic Kind = "tenant_panic"
	// KindCheckpoint is one atomic tenant-state snapshot written by the
	// daemon: Instance (instances captured), Name (tenant), Calls
	// (reschedule calls captured), Key (hex schedule digest the restore must
	// reproduce).
	KindCheckpoint Kind = "checkpoint"
	// KindRestore is one tenant resumed from a snapshot at daemon startup:
	// Instance (instances replayed to), Name (tenant), Key (hex schedule
	// digest, verified bit-for-bit against the snapshot's), Reason ("ok", or
	// "fallback" when the primary snapshot was torn/corrupt and the previous
	// generation was used).
	KindRestore Kind = "restore"
)

// Event is one telemetry record. A single flat struct (rather than one type
// per kind) keeps recording allocation-free for sinks that buffer values and
// keeps JSONL lines self-describing; unused fields are omitted from JSON.
// Field pairs (Task/Task2, PE/PE2, Makespan/Makespan2, Level/Level2) hold the
// kind-specific secondary value documented on each Kind constant.
type Event struct {
	Kind Kind `json:"kind"`
	// Instance is the CTG-instance index the event belongs to (the step
	// index for adaptive runs, the scenario index for exhaustive replays).
	Instance int `json:"instance"`

	// Seq is the event's position in its stream: a monotonic 1-based id
	// stamped from a Sequencer. 0 means the producer was not sequencing
	// (pre-provenance streams stay readable). Seq identifies an event so
	// that later events can name it as their Cause.
	Seq uint64 `json:"seq,omitempty"`
	// Cause is the Seq of the event that triggered this one — the drifted
	// estimate behind a reschedule, the pe_down behind a remap. 0 means no
	// recorded cause (spontaneous or unsequenced). Chains of Cause links
	// reconstruct full decision provenance; `ctgsched explain` walks them.
	Cause uint64 `json:"cause,omitempty"`

	Scenario int     `json:"scenario,omitempty"`
	Task     int     `json:"task,omitempty"`
	Task2    int     `json:"task2,omitempty"`
	Name     string  `json:"name,omitempty"`
	PE       int     `json:"pe,omitempty"`
	PE2      int     `json:"pe2,omitempty"`
	Edge     int     `json:"edge,omitempty"`
	Start    float64 `json:"start,omitempty"`
	End      float64 `json:"end,omitempty"`
	Speed    float64 `json:"speed,omitempty"`
	Factor   float64 `json:"factor,omitempty"`

	Energy    float64 `json:"energy,omitempty"`
	Makespan  float64 `json:"makespan,omitempty"`
	Makespan2 float64 `json:"makespan2,omitempty"`
	Lateness  float64 `json:"lateness,omitempty"`
	Met       bool    `json:"met,omitempty"`
	Overruns  int     `json:"overruns,omitempty"`

	Fork  int       `json:"fork,omitempty"`
	Probs []float64 `json:"probs,omitempty"`
	Drift float64   `json:"drift,omitempty"`
	// Outcome is the realized branch outcome behind a KindEstimate event —
	// the decision that was just shifted into the fork's window. The health
	// layer's drift detector compares it against the estimate stream.
	Outcome int `json:"outcome,omitempty"`

	// Value and Threshold carry an alert's observed value and the
	// configured bound it crossed.
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`

	Reason string `json:"reason,omitempty"`
	// CacheHit is an inert stand-in: nothing sets it, since the manager
	// keeps no schedule cache. Its one reader is perfbench; the
	// perfbench-only change of ROADMAP item 1 retires it.
	CacheHit    bool   `json:"cache_hit,omitempty"`
	Warm        bool   `json:"warm,omitempty"`
	Key         string `json:"key,omitempty"`
	Calls       int    `json:"calls,omitempty"`
	Rescheduled bool   `json:"rescheduled,omitempty"`

	Tasks      int     `json:"tasks,omitempty"`
	SlackFound float64 `json:"slack_found,omitempty"`
	SlackUsed  float64 `json:"slack_used,omitempty"`

	Level  int `json:"level,omitempty"`
	Level2 int `json:"level2,omitempty"`

	// Alive is the surviving-PE count carried by availability events
	// (KindPEDown, KindPEUp, KindRemap).
	Alive int `json:"alive,omitempty"`

	// Phase distinguishes replay passes within one instance: "" is the
	// primary replay, PhaseFallback the worst-case fallback re-run.
	Phase string `json:"phase,omitempty"`
}

// PhaseFallback marks events emitted by the worst-case fallback re-run of an
// instance whose primary replay missed the deadline.
const PhaseFallback = "fallback"

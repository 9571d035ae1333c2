// Package faults models non-deterministic execution-time misbehaviour for
// the adaptive runtime: tasks that overrun their profiled execution time,
// "hot" tasks that overrun in bursts, and processing elements that suffer
// transient slowdowns (DVFS glitches, thermal throttling, shared-resource
// interference). The paper's manager stretches tasks down to the deadline
// assuming every task runs exactly its nominal time, so a single overrun at
// runtime turns the energy win into a deadline miss — exactly the hazard the
// varying-WCET literature (Berten et al.; Leung & Tsui) treats as
// first-class. A Plan is the injection side of the fault-tolerance story;
// detection and recovery live in internal/core.
//
// Determinism is the package's load-bearing property: every factor is a pure
// hash of (seed, stream, instance, task-or-PE), with no shared RNG state.
// The same seed reproduces the same perturbation sequence regardless of
// query order, worker bound, or which subset of instances a caller examines
// — which is what lets the parallel scenario engine fan replays out while
// keeping fault statistics bit-for-bit identical to a serial run.
package faults

import (
	"fmt"
	"math"
	"sort"
)

// Spec parameterizes a fault plan. The zero value is a no-fault plan (every
// factor is exactly 1).
type Spec struct {
	// Seed selects the deterministic perturbation sequence.
	Seed int64 `json:"seed"`

	// OverrunProb is the per-task per-instance probability of an
	// execution-time overrun; OverrunFactor (≥ 1) multiplies the execution
	// time of an overrunning task. OverrunFactor 1.2 models the "20%
	// overrun" setting of the fault campaign.
	OverrunProb   float64 `json:"overrun_prob,omitempty"`
	OverrunFactor float64 `json:"overrun_factor,omitempty"`

	// HotTasks selects this many tasks (deterministically, by seed) for
	// bursty overruns: whenever a burst is active, a hot task overruns by
	// HotFactor (≥ 1) in every instance of the burst. BurstProb is the
	// per-instance probability that a burst starts for a given hot task;
	// BurstLen is the burst duration in instances.
	HotTasks  int     `json:"hot_tasks,omitempty"`
	HotFactor float64 `json:"hot_factor,omitempty"`
	BurstProb float64 `json:"burst_prob,omitempty"`
	BurstLen  int     `json:"burst_len,omitempty"`

	// PESlowProb is the per-PE per-instance probability of a transient
	// slowdown; PESlowFactor (≥ 1) multiplies the execution time of every
	// task dispatched on a slowed PE during that instance.
	PESlowProb   float64 `json:"pe_slow_prob,omitempty"`
	PESlowFactor float64 `json:"pe_slow_factor,omitempty"`
}

// Validate checks the workload-independent half of the spec: probabilities in
// [0,1], factors either unset (0) or finite and ≥ 1, burst geometry coherent.
// New performs these checks plus the count-dependent ones (HotTasks vs the
// task count); the JSON loading path calls Validate directly so a bad spec
// file fails at decode time, not first use.
func (s *Spec) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"OverrunProb", s.OverrunProb},
		{"BurstProb", s.BurstProb},
		{"PESlowProb", s.PESlowProb},
	} {
		if pr.v < 0 || pr.v > 1 || math.IsNaN(pr.v) {
			return fmt.Errorf("faults: %s must be in [0,1], got %v", pr.name, pr.v)
		}
	}
	for _, fc := range []struct {
		name string
		v    float64
	}{
		{"OverrunFactor", s.OverrunFactor},
		{"HotFactor", s.HotFactor},
		{"PESlowFactor", s.PESlowFactor},
	} {
		// 0 means "unset"; an explicit factor must be ≥ 1 and finite
		// (factors below 1 would model tasks finishing early, which the
		// guard-band story does not need and the recovery logic does not
		// expect).
		if fc.v != 0 && (fc.v < 1 || math.IsInf(fc.v, 0) || math.IsNaN(fc.v)) {
			return fmt.Errorf("faults: %s must be ≥ 1, got %v", fc.name, fc.v)
		}
	}
	if s.HotTasks < 0 {
		return fmt.Errorf("faults: negative HotTasks %d", s.HotTasks)
	}
	if s.BurstLen < 0 {
		return fmt.Errorf("faults: negative BurstLen %d", s.BurstLen)
	}
	if s.HotTasks > 0 && s.BurstProb > 0 && s.BurstLen == 0 {
		return fmt.Errorf("faults: bursty hot tasks need BurstLen ≥ 1")
	}
	return nil
}

// Plan is a validated, seeded fault plan for a workload of a fixed task and
// PE count. All methods are safe for concurrent use (the plan is immutable
// after New).
type Plan struct {
	spec  Spec
	tasks int
	pes   int
	hot   []int  // sorted hot-task IDs
	isHot []bool // dense membership
}

// Hash streams keep the independent fault channels decorrelated.
const (
	streamOverrun uint64 = 0x6f766572 // "over"
	streamBurst   uint64 = 0x62757273 // "burs"
	streamPE      uint64 = 0x70657065 // "pepe"
	streamHotPick uint64 = 0x686f7470 // "hotp"
)

// New validates a spec and builds the plan for a workload with the given
// task and PE counts.
func New(spec Spec, numTasks, numPEs int) (*Plan, error) {
	if numTasks <= 0 || numPEs <= 0 {
		return nil, fmt.Errorf("faults: need positive task/PE counts, got %d/%d", numTasks, numPEs)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.HotTasks > numTasks {
		return nil, fmt.Errorf("faults: HotTasks %d out of range for %d tasks", spec.HotTasks, numTasks)
	}
	if spec.OverrunFactor == 0 {
		spec.OverrunFactor = 1
	}
	if spec.HotFactor == 0 {
		spec.HotFactor = spec.OverrunFactor
	}
	if spec.PESlowFactor == 0 {
		spec.PESlowFactor = 1
	}
	p := &Plan{spec: spec, tasks: numTasks, pes: numPEs}
	p.pickHotTasks()
	return p, nil
}

// pickHotTasks selects HotTasks distinct tasks by ranking every task on an
// independent hash score — deterministic in the seed, uniform over tasks.
func (p *Plan) pickHotTasks() {
	p.isHot = make([]bool, p.tasks)
	if p.spec.HotTasks == 0 {
		return
	}
	type scored struct {
		task  int
		score uint64
	}
	all := make([]scored, p.tasks)
	for t := range all {
		all[t] = scored{task: t, score: p.bits(streamHotPick, uint64(t), 0)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return all[i].task < all[j].task
	})
	for _, s := range all[:p.spec.HotTasks] {
		p.hot = append(p.hot, s.task)
		p.isHot[s.task] = true
	}
	sort.Ints(p.hot)
}

// mix64 is the SplitMix64 finalizer: a strong, allocation-free bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bits derives the raw 64-bit hash of one (stream, a, b) draw under the
// plan's seed.
func (p *Plan) bits(stream, a, b uint64) uint64 {
	h := uint64(p.spec.Seed) * 0x9e3779b97f4a7c15
	h = mix64(h ^ stream)
	h = mix64(h ^ a*0xa24baed4963ee407)
	h = mix64(h ^ b*0x9fb21c651e98df25)
	return h
}

// uniform maps a draw to [0,1) with 53 bits of precision.
func (p *Plan) uniform(stream, a, b uint64) float64 {
	return float64(p.bits(stream, a, b)>>11) / (1 << 53)
}

// TaskFactor returns the execution-time multiplier of the given task during
// the given CTG instance: the product of its independent overrun (if drawn)
// and its burst overrun (if the task is hot and a burst is active). The
// result is always ≥ 1; instance indices are defined for every non-negative
// integer, so callers may probe any window of the plan.
func (p *Plan) TaskFactor(instance, task int) float64 {
	if task < 0 || task >= p.tasks {
		return 1
	}
	f := 1.0
	if p.spec.OverrunProb > 0 && p.spec.OverrunFactor > 1 {
		if p.uniform(streamOverrun, uint64(instance), uint64(task)) < p.spec.OverrunProb {
			f = p.spec.OverrunFactor
		}
	}
	if p.isHot[task] && p.inBurst(instance, task) {
		f *= p.spec.HotFactor
	}
	return f
}

// inBurst reports whether a burst covering the instance started for the hot
// task within the last BurstLen instances.
func (p *Plan) inBurst(instance, task int) bool {
	if p.spec.BurstProb <= 0 || p.spec.BurstLen <= 0 || p.spec.HotFactor <= 1 {
		return false
	}
	for j := instance - p.spec.BurstLen + 1; j <= instance; j++ {
		if j < 0 {
			continue
		}
		if p.uniform(streamBurst, uint64(j), uint64(task)) < p.spec.BurstProb {
			return true
		}
	}
	return false
}

// PEFactor returns the execution-time multiplier every task on the given PE
// experiences during the given instance (a transient whole-PE slowdown), ≥ 1.
func (p *Plan) PEFactor(instance, pe int) float64 {
	if pe < 0 || pe >= p.pes {
		return 1
	}
	if p.spec.PESlowProb > 0 && p.spec.PESlowFactor > 1 {
		if p.uniform(streamPE, uint64(instance), uint64(pe)) < p.spec.PESlowProb {
			return p.spec.PESlowFactor
		}
	}
	return 1
}

// Factor returns the combined execution-time multiplier of a task dispatched
// on a PE during an instance: TaskFactor × PEFactor.
func (p *Plan) Factor(instance, task, pe int) float64 {
	return p.TaskFactor(instance, task) * p.PEFactor(instance, pe)
}

// MaxFactor returns the largest combined multiplier the plan can produce —
// the bound a guard band must absorb for schedules to tolerate the plan by
// construction.
func (p *Plan) MaxFactor() float64 {
	f := 1.0
	if p.spec.OverrunProb > 0 {
		f = p.spec.OverrunFactor
	}
	if p.spec.HotTasks > 0 && p.spec.BurstProb > 0 {
		f *= p.spec.HotFactor
	}
	if p.spec.PESlowProb > 0 {
		f *= p.spec.PESlowFactor
	}
	return f
}

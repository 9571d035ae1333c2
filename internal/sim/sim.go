// Package sim replays a scheduled-and-stretched CTG under concrete branch
// decisions: only the tasks active in the realized scenario execute, each PE
// dispatches its active tasks in schedule order, link transfers serialize in
// schedule order, and execution times reflect the per-task DVFS speeds. The
// simulator is the ground truth the experiments measure: per-instance energy
// and makespan, deadline misses, and expected values over the scenario
// distribution.
//
// Runtime semantics (documented simplifications, see DESIGN.md):
//
//   - An or-node waits for the data of all its *active* predecessors. The
//     paper's "implied dependency" on the branch fork (an or-node cannot
//     start before knowing whether a conditional predecessor will run) is
//     subsumed: the fork is an ancestor of every active conditional
//     predecessor, and the static schedule ordered the or-node after all its
//     predecessors anyway, so replay can only finish earlier than the
//     worst-case path bound.
//   - The dispatcher is work-conserving: an active task starts as soon as
//     its data is available and every earlier-ordered active task on its PE
//     has finished; it may start before its nominal start time when earlier
//     (mutually exclusive or inactive) tasks vacated the PE.
package sim

import (
	"fmt"
	"math"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/telemetry"
)

// Instance is the outcome of replaying one CTG iteration. Without a fault
// plan the actual and nominal numbers coincide; with Config.Faults set,
// Energy/Makespan/DeadlineMet describe the *perturbed* execution (what
// actually happened under injected overruns) and the Nominal* fields keep
// the unperturbed timeline alongside for comparison.
type Instance struct {
	// Scenario is the index of the realized leaf minterm.
	Scenario int
	// Energy is the consumed energy: Σ active E(τ)·s² plus the
	// transmission energy of every active cross-PE edge. Under a fault
	// plan, overrunning tasks consume proportionally more (the extra
	// cycles run at the same speed).
	Energy float64
	// Makespan is the completion time of the last active task.
	Makespan float64
	// DeadlineMet reports Makespan ≤ deadline (with a small tolerance).
	DeadlineMet bool
	// Executed counts the active (executed) tasks.
	Executed int

	// NominalEnergy and NominalMakespan are the unperturbed numbers
	// (identical to Energy/Makespan when no fault plan is configured).
	NominalEnergy   float64
	NominalMakespan float64
	// Lateness is max(0, Makespan − deadline): how far past the deadline
	// the instance actually finished.
	Lateness float64
	// Overruns counts active tasks whose execution time was perturbed
	// above nominal by the fault plan.
	Overruns int
	// MaxTaskLateness is the largest per-task finish-time slip versus the
	// nominal timeline (zero without faults).
	MaxTaskLateness float64
}

// Replay executes the schedule under the given leaf scenario. The zero
// Config is the paper's runtime model; its fields enable the optional
// runtime-fidelity features (see Config). A schedule without a dispatch
// plan (one sched.DLS did not build) or one that uses masked-out hardware
// is refused with an error.
func Replay(s *sched.Schedule, scenario int, cfg Config) (Instance, error) {
	if scenario < 0 || scenario >= s.A.NumScenarios() {
		return Instance{}, fmt.Errorf("sim: scenario %d out of range", scenario)
	}
	acts, err := activeDispatches(s, scenario)
	if err != nil {
		return Instance{}, err
	}
	return replayOrder(s, scenario, cfg, acts), nil
}

// activeDispatches filters the schedule's dispatch plan down to the tasks
// and transfers active in the scenario. The plan is sorted on a total order,
// so the filtered list is the scenario's activities in that same order.
func activeDispatches(s *sched.Schedule, scenario int) ([]sched.Dispatch, error) {
	// Every plan holds every task; a shorter one was never built (or was
	// lost), and walking it would "meet" the deadline with nothing run.
	if len(s.Plan) < s.G.NumTasks() {
		return nil, fmt.Errorf("sim: schedule has no dispatch plan (%d entries for %d tasks)",
			len(s.Plan), s.G.NumTasks())
	}
	active := s.A.Scenario(scenario).Active
	acts := make([]sched.Dispatch, 0, len(s.Plan))
	// On a restricted platform the dispatcher refuses masked-out hardware: a
	// schedule that places an active task on a dead PE, or routes an active
	// transfer over a down link, is a scheduler bug, caught here at replay
	// rather than silently "executing" on hardware that no longer exists.
	// The lowest offending task, else the lowest offending edge, is named.
	deadTask, downEdge := -1, -1
	for _, d := range s.Plan {
		id := int(d.ID)
		if !d.Comm {
			if !active.Get(id) {
				continue
			}
			if !s.P.PEAlive(s.PE[id]) && (deadTask < 0 || id < deadTask) {
				deadTask = id
			}
			acts = append(acts, d)
			continue
		}
		e := s.G.Edge(id)
		if !active.Get(int(e.From)) || !active.Get(int(e.To)) {
			continue
		}
		if !s.P.LinkUp(s.PE[e.From], s.PE[e.To]) && (downEdge < 0 || id < downEdge) {
			downEdge = id
		}
		acts = append(acts, d)
	}
	if deadTask >= 0 {
		return nil, fmt.Errorf("sim: scenario %d dispatches task %d on dead PE %d",
			scenario, deadTask, s.PE[deadTask])
	}
	if downEdge >= 0 {
		e := s.G.Edge(downEdge)
		return nil, fmt.Errorf("sim: scenario %d routes edge %d->%d over down link %d->%d",
			scenario, e.From, e.To, s.PE[e.From], s.PE[e.To])
	}
	return acts, nil
}

// replayOrder walks the scenario's activities, in dispatch order, into an
// Instance.
func replayOrder(s *sched.Schedule, scenario int, cfg Config, acts []sched.Dispatch) Instance {
	var guards orGuards
	if cfg.StrictOrDeps {
		guards = buildOrGuards(s)
	}
	active := s.A.Scenario(scenario).Active

	// Telemetry records the timeline that counts: the perturbed walk when a
	// fault plan is active, the nominal walk otherwise.
	nomRec := cfg.Recorder
	if cfg.Faults != nil {
		nomRec = nil
	}
	nom := walkTimeline(s, acts, active, scenario, cfg, guards, false, nomRec)
	inst := Instance{
		Scenario: scenario,
		Energy:   nom.energy, Makespan: nom.makespan, Executed: nom.executed,
		NominalEnergy: nom.energy, NominalMakespan: nom.makespan,
	}
	if cfg.Faults != nil {
		// The perturbed timeline re-walks the same dispatch order with the
		// plan's execution-time factors applied; the nominal walk above is
		// untouched, so disabling faults is bit-for-bit the paper's model.
		pert := walkTimeline(s, acts, active, scenario, cfg, guards, true, cfg.Recorder)
		inst.Energy, inst.Makespan = pert.energy, pert.makespan
		inst.Overruns = pert.overruns
		for t := 0; t < s.G.NumTasks(); t++ {
			if !active.Get(t) {
				continue
			}
			if slip := pert.finish[t] - nom.finish[t]; slip > inst.MaxTaskLateness {
				inst.MaxTaskLateness = slip
			}
		}
	}
	inst.DeadlineMet = inst.Makespan <= s.G.Deadline()+1e-9
	if !inst.DeadlineMet {
		inst.Lateness = inst.Makespan - s.G.Deadline()
	}
	return inst
}

// timeline is the outcome of one dispatch-order walk.
type timeline struct {
	finish   []float64 // per task: completion time
	energy   float64
	makespan float64
	executed int
	overruns int
}

// walkTimeline executes the activity list once: each PE dispatches its
// active tasks in schedule order, link transfers serialize in schedule
// order. With perturb set, every task's execution time (and energy — the
// extra cycles run at the same speed) is multiplied by the fault plan's
// factor for (Config.FaultInstance, task, PE). A non-nil rec receives one
// slice event per dispatched activity (every emission is nil-guarded, so a
// nil rec costs one branch and no allocations).
func walkTimeline(s *sched.Schedule, acts []sched.Dispatch, active ctg.Bitset, scenario int, cfg Config, guards orGuards, perturb bool, rec telemetry.Recorder) timeline {
	finish := make([]float64, s.G.NumTasks())
	commFinish := make([]float64, s.G.NumEdges())
	np := s.P.NumPEs()
	peAvail := make([]float64, np)
	peSpeed := make([]float64, np)      // last dispatched speed; 0 = none
	linkAvail := make([]float64, np*np) // directed link from→to at from*np+to

	tl := timeline{finish: finish}
	for _, act := range acts {
		if act.Comm {
			ei := int(act.ID)
			e := s.G.Edge(ei)
			from, to := s.PE[e.From], s.PE[e.To]
			link := from*np + to
			start := math.Max(linkAvail[link], finish[e.From])
			commFinish[ei] = start + s.CommTime(ei)
			linkAvail[link] = commFinish[ei]
			tl.energy += s.CommEnergy(ei)
			if rec != nil {
				ev := telemetry.Event{
					Kind: telemetry.KindCommSlice, Instance: cfg.InstanceID,
					Scenario: scenario, Edge: ei,
					Task: int(e.From), Task2: int(e.To),
					PE: from, PE2: to,
					Start: start, End: commFinish[ei],
					Energy: s.CommEnergy(ei), Phase: cfg.Phase,
					Cause: cfg.Cause,
				}
				if cfg.Seq != nil {
					ev.Seq = cfg.Seq.Next()
				}
				rec.Record(ev)
			}
			continue
		}
		t := ctg.TaskID(act.ID)
		pe := s.PE[t]
		speed := s.Speed[t]
		if cfg.ScenarioSpeeds != nil {
			speed = cfg.ScenarioSpeeds[scenario][t]
		}
		avail := peAvail[pe]
		if peSpeed[pe] != 0 && peSpeed[pe] != speed {
			// DVFS transition between consecutive tasks on this PE.
			avail += cfg.SwitchTime
			tl.energy += cfg.SwitchEnergy
		}
		start := avail
		for _, ei := range s.G.Pred(t) {
			e := s.G.Edge(ei)
			if !active.Get(int(e.From)) {
				continue
			}
			var ready float64
			if s.CommStart[ei] == sched.LocalComm || s.PE[e.From] == s.PE[e.To] {
				ready = finish[e.From]
			} else {
				ready = commFinish[ei]
			}
			if ready > start {
				start = ready
			}
		}
		if cfg.StrictOrDeps && s.G.Task(t).Kind == ctg.OrNode {
			// Implied dependency: wait for the active forks that decide
			// the fate of every inactive predecessor.
			for k, ei := range s.G.Pred(t) {
				from := s.G.Edge(ei).From
				if active.Get(int(from)) {
					continue
				}
				for _, f := range guards[t][k] {
					if active.Get(int(f)) && finish[f] > start {
						start = finish[f]
					}
				}
			}
		}
		exec := s.WCET(t) / speed
		taskEnergy := s.NominalEnergy(t) * speed * speed
		overrun := 0.0
		if perturb {
			if f := cfg.Faults.Factor(cfg.FaultInstance, int(t), pe); f > 1 {
				exec *= f
				taskEnergy *= f
				tl.overruns++
				overrun = f
			}
		}
		finish[t] = start + exec
		peAvail[pe] = finish[t]
		peSpeed[pe] = speed
		tl.energy += taskEnergy
		tl.executed++
		if finish[t] > tl.makespan {
			tl.makespan = finish[t]
		}
		if rec != nil {
			ev := telemetry.Event{
				Kind: telemetry.KindTaskSlice, Instance: cfg.InstanceID,
				Scenario: scenario, Task: int(t), Name: s.G.Task(t).Name,
				PE: pe, Start: start, End: finish[t],
				Speed: speed, Factor: overrun, Energy: taskEnergy,
				Phase: cfg.Phase,
				Cause: cfg.Cause,
			}
			if cfg.Seq != nil {
				ev.Seq = cfg.Seq.Next()
			}
			rec.Record(ev)
			if overrun > 1 {
				ov := telemetry.Event{
					Kind: telemetry.KindOverrun, Instance: cfg.InstanceID,
					Task: int(t), PE: pe, Factor: overrun, Phase: cfg.Phase,
					Cause: cfg.Cause,
				}
				if cfg.Seq != nil {
					ov.Seq = cfg.Seq.Next()
				}
				rec.Record(ov)
			}
		}
	}
	return tl
}

// ReplayDecisions resolves a full branch decision vector (one outcome per
// fork, in Forks() order) and replays the matching scenario.
func ReplayDecisions(s *sched.Schedule, decisions []int) (Instance, error) {
	si, err := s.A.ScenarioForDecisions(decisions)
	if err != nil {
		return Instance{}, err
	}
	return Replay(s, si, Config{})
}

// Summary aggregates replays over all scenarios of a schedule.
type Summary struct {
	// ExpectedEnergy is Σ prob(scenario)·energy(scenario).
	ExpectedEnergy float64
	// ExpectedMakespan is Σ prob(scenario)·makespan(scenario).
	ExpectedMakespan float64
	// WorstMakespan is the maximum makespan over all scenarios.
	WorstMakespan float64
	// Misses counts scenarios that violate the deadline.
	Misses int

	// ExpectedLateness is the probability-weighted (or sample-mean)
	// deadline overshoot, zero without faults whenever the stretched
	// schedule fits the deadline.
	ExpectedLateness float64
	// NominalExpectedEnergy and NominalExpectedMakespan aggregate the
	// unperturbed numbers; they equal ExpectedEnergy/ExpectedMakespan when
	// no fault plan is configured.
	NominalExpectedEnergy   float64
	NominalExpectedMakespan float64
	// Overruns totals the perturbed task executions across all replays.
	Overruns int
}

// Exhaustive replays every leaf scenario under cfg and aggregates by
// probability. Scenario replays are independent, so they fan out over the
// worker pool; the aggregation then runs serially in scenario order, which
// makes the sums bit-for-bit identical to a serial loop.
func Exhaustive(s *sched.Schedule, cfg Config) (Summary, error) {
	insts, err := par.MapErr(s.A.NumScenarios(), func(si int) (Instance, error) {
		ci := cfg
		if ci.Faults != nil {
			// Each scenario draws its own slice of the fault sequence so
			// the exhaustive sweep exercises the plan's variation.
			ci.FaultInstance = si
		}
		return Replay(s, si, ci)
	})
	if err != nil {
		return Summary{}, err
	}
	return summarize(s, insts), nil
}

// summarize aggregates per-scenario replays (insts[si] for scenario si) by
// probability, serially in scenario order.
func summarize(s *sched.Schedule, insts []Instance) Summary {
	var sum Summary
	for si, inst := range insts {
		p := s.A.Scenario(si).Prob
		sum.ExpectedEnergy += p * inst.Energy
		sum.ExpectedMakespan += p * inst.Makespan
		if inst.Makespan > sum.WorstMakespan {
			sum.WorstMakespan = inst.Makespan
		}
		if !inst.DeadlineMet {
			sum.Misses++
		}
		sum.ExpectedLateness += p * inst.Lateness
		sum.NominalExpectedEnergy += p * inst.NominalEnergy
		sum.NominalExpectedMakespan += p * inst.NominalMakespan
		sum.Overruns += inst.Overruns
	}
	return sum
}

package stretch

import (
	"fmt"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// ScenarioSpeeds is a per-scenario DVFS assignment: Speeds[si][t] is the
// speed of task t when leaf scenario si is realized. It is produced by
// PerScenario and consumed by the simulator (sim.Config.ScenarioSpeeds).
type ScenarioSpeeds struct {
	Speeds [][]float64
}

// PerScenario computes a scenario-conditioned speed assignment — an
// extension beyond the paper, whose heuristic fixes a single speed per task
// across all minterms.
//
// The dispatcher may only use information that is causally available: when
// task τ starts, every branch fork that precedes it (through real edges or
// the schedule's serialization) has already resolved, while other forks may
// not have. The speed of τ is therefore conditioned on the outcomes of τ's
// *ancestor* forks only: scenarios that agree on those outcomes must assign
// τ the same speed. Construction:
//
//  1. For every leaf scenario, stretch the scenario's own subgraph — only
//     its active tasks share the slack, inactive tasks and unrealized
//     transfers cost nothing — yielding an ideal per-scenario speed vector.
//  2. Fold causality in: for each task, over every group of scenarios that
//     agree on its ancestor-fork outcomes, take the fastest assigned speed
//     (running faster than a scenario's ideal is always deadline-safe).
//
// guard ∈ [0, 1] reserves that fraction of every task's per-scenario slack
// as overrun margin (platform.GuardedSpeedForTime); zero is the plain
// construction. cancel, when non-nil, is polled once per scenario (see
// CancelFunc).
//
// w, when non-nil, supplies the DAG model and its class rows: an unbound
// workspace is bound to s, a bound one must have been Rebind-ed to a
// schedule with the same mapping, so repeated calls on one mapping build
// the model once. Nil builds a fresh one.
//
// The input schedule must be unstretched (all speeds 1); the schedule is
// not modified. Expected energy strictly improves over the single-speed
// heuristic whenever minterm workloads differ, at the cost of a speed
// table of size scenarios × tasks.
func PerScenario(s *sched.Schedule, d platform.DVFS, guard float64, cancel CancelFunc, w *Workspace) (*ScenarioSpeeds, error) {
	if err := validGuard(guard); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	for t := range s.Speed {
		if s.Speed[t] != 1 {
			return nil, fmt.Errorf("stretch: PerScenario needs an unstretched schedule (task %d at %v)", t, s.Speed[t])
		}
	}
	a := s.A
	n := s.G.NumTasks()
	base := bind(w, s).dag

	// Step 1: ideal speeds per scenario. Each leaf minterm stretches an
	// independent subgraph, so the loop fans out over the worker pool with
	// per-worker scratch (graph view + DP buffers); results land in
	// scenario-indexed slots, identical to the serial loop.
	// Cancellation polls per scenario: a worker that observes a cancelled
	// run skips its scenario (the slot stays nil), so a cancelled pass stops
	// within one scenario batch — in-flight scenarios finish, queued ones
	// cost one poll each — and the post-barrier check below surfaces the
	// error before the folding stage ever sees the partial table.
	ideal := par.MapScratch(a.NumScenarios(),
		func() *scenarioScratch { return newScenarioScratch(base) },
		func(scr *scenarioScratch, si int) []float64 {
			if cancel != nil && cancel() != nil {
				return nil
			}
			return scenarioStretch(s, d, si, scr, guard)
		})
	if cancel != nil {
		if err := cancel(); err != nil {
			return nil, err
		}
	}

	// Step 2: causality folding. The scenarios that agree on a task's
	// ancestor-fork outcomes are its up class (see classRows).
	out := &ScenarioSpeeds{Speeds: make([][]float64, a.NumScenarios())}
	for si := range out.Speeds {
		out.Speeds[si] = make([]float64, n)
	}
	var fastest []float64
	for t := 0; t < n; t++ {
		fastest = foldTaskSpeeds(&base.up, ctg.TaskID(t), ideal, out.Speeds, fastest)
	}
	return out, nil
}

// foldTaskSpeeds assigns every scenario the fastest ideal speed of t among
// the scenarios of its up class, using fastest as scratch, and returns the
// scratch.
func foldTaskSpeeds(rows *classRows, t ctg.TaskID, ideal, speeds [][]float64, fastest []float64) []float64 {
	fastest = grow(fastest[:0], rows.count(t))
	clear(fastest)
	for si := range ideal {
		if c := rows.at(t, si); ideal[si][t] > fastest[c] {
			fastest[c] = ideal[si][t]
		}
	}
	for si := range speeds {
		speeds[si][t] = fastest[rows.at(t, si)]
	}
	return fastest
}

// scenarioScratch is the per-worker reusable state of the PerScenario
// stretching loop: a mutable view of the base DAG (cost vectors only; the
// topology is shared read-only), the pass over the scenario's graph with
// its decomposition, and the lock vector.
type scenarioScratch struct {
	base   *dagModel
	view   dagModel
	dp     *dpResult
	p      pass
	locked []bool
}

func newScenarioScratch(base *dagModel) *scenarioScratch {
	n := len(base.exec)
	scr := &scenarioScratch{base: base, view: *base, dp: newDPResult(n), locked: make([]bool, n)}
	scr.view.exec = make([]float64, n)
	scr.view.comm = make([]float64, len(base.comm))
	return scr
}

// load resets the scratch to the scenario's view of the base DAG: only
// active tasks carry execution time and only transfers between active
// endpoints cost.
func (scr *scenarioScratch) load(active ctg.Bitset) {
	base := scr.base
	copy(scr.view.exec, base.exec)
	copy(scr.view.comm, base.comm)
	for t := range scr.view.exec {
		if !active.Get(t) {
			scr.view.exec[t] = 0
		}
	}
	for ei, e := range base.edges {
		if !active.Get(int(e.From)) || !active.Get(int(e.To)) {
			scr.view.comm[ei] = 0
		}
	}
	clear(scr.locked)
}

// scenarioStretch stretches one scenario's subgraph: only active tasks carry
// execution time, only transfers between active endpoints cost, and the
// whole slack is distributed among the active tasks (activation within the
// scenario is certain, so no probability weighting applies).
func scenarioStretch(s *sched.Schedule, d platform.DVFS, si int, scr *scenarioScratch, guard float64) []float64 {
	sc := s.A.Scenario(si)
	scr.load(sc.Active)
	dag := &scr.view
	deadline := s.G.Deadline()
	n := len(dag.exec)
	speeds := make([]float64, n)
	for t := range speeds {
		speeds[t] = 1
	}
	locked := scr.locked
	r, p := scr.dp, &scr.p
	p.reset(dag, r, sc.Assign)
	for _, t := range s.Order {
		if sc.Active.Get(int(t)) {
			p.up(t, -1)
			p.down(t, -1)
			delay := dag.throughAny(r, t)
			if slack := deadline - delay; slack > 0 {
				denom := r.criticalDenominator(dag, t, 'A', locked)
				wcet := s.WCET(t)
				slk := wcet * slack / denom
				if slk > slack {
					slk = slack
				}
				if slk > 0 {
					speed := d.GuardedSpeedForTime(wcet, wcet+slk, guard)
					if speed < 1 {
						speeds[t] = speed
						dag.exec[t] = wcet / speed
						p.stretched(t)
					}
				}
			}
		}
		locked[t] = true
	}
	return speeds
}

// ExpectedEnergyWithScenarioSpeeds evaluates the expected energy of a
// schedule under a per-scenario speed table.
func ExpectedEnergyWithScenarioSpeeds(s *sched.Schedule, sp *ScenarioSpeeds) float64 {
	a := s.A
	total := 0.0
	for si := 0; si < a.NumScenarios(); si++ {
		sc := a.Scenario(si)
		e := 0.0
		sc.Active.ForEach(func(t int) {
			v := sp.Speeds[si][t]
			e += s.NominalEnergy(ctg.TaskID(t)) * v * v
		})
		for ei, edge := range s.G.Edges() {
			if sc.Active.Get(int(edge.From)) && sc.Active.Get(int(edge.To)) {
				e += s.CommEnergy(ei)
			}
		}
		total += sc.Prob * e
	}
	return total
}

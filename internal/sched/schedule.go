// Package sched implements the task mapping and ordering stage of the
// paper: the modified Dynamic Level Scheduling (DLS) algorithm adopted from
// Malani et al. (ISCAS 2007, the paper's ref [17]), plus the plain DLS
// variant used to model reference algorithm 1 (Shin & Kim, ISLPED 2003).
//
// DLS is a list scheduler: among all (ready task, PE) pairs it repeatedly
// selects the pair with the highest dynamic level
//
//	DL(τ, p) = SL(τ) − AT(τ, p) + δ(τ, p)
//
// where SL is the static level (probability-weighted over branch outcomes in
// the modified variant), AT is the earliest start time of τ on p considering
// both PE occupancy and communication scheduling on the point-to-point
// links, and δ(τ, p) = avgWCET(τ) − WCET(τ, p) rewards PEs that run the task
// faster than average.
//
// The modified variant is aware of mutual exclusion: two tasks that can
// never be active in the same CTG instance may occupy the same PE at the
// same time.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
)

// LocalComm marks the CommStart entry of an edge whose endpoints share a PE
// (no link traffic is scheduled for it).
const LocalComm = -1

// Schedule is the output of the mapping/ordering stage and the object the
// stretching (DVFS) stage decorates with speeds. Start times are nominal
// full-speed times; after stretching, the replay simulator recomputes actual
// timing from the resource orders and the per-task speeds.
type Schedule struct {
	G *ctg.Graph
	A *ctg.Analysis
	P *platform.Platform

	PE    []int     // per task: assigned processing element
	Start []float64 // per task: nominal start at full speed
	Speed []float64 // per task: DVFS speed in (0,1], 1 until stretched

	// Order is the global DLS selection order; the stretching heuristic
	// follows it ("following the task order generated by ordering
	// algorithm").
	Order []ctg.TaskID
	// PEOrder lists, per PE, the assigned tasks by nominal start time.
	PEOrder [][]ctg.TaskID
	// CommStart holds, per graph edge index, the nominal start of its link
	// transfer, or LocalComm when both endpoints share a PE.
	CommStart []float64
	// Plan is the dispatch plan: every task and every cross-PE transfer,
	// in the order the replay dispatcher serves them (see Dispatch). DLS
	// builds it once its start times are final; it is immutable from then
	// on, so Clone and CopyInto share it and concurrent replays read it.
	Plan []Dispatch
	// Pseudo are the schedule-induced serialization edges (see
	// InjectPseudoEdges).
	Pseudo []ctg.Edge
	// Makespan is the nominal full-speed completion time of the whole CTG
	// (worst case over scenarios, since all tasks are placed).
	Makespan float64
}

// WCET returns the worst-case execution time of task t on its assigned PE
// at full speed.
func (s *Schedule) WCET(t ctg.TaskID) float64 { return s.P.WCET(int(t), s.PE[t]) }

// ExecTime returns the stretched execution time of task t on its assigned
// PE: WCET / speed.
func (s *Schedule) ExecTime(t ctg.TaskID) float64 { return s.WCET(t) / s.Speed[t] }

// NominalEnergy returns the full-speed energy of task t on its assigned PE.
func (s *Schedule) NominalEnergy(t ctg.TaskID) float64 { return s.P.Energy(int(t), s.PE[t]) }

// TaskEnergy returns the energy of task t at its assigned speed (E·s²).
func (s *Schedule) TaskEnergy(t ctg.TaskID) float64 {
	sp := s.Speed[t]
	return s.NominalEnergy(t) * sp * sp
}

// CommTime returns the link time of graph edge ei under the mapping (zero
// for co-located endpoints).
func (s *Schedule) CommTime(ei int) float64 {
	e := s.G.Edge(ei)
	return s.P.CommTime(e.CommKB, s.PE[e.From], s.PE[e.To])
}

// CommEnergy returns the transmission energy of graph edge ei under the
// mapping.
func (s *Schedule) CommEnergy(ei int) float64 {
	e := s.G.Edge(ei)
	return s.P.CommEnergy(e.CommKB, s.PE[e.From], s.PE[e.To])
}

// commScen returns the scenario set in which edge ei actually transfers:
// both endpoints active.
func (s *Schedule) commScen(ei int) ctg.Bitset {
	e := s.G.Edge(ei)
	set := s.A.ActivationSet(e.From).Clone()
	set.IntersectWith(s.A.ActivationSet(e.To))
	return set
}

// ExpectedEnergy returns the statistically expected energy of one CTG
// instance under the current speeds: Σ_τ prob(τ)·E(τ)·s² plus the expected
// communication energy of every cross-PE edge.
func (s *Schedule) ExpectedEnergy() float64 {
	sum := 0.0
	for t := 0; t < s.G.NumTasks(); t++ {
		sum += s.A.ActivationProb(ctg.TaskID(t)) * s.TaskEnergy(ctg.TaskID(t))
	}
	for ei := range s.G.Edges() {
		if ce := s.CommEnergy(ei); ce > 0 {
			sum += s.A.ProbOfSet(s.commScen(ei)) * ce
		}
	}
	return sum
}

// Clone returns a deep copy sharing the immutable graph/analysis/platform
// and dispatch plan.
func (s *Schedule) Clone() *Schedule {
	cp := *s
	cp.PE = append([]int(nil), s.PE...)
	cp.Start = append([]float64(nil), s.Start...)
	cp.Speed = append([]float64(nil), s.Speed...)
	cp.Order = append([]ctg.TaskID(nil), s.Order...)
	cp.PEOrder = make([][]ctg.TaskID, len(s.PEOrder))
	for i := range s.PEOrder {
		cp.PEOrder[i] = append([]ctg.TaskID(nil), s.PEOrder[i]...)
	}
	cp.CommStart = append([]float64(nil), s.CommStart...)
	// cp.Plan shares s.Plan: a plan is never written after DLS builds it.
	cp.Pseudo = append([]ctg.Edge(nil), s.Pseudo...)
	return &cp
}

// Validate checks the static consistency of the nominal (full-speed)
// schedule: every task is placed, precedence plus communication delays are
// respected, and no two tasks that can co-occur overlap on a PE. It is used
// by tests and as a debugging aid.
func (s *Schedule) Validate() error {
	n := s.G.NumTasks()
	if len(s.PE) != n || len(s.Start) != n || len(s.Speed) != n {
		return fmt.Errorf("sched: schedule arrays sized %d/%d/%d, want %d",
			len(s.PE), len(s.Start), len(s.Speed), n)
	}
	for t := 0; t < n; t++ {
		if err := s.validTask(t); err != nil {
			return err
		}
	}
	if err := s.validEdges(); err != nil {
		return err
	}
	// PE exclusivity per scenario.
	const eps = 1e-9
	for pe := 0; pe < s.P.NumPEs(); pe++ {
		tasks := s.PEOrder[pe]
		for i := 0; i < len(tasks); i++ {
			for j := i + 1; j < len(tasks); j++ {
				a, b := tasks[i], tasks[j]
				if s.A.MutuallyExclusive(a, b) {
					continue
				}
				aEnd := s.Start[a] + s.P.WCET(int(a), pe)
				bEnd := s.Start[b] + s.P.WCET(int(b), pe)
				if s.Start[a] < bEnd-eps && s.Start[b] < aEnd-eps {
					return fmt.Errorf("sched: tasks %d and %d overlap on PE %d", a, b, pe)
				}
			}
		}
	}
	return nil
}

// validTask checks one task's placement, start and speed.
func (s *Schedule) validTask(t int) error {
	if s.PE[t] < 0 || s.PE[t] >= s.P.NumPEs() {
		return fmt.Errorf("sched: task %d on invalid PE %d", t, s.PE[t])
	}
	if !s.P.PEAlive(s.PE[t]) {
		return fmt.Errorf("sched: task %d placed on dead PE %d", t, s.PE[t])
	}
	if s.Start[t] < 0 || math.IsNaN(s.Start[t]) {
		return fmt.Errorf("sched: task %d has invalid start %v", t, s.Start[t])
	}
	if !(s.Speed[t] > 0) || s.Speed[t] > 1 {
		return fmt.Errorf("sched: task %d has invalid speed %v", t, s.Speed[t])
	}
	return nil
}

// validEdges checks the precedence-plus-communication inequalities of every
// real edge.
func (s *Schedule) validEdges() error {
	const eps = 1e-9
	for ei, e := range s.G.Edges() {
		need := s.Start[e.From] + s.P.WCET(int(e.From), s.PE[e.From])
		if ct := s.CommTime(ei); ct > 0 {
			if !s.P.LinkUp(s.PE[e.From], s.PE[e.To]) {
				return fmt.Errorf("sched: edge %d->%d routed over down link %d->%d",
					e.From, e.To, s.PE[e.From], s.PE[e.To])
			}
			cs := s.CommStart[ei]
			if cs < need-eps {
				return fmt.Errorf("sched: edge %d->%d transfer starts at %v before producer finishes at %v",
					e.From, e.To, cs, need)
			}
			need = cs + ct
		}
		if s.Start[e.To] < need-eps {
			return fmt.Errorf("sched: edge %d->%d violated: start %v < required %v",
				e.From, e.To, s.Start[e.To], need)
		}
	}
	return nil
}

// Dispatch is one entry of a dispatch plan: a task, or the link transfer
// of a cross-PE edge, at its nominal start.
type Dispatch struct {
	Start float64 // nominal start: Start[task] or CommStart[edge]
	ID    int32   // task ID, or edge index when Comm is set
	Comm  bool
}

// dispatchLess is the plan's key: nominal start, then transfers before
// tasks, then ID. It is a total order (no two entries share Comm and ID), so
// any subset of a sorted plan is itself sorted on it.
func dispatchLess(a, b Dispatch) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if a.Comm != b.Comm {
		if a.Comm {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// buildPlan sets s.Plan from the final Start and CommStart. The plan is a
// fresh slice: a schedule sharing the previous one keeps it intact.
func (s *Schedule) buildPlan() {
	plan := make([]Dispatch, 0, s.G.NumTasks()+s.G.NumEdges())
	for t, st := range s.Start {
		plan = append(plan, Dispatch{Start: st, ID: int32(t)})
	}
	for ei, cs := range s.CommStart {
		if cs != LocalComm {
			plan = append(plan, Dispatch{Start: cs, ID: int32(ei), Comm: true})
		}
	}
	slices.SortFunc(plan, dispatchLess)
	s.Plan = plan
}

// sortPEOrder rebuilds PEOrder from Start: per PE, by start, then ID. The
// rows share one backing array, each capped at its own length.
func (s *Schedule) sortPEOrder() {
	np := s.P.NumPEs()
	end := make([]int, np+1) // end[pe+1]: PE pe's row size, then its end in tasks
	for _, pe := range s.PE {
		end[pe+1]++
	}
	for pe := 0; pe < np; pe++ {
		end[pe+1] += end[pe]
	}
	tasks := make([]ctg.TaskID, len(s.PE))
	s.PEOrder = make([][]ctg.TaskID, np)
	for pe := range s.PEOrder {
		s.PEOrder[pe] = tasks[end[pe]:end[pe]:end[pe+1]]
	}
	for t, pe := range s.PE {
		s.PEOrder[pe] = append(s.PEOrder[pe], ctg.TaskID(t))
	}
	for _, order := range s.PEOrder {
		slices.SortFunc(order, func(a, b ctg.TaskID) int {
			if c := cmp.Compare(s.Start[a], s.Start[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
}

// InjectPseudoEdges computes the serialization edges the schedule imposes
// and stores them in s.Pseudo. For each task t on a PE we walk backwards
// through the earlier tasks of that PE, adding an edge u→t for every
// non-mutually-exclusive predecessor u until the union of the predecessors'
// activation sets covers t's activation set: in every scenario where t runs,
// some pseudo predecessor serializes before it, so the path model sees every
// chain the dispatcher enforces.
func (s *Schedule) InjectPseudoEdges() {
	s.Pseudo = s.Pseudo[:0]
	cover := ctg.NewBitset(s.A.NumScenarios())
	for pe := range s.PEOrder {
		tasks := s.PEOrder[pe]
		for i := 1; i < len(tasks); i++ {
			t := tasks[i]
			need := s.A.ActivationSet(t)
			cover.Clear()
			for j := i - 1; j >= 0; j-- {
				u := tasks[j]
				if s.A.MutuallyExclusive(u, t) {
					continue
				}
				uSet := s.A.ActivationSet(u)
				if !uSet.Intersects(need) {
					continue
				}
				// Skip predecessors that add no new coverage; they are
				// already transitively ordered through a later task.
				before := cover.Count()
				cover.UnionWith(uSet)
				if cover.Count() == before {
					continue
				}
				s.Pseudo = append(s.Pseudo, ctg.Edge{From: u, To: t, Pseudo: true})
				if cover.ContainsAll(need) {
					break
				}
			}
		}
	}
}

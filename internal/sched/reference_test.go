package sched

import (
	"fmt"
	"math"
	"sort"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
)

// This file holds the reference DLS that the incremental scheduler is
// checked against bit for bit: the selection loop re-scores every
// (ready task, PE) pair in every round, timelines are scanned linearly and
// re-sorted after every reservation, links live in a map, and the PE orders
// and pseudo edges are built with a comparison sort and a fresh cover set
// per task. It shares nothing with DLSInto but the static levels and the
// dispatch plan builder, neither of which the incremental scheduler touches.

// refTimeline is the linear-scan timeline: intervals sorted by start, every
// query a scan from the first interval.
type refTimeline struct {
	ivals []interval
}

func (tl *refTimeline) conflictsAt(t, dur float64, scen ctg.Bitset) bool {
	end := t + dur
	for _, iv := range tl.ivals {
		if iv.start >= end {
			break
		}
		if iv.end > t && iv.scen.Intersects(scen) {
			return true
		}
	}
	return false
}

func (tl *refTimeline) earliestFit(ready, dur float64, scen ctg.Bitset) float64 {
	if !tl.conflictsAt(ready, dur, scen) {
		return ready
	}
	best := -1.0
	for _, iv := range tl.ivals {
		t := iv.end
		if t < ready {
			continue
		}
		if !tl.conflictsAt(t, dur, scen) && (best < 0 || t < best) {
			best = t
		}
	}
	if best < 0 {
		last := 0.0
		for _, iv := range tl.ivals {
			if iv.end > last {
				last = iv.end
			}
		}
		if last < ready {
			last = ready
		}
		return last
	}
	return best
}

func (tl *refTimeline) add(start, dur float64, scen ctg.Bitset) {
	if dur <= 0 {
		return
	}
	tl.ivals = append(tl.ivals, interval{start: start, end: start + dur, scen: scen})
	sort.Slice(tl.ivals, func(i, j int) bool { return tl.ivals[i].start < tl.ivals[j].start })
}

// refPlan is one planned link transfer of the winning candidate.
type refPlan struct {
	edge, from int
	start, dur float64
	scen       ctg.Bitset
}

// ReferenceDLS is the non-incremental DLS: the oracle of DLSInto.
func ReferenceDLS(a *ctg.Analysis, p *platform.Platform, opts Options) (*Schedule, error) {
	g := a.Graph()
	n := g.NumTasks()
	if p.NumTasks() != n {
		return nil, fmt.Errorf("sched: platform sized for %d tasks, graph has %d", p.NumTasks(), n)
	}
	sl := staticLevels(g, p, opts.Probabilistic)

	s := &Schedule{
		G:         g,
		A:         a,
		P:         p,
		PE:        make([]int, n),
		Start:     make([]float64, n),
		Speed:     make([]float64, n),
		CommStart: make([]float64, g.NumEdges()),
	}
	for t := range s.Speed {
		s.Speed[t] = 1
		s.PE[t] = -1
	}
	for ei := range s.CommStart {
		s.CommStart[ei] = LocalComm
	}

	peTL := make([]refTimeline, p.NumPEs())
	linkTL := make(map[[2]int]*refTimeline)
	tlFor := func(i, j int) *refTimeline {
		key := [2]int{i, j}
		tl, ok := linkTL[key]
		if !ok {
			tl = &refTimeline{}
			linkTL[key] = tl
		}
		return tl
	}
	fullSet := ctg.NewBitset(a.NumScenarios())
	for i := 0; i < a.NumScenarios(); i++ {
		fullSet.Set(i)
	}
	scenOf := func(t ctg.TaskID) ctg.Bitset {
		if opts.MEOverlap {
			return a.ActivationSet(t)
		}
		return fullSet
	}
	edgeScen := func(ei int) ctg.Bitset {
		e := g.Edge(ei)
		set := a.ActivationSet(e.From).Clone()
		set.IntersectWith(a.ActivationSet(e.To))
		return set
	}

	scheduled := make([]bool, n)
	unschedPreds := make([]int, n)
	var ready []ctg.TaskID
	for t := 0; t < n; t++ {
		unschedPreds[t] = len(g.Pred(ctg.TaskID(t)))
		if unschedPreds[t] == 0 {
			ready = append(ready, ctg.TaskID(t))
		}
	}

	var plans, bestPlans []refPlan
	evaluate := func(t ctg.TaskID, pe int) (at float64, ok bool) {
		plans = plans[:0]
		dataReady := 0.0
		for _, ei := range g.Pred(t) {
			e := g.Edge(ei)
			from := e.From
			finish := s.Start[from] + p.WCET(int(from), s.PE[from])
			ct := p.CommTime(e.CommKB, s.PE[from], pe)
			if ct == 0 {
				if finish > dataReady {
					dataReady = finish
				}
				continue
			}
			if !p.LinkUp(s.PE[from], pe) {
				return 0, false
			}
			scen := edgeScen(ei)
			if !opts.MEOverlap {
				scen = fullSet
			}
			cs := finish
			if opts.CommAware {
				cs = tlFor(s.PE[from], pe).earliestFit(finish, ct, scen)
			}
			plans = append(plans, refPlan{edge: ei, from: s.PE[from], start: cs, dur: ct, scen: scen})
			if arr := cs + ct; arr > dataReady {
				dataReady = arr
			}
		}
		return peTL[pe].earliestFit(dataReady, p.WCET(int(t), pe), scenOf(t)), true
	}

	for len(ready) > 0 {
		bestDL := math.Inf(-1)
		bestAT := 0.0
		bestPlans = bestPlans[:0]
		bestIdx, bestPE := -1, -1
		for ri, t := range ready {
			for pe := 0; pe < p.NumPEs(); pe++ {
				if !p.PEAlive(pe) {
					continue
				}
				at, feasible := evaluate(t, pe)
				if !feasible {
					continue
				}
				delta := p.AvgWCET(int(t)) - p.WCET(int(t), pe)
				dl := sl[t] - at + delta
				if opts.EnergyWeight != 0 {
					avg := 0.0
					for q := 0; q < p.NumPEs(); q++ {
						avg += p.Energy(int(t), q)
					}
					avg /= float64(p.NumPEs())
					dl += opts.EnergyWeight * a.ActivationProb(t) * (avg - p.Energy(int(t), pe))
				}
				if dl > bestDL+1e-12 {
					bestDL, bestAT = dl, at
					bestIdx, bestPE = ri, pe
					plans, bestPlans = bestPlans, plans
				}
			}
		}
		if bestIdx < 0 {
			return nil, &InfeasibleError{Task: int(ready[0]),
				Reason: "no alive PE can receive the task's dependencies over surviving links"}
		}
		t := ready[bestIdx]
		s.PE[t] = bestPE
		s.Start[t] = bestAT
		peTL[bestPE].add(bestAT, p.WCET(int(t), bestPE), scenOf(t))
		for _, cp := range bestPlans {
			s.CommStart[cp.edge] = cp.start
			tlFor(cp.from, bestPE).add(cp.start, cp.dur, cp.scen)
		}
		s.Order = append(s.Order, t)
		scheduled[t] = true
		ready = append(ready[:bestIdx], ready[bestIdx+1:]...)
		for _, ei := range g.Succ(t) {
			to := g.Edge(ei).To
			unschedPreds[to]--
			if unschedPreds[to] == 0 {
				ready = append(ready, to)
			}
		}
	}

	for t := 0; t < n; t++ {
		if !scheduled[t] {
			return nil, fmt.Errorf("sched: task %d never became ready (graph inconsistency)", t)
		}
		if end := s.Start[t] + p.WCET(t, s.PE[t]); end > s.Makespan {
			s.Makespan = end
		}
	}
	refSortPEOrder(s)
	s.buildPlan()
	refInjectPseudoEdges(s)
	return s, nil
}

// refSortPEOrder builds PEOrder with a comparison sort on (start, id).
func refSortPEOrder(s *Schedule) {
	s.PEOrder = make([][]ctg.TaskID, s.P.NumPEs())
	for t := 0; t < s.G.NumTasks(); t++ {
		s.PEOrder[s.PE[t]] = append(s.PEOrder[s.PE[t]], ctg.TaskID(t))
	}
	for pe := range s.PEOrder {
		order := s.PEOrder[pe]
		sort.Slice(order, func(i, j int) bool {
			if s.Start[order[i]] != s.Start[order[j]] {
				return s.Start[order[i]] < s.Start[order[j]]
			}
			return order[i] < order[j]
		})
	}
}

// refInjectPseudoEdges builds Pseudo with a fresh cover set per task.
func refInjectPseudoEdges(s *Schedule) {
	s.Pseudo = nil
	for pe := range s.PEOrder {
		tasks := s.PEOrder[pe]
		for i := 1; i < len(tasks); i++ {
			t := tasks[i]
			need := s.A.ActivationSet(t)
			cover := ctg.NewBitset(need.Len())
			for j := i - 1; j >= 0; j-- {
				u := tasks[j]
				if s.A.MutuallyExclusive(u, t) {
					continue
				}
				uSet := s.A.ActivationSet(u)
				if !uSet.Intersects(need) {
					continue
				}
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

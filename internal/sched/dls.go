package sched

import (
	"fmt"
	"math"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
)

// Options selects between the modified DLS of the paper (ref [17]) and the
// plainer list scheduler used to model reference algorithm 1.
type Options struct {
	// Probabilistic weights the static levels of branch fork nodes by the
	// branch selection probabilities (modified DLS). When false, SL uses
	// the worst case (max over successors) everywhere.
	Probabilistic bool
	// MEOverlap lets mutually exclusive tasks share PE time. When false,
	// every pair of tasks on a PE is serialized.
	MEOverlap bool
	// CommAware models contention on the point-to-point links when
	// computing AT (transfers on one link serialize). When false, links
	// are treated as contention-free; transfers still take time.
	CommAware bool
	// EnergyWeight extends the dynamic level with an energy preference
	// term (an extension beyond the paper, whose DL is delay-only):
	//
	//	DL'(τ, p) = DL(τ, p) + w·prob(τ)·(avgE(τ) − E(τ, p))
	//
	// rewarding PEs that run the task cheaper than average, weighted by
	// how likely the task is to execute at all. Zero (the default)
	// reproduces the paper. Units: w converts energy to the time scale of
	// the dynamic level.
	EnergyWeight float64
}

// Modified returns the options of the paper's modified DLS.
func Modified() Options { return Options{Probabilistic: true, MEOverlap: true, CommAware: true} }

// Plain returns the options modeling reference algorithm 1's ordering:
// worst-case levels, no ME overlap, contention-blind communication.
func Plain() Options { return Options{} }

// commPlan is one planned link transfer of a candidate placement: the edge,
// the directed link, the scheduled transfer window and the scenario set it
// occupies.
type commPlan struct {
	edge  int
	link  [2]int
	start float64
	dur   float64
	scen  ctg.Bitset
}

// Workspace holds the reusable buffers of repeated DLS invocations — the
// adaptive manager re-runs DLS at every full reschedule, and without buffer
// reuse each run pays O(tasks) slice allocations plus one activation-set
// clone per (candidate task, PE, incoming edge) evaluation. The workspace is
// not safe for concurrent use; one per manager (or per worker) is the
// intended pattern.
type Workspace struct {
	// Cancel, when non-nil, is polled once per placement round (each round
	// commits one task, the unit of work between checkpoints); a non-nil
	// return aborts the run with that error before the next placement. The
	// intended value is a context's Err method: the daemon threads request
	// deadlines through here so an overloaded reschedule stops within one
	// round instead of running to completion against a caller that already
	// gave up. Cancellation must be monotone (once non-nil, always non-nil).
	Cancel func() error

	sl           []float64
	scheduled    []bool
	unschedPreds []int
	ready        []ctg.TaskID
	avgEnergy    []float64

	peTL   []timeline
	linkTL map[[2]int]*timeline

	// fullSet and edgeScen are probability-independent per analysis:
	// fullSet is the all-scenarios set, edgeScen caches per real edge the
	// intersection of the endpoint activation sets (the scenario set in
	// which the transfer happens). The cache is keyed to the analysis and
	// rebuilt when a different one shows up.
	fullSet  ctg.Bitset
	edgeScen []ctg.Bitset
	scenFor  *ctg.Analysis

	// plans/bestPlans are the double-buffered candidate transfer plans of
	// the selection loop: evaluate fills plans, a new best swaps the
	// buffers so the winner survives while the loser becomes scratch.
	plans, bestPlans []commPlan
}

// NewWorkspace returns an empty DLS workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// prep sizes the workspace for one DLS run.
func (ws *Workspace) prep(a *ctg.Analysis, p *platform.Platform, n int) {
	if cap(ws.sl) < n {
		ws.sl = make([]float64, n)
		ws.scheduled = make([]bool, n)
		ws.unschedPreds = make([]int, n)
	}
	ws.sl = ws.sl[:n]
	ws.scheduled = ws.scheduled[:n]
	ws.unschedPreds = ws.unschedPreds[:n]
	for t := 0; t < n; t++ {
		ws.scheduled[t] = false
	}
	ws.ready = ws.ready[:0]
	if cap(ws.peTL) < p.NumPEs() {
		ws.peTL = make([]timeline, p.NumPEs())
	}
	ws.peTL = ws.peTL[:p.NumPEs()]
	for pe := range ws.peTL {
		ws.peTL[pe].reset()
	}
	if ws.linkTL == nil {
		ws.linkTL = make(map[[2]int]*timeline)
	}
	for _, tl := range ws.linkTL {
		tl.reset()
	}
	if ws.scenFor != a {
		ws.scenFor = a
		ws.fullSet = ctg.NewBitset(a.NumScenarios())
		for i := 0; i < a.NumScenarios(); i++ {
			ws.fullSet.Set(i)
		}
		ws.edgeScen = make([]ctg.Bitset, a.Graph().NumEdges())
	}
}

// edgeScenOf returns (lazily computing) the scenario set in which real edge
// ei transfers: both endpoints active. Activation sets are
// probability-independent, so the cache stays valid across reschedules.
func (ws *Workspace) edgeScenOf(a *ctg.Analysis, ei int) ctg.Bitset {
	if ws.edgeScen[ei].Len() == 0 {
		e := a.Graph().Edge(ei)
		set := a.ActivationSet(e.From).Clone()
		set.IntersectWith(a.ActivationSet(e.To))
		ws.edgeScen[ei] = set
	}
	return ws.edgeScen[ei]
}

// DLS maps and orders the tasks of g on platform p using dynamic-level list
// scheduling. The returned schedule has all speeds at 1; run a stretching
// pass (package stretch) to assign DVFS speeds.
func DLS(a *ctg.Analysis, p *platform.Platform, opts Options) (*Schedule, error) {
	return DLSInto(a, p, opts, nil)
}

// DLSInto is DLS reusing a Workspace across calls; the returned Schedule is
// still freshly allocated (callers retain schedules — caches, fallbacks — so
// only the transient scheduling state is pooled). A nil workspace allocates
// a private one, making DLSInto(a, p, opts, nil) exactly DLS.
func DLSInto(a *ctg.Analysis, p *platform.Platform, opts Options, ws *Workspace) (*Schedule, error) {
	g := a.Graph()
	n := g.NumTasks()
	if p.NumTasks() != n {
		return nil, fmt.Errorf("sched: platform sized for %d tasks, graph has %d", p.NumTasks(), n)
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.prep(a, p, n)

	sl := staticLevelsInto(g, p, opts.Probabilistic, ws.sl)

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

	peTL := ws.peTL
	tlFor := func(i, j int) *timeline {
		key := [2]int{i, j}
		tl, ok := ws.linkTL[key]
		if !ok {
			tl = &timeline{}
			ws.linkTL[key] = tl
		}
		return tl
	}

	scenOf := func(t ctg.TaskID) ctg.Bitset {
		if opts.MEOverlap {
			return a.ActivationSet(t)
		}
		return ws.fullSet
	}

	scheduled := ws.scheduled
	unschedPreds := ws.unschedPreds
	for t := 0; t < n; t++ {
		unschedPreds[t] = len(g.Pred(ctg.TaskID(t)))
	}
	ready := ws.ready
	for t := 0; t < n; t++ {
		if unschedPreds[t] == 0 {
			ready = append(ready, ctg.TaskID(t))
		}
	}

	// placement evaluates AT(τ, pe): transfer start per incoming cross-PE
	// edge, data-ready time, and the earliest PE fit. The transfer plans
	// land in ws.plans (overwritten per candidate).
	evaluate := func(t ctg.TaskID, pe int) (at float64, ok bool) {
		ws.plans = ws.plans[:0]
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
			// A cross-PE dependency that must traverse a down link makes
			// this placement infeasible on the degraded topology.
			if !p.LinkUp(s.PE[from], pe) {
				return 0, false
			}
			link := [2]int{s.PE[from], pe}
			scen := ws.edgeScenOf(a, ei)
			if !opts.MEOverlap {
				scen = ws.fullSet
			}
			cs := finish
			if opts.CommAware {
				cs = tlFor(link[0], link[1]).earliestFit(finish, ct, scen)
			}
			ws.plans = append(ws.plans, commPlan{edge: ei, link: link, start: cs, dur: ct, scen: scen})
			if arr := cs + ct; arr > dataReady {
				dataReady = arr
			}
		}
		at = peTL[pe].earliestFit(dataReady, p.WCET(int(t), pe), scenOf(t))
		return at, true
	}

	// Mean per-task energy across PEs, for the optional energy term.
	var avgEnergy []float64
	if opts.EnergyWeight != 0 {
		if cap(ws.avgEnergy) < n {
			ws.avgEnergy = make([]float64, n)
		}
		avgEnergy = ws.avgEnergy[:n]
		for t := 0; t < n; t++ {
			sum := 0.0
			for pe := 0; pe < p.NumPEs(); pe++ {
				sum += p.Energy(t, pe)
			}
			avgEnergy[t] = sum / float64(p.NumPEs())
		}
	}

	for len(ready) > 0 {
		if ws.Cancel != nil {
			if err := ws.Cancel(); err != nil {
				ws.ready = ready[:0]
				return nil, err
			}
		}
		bestDL := math.Inf(-1)
		bestAT := 0.0
		ws.bestPlans = ws.bestPlans[:0]
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
					dl += opts.EnergyWeight * a.ActivationProb(t) *
						(avgEnergy[t] - p.Energy(int(t), pe))
				}
				if dl > bestDL+1e-12 {
					bestDL, bestAT = dl, at
					bestIdx, bestPE = ri, pe
					// Keep the winning plans; the displaced buffer becomes
					// the next candidate's scratch.
					ws.plans, ws.bestPlans = ws.bestPlans, ws.plans
				}
			}
		}
		if bestIdx < 0 {
			// Every (ready task, alive PE) pair was ruled out by link
			// outages — the restricted topology cannot route the graph.
			return nil, &InfeasibleError{Task: int(ready[0]),
				Reason: "no alive PE can receive the task's dependencies over surviving links"}
		}
		t := ready[bestIdx]

		// Commit the placement.
		s.PE[t] = bestPE
		s.Start[t] = bestAT
		peTL[bestPE].add(bestAT, p.WCET(int(t), bestPE), scenOf(t))
		for _, cp := range ws.bestPlans {
			s.CommStart[cp.edge] = cp.start
			tlFor(cp.link[0], cp.link[1]).add(cp.start, cp.dur, cp.scen)
		}
		s.Order = append(s.Order, t)
		scheduled[t] = true

		// Update the ready list.
		ready = append(ready[:bestIdx], ready[bestIdx+1:]...)
		for _, ei := range g.Succ(t) {
			to := g.Edge(ei).To
			unschedPreds[to]--
			if unschedPreds[to] == 0 {
				ready = append(ready, to)
			}
		}
	}

	ws.ready = ready[:0] // hand the (possibly grown) buffer back for reuse
	for t := 0; t < n; t++ {
		if !scheduled[t] {
			return nil, fmt.Errorf("sched: task %d never became ready (graph inconsistency)", t)
		}
		if end := s.Start[t] + p.WCET(t, s.PE[t]); end > s.Makespan {
			s.Makespan = end
		}
	}
	s.sortPEOrder()
	s.buildPlan()
	s.InjectPseudoEdges()
	return s, nil
}

// staticLevels computes SL(τ) bottom-up over a reverse topological order.
// For a non-branching node, SL(τ) = avgWCET(τ) + max over successors; for a
// branch fork node in probabilistic mode, the successor terms are weighted
// by the probability of the guarding condition and summed, matching the
// paper's formula SL(τi) = *WCET(τi) + Σ prob(c_ij)·SL(τj).
func staticLevels(g *ctg.Graph, p *platform.Platform, probabilistic bool) []float64 {
	return staticLevelsInto(g, p, probabilistic, make([]float64, g.NumTasks()))
}

// staticLevelsInto is staticLevels writing into a caller-provided buffer of
// length NumTasks (the "priority buffer" of the reschedule hot path).
func staticLevelsInto(g *ctg.Graph, p *platform.Platform, probabilistic bool, sl []float64) []float64 {
	n := g.NumTasks()
	topo := g.Topo()
	for i := n - 1; i >= 0; i-- {
		t := topo[i]
		base := p.AvgWCET(int(t))
		if probabilistic && g.IsFork(t) {
			sum := 0.0
			for _, ei := range g.Succ(t) {
				e := g.Edge(ei)
				sum += g.CondProb(e.Cond) * sl[e.To]
			}
			sl[t] = base + sum
			continue
		}
		best := 0.0
		for _, ei := range g.Succ(t) {
			if v := sl[g.Edge(ei).To]; v > best {
				best = v
			}
		}
		sl[t] = base + best
	}
	return sl
}

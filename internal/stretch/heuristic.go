package stretch

import (
	"fmt"
	"math"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// Result summarizes a stretching pass.
type Result struct {
	// Stretched counts tasks whose speed dropped below 1.
	Stretched int
	// ExpectedEnergy is the schedule's expected energy after stretching.
	ExpectedEnergy float64
	// WorstDelay is the largest chain delay after stretching; it never
	// exceeds the deadline when the nominal schedule was feasible.
	WorstDelay float64
	// SlackFound sums the positive per-task slack CalculateSlack
	// distributed (time units); SlackUsed sums the execution-time increase
	// actually converted into speed reduction — under a guard band (or a
	// discrete DVFS model snapping to a level) it is below SlackFound, the
	// difference being the margin reserved for overruns. Populated by the
	// heuristic stretchers; the worst-case and NLP baselines leave both
	// zero.
	SlackFound, SlackUsed float64
}

// Options configures one Heuristic pass. The zero value is the paper's
// Figure 2 heuristic over the whole task set.
type Options struct {
	// Guard ∈ [0, 1] reserves that fraction of every task's distributed
	// slack as overrun margin instead of converting it into speed reduction
	// (platform.GuardedSpeedForTime), so the stretched schedule tolerates
	// bounded execution-time overruns by construction at the cost of higher
	// energy. Zero is the paper's heuristic; 1 leaves every task at full
	// speed.
	Guard float64
	// Cancel, when non-nil, is polled once per stretched task; a non-nil
	// return aborts the pass with that error. See CancelFunc.
	Cancel CancelFunc
	// LiteralRatio selects the literal slk(p)/delay(p) reading of Figure 2's
	// ratio denominator (shares shrink geometrically along a path, leaving
	// slack unused) instead of the default released-tasks reading (locked
	// tasks leave the distributable delay, reaching uniform scaling on
	// chains). It is the ablation knob; see the ablation experiment.
	LiteralRatio bool
	// Affected, when non-nil, restricts the pass to a warm-started
	// schedule's affected tasks (one flag per task): those are reset to full
	// speed and re-stretched in DLS order, every other task keeps its
	// incumbent speed and counts as locked from the outset. Nil stretches
	// every task from its current speed. See warm.go.
	Affected []bool
	// Workspace, when non-nil, supplies the pass's reusable buffers. An
	// unbound workspace is bound to the schedule being stretched; a bound
	// one must have been Rebind-ed to a schedule with the same mapping. A
	// bound workspace makes a masked pass allocation-free. Nil allocates a
	// fresh one.
	Workspace *Workspace
}

// Heuristic runs the paper's online task-stretching heuristic (Figure 2) on
// the schedule, assigning one DVFS speed per task in the DLS task order. The
// schedule's Speed vector is updated in place.
//
// For each task τ (processed in scheduling order and then locked):
//
//	slk1 — for every leaf minterm m ∈ Γ(τ), find among the chains of m
//	       through τ whose suffix still carries branch uncertainty
//	       (prob(p, τ) ≠ 1) the critical one — the largest delay, i.e. the
//	       lowest distributable slack ratio slk(p)/delay(p) — and accumulate
//	       prob(p_worst, τ)·wcet(τ)·ratio·prob(τ). A chain that is critical
//	       for several minterms is counted once (the weights prob(p, τ)
//	       then approximate a distribution over the downstream branch
//	       combinations).
//	slk2 — among the chains through τ with no remaining downstream
//	       uncertainty (prob(p, τ) = 1), take the critical ratio:
//	       wcet(τ)·ratio·prob(τ).
//	slk(τ) = min of the two (each only when applicable), clamped so that no
//	       chain through τ would exceed the deadline (step 9).
//
// The task is stretched by its slack, its speed locked, and the delays every
// later decision sees reflect it (the paper's "update the delay and slack of
// all paths spanning τi": propagate repairs the pass's one decomposition
// where the stretched task reaches).
//
// Interpretation note: the paper's Figure 2 step 5 reads "paths of m where
// prob(m) = 1"; we read it as prob(p, τ) = 1 so that the two buckets
// partition the spanning paths. Under the literal reading, a task living
// only on conditional arms (e.g. τ4 of the paper's own Figure 1) would never
// receive slack, contradicting the stated goal of giving more slack to
// likely tasks; under this reading the worked examples of §III.A hold.
//
// A masked pass (Options.Affected non-nil) leaves Result.ExpectedEnergy
// zero: the expected-energy evaluation allocates per cross-PE edge and the
// warm path is the allocation-free hot path. Callers that want it call
// s.ExpectedEnergy() themselves.
func Heuristic(s *sched.Schedule, d platform.DVFS, o Options) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if err := validGuard(o.Guard); err != nil {
		return Result{}, err
	}
	n := s.G.NumTasks()
	if o.Affected != nil && len(o.Affected) != n {
		return Result{}, fmt.Errorf("stretch: affected mask sized %d, want %d", len(o.Affected), n)
	}
	w := o.Workspace
	if w == nil {
		w = NewWorkspace()
	}
	if w.dag == nil {
		w.Rebind(s)
	}
	w.retarget(s)
	dag := w.dag
	for t := 0; t < n; t++ {
		switch {
		case o.Affected == nil:
			w.locked[t] = false
		case o.Affected[t]:
			if s.Speed[t] != 1 {
				s.Speed[t] = 1
				dag.refreshExec(ctg.TaskID(t))
			}
			w.locked[t] = false
		default:
			w.locked[t] = true
		}
	}
	// One whole-graph decomposition, built here and repaired after every
	// speed change, carries the unrestricted values through the pass.
	r := dag.runInto(w.scratch.dp, nil)
	clear(w.scratch.dirty)
	var res Result
	for _, t := range s.Order {
		if o.Affected != nil && !o.Affected[t] {
			continue
		}
		if o.Cancel != nil {
			if err := o.Cancel(); err != nil {
				return Result{}, err
			}
		}
		slk := calculateSlack(dag, t, w.locked, o.LiteralRatio, w.scratch)
		if slk > 0 {
			wcet := s.WCET(t)
			res.SlackFound += slk
			speed := d.GuardedSpeedForTime(wcet, wcet+slk, o.Guard)
			if speed < 1 {
				s.Speed[t] = speed
				dag.refreshExec(t)
				dag.propagate(r, t, nil, w.scratch.dirty)
				res.Stretched++
				res.SlackUsed += wcet/speed - wcet
			}
		}
		// "Stretch τi, lock its schedule and speed": processed tasks leave
		// the distributable portion of every path they span.
		w.locked[t] = true
	}
	if o.Affected == nil {
		res.ExpectedEnergy = s.ExpectedEnergy()
	}
	res.WorstDelay = dag.longest(r)
	return res, nil
}

// validGuard checks a guard-band fraction.
func validGuard(guard float64) error {
	if math.IsNaN(guard) || guard < 0 || guard > 1 {
		return fmt.Errorf("stretch: guard band must be in [0,1], got %v", guard)
	}
	return nil
}

// slackScratch holds the buffers a Heuristic pass reuses across its
// per-task loop: the carried decomposition with its repair flags, τ's cone,
// the scenario classes with their chain arenas and the critical-path dedup
// set. Every buffer is O(n) or O(|Γ(τ)|); one per Workspace.
type slackScratch struct {
	cone cone
	// dp is the pass's whole-graph unrestricted decomposition. calculateSlack
	// overwrites τ's forked tasks class by class, each class reading the
	// unrestricted values every class shares on the others, and restores
	// them from saved.
	dp       *dpResult
	dirty    []bool // propagate's per-task flags
	saved    []dpSlot
	radix    []uint64 // per fork: its outcomes plus unassigned
	terms    []int    // Γ(τ), ascending
	up, down classSet
	chain    []int32 // node sequence of the chain being deduplicated
	seen     pathSet
	// pairs holds the (up class, down class) pairs already counted: every
	// minterm of a pair has the same chain, so only a pair's first minterm
	// builds and looks the chain up.
	pairs map[uint64]struct{}
}

func newSlackScratch(n int) *slackScratch {
	return &slackScratch{dp: newDPResult(n), dirty: make([]bool, n)}
}

// classSet groups the minterms of Γ(τ) by their outcomes on one fork set —
// τ's strict ancestor forks for the up half of the DP, τ and its descendant
// forks for the down half — and keeps, per class, what calculateSlack reads
// of that half at τ.
type classSet struct {
	ids   map[uint64]int32
	of    []int32 // per term of Γ(τ): its class
	cls   []chainClass
	edges []int32 // the classes' chain edges, concatenated
}

// chainClass is one class of minterms that agree on a half's forks, so the
// half-DP of any member gives every member's values.
type chainClass struct {
	scenario int  // the first member, whose assignment the half-DP runs
	needed   bool // up half: some member has a C-class suffix below τ
	// val is up[τ] (up half) or downC[τ] (down half); prob is probC[τ]
	// (down half); denom is the ratio denominator's τ-and-prefix part
	// (up half).
	val, prob, denom float64
	start, end       int32 // the argmax chain's edges in classSet.edges
}

// group assigns every term its class, keyed by an exact mixed-radix
// encoding of the term's outcomes on forks. If the radix product overflows
// uint64, every term becomes its own class: exact, merely without sharing.
func (c *classSet) group(a *ctg.Analysis, terms, forks []int, radix []uint64) {
	prod, overflow := uint64(1), false
	for _, fi := range forks {
		if prod > math.MaxUint64/radix[fi] {
			overflow = true
			break
		}
		prod *= radix[fi]
	}
	if c.ids == nil {
		c.ids = make(map[uint64]int32)
	} else {
		clear(c.ids)
	}
	c.of, c.cls, c.edges = c.of[:0], c.cls[:0], c.edges[:0]
	for i, si := range terms {
		key := uint64(i)
		if !overflow {
			assign := a.Scenario(si).Assign
			key = 0
			for _, fi := range forks {
				key = key*radix[fi] + uint64(assign[fi]+1)
			}
		}
		id, ok := c.ids[key]
		if !ok {
			id = int32(len(c.cls))
			c.ids[key] = id
			c.cls = append(c.cls, chainClass{scenario: si})
		}
		c.of = append(c.of, id)
	}
}

// forkRadix returns, per fork, the number of values a scenario assignment
// can hold there: its outcomes plus ctg.OutcomeUnassigned, shifted to
// [0, outcomes].
func forkRadix(g *ctg.Graph, dst []uint64) []uint64 {
	dst = dst[:0]
	for _, f := range g.Forks() {
		dst = append(dst, uint64(g.Outcomes(f))+1)
	}
	return dst
}

// runDownClasses runs the down half-DP once per down class, over the down
// cone's forked tasks, and records, per class, downC[τ], probC[τ] and the
// C-class suffix below τ.
func (sc *slackScratch) runDownClasses(dag *dagModel, t ctg.TaskID) {
	c, r := &sc.cone, sc.dp
	sc.saved = r.save(sc.saved[:0], c.downForked)
	for i := range sc.down.cls {
		k := &sc.down.cls[i]
		dag.runDown(r, c.downForked, dag.s.A.Scenario(k.scenario).Assign)
		k.val, k.prob = r.downC[t], r.probC[t]
		k.start = int32(len(sc.down.edges))
		if k.val > negInf {
			sc.down.edges = r.appendDownChain(dag, sc.down.edges, t, 'C')
		}
		k.end = int32(len(sc.down.edges))
	}
	r.restore(sc.saved, c.downForked)
}

// runUpClasses runs the up half-DP once per up class that some minterm with
// a C-class suffix needs, over the up cone's forked tasks, and records, per
// class, up[τ], the prefix ending at τ and the part of the ratio denominator
// that τ and the prefix add.
func (sc *slackScratch) runUpClasses(dag *dagModel, t ctg.TaskID, locked []bool, literalRatio bool) {
	c, r := &sc.cone, sc.dp
	for i, id := range sc.down.of {
		if sc.down.cls[id].val > negInf {
			sc.up.cls[sc.up.of[i]].needed = true
		}
	}
	sc.saved = r.save(sc.saved[:0], c.upForked)
	for i := range sc.up.cls {
		k := &sc.up.cls[i]
		if !k.needed {
			continue
		}
		dag.runUp(r, c.upForked, dag.s.A.Scenario(k.scenario).Assign)
		k.val = r.up[t]
		k.start = int32(len(sc.up.edges))
		sc.up.edges = r.appendUpChain(dag, sc.up.edges, t)
		k.end = int32(len(sc.up.edges))
		if !literalRatio {
			// τ, then the prefix's edges and nodes, in walkCritical's order.
			denom := 0.0
			if !locked[t] {
				denom += dag.exec[t]
			}
			for _, ei := range sc.up.edges[k.start:k.end] {
				denom += dag.comm[ei]
				if u := dag.edges[ei].From; !locked[u] {
					denom += dag.exec[u]
				}
			}
			k.denom = denom
		}
	}
	r.restore(sc.saved, c.upForked)
}

// calculateSlack implements the CalculateSlack(τ) routine of Figure 2 on the
// current delays. The distributable slack ratio of a critical chain is its
// slack over the execution time of its *unlocked* tasks (plus communication)
// — already-stretched tasks are "released from consideration" (§III.A), so
// on a simple chain with a loose deadline the heuristic converges to the
// energy-optimal uniform scaling instead of geometrically shrinking shares.
//
// slk2 and the step-9 clamp read the carried unrestricted decomposition
// sc.dp. A minterm reaches the up half of the DP at τ only through its
// outcomes at the forks above τ and the down half only through those at τ
// and below, so each half runs once per class of minterms that agree there,
// and only over the half's forked tasks (see cone): the others keep the
// unrestricted values. The per-minterm loop then reads the classes in Γ(τ)
// order with the same float operations in the same order as a whole-graph
// DP per minterm would, so speeds are bit-for-bit unchanged.
func calculateSlack(dag *dagModel, t ctg.TaskID, locked []bool, literalRatio bool, sc *slackScratch) float64 {
	s := dag.s
	a := s.A
	deadline := s.G.Deadline()
	wcet := s.WCET(t)
	probT := a.ActivationProb(t)

	c := &sc.cone
	dag.fillCone(c, t)
	full := sc.dp

	// slk2: critical (largest-delay) chain with prob(p, τ) = 1.
	slk2 := math.Inf(1)
	slk2Valid := false
	if full.downU[t] > negInf {
		slk2Valid = true
		delay := full.up[t] + dag.exec[t] + full.downU[t]
		denom := delay
		if !literalRatio {
			denom = full.criticalDenominator(dag, t, 'U', locked)
		}
		slk2 = wcet * (deadline - delay) / denom * probT
	}
	// Step 9's bound: the slack of the worst chain through τ.
	margin := deadline - dag.throughAny(full, t)

	// slk1: probability-weighted sum of per-minterm critical chain shares.
	sc.terms = sc.terms[:0]
	a.ActivationSet(t).ForEach(func(si int) { sc.terms = append(sc.terms, si) })
	sc.down.group(a, sc.terms, c.downForks, sc.radix)
	sc.up.group(a, sc.terms, c.upForks, sc.radix)
	sc.runDownClasses(dag, t)
	sc.runUpClasses(dag, t, locked, literalRatio)

	slk1 := 0.0
	slk1Valid := false
	sc.seen.reset()
	if sc.pairs == nil {
		sc.pairs = make(map[uint64]struct{})
	} else {
		clear(sc.pairs)
	}
	for i := range sc.terms {
		dk := &sc.down.cls[sc.down.of[i]]
		if dk.val == negInf {
			continue // no chain with downstream uncertainty in this minterm
		}
		slk1Valid = true
		pair := uint64(sc.up.of[i])<<32 | uint64(uint32(sc.down.of[i]))
		if _, ok := sc.pairs[pair]; ok {
			continue // same chain as an earlier minterm: counted once
		}
		sc.pairs[pair] = struct{}{}
		uk := &sc.up.cls[sc.up.of[i]]
		upE, downE := sc.up.edges[uk.start:uk.end], sc.down.edges[dk.start:dk.end]
		seq := append(sc.chain[:0], int32(t))
		for _, ei := range upE {
			seq = append(seq, int32(dag.edges[ei].From))
		}
		for _, ei := range downE {
			seq = append(seq, int32(dag.edges[ei].To))
		}
		sc.chain = seq
		if !sc.seen.add(seq) {
			continue // shared critical path: count once
		}
		delay := uk.val + dag.exec[t] + dk.val
		denom := delay
		if !literalRatio {
			denom = uk.denom
			for _, ei := range downE {
				denom += dag.comm[ei]
				if w := dag.edges[ei].To; !locked[w] {
					denom += dag.exec[w]
				}
			}
		}
		if ratio := (deadline - delay) / denom; ratio > 0 {
			slk1 += dk.prob * wcet * ratio * probT
		}
	}

	var slk float64
	switch {
	case slk1Valid && slk2Valid:
		slk = math.Min(slk1, slk2)
	case slk1Valid:
		slk = slk1
	case slk2Valid:
		slk = slk2
	default:
		return 0
	}

	// Step 9: never exceed the slack of the worst chain through τ, so the
	// deadline holds on every chain.
	if slk > margin {
		slk = margin
	}
	if slk < 0 || math.IsInf(slk, 1) {
		return 0
	}
	return slk
}

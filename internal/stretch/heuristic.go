package stretch

import (
	"fmt"
	"math"
	"slices"

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
	// Workspace, when non-nil, supplies the pass's DAG model, class rows
	// and reusable buffers. An unbound workspace is bound to the schedule
	// being stretched; a bound one must have been Rebind-ed to a schedule
	// with the same mapping, so a full pass after the Rebind and every
	// masked pass on that mapping share one model. A bound workspace makes
	// a masked pass allocation-free. Nil builds a fresh one.
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
// all paths spanning τi": the pass computes each delay where a later
// decision reads it, see pass).
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
	w := bind(o.Workspace, s)
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
	sc := w.scratch
	sc.p.reset(dag, sc.dp, nil)
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
		slk := calculateSlack(t, w.locked, o.LiteralRatio, sc)
		if slk > 0 {
			wcet := s.WCET(t)
			res.SlackFound += slk
			speed := d.GuardedSpeedForTime(wcet, wcet+slk, o.Guard)
			if speed < 1 {
				s.Speed[t] = speed
				dag.refreshExec(t)
				sc.p.stretched(t)
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
	res.WorstDelay = dag.longest(sc.p.finish())
	sc.p.trim()
	return res, nil
}

// validGuard checks a guard-band fraction.
func validGuard(guard float64) error {
	if math.IsNaN(guard) || guard < 0 || guard > 1 {
		return fmt.Errorf("stretch: guard band must be in [0,1], got %v", guard)
	}
	return nil
}

// slackScratch holds what a Heuristic pass reuses across its per-task loop:
// the pass with its decomposition and chain ids, and what calculateSlack
// reads of τ's scenario classes. Every buffer is O(n), O(the slots the pass
// reads) or O(minterms); one per Workspace.
type slackScratch struct {
	p  pass
	dp *dpResult
	// terms is Γ(τ), ascending; up and down hold τ's classes, by class id.
	terms    []int
	up, down []chainClass
	// counted holds the chains through τ counted so far: every minterm
	// whose critical chain was counted before adds nothing.
	counted []chainPair
}

func newSlackScratch(n int) *slackScratch { return &slackScratch{dp: newDPResult(n)} }

// chainClass is what calculateSlack reads of one half of the DP at τ under
// one class of minterms.
type chainClass struct {
	done bool  // computed for this τ
	si   int   // the member whose slot was read
	slot int   // τ's slot under si
	id   int32 // the argmax chain's id: prefix ending at τ, or C-class suffix below it
	// val is up[τ] (up half) or downC[τ] (down half); prob is probC[τ]
	// (down half); denom is the ratio denominator's τ-and-prefix part (up
	// half).
	val, prob, denom float64
}

// chainPair names a chain through τ by its prefix's and its suffix's ids.
type chainPair struct{ up, down int32 }

// classes sizes and clears the per-class buffers for a task with nu up and
// nd down classes.
func (sc *slackScratch) classes(nu, nd int) {
	sc.up, sc.down = grow(sc.up[:0], nu), grow(sc.down[:0], nd)
	clear(sc.up)
	clear(sc.down)
	sc.counted = sc.counted[:0]
}

// downClass records, for τ's down class of scenario si, downC[τ], probC[τ]
// and the C-class suffix below τ.
func (sc *slackScratch) downClass(k *chainClass, t ctg.TaskID, si int) {
	p := &sc.p
	k.done, k.si, k.slot = true, si, p.down(t, si)
	k.val, k.prob = p.r.downC[k.slot], p.r.probC[k.slot]
	if k.val > negInf {
		k.id = p.downChainID(k.slot, 'C', si)
	}
}

// upClass records, for τ's up class of scenario si, up[τ], the prefix ending
// at τ and the part of the ratio denominator that τ and the prefix add.
func (sc *slackScratch) upClass(k *chainClass, t ctg.TaskID, si int, locked []bool, literalRatio bool) {
	p := &sc.p
	k.done, k.si, k.slot = true, si, p.up(t, si)
	k.val = p.r.up[k.slot]
	k.id = p.upChainID(k.slot, si)
	if !literalRatio {
		k.denom = p.r.upDenominator(p.d, t, k.slot, p.upSel(si), locked)
	}
}

// count reports whether the chain through τ with the given prefix and
// suffix is new, and records it.
func (sc *slackScratch) count(up, down int32) bool {
	if slices.Contains(sc.counted, chainPair{up, down}) {
		return false
	}
	sc.counted = append(sc.counted, chainPair{up, down})
	return true
}

// calculateSlack implements the CalculateSlack(τ) routine of Figure 2 on the
// current delays. The distributable slack ratio of a critical chain is its
// slack over the execution time of its *unlocked* tasks (plus communication)
// — already-stretched tasks are "released from consideration" (§III.A), so
// on a simple chain with a loose deadline the heuristic converges to the
// energy-optimal uniform scaling instead of geometrically shrinking shares.
//
// slk2 and the step-9 clamp read τ's own slots of the pass, the
// unrestricted DP. A minterm reaches the up half of the DP at τ only
// through its outcomes at the forks above τ and the down half only through
// those at τ and below, so each half is read once per class of minterms
// that agree there (see classRows), from the pass's class slots. A chain
// critical for several minterms is counted once; chains are compared by
// their interned ids (see chainIDs), never walked for it. The per-minterm
// loop then reads the classes in Γ(τ) order with the same float operations
// in the same order as a whole-graph DP per minterm would, so speeds are
// bit-for-bit unchanged.
func calculateSlack(t ctg.TaskID, locked []bool, literalRatio bool, sc *slackScratch) float64 {
	p := &sc.p
	dag := p.d
	s := dag.s
	a := s.A
	deadline := s.G.Deadline()
	wcet := s.WCET(t)
	probT := a.ActivationProb(t)

	p.up(t, -1)
	p.down(t, -1)
	full := p.r

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
	sc.classes(dag.up.count(t), dag.down.count(t))

	slk1 := 0.0
	slk1Valid := false
	for _, si := range sc.terms {
		dk := &sc.down[dag.down.at(t, si)]
		if !dk.done {
			sc.downClass(dk, t, si)
		}
		if dk.val == negInf {
			continue // no chain with downstream uncertainty in this minterm
		}
		slk1Valid = true
		uk := &sc.up[dag.up.at(t, si)]
		if !uk.done {
			sc.upClass(uk, t, si, locked, literalRatio)
		}
		if !sc.count(uk.id, dk.id) {
			continue // shared critical path: count once
		}
		delay := uk.val + dag.exec[t] + dk.val
		denom := delay
		if !literalRatio {
			denom = full.downDenominator(dag, uk.denom, dk.slot, 'C', p.downSel(dk.si), locked)
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

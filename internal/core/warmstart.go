package core

import (
	"time"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/stretch"
)

// Incremental (warm-start) rescheduling. A drift-triggered reschedule
// usually changes the probabilities of one or two forks by a small amount;
// recomputing the mapping from scratch discards an incumbent whose task→PE
// assignment the new DLS run would almost always reproduce. The warm path
// instead diffs the new probability vector against the one the incumbent was
// built from, and when the change is confined to a few forks it keeps the
// incumbent mapping/ordering skeleton (probability-independent, see
// sched.WarmState) and re-runs only the speed assignment of the affected
// sub-DAG via a masked stretch.Heuristic pass.
//
// The affected set of a changed fork f is: f itself, plus every task whose
// activation set is split across f's outcomes — tasks active under some but
// not all outcomes of f, i.e. the tasks inside f's conditional arms. Their
// slack weighting (activation probability, per-minterm probC chains) shifts
// first-order with f's probabilities. Tasks active under all outcomes
// (ancestors, post-join descendants) keep their incumbent speeds: their
// weighting shifts only through second-order scenario reweighting, an
// approximation the eligibility bounds keep small and the equivalence
// property test pins. Deadline safety is not approximate — the partial pass
// re-applies the step-9 clamp per task and the manager rejects any warm
// result whose worst-case delay exceeds the deadline.
//
// Fallback to a full recompute happens when: the incumbent state is unknown
// (initial/topology reschedules), too many forks changed
// (> DefaultWarmMaxForks), the affected set is too large a fraction of the
// graph (> DefaultWarmMaxAffected), or the warm result fails validation.

// DefaultWarmMaxForks bounds how many forks may drift in one reschedule for
// the warm path to engage.
const DefaultWarmMaxForks = 3

// DefaultWarmMaxAffected bounds the affected fraction of the task set:
// beyond it a full recompute is both safer and barely slower.
const DefaultWarmMaxAffected = 0.5

// warmEps is the deadline-validation tolerance of the warm path.
const warmEps = 1e-9

// warmState carries the manager's probability-independent warm-path
// tables and the committed probability snapshot; the rest of the path's
// bookkeeping is in state, its scratch in txn.
type warmState struct {
	// schedProbs is the flat probability snapshot the incumbent schedule was
	// built from: outcomes of fork 0, then fork 1, ... (offsets indexed by
	// dense fork index). Stored post-normalization, so exact float comparison
	// against the graph's current values detects any change.
	schedProbs []float64
	offsets    []int

	// forkScen[fi][o] is the set of leaf scenarios in which fork fi executes
	// and selects outcome o — the activation-split probe of the affected-set
	// rule. Scenario assignments are topology- and probability-independent,
	// so this is built once per analysis.
	forkScen [][]ctg.Bitset
}

// initWarm sizes the warm-state tables for the manager's graph/analysis.
func (m *Manager) initWarm() {
	w := &m.warm
	forks := m.g.Forks()
	w.offsets = make([]int, len(forks)+1)
	for fi, fork := range forks {
		w.offsets[fi+1] = w.offsets[fi] + m.g.Outcomes(fork)
	}
	w.schedProbs = make([]float64, w.offsets[len(forks)])
	w.forkScen = make([][]ctg.Bitset, len(forks))
	ns := m.a.NumScenarios()
	for fi, fork := range forks {
		sets := make([]ctg.Bitset, m.g.Outcomes(fork))
		for o := range sets {
			sets[o] = ctg.NewBitset(ns)
		}
		for si := 0; si < ns; si++ {
			if o := m.a.Scenario(si).Assign[fi]; o >= 0 {
				sets[o].Set(si)
			}
		}
		w.forkScen[fi] = sets
	}
}

// noteScheduleState stages the probability/guard state the schedule now in
// force was built (or warm-patched) under. Every reschedule path ends here.
func (t *txn) noteScheduleState(guard float64) {
	m := t.m
	offsets := m.warm.offsets
	for fi, fork := range m.g.Forks() {
		base := offsets[fi]
		for k := 0; k < offsets[fi+1]-base; k++ {
			t.schedProbs[base+k] = m.g.BranchProb(fork, k)
		}
	}
	t.s.schedGuard = guard
	t.s.warmValid = true
}

// changedForks collects (into the reused scratch slice) the dense indices of
// forks whose current probabilities differ from the (staged) schedule
// snapshot.
func (t *txn) changedForks() []int {
	m := t.m
	offsets := m.warm.offsets
	t.changed = t.changed[:0]
	for fi, fork := range m.g.Forks() {
		base := offsets[fi]
		for k := 0; k < offsets[fi+1]-base; k++ {
			if m.g.BranchProb(fork, k) != t.schedProbs[base+k] {
				t.changed = append(t.changed, fi)
				break
			}
		}
	}
	return t.changed
}

// markAffected fills the per-task affected mask for the changed forks and
// returns the affected count. A task is affected when it is a changed fork
// itself, or when its activation set intersects some but not all of a
// changed fork's outcome scenario sets (it lives inside a conditional arm).
func (t *txn) markAffected(changed []int) int {
	m := t.m
	clear(t.affected)
	forks := m.g.Forks()
	count := 0
	for tk := 0; tk < m.g.NumTasks(); tk++ {
		gamma := m.a.ActivationSet(ctg.TaskID(tk))
		for _, fi := range changed {
			if ctg.TaskID(tk) == forks[fi] {
				t.affected[tk] = true
				break
			}
			hits := 0
			for _, so := range m.warm.forkScen[fi] {
				if gamma.Intersects(so) {
					hits++
				}
			}
			if hits >= 1 && hits < len(m.warm.forkScen[fi]) {
				t.affected[tk] = true
				break
			}
		}
		if t.affected[tk] {
			count++
		}
	}
	return count
}

// tryWarmStart attempts an incremental reschedule against the incumbent
// schedule. It returns true when the warm result was adopted (the caller's
// full-recompute path must be skipped); on false the caller proceeds with
// the full path — state.warmFallbacks distinguishes an eligible-but-failed
// attempt from a plainly ineligible call.
func (t *txn) tryWarmStart(reason string, guard float64) (bool, error) {
	m := t.m
	if !m.opts.WarmStart || !t.s.warmValid || t.s.schedule == nil {
		return false, nil
	}
	if reason == "initial" || reason == "topology" {
		// No incumbent, or the platform under the incumbent changed — the
		// mapping itself must be redone.
		return false, nil
	}
	diffStart := time.Now()
	changed := t.changedForks()
	guardChanged := guard != t.s.schedGuard
	if len(changed) == 0 && !guardChanged {
		// The triggering update left the schedule-time state bit-for-bit
		// intact (e.g. the smoothed estimate reproduced the old values): the
		// incumbent is exactly what a recompute would rebuild.
		t.span("diff", m.mm.pipeDiff, diffStart)
		t.adoptWarm(reason, guard)
		return true, nil
	}
	if m.opts.PerScenario {
		// The per-scenario speed table reads no branch probabilities — it
		// conditions on realized outcomes, so it depends only on the mapping,
		// platform, deadline and guard. Pure probability drift keeps both the
		// (unstretched) schedule and the table valid verbatim; only a guard
		// change forces a re-stretch, on the same mapping.
		t.span("diff", m.mm.pipeDiff, diffStart)
		if guardChanged {
			stretchStart := time.Now()
			sp, err := stretch.PerScenario(t.s.schedule, m.opts.DVFS, guard, t.cancel, t.workspace(t.s.schedule))
			if err != nil {
				return t.warmFailed(err)
			}
			t.s.speeds = sp
			t.span("stretch", m.mm.pipeStretch, stretchStart)
		}
		t.adoptWarm(reason, guard)
		return true, nil
	}
	if guardChanged {
		// A breaker move re-stretches every task at the new guard — still on
		// the incumbent mapping, so the DLS run is saved.
		for tk := range t.affected {
			t.affected[tk] = true
		}
	} else {
		if len(changed) > DefaultWarmMaxForks {
			return t.warmFallback()
		}
		count := t.markAffected(changed)
		if float64(count) > DefaultWarmMaxAffected*float64(m.g.NumTasks()) {
			return t.warmFallback()
		}
	}
	t.span("diff", m.mm.pipeDiff, diffStart)
	// The committed schedule stays published until commit, even when this
	// step already staged another.
	target := t.bufs.Start(t.s.schedule, m.st.schedule)
	ws := t.workspace(target)
	stretchStart := time.Now()
	sr, err := stretch.Heuristic(target, m.opts.DVFS, stretch.Options{
		Guard: guard, Cancel: t.cancel, Affected: t.affected, Workspace: ws,
	})
	if err != nil {
		return t.warmFailed(err)
	}
	t.span("stretch", m.mm.pipeStretch, stretchStart)
	validateStart := time.Now()
	if sr.WorstDelay > m.g.Deadline()*(1+warmEps) {
		// The incumbent skeleton can no longer hold the deadline under the
		// new weighting — let the full path find a new mapping.
		return t.warmFallback()
	}
	if err := target.QuickValidate(); err != nil {
		return t.warmFallback()
	}
	t.span("validate", m.mm.pipeValidate, validateStart)
	t.s.schedule = target
	t.s.speeds = nil
	t.emitStretch(sr, target)
	t.adoptWarm(reason, guard)
	return true, nil
}

// warmFallback counts an eligible warm attempt that falls back to the full
// recompute, and tells tryWarmStart's caller to run it.
func (t *txn) warmFallback() (bool, error) {
	t.s.warmFallbacks++
	return false, nil
}

// warmFailed handles a stretch error on the warm path. A cancelled pass must
// not fall through to the full pipeline (which would just re-detect the
// cancellation after paying for a DLS round), so the in-flight StepCtx's
// context error propagates directly; any other error is a fallback.
func (t *txn) warmFailed(err error) (bool, error) {
	if t.cancel != nil && t.cancel() != nil {
		return false, err
	}
	return t.warmFallback()
}

// adoptWarm finalizes a warm-started (or verbatim-reused) reschedule: the
// call counts exactly like a full one, the snapshot moves to the new state,
// and the decision event is tagged warm.
func (t *txn) adoptWarm(reason string, guard float64) {
	t.s.warmStarts++
	t.s.calls++
	t.noteScheduleState(guard)
	t.emitReschedule(reason, true)
}

// WarmStats returns the warm-start counters: incremental reschedules
// adopted, and eligible attempts that fell back to a full recompute.
func (m *Manager) WarmStats() (starts, fallbacks int) {
	return m.st.warmStarts, m.st.warmFallbacks
}

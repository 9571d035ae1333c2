package core

import (
	"time"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sched"
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
// Warm results are never cached: the cache's contract is that a hit is
// bit-for-bit what a fresh recompute would produce, which warm results
// approximate but do not guarantee.

// DefaultWarmMaxForks bounds how many forks may drift in one reschedule for
// the warm path to engage.
const DefaultWarmMaxForks = 3

// DefaultWarmMaxAffected bounds the affected fraction of the task set:
// beyond it a full recompute is both safer and barely slower.
const DefaultWarmMaxAffected = 0.5

// warmEps is the deadline-validation tolerance of the warm path.
const warmEps = 1e-9

// warmState carries the incumbent-schedule bookkeeping of the warm path.
type warmState struct {
	valid bool // schedProbs/schedGuard describe the current schedule

	// schedProbs is the flat probability snapshot the incumbent schedule was
	// built from: outcomes of fork 0, then fork 1, ... (offsets indexed by
	// dense fork index). Stored post-normalization, so exact float comparison
	// against the graph's current values detects any change.
	schedProbs []float64
	offsets    []int
	schedGuard float64

	// forkScen[fi][o] is the set of leaf scenarios in which fork fi executes
	// and selects outcome o — the activation-split probe of the affected-set
	// rule. Scenario assignments are topology- and probability-independent,
	// so this is built once per analysis.
	forkScen [][]ctg.Bitset

	bufs  *sched.WarmState   // double-buffered schedule copies
	ws    *stretch.Workspace // partial-stretch scratch
	wsGen int                // mapGen the workspace was last rebound at

	changed  []int  // scratch: dense indices of drifted forks
	affected []bool // scratch: per-task affected mask

	starts    int // warm-started reschedules
	fallbacks int // eligible attempts that fell back to a full recompute
}

// initWarm sizes the warm-state buffers for the manager's graph/analysis.
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
	w.bufs = sched.NewWarmState()
	w.ws = stretch.NewWorkspace()
	w.wsGen = -1
	w.changed = make([]int, 0, len(forks))
	w.affected = make([]bool, m.g.NumTasks())
}

// noteScheduleState snapshots the probability/guard state the schedule now
// in force was built (or warm-patched) under. Every reschedule path ends
// here.
func (m *Manager) noteScheduleState(guard float64) {
	w := &m.warm
	for fi, fork := range m.g.Forks() {
		base := w.offsets[fi]
		for k := 0; k < w.offsets[fi+1]-base; k++ {
			w.schedProbs[base+k] = m.g.BranchProb(fork, k)
		}
	}
	w.schedGuard = guard
	w.valid = true
}

// changedForks collects (into the reused scratch slice) the dense indices of
// forks whose current probabilities differ from the schedule snapshot.
func (m *Manager) changedForks() []int {
	w := &m.warm
	w.changed = w.changed[:0]
	for fi, fork := range m.g.Forks() {
		base := w.offsets[fi]
		for k := 0; k < w.offsets[fi+1]-base; k++ {
			if m.g.BranchProb(fork, k) != w.schedProbs[base+k] {
				w.changed = append(w.changed, fi)
				break
			}
		}
	}
	return w.changed
}

// markAffected fills the per-task affected mask for the changed forks and
// returns the affected count. A task is affected when it is a changed fork
// itself, or when its activation set intersects some but not all of a
// changed fork's outcome scenario sets (it lives inside a conditional arm).
func (m *Manager) markAffected(changed []int) int {
	w := &m.warm
	for t := range w.affected {
		w.affected[t] = false
	}
	forks := m.g.Forks()
	count := 0
	for t := 0; t < m.g.NumTasks(); t++ {
		gamma := m.a.ActivationSet(ctg.TaskID(t))
		for _, fi := range changed {
			if ctg.TaskID(t) == forks[fi] {
				w.affected[t] = true
				break
			}
			hits := 0
			for _, so := range w.forkScen[fi] {
				if gamma.Intersects(so) {
					hits++
				}
			}
			if hits >= 1 && hits < len(w.forkScen[fi]) {
				w.affected[t] = true
				break
			}
		}
		if w.affected[t] {
			count++
		}
	}
	return count
}

// tryWarmStart attempts an incremental reschedule against the incumbent
// schedule. It returns true when the warm result was adopted (the caller's
// full-recompute path must be skipped); on false the caller proceeds with
// the full path — w.fallbacks distinguishes an eligible-but-failed attempt
// from a plainly ineligible call.
func (m *Manager) tryWarmStart(reason string, guard float64) (bool, error) {
	w := &m.warm
	if !m.opts.WarmStart || !w.valid || m.schedule == nil {
		return false, nil
	}
	if reason == "initial" || reason == "topology" {
		// No incumbent, or the platform under the incumbent changed — the
		// mapping itself must be redone.
		return false, nil
	}
	diffStart := time.Now()
	changed := m.changedForks()
	guardChanged := guard != w.schedGuard
	if len(changed) == 0 && !guardChanged {
		// The triggering update left the schedule-time state bit-for-bit
		// intact (e.g. the smoothed estimate reproduced the old values): the
		// incumbent is exactly what a recompute would rebuild.
		m.span("diff", m.mm.pipeDiff, diffStart)
		m.adoptWarm(reason, guard)
		return true, nil
	}
	if m.opts.PerScenario {
		// The per-scenario speed table reads no branch probabilities — it
		// conditions on realized outcomes, so it depends only on the mapping,
		// platform, deadline and guard. Pure probability drift keeps both the
		// (unstretched) schedule and the table valid verbatim; only a guard
		// change forces a re-stretch, on the same mapping.
		m.span("diff", m.mm.pipeDiff, diffStart)
		if guardChanged {
			stretchStart := time.Now()
			sp, err := stretch.PerScenario(m.schedule, m.opts.DVFS, guard, m.cancel)
			if err != nil {
				return m.warmFailed(err)
			}
			m.speeds = sp
			m.span("stretch", m.mm.pipeStretch, stretchStart)
		}
		m.adoptWarm(reason, guard)
		return true, nil
	}
	if guardChanged {
		// A breaker move re-stretches every task at the new guard — still on
		// the incumbent mapping, so the DLS run is saved.
		for t := range w.affected {
			w.affected[t] = true
		}
	} else {
		if len(changed) > DefaultWarmMaxForks {
			return m.warmFallback()
		}
		count := m.markAffected(changed)
		if float64(count) > DefaultWarmMaxAffected*float64(m.g.NumTasks()) {
			return m.warmFallback()
		}
	}
	m.span("diff", m.mm.pipeDiff, diffStart)
	target := w.bufs.Start(m.schedule)
	if w.wsGen != m.mapGen {
		w.ws.Rebind(target)
		w.wsGen = m.mapGen
	}
	stretchStart := time.Now()
	sr, err := stretch.Heuristic(target, m.opts.DVFS, stretch.Options{
		Guard: guard, Cancel: m.cancel, Affected: w.affected, Workspace: w.ws,
	})
	if err != nil {
		return m.warmFailed(err)
	}
	m.span("stretch", m.mm.pipeStretch, stretchStart)
	validateStart := time.Now()
	if sr.WorstDelay > m.g.Deadline()*(1+warmEps) {
		// The incumbent skeleton can no longer hold the deadline under the
		// new weighting — let the full path find a new mapping.
		return m.warmFallback()
	}
	if err := target.QuickValidate(); err != nil {
		return m.warmFallback()
	}
	m.span("validate", m.mm.pipeValidate, validateStart)
	m.schedule = target
	m.speeds = nil
	m.emitStretch(sr, target)
	m.adoptWarm(reason, guard)
	return true, nil
}

// warmFallback counts an eligible warm attempt that falls back to the full
// recompute, and tells tryWarmStart's caller to run it.
func (m *Manager) warmFallback() (bool, error) {
	m.warm.fallbacks++
	m.mm.warmFallbacks.Inc()
	return false, nil
}

// warmFailed handles a stretch error on the warm path. A cancelled pass must
// not fall through to the full pipeline (which would just re-detect the
// cancellation after paying for a DLS round), so the in-flight StepCtx's
// context error propagates directly; any other error is a fallback.
func (m *Manager) warmFailed(err error) (bool, error) {
	if m.cancel != nil && m.cancel() != nil {
		return false, err
	}
	return m.warmFallback()
}

// adoptWarm finalizes a warm-started (or verbatim-reused) reschedule: the
// call counts exactly like a full one, the snapshot moves to the new state,
// and the decision event is tagged warm. Warm results are never cached.
func (m *Manager) adoptWarm(reason string, guard float64) {
	w := &m.warm
	w.starts++
	m.mm.warmStarts.Inc()
	m.calls++
	m.mm.calls.Inc()
	m.noteScheduleState(guard)
	m.emitReschedule(reason, "", false, true)
}

// WarmStats returns the warm-start counters: incremental reschedules
// adopted, and eligible attempts that fell back to a full recompute.
func (m *Manager) WarmStats() (starts, fallbacks int) {
	return m.warm.starts, m.warm.fallbacks
}

// AffectedByDrift computes, from first principles, the warm-start affected
// mask for a drift confined to the given forks (dense indices): each changed
// fork itself plus every task whose activation set is split across that
// fork's outcomes. This is the reference implementation of the manager's
// (buffer-reusing) incremental rule, exported for tests and benchmarks.
func AffectedByDrift(a *ctg.Analysis, changed []int) []bool {
	g := a.Graph()
	forks := g.Forks()
	affected := make([]bool, g.NumTasks())
	for _, fi := range changed {
		fork := forks[fi]
		outcomes := g.Outcomes(fork)
		sets := make([]ctg.Bitset, outcomes)
		for o := range sets {
			sets[o] = ctg.NewBitset(a.NumScenarios())
		}
		for si := 0; si < a.NumScenarios(); si++ {
			if o := a.Scenario(si).Assign[fi]; o >= 0 {
				sets[o].Set(si)
			}
		}
		affected[fork] = true
		for t := 0; t < g.NumTasks(); t++ {
			if affected[t] {
				continue
			}
			gamma := a.ActivationSet(ctg.TaskID(t))
			hits := 0
			for _, so := range sets {
				if gamma.Intersects(so) {
					hits++
				}
			}
			if hits >= 1 && hits < outcomes {
				affected[t] = true
			}
		}
	}
	return affected
}

package stretch

import (
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sched"
)

// This file is the partial-recompute half of incremental (warm-start)
// rescheduling. When a probability drift is confined to a few forks, the
// mapping stage reuses the incumbent schedule skeleton (sched.WarmState) and
// only the speed assignment of the *affected* tasks is recomputed, by a
// Heuristic pass with Options.Affected set. The unaffected tasks keep their
// incumbent speeds and are treated as locked from the outset — exactly the
// state the full heuristic reaches after processing them — so the partial
// pass computes the values its affected tasks read, at most once each, and
// the rest of the decomposition once at its end for Result.WorstDelay,
// instead of a slack computation per task of the whole order. An all-true
// mask reproduces the full pass bit for bit, which is how the breaker's
// guard-level changes re-stretch without paying for a new mapping.
//
// Deadline safety is unconditional: the incumbent kept every chain within
// the deadline, resetting the affected tasks to full speed only shortens
// chains, and every per-task step re-applies the Figure 2 step-9 clamp. What
// the partial pass approximates (relative to a full recompute at the new
// probabilities) is optimality, not validity — the unaffected tasks' speeds
// still reflect the old weighting. The adaptive manager bounds that
// approximation with its affected-fraction eligibility rule and pins it with
// the warm-equivalence property test.

// Workspace holds the reusable buffers of repeated stretching passes over
// one mapping: the combined-DAG model with its per-task fork sets and its
// scenario class rows (built once per mapping), the lock vector and the
// state of a pass (see pass): each task's own slots, the class slots a
// pass reads (grown to the most any pass read), their stamps and the
// interned chains. A new pass invalidates them all by one epoch bump.
// Rebind it after every full reschedule (new mapping), then each masked
// Heuristic pass on that mapping allocates nothing once the buffers have
// grown. Not safe for concurrent use.
type Workspace struct {
	dag     *dagModel
	locked  []bool
	scratch *slackScratch
}

// NewWorkspace returns an empty stretch workspace; the first Heuristic pass
// that uses it binds it to that pass's schedule.
func NewWorkspace() *Workspace { return &Workspace{} }

// Rebind rebuilds the workspace's DAG topology from a schedule — required
// whenever the mapping changed (a full DLS ran).
func (w *Workspace) Rebind(s *sched.Schedule) {
	w.dag = newDAG(s)
	w.dag.classes()
	if n := s.G.NumTasks(); w.scratch == nil || len(w.locked) != n {
		w.locked = make([]bool, n)
		w.scratch = newSlackScratch(n)
	}
}

// retarget points the bound DAG at another schedule sharing the same mapping
// (a warm-start buffer copy): topology, order and communication delays are
// identical, only the speed-dependent execution times need a refresh.
func (w *Workspace) retarget(s *sched.Schedule) {
	w.dag.s = s
	for t := range w.dag.exec {
		w.dag.exec[t] = s.ExecTime(ctg.TaskID(t))
	}
}

package stretch

import (
	"testing"

	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// The whole-graph oracles and PerScenario's per-scenario stretch, exported
// to the external tests, which build workloads with packages that import
// this one.

// SameSpeeds fails t unless got equals the oracle's want bit for bit.
func SameSpeeds(t *testing.T, what string, want, got []float64) {
	t.Helper()
	sameSpeeds(t, what, want, got)
}

// SameResult reports whether two Results are equal bit for bit.
func SameResult(a, b Result) bool { return sameResult(a, b) }

// OracleHeuristic is the whole-graph Heuristic oracle.
func OracleHeuristic(s *sched.Schedule, d platform.DVFS, o Options) Result {
	return oracleHeuristic(s, d, o)
}

// OracleScenarioStretch is the whole-graph oracle of one scenario's stretch.
func OracleScenarioStretch(s *sched.Schedule, d platform.DVFS, si int, guard float64) []float64 {
	return oracleScenarioStretch(s, d, si, guard)
}

// ScenarioStretches runs PerScenario's per-scenario stretch for every
// scenario of s, on one reused scratch.
func ScenarioStretches(s *sched.Schedule, d platform.DVFS, guard float64) [][]float64 {
	scr := newScenarioScratch(newDAG(s))
	out := make([][]float64, s.A.NumScenarios())
	for si := range out {
		out[si] = scenarioStretch(s, d, si, scr, guard)
	}
	return out
}

// OracleWorstCase is the whole-graph WorstCase oracle.
func OracleWorstCase(s *sched.Schedule, d platform.DVFS) Result { return oracleWorstCase(s, d) }

// BackwardEdges counts the real and pseudo edges of s that point backward
// in s.Order.
func BackwardEdges(s *sched.Schedule) int { return backwardEdges(newDAG(s)) }

// ClassRowsVsOracle reports the first difference between the class rows of
// s's model, both halves, and the sort-based oracle's.
func ClassRowsVsOracle(s *sched.Schedule) error { return classRowsVsOracle(newDAG(s)) }

// Footprint returns, for every per-slot array of w's latest pass, the
// class slots it holds (its length past the task slots) and the class slots
// its capacity keeps; then the same for the pass's chain arena, stale list
// and queue: what the pass used of each and what its capacity keeps.
func Footprint(w *Workspace) (used, kept []int) {
	p, n := &w.scratch.p, len(w.dag.exec)
	r := p.r
	for _, lc := range [][2]int{
		{len(p.upDone), cap(p.upDone)}, {len(p.upChain), cap(p.upChain)},
		{len(r.up), cap(r.up)}, {len(r.ubp), cap(r.ubp)},
		{len(p.downDone), cap(p.downDone)},
		{len(p.downChainU), cap(p.downChainU)}, {len(p.downChainC), cap(p.downChainC)},
		{len(r.downU), cap(r.downU)}, {len(r.downC), cap(r.downC)}, {len(r.probC), cap(r.probC)},
		{len(r.dbpU), cap(r.dbpU)}, {len(r.dbpC), cap(r.dbpC)}, {len(r.classA), cap(r.classA)},
	} {
		used, kept = append(used, lc[0]-n), append(kept, lc[1]-n)
	}
	used = append(used, len(p.chains.ent), len(p.stale), p.queueHigh)
	kept = append(kept, cap(p.chains.ent), cap(p.stale), cap(p.queue))
	return used, kept
}

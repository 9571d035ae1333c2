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

package sim

import (
	"fmt"
	"math/rand"

	"ctgdvfs/internal/sched"
)

// Sample estimates a schedule's expected energy and makespan by Monte-Carlo
// replay: n branch decision vectors are drawn from the graph's current
// probabilities and replayed. Exhaustive enumeration is exact but costs one
// replay per leaf minterm; sampling is the tool of choice when the minterm
// count explodes (the library caps enumeration at ctg.MaxScenarios, but
// even thousands of scenarios may cost more than a few hundred samples
// resolve).
func Sample(s *sched.Schedule, rng *rand.Rand, n int, cfg Config) (Summary, error) {
	if n <= 0 {
		return Summary{}, fmt.Errorf("sim: sample size must be positive, got %d", n)
	}
	g := s.G
	var sum Summary
	decisions := make([]int, g.NumForks())
	for i := 0; i < n; i++ {
		for fi, fork := range g.Forks() {
			r := rng.Float64()
			acc := 0.0
			probs := g.BranchProbs(fork)
			decisions[fi] = len(probs) - 1
			for k, p := range probs {
				acc += p
				if r < acc {
					decisions[fi] = k
					break
				}
			}
		}
		si, err := s.A.ScenarioForDecisions(decisions)
		if err != nil {
			return Summary{}, err
		}
		ci := cfg
		if ci.Faults != nil {
			// Each sample is one CTG iteration of the fault sequence.
			ci.FaultInstance = i
		}
		inst, err := Replay(s, si, ci)
		if err != nil {
			return Summary{}, err
		}
		sum.ExpectedEnergy += inst.Energy
		sum.ExpectedMakespan += inst.Makespan
		if inst.Makespan > sum.WorstMakespan {
			sum.WorstMakespan = inst.Makespan
		}
		if !inst.DeadlineMet {
			sum.Misses++
		}
		sum.ExpectedLateness += inst.Lateness
		sum.NominalExpectedEnergy += inst.NominalEnergy
		sum.NominalExpectedMakespan += inst.NominalMakespan
		sum.Overruns += inst.Overruns
	}
	sum.ExpectedEnergy /= float64(n)
	sum.ExpectedMakespan /= float64(n)
	sum.ExpectedLateness /= float64(n)
	sum.NominalExpectedEnergy /= float64(n)
	sum.NominalExpectedMakespan /= float64(n)
	return sum, nil
}

// Cruise-control example: the paper's second application. A 32-task
// automotive CTG with two branch forks runs periodically on 5 ECUs with a
// deadline twice the optimal schedule length; the adaptive runtime follows
// the road conditions (uphill/downhill/straight/bumpy) as they change.
package main

import (
	"flag"
	"fmt"
	"log"

	"ctgdvfs"
)

func main() {
	seed := flag.Int64("seed", 42, "road sequence seed")
	instances := flag.Int("n", 1000, "control periods to simulate")
	flag.Parse()

	g, p, err := ctgdvfs.BuildCruise()
	if err != nil {
		log.Fatal(err)
	}
	// The paper fixes the deadline at double the optimum schedule length.
	g, err = ctgdvfs.TightenDeadline(g, p, 2)
	if err != nil {
		log.Fatal(err)
	}
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cruise controller: %d tasks on %d PEs, %d minterms, deadline %.0f\n",
		g.NumTasks(), p.NumPEs(), a.NumScenarios(), g.Deadline())
	for i := 0; i < a.NumScenarios(); i++ {
		fmt.Printf("  minterm %-12s prob %.2f (%d tasks)\n",
			a.ScenarioLabel(i), a.Scenario(i).Prob, a.Scenario(i).Active.Count())
	}

	road := ctgdvfs.RoadSequence(g, *seed, *instances)

	static, err := ctgdvfs.Plan(g, p)
	if err != nil {
		log.Fatal(err)
	}
	stStatic, err := ctgdvfs.RunStatic(static, road, ctgdvfs.SimConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	for _, threshold := range []float64{0.5, 0.1} {
		mgr, err := ctgdvfs.NewAdaptive(g, p, ctgdvfs.AdaptiveOptions{
			Window: 20, Threshold: threshold,
		})
		if err != nil {
			log.Fatal(err)
		}
		st, err := mgr.Run(road)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nthreshold %.1f over %d periods:\n", threshold, *instances)
		fmt.Printf("  non-adaptive: avg energy %.2f (misses %d)\n", stStatic.AvgEnergy, stStatic.Misses)
		fmt.Printf("  adaptive:     avg energy %.2f (misses %d, %d re-schedules)\n",
			st.AvgEnergy, st.Misses, st.Calls)
		fmt.Printf("  saving: %.1f%%\n", 100*(stStatic.AvgEnergy-st.AvgEnergy)/stStatic.AvgEnergy)
	}
}

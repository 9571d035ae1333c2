// WLAN receiver example: the paper's §I motivating case of task-level
// branching — an 802.11b physical layer whose preamble mode and payload
// modulation scheme are selected per frame. Under a fading channel, the
// rate distribution drifts and the adaptive runtime re-schedules to follow
// it.
package main

import (
	"flag"
	"fmt"
	"log"

	"ctgdvfs"
)

func main() {
	seed := flag.Int64("seed", 7, "channel seed")
	frames := flag.Int("n", 1000, "frames to receive")
	flag.Parse()

	g, p, err := ctgdvfs.BuildWLAN()
	if err != nil {
		log.Fatal(err)
	}
	g, err = ctgdvfs.TightenDeadline(g, p, 1.6)
	if err != nil {
		log.Fatal(err)
	}
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("802.11b receive CTG: %d tasks, %d forks (one 4-way), %d scenarios, deadline %.0f\n",
		g.NumTasks(), g.NumForks(), a.NumScenarios(), g.Deadline())

	vec := ctgdvfs.WLANChannelTrace(g, *seed, *frames)
	static, err := ctgdvfs.Plan(g, p)
	if err != nil {
		log.Fatal(err)
	}
	stStatic, err := ctgdvfs.RunStatic(static, vec, ctgdvfs.SimConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := ctgdvfs.NewAdaptive(g, p, ctgdvfs.AdaptiveOptions{Window: 20, Threshold: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	stAdaptive, err := mgr.Run(vec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d frames under a fading channel:\n", *frames)
	fmt.Printf("  static online:  avg energy %.2f (misses %d)\n", stStatic.AvgEnergy, stStatic.Misses)
	fmt.Printf("  adaptive:       avg energy %.2f (misses %d, %d re-schedules)\n",
		stAdaptive.AvgEnergy, stAdaptive.Misses, stAdaptive.Calls)
	fmt.Printf("  saving: %.1f%%\n",
		100*(stStatic.AvgEnergy-stAdaptive.AvgEnergy)/stStatic.AvgEnergy)

	fmt.Println("\nper-PE breakdown of the adaptive runtime's current schedule:")
	fmt.Print(ctgdvfs.AnalyzeBreakdown(mgr.Schedule()).String())
}

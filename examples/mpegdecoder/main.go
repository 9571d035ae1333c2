// MPEG decoder example: run the paper's first adaptive experiment on one
// movie clip — profile the decoder on a training half, then compare the
// non-adaptive online algorithm against the window-based adaptive runtime on
// the testing half.
package main

import (
	"flag"
	"fmt"
	"log"

	"ctgdvfs"
)

func main() {
	clipName := flag.String("clip", "Airwolf", "movie clip (Airwolf, Bike, Bus, Coaster, Flower, Shuttle, Tennis, Train)")
	instances := flag.Int("n", 2000, "macroblocks to decode (half train, half test)")
	threshold := flag.Float64("threshold", 0.1, "adaptation threshold T")
	window := flag.Int("window", 20, "sliding window length L")
	perScenario := flag.Bool("perscenario", false, "use scenario-conditioned DVFS (extension)")
	flag.Parse()

	g, p, err := ctgdvfs.BuildMPEG()
	if err != nil {
		log.Fatal(err)
	}
	g, err = ctgdvfs.TightenDeadline(g, p, 1.6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MPEG macroblock CTG: %d tasks, %d branch forks, %d leaf minterms, deadline %.0f\n",
		g.NumTasks(), g.NumForks(), mustAnalyze(g).NumScenarios(), g.Deadline())

	var clip *ctgdvfs.Movie
	for _, m := range ctgdvfs.MovieClips() {
		if m.Name == *clipName {
			clip = &m
			break
		}
	}
	if clip == nil {
		log.Fatalf("unknown clip %q", *clipName)
	}

	vec := clip.Generate(g, *instances)
	train, test := vec[:len(vec)/2], vec[len(vec)/2:]

	// Non-adaptive: profile the training half, schedule once.
	profile := ctgdvfs.AverageProbs(g, train)
	gProf := g.Clone()
	if err := ctgdvfs.ApplyProfile(gProf, profile); err != nil {
		log.Fatal(err)
	}
	static, err := ctgdvfs.Plan(gProf, p)
	if err != nil {
		log.Fatal(err)
	}
	stStatic, err := ctgdvfs.RunStatic(static, test, ctgdvfs.SimConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Adaptive: same starting profile, window-based re-scheduling.
	mgr, err := ctgdvfs.NewAdaptive(gProf, p, ctgdvfs.AdaptiveOptions{
		Window: *window, Threshold: *threshold, PerScenario: *perScenario,
	})
	if err != nil {
		log.Fatal(err)
	}
	stAdaptive, err := mgr.Run(test)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nclip %s, %d testing macroblocks:\n", clip.Name, len(test))
	fmt.Printf("  non-adaptive online: avg energy %.2f, avg makespan %.1f, misses %d\n",
		stStatic.AvgEnergy, stStatic.AvgMakespan, stStatic.Misses)
	fmt.Printf("  adaptive (L=%d, T=%.2f): avg energy %.2f, avg makespan %.1f, misses %d, %d re-schedules\n",
		*window, *threshold, stAdaptive.AvgEnergy, stAdaptive.AvgMakespan, stAdaptive.Misses, stAdaptive.Calls)
	fmt.Printf("  energy saving: %.1f%%\n",
		100*(stStatic.AvgEnergy-stAdaptive.AvgEnergy)/stStatic.AvgEnergy)
}

func mustAnalyze(g *ctgdvfs.Graph) *ctgdvfs.Analysis {
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		log.Fatal(err)
	}
	return a
}

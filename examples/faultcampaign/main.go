// Faultcampaign: inject deterministic execution-time overruns into the MPEG
// decoder workload and compare three runtimes — the always-full-speed static
// schedule, the adaptive runtime with no overrun awareness, and the guarded
// adaptive runtime with worst-case fallback recovery. Shows the
// miss-rate-vs-energy tradeoff the fault-tolerance layer buys.
package main

import (
	"fmt"
	"log"

	"ctgdvfs"
)

func main() {
	// The MPEG macroblock decoder on 3 PEs, deadline at 1.6× the nominal
	// full-speed makespan.
	g0, p, err := ctgdvfs.BuildMPEG()
	if err != nil {
		log.Fatal(err)
	}
	g, err := ctgdvfs.TightenDeadline(g0, p, 1.6)
	if err != nil {
		log.Fatal(err)
	}

	// Profile the first 1000 macroblocks of a clip, measure the next 1000.
	vec := ctgdvfs.MovieClips()[0].Generate(g, 2000)
	train, test := vec[:1000], vec[1000:]
	if err := ctgdvfs.ApplyProfile(g, ctgdvfs.AverageProbs(g, train)); err != nil {
		log.Fatal(err)
	}

	// A seeded fault plan: every task execution overruns its WCET by 20%
	// with probability 0.2. Same seed, same perturbations — across runs,
	// runtimes and worker bounds.
	plan, err := ctgdvfs.NewFaultPlan(ctgdvfs.FaultSpec{
		Seed: 42, OverrunProb: 0.2, OverrunFactor: 1.2,
	}, g.NumTasks(), p.NumPEs())
	if err != nil {
		log.Fatal(err)
	}

	// Runtime 1: the adaptive runtime exactly as the paper runs it — all
	// slack spent on DVFS, no overrun margin.
	unguarded, err := ctgdvfs.NewAdaptive(g, p, ctgdvfs.AdaptiveOptions{
		Window: 20, Threshold: 0.1, Faults: plan,
	})
	if err != nil {
		log.Fatal(err)
	}
	stU, err := unguarded.Run(test)
	if err != nil {
		log.Fatal(err)
	}

	// Runtime 2: guard band (20% of each task's slack held back) plus a
	// precomputed full-speed fallback schedule; instances that still miss on
	// the guarded schedule are re-run on the fallback, and a miss-rate
	// circuit breaker widens the guard band under sustained overruns.
	guarded, err := ctgdvfs.NewAdaptive(g, p, ctgdvfs.AdaptiveOptions{
		Window: 20, Threshold: 0.1, Faults: plan,
		GuardBand: 0.2, Recovery: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	stG, err := guarded.Run(test)
	if err != nil {
		log.Fatal(err)
	}

	// Runtime 3: the always-full-speed baseline — the guarded runtime's own
	// fallback schedule replayed statically under the same plan.
	stF, err := ctgdvfs.RunStatic(guarded.Fallback(), test, ctgdvfs.SimConfig{Faults: plan}, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d instances, %d fault-perturbed task executions\n\n", stG.Instances, stG.Overruns)
	row := func(name string, st ctgdvfs.RunStats) {
		fmt.Printf("  %-18s misses %4d (%5.1f%%)   avg energy %7.1f (%5.1f%% of full speed)\n",
			name, st.Misses, 100*float64(st.Misses)/float64(st.Instances),
			st.AvgEnergy, 100*st.AvgEnergy/stF.AvgEnergy)
	}
	row("full speed", stF)
	row("unguarded adaptive", stU)
	row("guarded+fallback", stG)
	fmt.Printf("\nrecovery: %d fallback activations, %d misses avoided, max guard level %d\n",
		stG.FallbackActivations, stG.MissesAvoided, stG.MaxGuardLevel)
}

package exp

import (
	"fmt"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// CampaignRow is one workload of the fault campaign: the same seeded overrun
// plan replayed under three runtimes — the always-full-speed static baseline
// (the guarded manager's precomputed fallback schedule), the paper's adaptive
// runtime with no overrun awareness, and the guarded adaptive runtime with
// worst-case fallback recovery.
type CampaignRow struct {
	Workload string
	Vectors  int
	// Overruns counts fault-plan perturbed task executions seen by the
	// guarded runtime (the plans are identical across runtimes; schedules
	// differ, so mapped PEs — and therefore PE-slowdown hits — may not).
	Overruns int

	// Per-runtime deadline misses over the vector sequence.
	FullSpeedMisses, UnguardedMisses, GuardedMisses int
	// Per-runtime average per-instance energy (raw units).
	FullSpeedEnergy, UnguardedEnergy, GuardedEnergy float64
	// Recovery counters of the guarded runtime.
	FallbackActivations, MissesAvoided, MaxGuardLevel int
	// TotalLateness is the guarded runtime's summed residual overshoot.
	TotalLateness float64
}

// MissRateFull, MissRateUnguarded and MissRateGuarded are the per-runtime
// miss fractions.
func (r CampaignRow) MissRateFull() float64 { return float64(r.FullSpeedMisses) / float64(r.Vectors) }
func (r CampaignRow) MissRateUnguarded() float64 {
	return float64(r.UnguardedMisses) / float64(r.Vectors)
}
func (r CampaignRow) MissRateGuarded() float64 { return float64(r.GuardedMisses) / float64(r.Vectors) }

// FaultCampaignResult is the robustness extension (DESIGN.md §7): the
// miss-rate-vs-energy tradeoff of guard-band stretching plus fallback
// recovery under a deterministic execution-time overrun plan, on the two
// application workloads of the paper's evaluation.
type FaultCampaignResult struct {
	Spec  faults.Spec
	Guard float64
	Rows  []CampaignRow
}

// DefaultCampaignSpec is the campaign's reference fault plan: every task
// execution overruns its WCET by 20% with probability 0.2.
func DefaultCampaignSpec() faults.Spec {
	return faults.Spec{Seed: 42, OverrunProb: 0.2, OverrunFactor: 1.2}
}

// DefaultCampaignGuard is the campaign's base guard band: 20% of every
// task's slack reserved as overrun margin.
const DefaultCampaignGuard = 0.2

// campaignWorkload is one prepared application: a profiled graph, its
// platform and the measured decision vectors.
type campaignWorkload struct {
	name string
	g    *ctg.Graph
	p    *platform.Platform
	vec  trace.Vectors
}

// campaignWorkloads prepares the MPEG decoder and the cruise controller the
// same way their paper experiments do: tightened deadline, a training
// sequence profiled into the graph, a disjoint measured sequence.
func campaignWorkloads() ([]campaignWorkload, error) {
	var out []campaignWorkload

	// MPEG decoder: Airwolf clip, first 1000 macroblocks train the profile,
	// the second 1000 are measured (as in Figure 5 / Table 2).
	g0, p, err := mpeg.Build()
	if err != nil {
		return nil, err
	}
	g, err := core.TightenDeadline(g0, p, DeadlineFactor)
	if err != nil {
		return nil, err
	}
	vec := trace.MovieClips()[0].Generate(g, 2000)
	train, test := vec[:1000], vec[1000:]
	gProf := g.Clone()
	if err := trace.ApplyProfile(gProf, trace.AverageProbs(g, train)); err != nil {
		return nil, err
	}
	out = append(out, campaignWorkload{name: "mpeg", g: gProf, p: p, vec: test})

	// Cruise controller: deadline at twice the optimum (as in Table 3),
	// road sequence 101 trains, 102 is measured.
	g0, p, err = cruise.Build()
	if err != nil {
		return nil, err
	}
	g, err = core.TightenDeadline(g0, p, 2)
	if err != nil {
		return nil, err
	}
	gProf = g.Clone()
	if err := trace.ApplyProfile(gProf, trace.AverageProbs(g, trace.RoadSequence(g, 101, 1000))); err != nil {
		return nil, err
	}
	out = append(out, campaignWorkload{name: "cruise", g: gProf, p: p, vec: trace.RoadSequence(g, 102, 1000)})

	return out, nil
}

// FaultCampaign runs the overrun campaign on both application workloads.
// Each workload faces the identical fault plan under all three runtimes, so
// the contrast isolates the runtime policy: the full-speed baseline buys
// deadline safety with maximum energy, the unguarded adaptive runtime spends
// its whole slack on DVFS and pays in misses, and the guarded runtime splits
// the slack — most of the DVFS saving, a bounded miss rate, and a full-speed
// fallback for the instances the guard band cannot absorb.
//
// A non-nil obs instruments the guarded runtime of every workload — the
// runtime whose behavior (fallback re-runs, breaker trips, guard levels) the
// trace is for; the baselines would only double every slice. Each workload
// gets its own stream (recorder and series store, keyed by workload name) in
// the returned telemetry, which is nil when obs is nil.
func FaultCampaign(spec faults.Spec, guard float64, obs *Observe) (*FaultCampaignResult, *CampaignTelemetry, error) {
	return faultCampaignN(spec, guard, 0, obs)
}

// faultCampaignN is FaultCampaign with the measured sequences truncated to
// maxVec vectors per workload (0 = full length) — the tests use a short
// prefix so the campaign stays affordable under the race detector; the
// truncation changes nothing but the sample size (instance i keeps fault
// instance i).
func faultCampaignN(spec faults.Spec, guard float64, maxVec int, obs *Observe) (*FaultCampaignResult, *CampaignTelemetry, error) {
	workloads, err := campaignWorkloads()
	if err != nil {
		return nil, nil, err
	}
	if maxVec > 0 {
		for i := range workloads {
			if len(workloads[i].vec) > maxVec {
				workloads[i].vec = workloads[i].vec[:maxVec]
			}
		}
	}
	// Streams are allocated before the fan-out so the maps are read-only
	// inside the workers.
	tel := obs.newTelemetry()
	if tel != nil {
		for _, w := range workloads {
			// Each stream's series store samples a private mirror of the
			// shared registry and evaluates the alert rules.
			tel.Recorders[w.name] = telemetry.NewMemoryRecorder()
			tel.Series[w.name] = series.NewStore(series.StoreOptions{
				Registry: telemetry.NewMirrorRegistry(tel.Metrics),
				Rules:    obs.Rules,
			})
		}
	}
	// The workloads are independent end-to-end runs, so they fan out over
	// the worker pool; rows stay in workload order.
	rows, err := par.MapErr(len(workloads), func(i int) (CampaignRow, error) {
		w := workloads[i]
		plan, err := faults.New(spec, w.g.NumTasks(), w.p.NumPEs())
		if err != nil {
			return CampaignRow{}, err
		}

		unguarded, err := core.New(w.g, w.p, core.Options{
			Window: 20, Threshold: 0.1, Faults: plan,
		})
		if err != nil {
			return CampaignRow{}, err
		}
		stU, err := unguarded.Run(w.vec)
		if err != nil {
			return CampaignRow{}, err
		}

		gopts := core.Options{
			Window: 20, Threshold: 0.1, Faults: plan,
			GuardBand: guard, Recovery: true,
		}
		if tel != nil {
			// The manager publishes into the workload's mirror registry
			// (which forwards to the shared one) and ticks its store.
			st := tel.Series[w.name]
			gopts.Recorder = tel.Recorders[w.name]
			gopts.Metrics = st.Registry()
			gopts.Series = st
		}
		guarded, err := core.New(w.g, w.p, gopts)
		if err != nil {
			return CampaignRow{}, err
		}
		stG, err := guarded.Run(w.vec)
		if err != nil {
			return CampaignRow{}, err
		}

		// Always-full-speed baseline: the guarded manager's precomputed
		// worst-case fallback schedule, replayed statically under the same
		// plan (vector i is fault instance i in every runtime).
		stF, err := core.RunStatic(guarded.Fallback(), w.vec, sim.Config{Faults: plan}, nil)
		if err != nil {
			return CampaignRow{}, err
		}

		return CampaignRow{
			Workload:            w.name,
			Vectors:             len(w.vec),
			Overruns:            stG.Overruns,
			FullSpeedMisses:     stF.Misses,
			UnguardedMisses:     stU.Misses,
			GuardedMisses:       stG.Misses,
			FullSpeedEnergy:     stF.AvgEnergy,
			UnguardedEnergy:     stU.AvgEnergy,
			GuardedEnergy:       stG.AvgEnergy,
			FallbackActivations: stG.FallbackActivations,
			MissesAvoided:       stG.MissesAvoided,
			MaxGuardLevel:       stG.MaxGuardLevel,
			TotalLateness:       stG.TotalLateness,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &FaultCampaignResult{Spec: spec, Guard: guard, Rows: rows}, tel, nil
}

// Render formats the miss-rate-vs-energy tradeoff, energies normalized to
// the full-speed baseline (= 100).
func (r *FaultCampaignResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		norm := func(e float64) string { return f1(100 * e / row.FullSpeedEnergy) }
		rows = append(rows, []string{
			row.Workload,
			fmt.Sprintf("%d", row.Overruns),
			fmt.Sprintf("%.1f%% / %s", 100*row.MissRateFull(), norm(row.FullSpeedEnergy)),
			fmt.Sprintf("%.1f%% / %s", 100*row.MissRateUnguarded(), norm(row.UnguardedEnergy)),
			fmt.Sprintf("%.1f%% / %s", 100*row.MissRateGuarded(), norm(row.GuardedEnergy)),
			fmt.Sprintf("%d (%d saved)", row.FallbackActivations, row.MissesAvoided),
			fmt.Sprintf("%d", row.MaxGuardLevel),
		})
	}
	s := fmt.Sprintf("Fault campaign: seed %d, overrun prob %.2f ×%.2f, guard band %.2f\n",
		r.Spec.Seed, r.Spec.OverrunProb, r.Spec.OverrunFactor, r.Guard)
	s += "(each cell: miss rate / energy normalized to full speed = 100)\n"
	s += table(
		[]string{"Workload", "Overruns", "Full speed", "Unguarded", "Guarded+fallback", "Fallbacks", "MaxLvl"},
		rows)
	return s
}

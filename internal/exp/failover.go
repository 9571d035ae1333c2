package exp

import (
	"fmt"

	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/trace"
)

// FailoverCell is one point of the failover sweep: one workload replayed
// under one seeded availability timeline (transient PE-outage probability ×
// repair time), once by the adaptive runtime that re-maps onto the survivor
// set and once by a static schedule that keeps dispatching onto whatever the
// timeline has taken away.
type FailoverCell struct {
	Workload string
	FailProb float64 // per-PE per-instance transient outage probability
	Repair   int     // outage length in graph instances
	Vectors  int

	// Adaptive-remap runtime (core.Manager with the failure timeline).
	AdaptiveMisses    int
	AdaptiveEnergy    float64
	Remaps            int
	DegradedInstances int
	AdaptiveTopoMiss  int

	// Static baseline: the same DVFS schedule replayed unchanged; instances
	// that dispatch onto dead hardware deadlock and are charged one full
	// deadline of lateness (core.RunStatic with the failure timeline).
	StaticMisses   int
	StaticEnergy   float64
	StaticTopoMiss int
}

// AdaptiveMissRate and StaticMissRate are the per-runtime miss fractions.
func (c FailoverCell) AdaptiveMissRate() float64 {
	return float64(c.AdaptiveMisses) / float64(c.Vectors)
}
func (c FailoverCell) StaticMissRate() float64 {
	return float64(c.StaticMisses) / float64(c.Vectors)
}

// FailoverResult is the failover campaign (DESIGN.md §10): the deadline and
// energy cost of surviving PE outages by online re-mapping, against a static
// schedule that deadlocks whenever its hardware disappears.
type FailoverResult struct {
	Seed     int64
	Scripted bool // true when a -faults-spec timeline replaced the sweep
	Cells    []FailoverCell
}

// Default failover sweep: outage probabilities and repair times, chosen so
// mpeg/wlan/cruise all see several outages (and at least one overlap of two
// concurrent outages at the aggressive corner) within 400 instances.
var (
	DefaultFailoverProbs   = []float64{0.01, 0.05}
	DefaultFailoverRepairs = []int{5, 25}
)

// DefaultFailoverVectors bounds the measured sequence per workload; the
// sweep is |probs|×|repairs|×3 workloads end-to-end runs, so the campaign
// stays tractable at a few hundred instances per cell.
const DefaultFailoverVectors = 400

// failoverWorkloads is campaignWorkloads plus the 802.11b receiver, prepared
// the same way: tightened deadline, training prefix profiled into the graph,
// disjoint measured sequence.
func failoverWorkloads() ([]campaignWorkload, error) {
	out, err := campaignWorkloads()
	if err != nil {
		return nil, err
	}
	g0, p, err := wlan.Build()
	if err != nil {
		return nil, err
	}
	g, err := core.TightenDeadline(g0, p, DeadlineFactor)
	if err != nil {
		return nil, err
	}
	gProf := g.Clone()
	if err := trace.ApplyProfile(gProf, trace.AverageProbs(g, wlan.ChannelTrace(g, 201, 1000))); err != nil {
		return nil, err
	}
	out = append(out, campaignWorkload{name: "wlan", g: gProf, p: p, vec: wlan.ChannelTrace(g, 202, 1000)})
	return out, nil
}

// FailoverCampaign sweeps transient-outage probability × repair time over
// the mpeg/wlan/cruise workloads. Every cell replays the identical seeded
// availability timeline under two runtimes: the adaptive manager, which
// re-schedules onto the survivor set at the instance boundary where a PE
// drops (and recomputes the healthy schedule when it returns), and the
// manager's own pre-outage DVFS schedule replayed statically, which
// deadlocks on every instance that activates a task on dead hardware. Nil
// probs/repairs run the default sweep.
func FailoverCampaign(seed int64, probs []float64, repairs []int) (*FailoverResult, error) {
	if len(probs) == 0 {
		probs = DefaultFailoverProbs
	}
	if len(repairs) == 0 {
		repairs = DefaultFailoverRepairs
	}
	specs := make([]faults.FailureSpec, 0, len(probs)*len(repairs))
	for _, q := range probs {
		for _, rep := range repairs {
			specs = append(specs, faults.FailureSpec{Seed: seed, PEFailProb: q, PERepair: rep})
		}
	}
	return failoverCampaignN(specs, DefaultFailoverVectors, false)
}

// FailoverCampaignSpec replays one scripted availability timeline (e.g. from
// a -faults-spec file) instead of the sweep: one cell per workload.
func FailoverCampaignSpec(spec faults.FailureSpec) (*FailoverResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return failoverCampaignN([]faults.FailureSpec{spec}, DefaultFailoverVectors, true)
}

// failoverCampaignN runs every (workload, spec) cell over the worker pool,
// truncating the measured sequences to maxVec vectors (0 = full length).
func failoverCampaignN(specs []faults.FailureSpec, maxVec int, scripted bool) (*FailoverResult, error) {
	workloads, err := failoverWorkloads()
	if err != nil {
		return nil, err
	}
	if maxVec > 0 {
		for i := range workloads {
			if len(workloads[i].vec) > maxVec {
				workloads[i].vec = workloads[i].vec[:maxVec]
			}
		}
	}
	// Cells are independent end-to-end runs: fan out workload-major so the
	// rendered table groups by workload, sweep order within.
	cells, err := par.MapErr(len(workloads)*len(specs), func(i int) (FailoverCell, error) {
		w := workloads[i/len(specs)]
		spec := specs[i%len(specs)]
		tl, err := faults.NewTimeline(spec, w.p.NumPEs())
		if err != nil {
			return FailoverCell{}, err
		}

		m, err := core.New(w.g, w.p, core.Options{
			Window: 20, Threshold: 0.1, Recovery: true, Failures: tl,
		})
		if err != nil {
			return FailoverCell{}, err
		}
		// The static arm replays the adaptive runtime's own initial DVFS
		// schedule, so the contrast isolates re-mapping, not mapping quality.
		static := m.Schedule().Clone()
		stA, err := m.Run(w.vec)
		if err != nil {
			return FailoverCell{}, err
		}
		stS, err := core.RunStatic(static, w.vec, sim.Config{}, tl)
		if err != nil {
			return FailoverCell{}, err
		}

		return FailoverCell{
			Workload: w.name,
			FailProb: spec.PEFailProb,
			Repair:   spec.PERepair,
			Vectors:  len(w.vec),

			AdaptiveMisses:    stA.Misses,
			AdaptiveEnergy:    stA.AvgEnergy,
			Remaps:            stA.Remaps,
			DegradedInstances: stA.DegradedInstances,
			AdaptiveTopoMiss:  stA.TopologyMisses,

			StaticMisses:   stS.Misses,
			StaticEnergy:   stS.AvgEnergy,
			StaticTopoMiss: stS.TopologyMisses,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	seed := int64(0)
	if len(specs) > 0 {
		seed = specs[0].Seed
	}
	return &FailoverResult{Seed: seed, Scripted: scripted, Cells: cells}, nil
}

// Render formats the failover sweep, one row per (workload, outage rate,
// repair time) cell.
func (r *FailoverResult) Render() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		point := fmt.Sprintf("%.2f/%d", c.FailProb, c.Repair)
		if r.Scripted {
			point = "scripted"
		}
		rows = append(rows, []string{
			c.Workload, point,
			fmt.Sprintf("%d", c.DegradedInstances),
			fmt.Sprintf("%d", c.Remaps),
			fmt.Sprintf("%.1f%% (%d topo)", 100*c.AdaptiveMissRate(), c.AdaptiveTopoMiss),
			fmt.Sprintf("%.1f%% (%d topo)", 100*c.StaticMissRate(), c.StaticTopoMiss),
			f1(c.AdaptiveEnergy), f1(c.StaticEnergy),
		})
	}
	s := fmt.Sprintf("Failover campaign: seed %d, adaptive re-mapping vs static schedule under PE outages\n", r.Seed)
	s += "(fail/repair: per-PE per-instance outage probability / repair time in instances;\n topo: misses attributable to topology loss — static deadlocks count one deadline each)\n"
	s += table(
		[]string{"workload", "fail/repair", "degraded", "remaps", "adaptive miss", "static miss", "E adp", "E stat"},
		rows)
	return s
}

package exp

import (
	"fmt"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/stats"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// RobustnessResult re-runs the Table 4 experiment (lowest-energy-minterm
// bias, the setting with the largest adaptive gains) across several
// independent workload seeds and summarizes the savings distribution — the
// paper reports single runs, so this extension checks that its headline
// contrast is not a seed artifact.
type RobustnessResult struct {
	Trials int
	// SavingT05/SavingT01 summarize the per-trial average savings of the
	// adaptive algorithm over the misprofiled online algorithm.
	SavingT05, SavingT01 stats.Summary
	// Gap summarizes (Table4 saving − Table5 saving) at T = 0.1 per
	// trial: the bias contrast itself.
	Gap stats.Summary
}

// Robustness runs `trials` independent replications. Each trial regenerates
// the ten random CTGs and their vectors with a shifted seed.
func Robustness(trials int) (*RobustnessResult, error) {
	if trials <= 0 {
		trials = 5
	}
	res := &RobustnessResult{Trials: trials}
	var s05, s01, gaps []float64
	for trial := 0; trial < trials; trial++ {
		low, err := runRandomTrial(BiasLowest, int64(trial)*97)
		if err != nil {
			return nil, err
		}
		high, err := runRandomTrial(BiasHighest, int64(trial)*97)
		if err != nil {
			return nil, err
		}
		s05 = append(s05, low.t05)
		s01 = append(s01, low.t01)
		gaps = append(gaps, low.t01-high.t01)
	}
	res.SavingT05 = stats.Summarize(s05)
	res.SavingT01 = stats.Summarize(s01)
	res.Gap = stats.Summarize(gaps)
	return res, nil
}

type trialOutcome struct {
	t05, t01 float64 // average relative savings
}

// runRandomTrial is a seed-shifted replication of one bias variant of the
// Tables 4/5 experiment, averaged over its ten CTGs.
func runRandomTrial(bias Bias, seedShift int64) (trialOutcome, error) {
	var out trialOutcome
	cases := tgff.Table4Cases()
	for i, c := range cases {
		cfg := c.Config
		cfg.Seed += seedShift
		g0, p, err := tgff.Generate(cfg)
		if err != nil {
			return out, err
		}
		g, err := core.TightenDeadline(g0, p, DeadlineFactor)
		if err != nil {
			return out, err
		}
		vec := trace.Fluctuating(g, int64(5000+i)+seedShift, 1000, 0.45)

		a, err := ctg.Analyze(g)
		if err != nil {
			return out, err
		}
		avgEnergy := func(t ctg.TaskID) float64 {
			sum := 0.0
			for pe := 0; pe < p.NumPEs(); pe++ {
				sum += p.Energy(int(t), pe)
			}
			return sum / float64(p.NumPEs())
		}
		minIdx, maxIdx := a.MinMaxWeightScenarios(avgEnergy)
		idx := minIdx
		if bias == BiasHighest {
			idx = maxIdx
		}
		gProf := g.Clone()
		if err := trace.ApplyProfile(gProf, trace.BiasedProfile(a, idx, 0.9)); err != nil {
			return out, err
		}
		static, err := buildOnline(gProf, p)
		if err != nil {
			return out, err
		}
		stOnline, err := core.RunStatic(static, vec, sim.Config{}, nil)
		if err != nil {
			return out, err
		}
		for _, th := range []float64{0.5, 0.1} {
			m, err := core.New(gProf, p, core.Options{Window: 20, Threshold: th})
			if err != nil {
				return out, err
			}
			st, err := m.Run(vec)
			if err != nil {
				return out, err
			}
			saving := (stOnline.AvgEnergy - st.AvgEnergy) / stOnline.AvgEnergy
			if th == 0.5 {
				out.t05 += saving
			} else {
				out.t01 += saving
			}
		}
	}
	out.t05 /= float64(len(cases))
	out.t01 /= float64(len(cases))
	return out, nil
}

// Render formats the robustness summary.
func (r *RobustnessResult) Render() string {
	s := fmt.Sprintf("Extension: robustness of the Table 4/5 contrast over %d seed replications\n\n", r.Trials)
	s += fmt.Sprintf("adaptive saving vs misprofiled online, T=0.5: %s\n", r.SavingT05)
	s += fmt.Sprintf("adaptive saving vs misprofiled online, T=0.1: %s\n", r.SavingT01)
	s += fmt.Sprintf("Table4−Table5 saving gap at T=0.1:            %s\n", r.Gap)
	return s
}

package exp

import (
	"fmt"

	"ctgdvfs/internal/stats"
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
		shift := int64(trial) * 97
		low, err := randomCTGs(BiasLowest, shift, 5000+shift)
		if err != nil {
			return nil, err
		}
		high, err := randomCTGs(BiasHighest, shift, 5000+shift)
		if err != nil {
			return nil, err
		}
		s05 = append(s05, low.AvgSavingT05)
		s01 = append(s01, low.AvgSavingT01)
		gaps = append(gaps, low.AvgSavingT01-high.AvgSavingT01)
	}
	res.SavingT05 = stats.Summarize(s05)
	res.SavingT01 = stats.Summarize(s01)
	res.Gap = stats.Summarize(gaps)
	return res, nil
}

// Render formats the robustness summary.
func (r *RobustnessResult) Render() string {
	s := fmt.Sprintf("Extension: robustness of the Table 4/5 contrast over %d seed replications\n\n", r.Trials)
	s += fmt.Sprintf("adaptive saving vs misprofiled online, T=0.5: %s\n", r.SavingT05)
	s += fmt.Sprintf("adaptive saving vs misprofiled online, T=0.1: %s\n", r.SavingT01)
	s += fmt.Sprintf("Table4−Table5 saving gap at T=0.1:            %s\n", r.Gap)
	return s
}

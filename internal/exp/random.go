package exp

import (
	"fmt"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// Bias selects how the non-adaptive algorithm's profile is produced for the
// random-CTG experiments.
type Bias int

const (
	// BiasLowest profiles toward the lowest-energy minterm (Table 4): the
	// online algorithm schedules for the cheap case and pays dearly when
	// expensive minterms occur.
	BiasLowest Bias = iota
	// BiasHighest profiles toward the highest-energy minterm (Table 5):
	// mispredictions only hit the cheap minterms, so the gap shrinks.
	BiasHighest
	// BiasIdeal uses the exact long-run average of the test vectors
	// (Figure 6): adaptation can still win on local fluctuations.
	BiasIdeal
)

func (b Bias) String() string {
	switch b {
	case BiasLowest:
		return "lowest-energy minterm bias"
	case BiasHighest:
		return "highest-energy minterm bias"
	default:
		return "ideal profiling"
	}
}

// RandomRow is one random CTG of Tables 4/5 or Figure 6. Energies are raw
// per-instance averages (the paper prints raw values in these tables).
type RandomRow struct {
	CTG      int
	Triplet  string
	Category tgff.Category

	Online    float64
	T05Energy float64
	T05Calls  int
	T01Energy float64
	T01Calls  int
}

// RandomResult aggregates one bias variant over the ten random CTGs.
type RandomResult struct {
	Bias Bias
	Rows []RandomRow

	// Mean relative savings of the adaptive algorithm over online.
	AvgSavingT05, AvgSavingT01 float64
	// Per-category savings at each threshold (categories 1 and 2).
	Cat1SavingT05, Cat2SavingT05 float64
	Cat1SavingT01, Cat2SavingT01 float64
	// Mean call counts.
	AvgCallsT05, AvgCallsT01 float64
}

// RandomCTGs runs the Tables 4/5 / Figure 6 experiment for one profile
// bias: ten random CTGs (graphs 1–5 Category 1, 6–10 Category 2), test
// vectors with equal long-run branch averages but 0.4–0.5 fluctuation, the
// online algorithm profiled per the bias, and the adaptive algorithm
// starting from the same profile with thresholds 0.5 and 0.1.
func RandomCTGs(bias Bias) (*RandomResult, error) {
	// The ten CTGs are independent (per-case generator seeds, per-case trace
	// seeds), so each runs on the worker pool; the savings aggregation walks
	// rows in case order afterwards, reproducing the serial tables exactly.
	cases := tgff.Table4Cases()
	rows, err := par.MapErr(len(cases), func(i int) (RandomRow, error) {
		c := cases[i]
		g0, p, err := tgff.Generate(c.Config)
		if err != nil {
			return RandomRow{}, fmt.Errorf("random case %d: %w", i+1, err)
		}
		g, err := core.TightenDeadline(g0, p, DeadlineFactor)
		if err != nil {
			return RandomRow{}, err
		}
		vec := trace.Fluctuating(g, int64(4000+i), 1000, 0.45)

		var profile [][]float64
		switch bias {
		case BiasIdeal:
			profile = trace.AverageProbs(g, vec)
		default:
			a, err := ctg.Analyze(g)
			if err != nil {
				return RandomRow{}, err
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
			profile = trace.BiasedProfile(a, idx, 0.9)
		}

		gProf := g.Clone()
		if err := trace.ApplyProfile(gProf, profile); err != nil {
			return RandomRow{}, err
		}
		static, err := buildOnline(gProf, p)
		if err != nil {
			return RandomRow{}, err
		}
		stOnline, err := core.RunStatic(static, vec, sim.Config{}, nil)
		if err != nil {
			return RandomRow{}, err
		}

		row := RandomRow{
			CTG:      i + 1,
			Triplet:  fmt.Sprintf("%d/%d/%d", c.Config.Nodes, c.Config.PEs, c.Config.Branches),
			Category: c.Config.Category,
			Online:   stOnline.AvgEnergy,
		}
		for _, th := range []float64{0.5, 0.1} {
			m, err := core.New(gProf, p, core.Options{Window: 20, Threshold: th})
			if err != nil {
				return RandomRow{}, err
			}
			st, err := m.Run(vec)
			if err != nil {
				return RandomRow{}, err
			}
			if th == 0.5 {
				row.T05Energy, row.T05Calls = st.AvgEnergy, st.Calls
			} else {
				row.T01Energy, row.T01Calls = st.AvgEnergy, st.Calls
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	res := &RandomResult{Bias: bias, Rows: rows}
	var cat1T05, cat1T01, cat2T05, cat2T01 []float64
	for _, row := range res.Rows {
		s05 := (row.Online - row.T05Energy) / row.Online
		s01 := (row.Online - row.T01Energy) / row.Online
		res.AvgSavingT05 += s05
		res.AvgSavingT01 += s01
		res.AvgCallsT05 += float64(row.T05Calls)
		res.AvgCallsT01 += float64(row.T01Calls)
		if row.Category == tgff.ForkJoin {
			cat1T05 = append(cat1T05, s05)
			cat1T01 = append(cat1T01, s01)
		} else {
			cat2T05 = append(cat2T05, s05)
			cat2T01 = append(cat2T01, s01)
		}
	}
	n := float64(len(res.Rows))
	res.AvgSavingT05 /= n
	res.AvgSavingT01 /= n
	res.AvgCallsT05 /= n
	res.AvgCallsT01 /= n
	res.Cat1SavingT05 = mean(cat1T05)
	res.Cat2SavingT05 = mean(cat2T05)
	res.Cat1SavingT01 = mean(cat1T01)
	res.Cat2SavingT01 = mean(cat2T01)
	return res, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Table4 reproduces Table 4 (online profiled for the lowest-energy
// minterm).
func Table4() (*RandomResult, error) { return RandomCTGs(BiasLowest) }

// Table5 reproduces Table 5 (online profiled for the highest-energy
// minterm).
func Table5() (*RandomResult, error) { return RandomCTGs(BiasHighest) }

// Figure6 reproduces Figure 6 (online with ideal profiling vs adaptive).
func Figure6() (*RandomResult, error) { return RandomCTGs(BiasIdeal) }

// Render formats the result like the corresponding paper table.
func (r *RandomResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.CTG), row.Triplet,
			f1(row.Online),
			f1(row.T05Energy), fmt.Sprintf("%d", row.T05Calls),
			f1(row.T01Energy), fmt.Sprintf("%d", row.T01Calls),
		})
	}
	title := map[Bias]string{
		BiasLowest:  "Table 4: Energy savings with online algorithm profiled for lowest energy minterm",
		BiasHighest: "Table 5: Energy savings with online algorithm profiled for highest energy minterm",
		BiasIdeal:   "Figure 6: Energy consumption with ideal profiling",
	}[r.Bias]
	s := title + "\n"
	s += table([]string{"CTG", "a/b/c", "Online", "T=0.5", "#calls", "T=0.1", "#calls"}, rows)
	s += fmt.Sprintf("\nAverage savings: T=0.5 %.0f%%, T=0.1 %.0f%%\n",
		100*r.AvgSavingT05, 100*r.AvgSavingT01)
	s += fmt.Sprintf("Category 1 vs 2 savings at T=0.5: %.0f%% vs %.0f%%\n",
		100*r.Cat1SavingT05, 100*r.Cat2SavingT05)
	s += fmt.Sprintf("Average calls: T=0.5 %.1f, T=0.1 %.1f\n", r.AvgCallsT05, r.AvgCallsT01)
	return s
}

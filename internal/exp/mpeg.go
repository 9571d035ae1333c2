package exp

import (
	"fmt"
	"strconv"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/trace"
)

// Figure4Result reproduces the paper's Figure 4: the raw selections of the
// MPEG type branch (b1) over 1000 macroblocks, the probability within a
// window of 50 iterations, and the threshold-filtered probability the
// adaptive algorithm adopts (threshold 0.1).
type Figure4Result struct {
	Window    int
	Threshold float64
	Points    []core.SeriesPoint
	// Updates counts filtered-probability updates (each triggers
	// re-scheduling in the full framework).
	Updates int
}

// Figure4 generates the branch-selection series. The paper extracts branch
// b1 (macroblock type I) from a real movie decode; we use the synthetic
// Airwolf clip and the TypeCheck fork of the reconstructed MPEG CTG.
func Figure4() (*Figure4Result, error) {
	g, _, err := mpeg.Build()
	if err != nil {
		return nil, err
	}
	clip := trace.MovieClips()[0] // Airwolf
	vec := clip.Generate(g, 1000)
	forkIdx := g.ForkIndex(mpeg.TaskTypeCheck)
	if forkIdx < 0 {
		return nil, fmt.Errorf("figure4: TypeCheck is not a fork")
	}
	sel := make([]int, len(vec))
	for i := range vec {
		// Selection "1" = branch b1 (outcome 0 = I-type) selected.
		if vec[i][forkIdx] == 0 {
			sel[i] = 1
		}
	}
	res := &Figure4Result{Window: 50, Threshold: 0.1}
	res.Points = core.FilteredSeries(sel, 0.5, res.Window, res.Threshold)
	for _, pt := range res.Points {
		if pt.Updated {
			res.Updates++
		}
	}
	return res, nil
}

// Render prints a sampled view of the three series (every 25th point) plus
// summary statistics; the full series is in Points.
func (r *Figure4Result) Render() string {
	rows := make([][]string, 0, len(r.Points)/25+1)
	for i := 0; i < len(r.Points); i += 25 {
		pt := r.Points[i]
		rows = append(rows, []string{
			fmt.Sprintf("%d", i), fmt.Sprintf("%d", pt.Selection),
			f2(pt.WindowProb), f2(pt.Filtered),
		})
	}
	s := fmt.Sprintf("Figure 4: branch b1 selection and probability (window %d, threshold %.1f)\n",
		r.Window, r.Threshold)
	s += table([]string{"iter", "Selection", "prob", "filteredProb"}, rows)
	s += fmt.Sprintf("\nFiltered-probability updates over %d iterations: %d\n", len(r.Points), r.Updates)
	return s
}

// MovieRow is one movie clip of Figure 5 / Table 2.
type MovieRow struct {
	Movie string
	// Energies are per-instance averages over the 1000 testing vectors,
	// normalized so the non-adaptive online algorithm scores 100.
	Online, AdaptiveT05, AdaptiveT01 float64
	// Calls are the re-scheduling invocation counts (Table 2).
	CallsT05, CallsT01 int
}

// MPEGResult reproduces Figure 5 (energy) and Table 2 (call counts)
// together, since the paper derives both from the same runs.
type MPEGResult struct {
	Rows []MovieRow
	// SavingsT05/SavingsT01 are the paper's headline averages: relative
	// energy saving of the adaptive algorithm over the online algorithm
	// at thresholds 0.5 and 0.1 (the paper reports 21% and 23%).
	SavingsT05, SavingsT01 float64
	// AvgCallsT05/AvgCallsT01 mirror Table 2's averages (paper: ≈9, ≈162).
	AvgCallsT05, AvgCallsT01 float64
}

// MPEG runs the paper's first adaptive experiment: the MPEG decoder CTG on
// 3 PEs, eight movie clips of 2000 macroblock vectors each — the first 1000
// train the non-adaptive profile, the second 1000 are measured.
func MPEG() (*MPEGResult, error) {
	g0, p, err := mpeg.Build()
	if err != nil {
		return nil, err
	}
	g, err := core.TightenDeadline(g0, p, DeadlineFactor)
	if err != nil {
		return nil, err
	}
	// The eight clips are independent end-to-end runs (profile, static
	// schedule, two adaptive managers each), so they fan out over the
	// worker pool; aggregation below walks rows in clip order, matching
	// the serial run exactly.
	clips := trace.MovieClips()
	rows, err := par.MapErr(len(clips), func(ci int) (MovieRow, error) {
		clip := clips[ci]
		vec := clip.Generate(g, 2000)
		train, test := vec[:1000], vec[1000:]

		profile := trace.AverageProbs(g, train)
		gProf := g.Clone()
		if err := trace.ApplyProfile(gProf, profile); err != nil {
			return MovieRow{}, err
		}

		static, err := buildOnline(gProf, p)
		if err != nil {
			return MovieRow{}, err
		}
		stOnline, err := core.RunStatic(static, test, sim.Config{}, nil)
		if err != nil {
			return MovieRow{}, err
		}

		row := MovieRow{Movie: clip.Name, Online: 100}
		for _, th := range []float64{0.5, 0.1} {
			m, err := core.New(gProf, p, core.Options{
				Window: 20, Threshold: th, DVFS: platform.Continuous(),
			})
			if err != nil {
				return MovieRow{}, err
			}
			st, err := m.Run(test)
			if err != nil {
				return MovieRow{}, err
			}
			norm := 100 * st.AvgEnergy / stOnline.AvgEnergy
			if th == 0.5 {
				row.AdaptiveT05, row.CallsT05 = norm, st.Calls
			} else {
				row.AdaptiveT01, row.CallsT01 = norm, st.Calls
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &MPEGResult{Rows: rows}
	n := float64(len(res.Rows))
	for _, row := range res.Rows {
		res.SavingsT05 += (100 - row.AdaptiveT05) / 100
		res.SavingsT01 += (100 - row.AdaptiveT01) / 100
		res.AvgCallsT05 += float64(row.CallsT05)
		res.AvgCallsT01 += float64(row.CallsT01)
	}
	res.SavingsT05 /= n
	res.SavingsT01 /= n
	res.AvgCallsT05 /= n
	res.AvgCallsT01 /= n
	return res, nil
}

// Render formats Figure 5 and Table 2.
func (r *MPEGResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Movie, f1(row.Online), f1(row.AdaptiveT05), f1(row.AdaptiveT01),
			strconv.Itoa(row.CallsT05), strconv.Itoa(row.CallsT01),
		})
	}
	s := "Figure 5 + Table 2: MPEG energy (normalized, online = 100) and call counts\n"
	s += table([]string{"Movie", "Online", "Adapt T=0.5", "Adapt T=0.1", "Calls T=0.5", "Calls T=0.1"}, rows)
	s += fmt.Sprintf("\nAverage savings: T=0.5 %.0f%%, T=0.1 %.0f%% (paper: 21%%, 23%%)\n",
		100*r.SavingsT05, 100*r.SavingsT01)
	s += fmt.Sprintf("Average calls: T=0.5 %.1f, T=0.1 %.1f (paper: 9, 162)\n",
		r.AvgCallsT05, r.AvgCallsT01)
	return s
}

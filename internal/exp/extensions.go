package exp

import (
	"fmt"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// The experiments in this file go beyond the paper's evaluation: the paper
// itself remarks that "the window size and the threshold determine how
// frequently the online scheduling and DVFS is called and they also impact
// how well the algorithm adapts", but only samples T ∈ {0.1, 0.5} and
// L ∈ {20, 50}; it also explicitly ignores DVFS switching overhead. These
// runners fill those gaps and ablate the Figure-2 ratio interpretation that
// DESIGN.md documents.

// SweepCell is one (window, threshold) point of the adaptation-parameter
// sweep.
type SweepCell struct {
	Window    int
	Threshold float64
	// Saving is the relative energy saving of the adaptive algorithm
	// over the non-adaptive online algorithm on the same testing
	// vectors.
	Saving float64
	// Calls is the re-scheduling invocation count per 1000 instances.
	Calls int
}

// SweepResult is the full window × threshold grid on the MPEG workload.
type SweepResult struct {
	Clip       string
	Windows    []int
	Thresholds []float64
	Cells      []SweepCell
}

// Sweep maps the adaptation design space: sliding-window length L versus
// drift threshold T on the MPEG decoder with one movie clip. Nil parameter
// slices take the default grid (L ∈ {5,10,20,50}, T ∈ {0.05..0.5}).
func Sweep(windows []int, thresholds []float64) (*SweepResult, error) {
	if windows == nil {
		windows = []int{5, 10, 20, 50}
	}
	if thresholds == nil {
		thresholds = []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	}
	g0, p, err := mpeg.Build()
	if err != nil {
		return nil, err
	}
	g, err := core.TightenDeadline(g0, p, DeadlineFactor)
	if err != nil {
		return nil, err
	}
	clip := trace.MovieClips()[0]
	vec := clip.Generate(g, 2000)
	train, test := vec[:1000], vec[1000:]
	profile := trace.AverageProbs(g, train)
	gProf := g.Clone()
	if err := trace.ApplyProfile(gProf, profile); err != nil {
		return nil, err
	}
	static, err := buildOnline(gProf, p)
	if err != nil {
		return nil, err
	}
	stStatic, err := core.RunStatic(static, test, sim.Config{}, nil)
	if err != nil {
		return nil, err
	}

	res := &SweepResult{Clip: clip.Name, Windows: windows, Thresholds: thresholds}
	for _, window := range windows {
		for _, threshold := range thresholds {
			m, err := core.New(gProf, p, core.Options{Window: window, Threshold: threshold})
			if err != nil {
				return nil, err
			}
			st, err := m.Run(test)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, SweepCell{
				Window:    window,
				Threshold: threshold,
				Saving:    (stStatic.AvgEnergy - st.AvgEnergy) / stStatic.AvgEnergy,
				Calls:     st.Calls,
			})
		}
	}
	return res, nil
}

// Render formats the sweep as two grids (savings and call counts).
func (r *SweepResult) Render() string {
	windows := r.Windows
	thresholds := r.Thresholds
	cell := map[[2]int]SweepCell{}
	for _, c := range r.Cells {
		ti := -1
		for i, t := range thresholds {
			if t == c.Threshold {
				ti = i
			}
		}
		cell[[2]int{c.Window, ti}] = c
	}
	header := []string{"window \\ T"}
	for _, t := range thresholds {
		header = append(header, fmt.Sprintf("%.2f", t))
	}
	var savRows, callRows [][]string
	for _, w := range windows {
		sr := []string{fmt.Sprintf("%d", w)}
		cr := []string{fmt.Sprintf("%d", w)}
		for ti := range thresholds {
			c := cell[[2]int{w, ti}]
			sr = append(sr, fmt.Sprintf("%+.1f%%", 100*c.Saving))
			cr = append(cr, fmt.Sprintf("%d", c.Calls))
		}
		savRows = append(savRows, sr)
		callRows = append(callRows, cr)
	}
	s := fmt.Sprintf("Extension: window × threshold sweep (MPEG, clip %s)\n\n", r.Clip)
	s += "Energy saving over non-adaptive online:\n"
	s += table(header, savRows)
	s += "\nRe-scheduling calls per 1000 instances:\n"
	s += table(header, callRows)
	return s
}

// OverheadPoint is one DVFS-switching-overhead setting.
type OverheadPoint struct {
	SwitchTime   float64
	SwitchEnergy float64
	// Energy and Misses are the exhaustive-replay expected energy and
	// scenario deadline misses of the stretched MPEG schedule.
	Energy float64
	Misses int
	// FullSpeedEnergy is the same schedule forced to full speed (no DVFS,
	// hence no transitions) — the break-even reference.
	FullSpeedEnergy float64
}

// OverheadResult sweeps the DVFS transition cost the paper ignores.
type OverheadResult struct {
	Points []OverheadPoint
}

// Overhead quantifies how real DVFS switching costs erode the stretched
// schedule's savings and — because the stretching heuristic budgets no time
// for transitions — eventually break deadlines.
func Overhead() (*OverheadResult, error) {
	g0, p, err := mpeg.Build()
	if err != nil {
		return nil, err
	}
	g, err := core.TightenDeadline(g0, p, DeadlineFactor)
	if err != nil {
		return nil, err
	}
	s, err := buildOnline(g, p)
	if err != nil {
		return nil, err
	}
	full := s.Clone()
	for t := range full.Speed {
		full.Speed[t] = 1
	}
	res := &OverheadResult{}
	for _, ov := range []float64{0, 0.5, 1, 2, 4, 8} {
		cfg := sim.Config{SwitchTime: ov, SwitchEnergy: ov * 0.2}
		sum, err := sim.Exhaustive(s, cfg)
		if err != nil {
			return nil, err
		}
		fsum, err := sim.Exhaustive(full, cfg)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, OverheadPoint{
			SwitchTime:      ov,
			SwitchEnergy:    ov * 0.2,
			Energy:          sum.ExpectedEnergy,
			Misses:          sum.Misses,
			FullSpeedEnergy: fsum.ExpectedEnergy,
		})
	}
	return res, nil
}

// Render formats the overhead sweep.
func (r *OverheadResult) Render() string {
	rows := make([][]string, 0, len(r.Points))
	for _, pt := range r.Points {
		rows = append(rows, []string{
			f1(pt.SwitchTime), f2(pt.SwitchEnergy),
			f1(pt.Energy), fmt.Sprintf("%d", pt.Misses), f1(pt.FullSpeedEnergy),
		})
	}
	s := "Extension: DVFS switching overhead sweep (MPEG, stretched schedule)\n"
	s += table([]string{"switch time", "switch energy", "DVFS energy", "misses", "full-speed energy"}, rows)
	s += "\nThe paper assumes zero-overhead transitions; non-zero switch time is\nunbudgeted by the stretcher, so misses appear once transitions eat the slack.\n"
	return s
}

// AblationRow compares the two readings of Figure 2's ratio denominator on
// one Table-1 CTG (see DESIGN.md).
type AblationRow struct {
	CTG      int
	Triplet  string
	NLP      float64 // expected energy of the NLP reference (baseline)
	Released float64 // heuristic with locked tasks released (this repo's default), normalized to NLP = 100
	Literal  float64 // heuristic with the literal slk/delay ratio, normalized to NLP = 100
}

// AblationResult is the ratio-interpretation ablation over the Table 1
// graphs.
type AblationResult struct {
	Rows                    []AblationRow
	AvgReleased, AvgLiteral float64
}

// AblationRatio quantifies the DESIGN.md decision to read Figure 2's
// "slk(p)/delay(p)" with locked tasks released from the denominator: the
// released variant tracks the NLP optimum closely (the paper's ~8% gap);
// the literal variant leaves a large share of the slack undistributed.
func AblationRatio() (*AblationResult, error) {
	res := &AblationResult{}
	for i, c := range tgff.Table1Cases() {
		g0, p, err := tgff.Generate(c.Config)
		if err != nil {
			return nil, err
		}
		g, err := core.TightenDeadline(g0, p, DeadlineFactor)
		if err != nil {
			return nil, err
		}
		a, err := ctg.Analyze(g)
		if err != nil {
			return nil, err
		}
		run := func(literal bool) (float64, error) {
			s, err := sched.DLS(a, p, sched.Modified())
			if err != nil {
				return 0, err
			}
			r, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{LiteralRatio: literal})
			if err != nil {
				return 0, err
			}
			return r.ExpectedEnergy, nil
		}
		released, err := run(false)
		if err != nil {
			return nil, err
		}
		literal, err := run(true)
		if err != nil {
			return nil, err
		}
		sNLP, err := sched.DLS(a, p, sched.Modified())
		if err != nil {
			return nil, err
		}
		rNLP, err := stretch.NLP(sNLP, platform.Continuous(), stretch.NLPOptions{})
		if err != nil {
			return nil, err
		}
		row := AblationRow{
			CTG:      i + 1,
			Triplet:  fmt.Sprintf("%d/%d/%d", c.Config.Nodes, c.Config.PEs, c.Config.Branches),
			NLP:      rNLP.ExpectedEnergy,
			Released: 100 * released / rNLP.ExpectedEnergy,
			Literal:  100 * literal / rNLP.ExpectedEnergy,
		}
		res.Rows = append(res.Rows, row)
		res.AvgReleased += row.Released
		res.AvgLiteral += row.Literal
	}
	res.AvgReleased /= float64(len(res.Rows))
	res.AvgLiteral /= float64(len(res.Rows))
	return res, nil
}

// Render formats the ablation table.
func (r *AblationResult) Render() string {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.CTG), row.Triplet,
			"100", f1(row.Released), f1(row.Literal),
		})
	}
	rows = append(rows, []string{"avg", "", "100", f1(r.AvgReleased), f1(r.AvgLiteral)})
	s := "Extension: Figure-2 ratio-denominator ablation (normalized, NLP = 100)\n"
	s += table([]string{"CTG", "a/b/c", "NLP", "released (default)", "literal slk/delay"}, rows)
	return s
}

// DesignAblationRow is one CTG's expected energy under the default online
// pipeline (modified DLS + the stretching heuristic with continuous DVFS)
// and with one design choice changed at a time.
type DesignAblationRow struct {
	Name    string
	Default float64
	// Discrete quantizes speeds to four levels (0.25, 0.5, 0.75, 1).
	Discrete float64
	// WorstCaseSL uses worst-case static levels (Probabilistic off).
	WorstCaseSL float64
	// EnergyDL adds an energy preference (EnergyWeight 0.5) to the dynamic
	// level.
	EnergyDL float64
	// Serialized forbids mutually exclusive tasks from sharing PE time
	// (MEOverlap off).
	Serialized float64
}

// DesignAblationResult is the design ablation over the seed-99 random CTG
// and the Table 1 graphs.
type DesignAblationResult struct {
	Rows []DesignAblationRow
}

// AblationDesign measures four design choices of the online pipeline, one at
// a time, everything else at its default: discrete versus continuous DVFS,
// probability-weighted versus worst-case static levels, the energy-weighted
// dynamic level, and ME overlap. The workloads are a 25-task, 3-PE,
// 3-branch fork-join CTG (seed 99) and the five Table 1 CTGs, each with the
// deadline at 1.6× the nominal makespan.
func AblationDesign() (*DesignAblationResult, error) {
	type workload struct {
		name string
		cfg  tgff.Config
	}
	loads := []workload{{"seed 99 (25/3/3)", tgff.Config{Seed: 99, Nodes: 25, PEs: 3, Branches: 3, Category: tgff.ForkJoin}}}
	for i, c := range tgff.Table1Cases() {
		loads = append(loads, workload{
			fmt.Sprintf("Table 1 CTG %d (%d/%d/%d)", i+1, c.Config.Nodes, c.Config.PEs, c.Config.Branches), c.Config,
		})
	}
	res := &DesignAblationResult{}
	for _, w := range loads {
		g0, p, err := tgff.Generate(w.cfg)
		if err != nil {
			return nil, err
		}
		g, err := core.TightenDeadline(g0, p, DeadlineFactor)
		if err != nil {
			return nil, err
		}
		a, err := ctg.Analyze(g)
		if err != nil {
			return nil, err
		}
		run := func(opts sched.Options, d platform.DVFS) (float64, error) {
			s, err := sched.DLS(a, p, opts)
			if err != nil {
				return 0, err
			}
			r, err := stretch.Heuristic(s, d, stretch.Options{})
			return r.ExpectedEnergy, err
		}
		plainSL, energyDL, serialized := sched.Modified(), sched.Modified(), sched.Modified()
		plainSL.Probabilistic = false
		energyDL.EnergyWeight = 0.5
		serialized.MEOverlap = false
		row := DesignAblationRow{Name: w.name}
		for _, v := range []struct {
			out  *float64
			opts sched.Options
			dvfs platform.DVFS
		}{
			{&row.Default, sched.Modified(), platform.Continuous()},
			{&row.Discrete, sched.Modified(), platform.Discrete(0.25, 0.5, 0.75, 1)},
			{&row.WorstCaseSL, plainSL, platform.Continuous()},
			{&row.EnergyDL, energyDL, platform.Continuous()},
			{&row.Serialized, serialized, platform.Continuous()},
		} {
			if *v.out, err = run(v.opts, v.dvfs); err != nil {
				return nil, fmt.Errorf("design ablation, %s: %w", w.name, err)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the design ablation: absolute expected energies, then each
// variant's mean change against the default.
func (r *DesignAblationResult) Render() string {
	rows := make([][]string, 0, len(r.Rows)+1)
	var sum [4]float64
	for _, row := range r.Rows {
		variants := [4]float64{row.Discrete, row.WorstCaseSL, row.EnergyDL, row.Serialized}
		cells := []string{row.Name, f2(row.Default)}
		for i, e := range variants {
			cells = append(cells, f2(e))
			sum[i] += (e - row.Default) / row.Default
		}
		rows = append(rows, cells)
	}
	avg := []string{"mean change", ""}
	for _, s := range sum {
		avg = append(avg, fmt.Sprintf("%+.1f%%", 100*s/float64(len(r.Rows))))
	}
	rows = append(rows, avg)
	s := "Extension: design ablations (expected energy; each column changes one choice of the default)\n"
	s += table([]string{"CTG", "default", "4-level DVFS", "worst-case SL", "energy-weighted DL", "serialized ME"}, rows)
	return s
}

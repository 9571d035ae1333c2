package exp

import (
	"fmt"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/tgff"
)

// PerScenarioRow compares the paper's single-speed-per-task heuristic with
// the scenario-conditioned extension on one workload.
type PerScenarioRow struct {
	Name string
	// SingleSpeed and PerScenario are expected energies; Saving is the
	// relative improvement of the extension.
	SingleSpeed, PerScenario float64
	Saving                   float64
	Scenarios                int
}

// PerScenarioResult is the per-scenario-DVFS extension experiment.
type PerScenarioResult struct {
	Rows      []PerScenarioRow
	AvgSaving float64
}

// PerScenarioDVFS quantifies what the paper's single-speed restriction
// costs: it compares the online heuristic against scenario-conditioned
// speeds (stretch.PerScenario) on the Table 1 graphs and the two
// branch-heavy applications. Both assignments run on the identical mapping
// and meet the deadline in every scenario.
func PerScenarioDVFS() (*PerScenarioResult, error) {
	runOne := func(name string, g *ctg.Graph, p *platform.Platform) (PerScenarioRow, error) {
		g, err := core.TightenDeadline(g, p, DeadlineFactor)
		if err != nil {
			return PerScenarioRow{}, err
		}
		a, err := ctg.Analyze(g)
		if err != nil {
			return PerScenarioRow{}, err
		}
		sSingle, err := sched.DLS(a, p, sched.Modified())
		if err != nil {
			return PerScenarioRow{}, err
		}
		rH, err := stretch.Heuristic(sSingle, platform.Continuous(), stretch.Options{})
		if err != nil {
			return PerScenarioRow{}, err
		}
		sMulti, err := sched.DLS(a, p, sched.Modified())
		if err != nil {
			return PerScenarioRow{}, err
		}
		sp, err := stretch.PerScenario(sMulti, platform.Continuous(), 0, nil, nil)
		if err != nil {
			return PerScenarioRow{}, err
		}
		multi := stretch.ExpectedEnergyWithScenarioSpeeds(sMulti, sp)
		return PerScenarioRow{
			Name:        name,
			SingleSpeed: rH.ExpectedEnergy,
			PerScenario: multi,
			Saving:      (rH.ExpectedEnergy - multi) / rH.ExpectedEnergy,
			Scenarios:   a.NumScenarios(),
		}, nil
	}

	// Assemble the work list first (five Table 1 graphs plus the two
	// applications), then fan the independent comparisons out over the
	// worker pool; rows come back in work-list order.
	type workload struct {
		name string
		g    *ctg.Graph
		p    *platform.Platform
	}
	var work []workload
	for i, c := range tgff.Table1Cases() {
		g, p, err := tgff.Generate(c.Config)
		if err != nil {
			return nil, err
		}
		work = append(work, workload{fmt.Sprintf("random %d (%d/%d/%d)", i+1,
			c.Config.Nodes, c.Config.PEs, c.Config.Branches), g, p})
	}
	if g, p, err := mpeg.Build(); err != nil {
		return nil, err
	} else {
		work = append(work, workload{"MPEG decoder", g, p})
	}
	if g, p, err := wlan.Build(); err != nil {
		return nil, err
	} else {
		work = append(work, workload{"802.11b receiver", g, p})
	}

	rows, err := par.MapErr(len(work), func(i int) (PerScenarioRow, error) {
		return runOne(work[i].name, work[i].g, work[i].p)
	})
	if err != nil {
		return nil, err
	}
	res := &PerScenarioResult{Rows: rows}
	for _, row := range res.Rows {
		res.AvgSaving += row.Saving
	}
	res.AvgSaving /= float64(len(res.Rows))
	return res, nil
}

// Render formats the per-scenario-DVFS comparison.
func (r *PerScenarioResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name, fmt.Sprintf("%d", row.Scenarios),
			f1(row.SingleSpeed), f1(row.PerScenario),
			fmt.Sprintf("%.1f%%", 100*row.Saving),
		})
	}
	s := "Extension: scenario-conditioned DVFS vs the paper's single speed per task\n"
	s += table([]string{"workload", "minterms", "single-speed E", "per-scenario E", "saving"}, rows)
	s += fmt.Sprintf("\nAverage saving: %.1f%% (speeds conditioned on resolved ancestor forks only;\nidentical mapping, deadline met in every scenario)\n", 100*r.AvgSaving)
	return s
}

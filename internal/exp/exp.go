// Package exp reproduces every table and figure of the paper's evaluation
// (§IV): one runner per experiment, each returning a structured result with
// a text rendering that mirrors the paper's presentation. Absolute numbers
// differ (the substrate is this repository's simulator, not the authors'
// testbed); the experiments preserve the paper's qualitative shape — who
// wins, by roughly what factor, and where the trends cross.
//
// Experiment index (see DESIGN.md §3 for the full mapping):
//
//	Table1   — online heuristic vs reference algorithms [10] and [17]
//	Figure4  — branch selection, windowed and filtered probability (MPEG)
//	Figure5  — MPEG energy, adaptive (T=0.5, T=0.1) vs non-adaptive
//	Table2   — MPEG re-scheduling call counts per movie
//	Table3   — cruise controller, adaptive vs non-adaptive
//	Table4   — random CTGs, profile biased to the lowest-energy minterm
//	Table5   — random CTGs, profile biased to the highest-energy minterm
//	Figure6  — random CTGs, ideal profiling vs adaptive
package exp

import (
	"fmt"
	"strings"
	"time"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
)

// DeadlineFactor is the default ratio of deadline to nominal makespan used
// by experiments that the paper does not pin down (the cruise controller is
// explicitly 2×).
const DeadlineFactor = 1.6

// buildRef1 runs reference algorithm 1 (Shin & Kim style): plain list
// scheduling (worst-case levels, no ME overlap, contention-blind
// communication) followed by probability-blind critical-path stretching.
func buildRef1(g *ctg.Graph, p *platform.Platform) (*sched.Schedule, error) {
	a, err := ctg.Analyze(g)
	if err != nil {
		return nil, err
	}
	s, err := sched.DLS(a, p, sched.Plain())
	if err != nil {
		return nil, err
	}
	if _, err := stretch.WorstCase(s, platform.Continuous()); err != nil {
		return nil, err
	}
	return s, nil
}

// buildRef2 runs reference algorithm 2 (the authors' ISCAS'07 approach):
// the same modified DLS ordering as the online algorithm, followed by
// NLP-based stretching.
func buildRef2(g *ctg.Graph, p *platform.Platform, opts stretch.NLPOptions) (*sched.Schedule, error) {
	a, err := ctg.Analyze(g)
	if err != nil {
		return nil, err
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		return nil, err
	}
	if _, err := stretch.NLP(s, platform.Continuous(), opts); err != nil {
		return nil, err
	}
	return s, nil
}

// buildOnline runs the paper's online algorithm: modified DLS + the
// stretching heuristic.
func buildOnline(g *ctg.Graph, p *platform.Platform) (*sched.Schedule, error) {
	return core.BuildOnline(g, p, core.Options{})
}

// timeIt measures the wall-clock time of fn, repeated reps times, returning
// the mean duration.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}

// table renders rows of cells as a fixed-width text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for c, h := range header {
		width[c] = len(h)
	}
	for _, r := range rows {
		for c, cell := range r {
			if c < len(width) && len(cell) > width[c] {
				width[c] = len(cell)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for c, cell := range cells {
			if c > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[c], cell)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for c, w := range width {
		if c > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

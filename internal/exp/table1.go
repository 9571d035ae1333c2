package exp

import (
	"fmt"
	"time"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/tgff"
)

// Table1Row is one CTG of the paper's Table 1, with energies normalized so
// the online algorithm scores 100 (exactly the paper's presentation).
type Table1Row struct {
	CTG     int
	Triplet string // a/b/c: nodes/PEs/branch nodes
	Ref1    float64
	Ref2    float64
	Online  float64 // always 100 by construction
}

// Table1Result reproduces Table 1 plus the runtime comparison the paper
// reports in its §IV text (reference algorithm 2's NLP vs the online
// heuristic, a ≈120000× gap on their testbed).
type Table1Result struct {
	Rows []Table1Row
	// AvgRef1/AvgRef2 are the mean normalized energies.
	AvgRef1, AvgRef2 float64
	// OnlineTime and NLPTime are mean per-CTG runtimes of the two
	// stretching pipelines; Speedup is their ratio.
	OnlineTime, NLPTime time.Duration
	Speedup             float64
}

// Table1 compares the online algorithm against reference algorithms 1 [10]
// and 2 [17] on the paper's five random CTGs, with accurate branch
// probabilities and no adaptation (exactly the paper's setup). The five CTGs
// are independent, so they run on the worker pool; rows aggregate in case
// order, reproducing the serial table exactly (the timing columns are
// wall-clock and vary run to run either way).
func Table1() (*Table1Result, error) {
	type caseResult struct {
		row           Table1Row
		tOnline, tNLP time.Duration
	}
	cases := tgff.Table1Cases()
	results, err := par.MapErr(len(cases), func(i int) (caseResult, error) {
		c := cases[i]
		g0, p, err := tgff.Generate(c.Config)
		if err != nil {
			return caseResult{}, fmt.Errorf("table1 case %d: %w", i+1, err)
		}
		g, err := core.TightenDeadline(g0, p, DeadlineFactor)
		if err != nil {
			return caseResult{}, err
		}

		sOnline, err := buildOnline(g, p)
		if err != nil {
			return caseResult{}, err
		}
		sRef1, err := buildRef1(g, p)
		if err != nil {
			return caseResult{}, err
		}
		sRef2, err := buildRef2(g, p, stretch.NLPOptions{})
		if err != nil {
			return caseResult{}, err
		}

		eOnline := sOnline.ExpectedEnergy()
		out := caseResult{row: Table1Row{
			CTG:     i + 1,
			Triplet: fmt.Sprintf("%d/%d/%d", c.Config.Nodes, c.Config.PEs, c.Config.Branches),
			Ref1:    100 * sRef1.ExpectedEnergy() / eOnline,
			Ref2:    100 * sRef2.ExpectedEnergy() / eOnline,
			Online:  100,
		}}

		// Runtime of the two stretching pipelines (scheduling included,
		// as in the paper's end-to-end comparison).
		out.tOnline, err = timeIt(20, func() error {
			_, err := buildOnline(g, p)
			return err
		})
		if err != nil {
			return caseResult{}, err
		}
		out.tNLP, err = timeIt(1, func() error {
			_, err := buildRef2(g, p, stretch.NLPOptions{})
			return err
		})
		if err != nil {
			return caseResult{}, err
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Table1Result{}
	var onlineTotal, nlpTotal time.Duration
	for _, cr := range results {
		res.Rows = append(res.Rows, cr.row)
		res.AvgRef1 += cr.row.Ref1
		res.AvgRef2 += cr.row.Ref2
		onlineTotal += cr.tOnline
		nlpTotal += cr.tNLP
	}
	n := float64(len(res.Rows))
	res.AvgRef1 /= n
	res.AvgRef2 /= n
	res.OnlineTime = onlineTotal / time.Duration(len(res.Rows))
	res.NLPTime = nlpTotal / time.Duration(len(res.Rows))
	if res.OnlineTime > 0 {
		res.Speedup = float64(res.NLPTime) / float64(res.OnlineTime)
	}
	return res, nil
}

// Render formats the energies like the paper's Table 1.
func (r *Table1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.CTG), row.Triplet,
			f0(row.Ref1), f0(row.Ref2), f0(row.Online),
		})
	}
	rows = append(rows, []string{"avg", "", f1(r.AvgRef1), f1(r.AvgRef2), "100.0"})
	s := "Table 1: Energy consumption of online algorithm (normalized, online = 100)\n"
	s += table([]string{"CTG", "a/b/c", "RefAlg1", "RefAlg2", "Online"}, rows)
	return s
}

// Timing formats the wall-clock runtime comparison, which varies run to run
// and so stays out of Render.
func (r *Table1Result) Timing() string {
	return fmt.Sprintf("\nMean runtime: online %v, NLP-based (ref 2) %v  =>  speedup %.0fx\n",
		r.OnlineTime, r.NLPTime, r.Speedup)
}

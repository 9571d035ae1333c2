package stretch

import (
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// WorstCase runs the probability-blind slack-distribution stretcher that
// models the DVFS stage of reference algorithm 1: each task, in scheduling
// order, receives a share of the slack of its most critical spanning chain —
//
//	slk(τ) = wcet(τ) · slk(p_worst)/delay(p_worst)
//
// with p_worst the largest-delay (lowest-ratio) chain through τ over *all*
// chains, with no branch-probability or activation-probability weighting
// (refs [9]/[10] style). Tasks on rarely-taken branches therefore receive as
// much slack as always-active ones, which is exactly the weakness the
// paper's heuristic fixes.
func WorstCase(s *sched.Schedule, d platform.DVFS) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	dag := newDAG(s)
	deadline := s.G.Deadline()
	res := &Result{}
	r := newDPResult(len(dag.exec))
	var p pass
	p.reset(dag, r, nil)
	for _, t := range s.Order {
		p.up(t, -1)
		p.down(t, -1)
		delay := dag.throughAny(r, t)
		slack := deadline - delay
		if slack <= 0 {
			continue
		}
		wcet := s.WCET(t)
		slk := wcet * slack / delay
		if slk > slack {
			slk = slack
		}
		speed := d.SpeedForTime(wcet, wcet+slk)
		if speed < 1 {
			s.Speed[t] = speed
			dag.refreshExec(t)
			p.stretched(t)
			res.Stretched++
		}
	}
	res.ExpectedEnergy = s.ExpectedEnergy()
	res.WorstDelay = dag.longest(p.finish())
	return res, nil
}

package stretch

import (
	"math"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// NLPOptions tunes the nonlinear-programming stretcher. Zero values take the
// documented defaults.
type NLPOptions struct {
	// MaxIters bounds the gradient iterations (default 4000).
	MaxIters int
	// Tol is the relative objective-improvement convergence threshold
	// (default 1e-9).
	Tol float64
	// PenaltyInit and PenaltyGrowth control the quadratic penalty weight
	// (defaults 10 and 1.8, grown when progress stalls).
	PenaltyInit, PenaltyGrowth float64
}

func (o *NLPOptions) applyDefaults() {
	if o.MaxIters == 0 {
		o.MaxIters = 4000
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.PenaltyInit == 0 {
		o.PenaltyInit = 10
	}
	if o.PenaltyGrowth == 0 {
		o.PenaltyGrowth = 1.8
	}
}

// NLP runs the nonlinear-programming stretcher that models reference
// algorithm 2 ([17]): it minimizes the expected energy
//
//	f(t) = Σ_τ prob(τ) · E(τ) · (wcet(τ)/t(τ))²
//
// over per-task execution times t(τ) ∈ [wcet, wcet/minSpeed], subject to the
// deadline on every source→sink chain of the scheduled graph. The
// exponentially many per-path constraints are folded into |V| equivalent
// convex constraints L_v(t) ≤ D, where L_v is the largest chain delay
// through node v (a max of affine functions, computed by longest-path DP);
// max_v L_v is exactly the schedule length, so the two constraint sets
// coincide. The problem is convex (1/t² is convex for t > 0); it is solved
// with a quadratic-penalty subgradient descent with backtracking line search
// followed by a critical-path feasibility repair, converging to the
// constrained optimum as the penalty weight grows. The deliberate
// computational weight of this method — thousands of full passes — is what
// the paper's Table 1 contrasts against the heuristic's single pass
// (≈10⁵× runtime gap on their testbed).
func NLP(s *sched.Schedule, d platform.DVFS, opts NLPOptions) (*Result, error) {
	opts.applyDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	dag := newDAG(s)
	n := s.G.NumTasks()
	deadline := s.G.Deadline()

	// Fixed per-task data.
	wcet := make([]float64, n)
	weight := make([]float64, n) // prob(τ)·E(τ)·wcet² (objective numerator)
	lo := make([]float64, n)
	hi := make([]float64, n)
	minSpeed := d.MinSpeed
	if minSpeed == 0 {
		minSpeed = platform.DefaultMinSpeed
	}
	for i := 0; i < n; i++ {
		t := ctg.TaskID(i)
		wcet[i] = s.WCET(t)
		weight[i] = s.A.ActivationProb(t) * s.NominalEnergy(t) * wcet[i] * wcet[i]
		lo[i] = wcet[i]
		hi[i] = wcet[i] / minSpeed
	}

	x := append([]float64(nil), wcet...) // start at full speed
	grad := make([]float64, n)
	cand := make([]float64, n)

	objective := func(x []float64) float64 {
		f := 0.0
		for i := range x {
			f += weight[i] / (x[i] * x[i])
		}
		return f
	}
	// decompose evaluates the longest-path DP at x and returns it.
	decompose := func(x []float64) *dpResult {
		copy(dag.exec, x)
		return dag.run(nil)
	}
	violSum := func(r *dpResult) float64 {
		sum := 0.0
		for i := 0; i < n; i++ {
			if v := dag.throughAny(r, ctg.TaskID(i)) - deadline; v > 0 {
				sum += v * v
			}
		}
		return sum
	}
	merit := func(x []float64, mu float64) float64 {
		return objective(x) + mu*violSum(decompose(x))
	}

	// Quadratic-penalty outer loop: minimize merit at the current penalty
	// weight until progress stalls, then raise the weight.
	const maxPenaltyBumps = 40
	mu := opts.PenaltyInit
	prev := merit(x, mu)
	step := 1.0
	bumps := 0
	for iter := 0; iter < opts.MaxIters; iter++ {
		// Subgradient of the merit function at x.
		r := decompose(x)
		for i := range grad {
			grad[i] = -2 * weight[i] / (x[i] * x[i] * x[i])
		}
		for i := 0; i < n; i++ {
			v := dag.throughAny(r, ctg.TaskID(i)) - deadline
			if v <= 0 {
				continue
			}
			// The subgradient of L_i with respect to t is the indicator of
			// the argmax chain through i.
			for _, u := range chainThrough(dag, r, ctg.TaskID(i)) {
				grad[u] += mu * 2 * v
			}
		}
		// Backtracking line search on the merit function, with box
		// projection.
		improvedBy := -1.0
		for try := 0; try < 30; try++ {
			for i := range cand {
				v := x[i] - step*grad[i]
				if v < lo[i] {
					v = lo[i]
				}
				if v > hi[i] {
					v = hi[i]
				}
				cand[i] = v
			}
			if m := merit(cand, mu); m < prev {
				copy(x, cand)
				improvedBy = prev - m
				prev = m
				step *= 1.3
				break
			}
			step *= 0.5
		}
		if improvedBy < 0 || improvedBy < opts.Tol*math.Abs(prev)+1e-15 {
			bumps++
			if bumps > maxPenaltyBumps {
				break
			}
			mu *= opts.PenaltyGrowth
			prev = merit(x, mu)
			step = 1
		}
	}

	// Feasibility repair: shrink the stretch of the critical chain until
	// no chain exceeds the deadline (t = wcet is always feasible when the
	// nominal schedule meets the deadline).
	for pass := 0; pass < 20*n+20; pass++ {
		r := decompose(x)
		worst, worstV := -1, 1e-9
		for i := 0; i < n; i++ {
			if v := dag.throughAny(r, ctg.TaskID(i)) - deadline; v > worstV {
				worst, worstV = i, v
			}
		}
		if worst < 0 {
			break
		}
		chain := chainThrough(dag, r, ctg.TaskID(worst))
		stretchTotal := 0.0
		for _, v := range chain {
			stretchTotal += x[v] - wcet[v]
		}
		if stretchTotal <= 0 {
			break // infeasible even at full speed; nothing to repair
		}
		scale := 1 - worstV/stretchTotal
		if scale < 0 {
			scale = 0
		}
		for _, v := range chain {
			x[v] = wcet[v] + (x[v]-wcet[v])*scale
		}
	}

	// Convert execution times to clamped speeds.
	res := &Result{}
	for i := 0; i < n; i++ {
		speed := d.SpeedForTime(wcet[i], x[i])
		if speed < 1 {
			s.Speed[ctg.TaskID(i)] = speed
			res.Stretched++
		} else {
			s.Speed[ctg.TaskID(i)] = 1
		}
	}
	for t := 0; t < n; t++ {
		dag.refreshExec(ctg.TaskID(t))
	}
	res.ExpectedEnergy = s.ExpectedEnergy()
	res.WorstDelay = dag.longest(dag.run(nil))
	return res, nil
}

// chainThrough reconstructs the argmax chain through v (nodes of the
// longest path containing v) from the DP backpointers.
func chainThrough(dag *dagModel, r *dpResult, v ctg.TaskID) []ctg.TaskID {
	var chain []ctg.TaskID
	for u := v; ; {
		chain = append(chain, u)
		ei := r.ubp[u]
		if ei < 0 {
			break
		}
		u = dag.edges[ei].From
	}
	class := r.classA[v]
	for u := v; ; {
		var ei int
		switch class {
		case 'U':
			ei = r.dbpU[u]
		case 'C':
			ei = r.dbpC[u]
		}
		if ei < 0 {
			break
		}
		e := dag.edges[ei]
		if class == 'C' && e.Cond.IsConditional() {
			class = r.classA[e.To]
		}
		u = e.To
		chain = append(chain, u)
	}
	return chain
}

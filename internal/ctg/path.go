package ctg

import (
	"fmt"
)

// Path is a maximal source→sink chain of tasks through the (possibly
// schedule-augmented) CTG. Edges[i] connects Nodes[i] to Nodes[i+1].
type Path struct {
	Nodes []TaskID
	Edges []Edge
}

// Spans reports whether the path passes through task t, and at which
// position.
func (p *Path) Spans(t TaskID) (int, bool) {
	for i, n := range p.Nodes {
		if n == t {
			return i, true
		}
	}
	return 0, false
}

// ProbAfter returns prob(p, τ) as defined in the paper: the joint
// probability of the conditional branches lying on the path strictly after
// node position pos (i.e. on edges Edges[pos:]). For the example of the
// paper, prob(τ1-τ3-τ5-τ6, τ5) = prob(b1) and prob(τ1-τ3-τ4-τ8, τ8) = 1.
func (p *Path) ProbAfter(g *Graph, pos int) float64 {
	prob := 1.0
	for i := pos; i < len(p.Edges); i++ {
		prob *= g.CondProb(p.Edges[i].Cond)
	}
	return prob
}

// Unconditional reports whether the path carries no conditional edge, i.e.
// belongs to the minterm "1".
func (p *Path) Unconditional() bool {
	for _, e := range p.Edges {
		if e.Cond.IsConditional() {
			return false
		}
	}
	return true
}

// ConsistentWith reports whether the path's edge conditions are consistent
// with the given scenario assignment (dense fork index -> outcome): every
// conditional edge's fork must be assigned to exactly that outcome. A path
// with no conditions is consistent with every scenario.
func (p *Path) ConsistentWith(g *Graph, assign []int) bool {
	for _, e := range p.Edges {
		if !e.Cond.IsConditional() {
			continue
		}
		if assign[g.forkIndex[e.Cond.Branch()]] != e.Cond.Outcome() {
			return false
		}
	}
	return true
}

// String renders the path as "t0->t3->t7".
func (p *Path) String() string {
	s := ""
	for i, n := range p.Nodes {
		if i > 0 {
			s += "->"
		}
		s += fmt.Sprintf("t%d", n)
	}
	return s
}

// DefaultMaxPaths bounds path enumeration. The CTGs of this domain are small
// (tens of tasks); the bound exists to fail loudly on pathological inputs
// rather than to be reached in practice.
const DefaultMaxPaths = 1 << 17

// EnumeratePaths lists every maximal path of the graph augmented with extra
// (typically schedule-induced pseudo) edges. Paths whose conditional edges
// conflict (two different outcomes of the same fork) are infeasible and are
// pruned. maxPaths caps the output (<=0 means DefaultMaxPaths); exceeding it
// is an error.
//
// The paper computes "all possible paths in the CTG using BFS" after the
// scheduling stage; the pseudo edges encode the serialization the schedule
// imposed, so the path set reflects every chain that constrains the
// deadline.
func EnumeratePaths(g *Graph, extra []Edge, maxPaths int) ([]Path, error) {
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	n := g.NumTasks()
	succ := make([][]Edge, n)
	indeg := make([]int, n)
	for _, e := range g.edges {
		succ[e.From] = append(succ[e.From], e)
		indeg[e.To]++
	}
	for _, e := range extra {
		if int(e.From) >= n || int(e.To) >= n || e.From < 0 || e.To < 0 {
			return nil, fmt.Errorf("ctg: extra edge %d->%d references unknown task", e.From, e.To)
		}
		succ[e.From] = append(succ[e.From], e)
		indeg[e.To]++
	}

	var paths []Path
	nodes := make([]TaskID, 0, n)
	edges := make([]Edge, 0, n)
	assign := make([]int, len(g.forks))
	for i := range assign {
		assign[i] = OutcomeUnassigned
	}

	var dfs func(t TaskID) error
	dfs = func(t TaskID) error {
		nodes = append(nodes, t)
		defer func() { nodes = nodes[:len(nodes)-1] }()
		if len(succ[t]) == 0 {
			if len(paths) >= maxPaths {
				return fmt.Errorf("ctg: more than %d paths", maxPaths)
			}
			paths = append(paths, Path{
				Nodes: append([]TaskID(nil), nodes...),
				Edges: append([]Edge(nil), edges...),
			})
			return nil
		}
		for _, e := range succ[t] {
			restore := OutcomeUnassigned
			restoreIdx := -1
			if e.Cond.IsConditional() {
				fi := g.forkIndex[e.Cond.Branch()]
				switch assign[fi] {
				case OutcomeUnassigned:
					restoreIdx, restore = fi, assign[fi]
					assign[fi] = e.Cond.Outcome()
				case e.Cond.Outcome():
					// already consistent
				default:
					continue // conflicting conditions: infeasible path
				}
			}
			edges = append(edges, e)
			err := dfs(e.To)
			edges = edges[:len(edges)-1]
			if restoreIdx >= 0 {
				assign[restoreIdx] = restore
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			if err := dfs(TaskID(t)); err != nil {
				return nil, err
			}
		}
	}
	return paths, nil
}

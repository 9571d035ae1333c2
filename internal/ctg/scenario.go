package ctg

import (
	"fmt"
	"math"
	"strings"
)

// OutcomeUnassigned marks a fork whose outcome is irrelevant in a scenario
// (the fork is never activated there, or its outcome cannot influence any
// activation).
const OutcomeUnassigned = -1

// Scenario is a leaf minterm of the CTG: a complete, consistent assignment
// of outcomes to the branch fork nodes that are activated (and whose outcome
// matters), together with the induced set of active tasks and its
// probability under the graph's current branch probabilities.
type Scenario struct {
	// Assign maps dense fork index -> outcome, or OutcomeUnassigned.
	Assign []int
	// Prob is the product of the assigned forks' outcome probabilities.
	Prob float64
	// Active is the set of activated tasks (indexed by TaskID).
	Active Bitset
}

// String renders the scenario as a product of conditions, e.g. "b3=0·b5=1",
// or "1" for the unconditional scenario.
func (s Scenario) label(g *Graph) string {
	var parts []string
	for fi, k := range s.Assign {
		if k != OutcomeUnassigned {
			parts = append(parts, fmt.Sprintf("b%d=%d", g.forks[fi], k))
		}
	}
	if len(parts) == 0 {
		return "1"
	}
	return strings.Join(parts, "·")
}

// MaxScenarios bounds scenario enumeration. CTGs in this domain have at most
// a dozen or so simultaneously-activatable forks; anything past this limit
// indicates a modelling error rather than a legitimate workload.
const MaxScenarios = 1 << 16

// Analysis holds the scenario decomposition of a graph: the leaf minterms,
// per-task activation sets X(τ) (as scenario bitsets), activation
// probabilities prob(τ), and the mutual-exclusion relation.
//
// An Analysis snapshot is tied to the branch probabilities at the time
// Analyze was called; scenario *structure* (assignments and active sets)
// depends only on the graph, so Reweight can cheaply refresh probabilities
// after the adaptive layer updates them.
type Analysis struct {
	g         *Graph
	scenarios []Scenario
	gamma     []Bitset  // per task: scenarios where active
	actProb   []float64 // per task: activation probability
}

// Analyze enumerates the scenarios of g and derives activation sets and
// probabilities. It returns an error if the scenario count exceeds
// MaxScenarios.
func Analyze(g *Graph) (*Analysis, error) {
	a := &Analysis{g: g}
	assign := make([]int, len(g.forks))
	for i := range assign {
		assign[i] = OutcomeUnassigned
	}
	if err := a.enumerate(assign); err != nil {
		return nil, err
	}
	n := g.NumTasks()
	a.gamma = make([]Bitset, n)
	for t := 0; t < n; t++ {
		a.gamma[t] = NewBitset(len(a.scenarios))
	}
	for si, sc := range a.scenarios {
		sc.Active.ForEach(func(t int) { a.gamma[t].Set(si) })
	}
	a.reweight()
	return a, nil
}

// enumerate recursively expands undecided-but-relevant forks, depth first,
// so scenarios come out in a deterministic order.
func (a *Analysis) enumerate(assign []int) error {
	active, need := a.g.activate(assign)
	if need < 0 {
		if len(a.scenarios) >= MaxScenarios {
			return fmt.Errorf("ctg: more than %d scenarios; graph is too conditional", MaxScenarios)
		}
		a.scenarios = append(a.scenarios, Scenario{
			Assign: append([]int(nil), assign...),
			Active: active,
		})
		return nil
	}
	fi := a.g.forkIndex[need]
	for k := 0; k < a.g.outcomes[fi]; k++ {
		assign[fi] = k
		if err := a.enumerate(assign); err != nil {
			return err
		}
	}
	assign[fi] = OutcomeUnassigned
	return nil
}

// activate computes the activation set under a partial outcome assignment.
// If the status of some task depends on an activated fork whose outcome is
// unassigned, activate returns that fork in need (and the bitset is
// meaningless); otherwise need is NoBranch.
//
// Semantics per the paper: a source is always active; an and-node is active
// iff every incoming edge is satisfied; an or-node is active iff at least
// one incoming edge is satisfied. An edge is satisfied iff its source is
// active and its condition holds.
func (g *Graph) activate(assign []int) (active Bitset, need TaskID) {
	active = NewBitset(g.NumTasks())
	for _, t := range g.topo {
		if len(g.pred[t]) == 0 {
			active.Set(int(t))
			continue
		}
		// Evaluate incoming edges to three-valued sat: yes / no / unknown.
		anySat, anyUnknown := false, false
		allSat := true
		var unknownFork TaskID = NoBranch
		for _, ei := range g.pred[t] {
			e := g.edges[ei]
			if !active.Get(int(e.From)) {
				allSat = false
				continue // inactive predecessor: edge unsatisfied
			}
			if !e.Cond.IsConditional() {
				anySat = true
				continue
			}
			k := assign[g.forkIndex[e.Cond.Branch()]]
			switch {
			case k == OutcomeUnassigned:
				anyUnknown = true
				allSat = false // unknown, so not definitively satisfied
				if unknownFork == NoBranch {
					unknownFork = e.Cond.Branch()
				}
			case k == e.Cond.Outcome():
				anySat = true
			default:
				allSat = false
			}
		}
		switch g.tasks[t].Kind {
		case AndNode:
			// Definitively inactive if any edge is definitively
			// unsatisfied; we only need the unknown fork when no known
			// edge already rules the node out.
			definitelyOut := false
			for _, ei := range g.pred[t] {
				e := g.edges[ei]
				if !active.Get(int(e.From)) {
					definitelyOut = true
					break
				}
				if e.Cond.IsConditional() {
					k := assign[g.forkIndex[e.Cond.Branch()]]
					if k != OutcomeUnassigned && k != e.Cond.Outcome() {
						definitelyOut = true
						break
					}
				}
			}
			if definitelyOut {
				continue
			}
			if anyUnknown {
				return active, unknownFork
			}
			if allSat {
				active.Set(int(t))
			}
		case OrNode:
			if anySat {
				active.Set(int(t))
				continue
			}
			if anyUnknown {
				return active, unknownFork
			}
		}
	}
	return active, NoBranch
}

// reweight recomputes scenario and activation probabilities from the
// graph's current branch probabilities. Scenario structure is unchanged.
func (a *Analysis) reweight() {
	n := a.g.NumTasks()
	if a.actProb == nil {
		a.actProb = make([]float64, n)
	}
	for t := range a.actProb {
		a.actProb[t] = 0
	}
	for si := range a.scenarios {
		p := 1.0
		for fi, k := range a.scenarios[si].Assign {
			if k != OutcomeUnassigned {
				p *= a.g.probs[fi][k]
			}
		}
		a.scenarios[si].Prob = p
	}
	for t := 0; t < n; t++ {
		if a.gamma[t].Count() == len(a.scenarios) {
			// Active in every scenario: exactly 1, independent of the
			// rounding of the scenario probabilities.
			a.actProb[t] = 1
			continue
		}
		a.gamma[t].ForEach(func(si int) { a.actProb[t] += a.scenarios[si].Prob })
		if a.actProb[t] > 1 {
			a.actProb[t] = 1 // guard against rounding
		}
	}
}

// Reweight refreshes all probabilities after the graph's branch
// probabilities changed (the scenario structure is purely topological).
func (a *Analysis) Reweight() { a.reweight() }

// Graph returns the analyzed graph.
func (a *Analysis) Graph() *Graph { return a.g }

// NumScenarios returns the number of leaf minterms.
func (a *Analysis) NumScenarios() int { return len(a.scenarios) }

// Scenario returns the i-th leaf minterm.
func (a *Analysis) Scenario(i int) Scenario { return a.scenarios[i] }

// Scenarios returns all leaf minterms. The returned slice must not be
// modified.
func (a *Analysis) Scenarios() []Scenario { return a.scenarios }

// ScenarioLabel renders scenario i as a condition product like "b3=0·b5=1".
func (a *Analysis) ScenarioLabel(i int) string { return a.scenarios[i].label(a.g) }

// ActivationExpr renders X(τ) as a sum of the leaf minterms that activate
// the task, e.g. "b2=0 + b2=1·b4=0", or "1" for an always-active task and
// "0" for a dead one. Intended for diagnostics and documentation.
func (a *Analysis) ActivationExpr(t TaskID) string {
	set := a.gamma[t]
	if set.Count() == len(a.scenarios) {
		return "1"
	}
	if set.Empty() {
		return "0"
	}
	out := ""
	set.ForEach(func(si int) {
		if out != "" {
			out += " + "
		}
		out += a.ScenarioLabel(si)
	})
	return out
}

// ActivationSet returns X(τ) as a bitset over scenario indices. The caller
// must not modify it.
func (a *Analysis) ActivationSet(t TaskID) Bitset { return a.gamma[t] }

// ActivationProb returns prob(τ), the probability that task t is activated
// in a random instance of the CTG.
func (a *Analysis) ActivationProb(t TaskID) float64 { return a.actProb[t] }

// MutuallyExclusive reports whether two distinct tasks can never be active
// in the same CTG instance. Such tasks may overlap in time on the same PE.
func (a *Analysis) MutuallyExclusive(i, j TaskID) bool {
	if i == j {
		return false
	}
	return !a.gamma[i].Intersects(a.gamma[j])
}

// ScenarioForDecisions resolves a full branch decision vector (one outcome
// per fork, in Forks() order) to the index of the matching leaf scenario.
// Outcomes of forks that end up unactivated are ignored.
func (a *Analysis) ScenarioForDecisions(decisions []int) (int, error) {
	if len(decisions) != len(a.g.forks) {
		return 0, fmt.Errorf("ctg: got %d decisions for %d forks", len(decisions), len(a.g.forks))
	}
	for fi, k := range decisions {
		if k < 0 || k >= a.g.outcomes[fi] {
			return 0, fmt.Errorf("ctg: decision %d out of range for fork %d", k, a.g.forks[fi])
		}
	}
	for si, sc := range a.scenarios {
		match := true
		for fi, k := range sc.Assign {
			if k != OutcomeUnassigned && decisions[fi] != k {
				match = false
				break
			}
		}
		if match {
			return si, nil
		}
	}
	// Leaf scenarios partition the decision space, so this is unreachable
	// for a valid analysis.
	return 0, fmt.Errorf("ctg: no scenario matches decisions %v", decisions)
}

// ProbOfSet returns the total probability of a set of scenarios (a bitset
// over scenario indices), e.g. the probability that two communicating tasks
// are both active.
func (a *Analysis) ProbOfSet(s Bitset) float64 {
	if s.Count() == len(a.scenarios) {
		return 1
	}
	sum := 0.0
	s.ForEach(func(si int) { sum += a.scenarios[si].Prob })
	if sum > 1 {
		sum = 1
	}
	return sum
}

// TotalProb returns the sum of all scenario probabilities (1 up to floating
// point error); exposed for invariant checking.
func (a *Analysis) TotalProb() float64 {
	sum := 0.0
	for _, s := range a.scenarios {
		sum += s.Prob
	}
	return sum
}

// ScenarioWeight returns Σ_{τ active in scenario i} w(τ).
func (a *Analysis) ScenarioWeight(i int, w func(TaskID) float64) float64 {
	sum := 0.0
	a.scenarios[i].Active.ForEach(func(t int) { sum += w(TaskID(t)) })
	return sum
}

// MinMaxWeightScenarios returns the indices of the scenarios with the
// smallest and largest ScenarioWeight. Used to build the biased profiles of
// Tables 4 and 5 (lowest/highest energy minterm).
func (a *Analysis) MinMaxWeightScenarios(w func(TaskID) float64) (minIdx, maxIdx int) {
	minW, maxW := math.Inf(1), math.Inf(-1)
	for i := range a.scenarios {
		sw := a.ScenarioWeight(i, w)
		if sw < minW {
			minW, minIdx = sw, i
		}
		if sw > maxW {
			maxW, maxIdx = sw, i
		}
	}
	return minIdx, maxIdx
}

// Package ctg models conditional task graphs (CTGs) — acyclic task graphs in
// which some edges are guarded by the outcome of a branch fork node, so that
// whole subgraphs are activated or deactivated at runtime depending on input
// data. The model follows Malani et al., "Adaptive Scheduling and Voltage
// Scaling for Multiprocessor Real-time Applications with Non-deterministic
// Workload" (DATE 2008), which itself adopts the CTG of Shin & Kim
// (ISLPED 2003).
//
// The package provides:
//
//   - the graph structure itself (tasks, edges, conditions, communication
//     volumes, a common deadline, and per-fork branch probabilities),
//   - scenario analysis: enumeration of the leaf minterms of the graph with
//     their probabilities, per-task activation sets X(τ), activation
//     probabilities prob(τ), and the mutual-exclusion relation, and
//   - path analysis: enumeration of maximal source→sink paths (optionally
//     through schedule-induced pseudo edges) with their edge conditions,
//     which drives the slack-distribution DVFS heuristics.
package ctg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// TaskID identifies a task (vertex) in a Graph. IDs are dense indices
// assigned by the Builder in insertion order.
type TaskID int

// Kind distinguishes and-nodes from or-nodes.
//
// An and-node is activated when all of its predecessors complete and the
// conditions of the corresponding edges hold. An or-node is activated when
// at least one predecessor completes with its edge condition holding.
type Kind uint8

const (
	// AndNode requires all incoming edges to be satisfied.
	AndNode Kind = iota
	// OrNode requires at least one incoming edge to be satisfied.
	OrNode
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case AndNode:
		return "and"
	case OrNode:
		return "or"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NoBranch is returned by Cond.Branch for an unconditional edge.
const NoBranch TaskID = -1

// Cond is the guard of an edge. The zero value is the unconditional guard,
// so schedule-induced pseudo edges may be constructed with a zero Cond. A
// conditional edge out of a branch fork node f carries When(f, k), meaning
// "fork f selected outcome k".
type Cond struct {
	branch  TaskID // fork ID + 1; 0 means unconditional
	outcome int
}

// Uncond returns the condition of an unconditional edge (the zero Cond).
func Uncond() Cond { return Cond{} }

// When returns the condition "fork selected the given outcome".
func When(fork TaskID, outcome int) Cond { return Cond{branch: fork + 1, outcome: outcome} }

// IsConditional reports whether the condition actually guards the edge.
func (c Cond) IsConditional() bool { return c.branch != 0 }

// Branch returns the guarding fork node, or NoBranch for an unconditional
// edge.
func (c Cond) Branch() TaskID {
	if c.branch == 0 {
		return NoBranch
	}
	return c.branch - 1
}

// Outcome returns the required outcome index of the guarding fork. It is
// meaningless for unconditional edges.
func (c Cond) Outcome() int { return c.outcome }

// String implements fmt.Stringer.
func (c Cond) String() string {
	if !c.IsConditional() {
		return "1"
	}
	return fmt.Sprintf("b%d=%d", c.Branch(), c.Outcome())
}

// Task is a vertex of the CTG. Execution times and energies are a property
// of the platform mapping (see package platform), not of the task itself.
type Task struct {
	ID   TaskID
	Name string
	Kind Kind
}

// Edge is a (possibly conditional) precedence/data dependency between two
// tasks. CommKB is the communication volume in kilobytes; it costs time and
// energy only when the two endpoint tasks are mapped to different PEs.
type Edge struct {
	From, To TaskID
	CommKB   float64
	Cond     Cond
	// Pseudo marks schedule-induced serialization edges that are injected
	// after task mapping; they never appear in a Builder-built graph.
	Pseudo bool
}

// Graph is an immutable-structure conditional task graph. Branch
// probabilities are the only mutable aspect (they are runtime estimates that
// the adaptive framework updates); use SetBranchProbs / BranchProbs.
type Graph struct {
	tasks []Task
	edges []Edge

	succ [][]int // task -> indices into edges, outgoing
	pred [][]int // task -> indices into edges, incoming

	// forks lists branch fork nodes in TaskID order; forkIndex is the
	// inverse mapping (dense fork index, or -1).
	forks     []TaskID
	forkIndex []int
	outcomes  []int       // per dense fork index: number of outcomes
	probs     [][]float64 // per dense fork index: probability per outcome

	topo []TaskID

	deadline float64
}

// Builder incrementally constructs a Graph. A zero Builder is ready to use.
type Builder struct {
	tasks []Task
	edges []Edge
	probs map[TaskID][]float64
	err   error
}

// NewBuilder returns an empty CTG builder.
func NewBuilder() *Builder { return &Builder{probs: make(map[TaskID][]float64)} }

// AddTask appends a task and returns its ID.
func (b *Builder) AddTask(name string, kind Kind) TaskID {
	id := TaskID(len(b.tasks))
	if name == "" {
		name = fmt.Sprintf("t%d", id)
	}
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Kind: kind})
	return id
}

// AddEdge adds an unconditional edge with the given communication volume.
func (b *Builder) AddEdge(from, to TaskID, commKB float64) {
	b.edges = append(b.edges, Edge{From: from, To: to, CommKB: commKB, Cond: Uncond()})
}

// AddCondEdge adds a conditional edge out of the branch fork node from,
// guarded by the given outcome index of that fork.
func (b *Builder) AddCondEdge(from, to TaskID, commKB float64, outcome int) {
	if outcome < 0 {
		b.fail(fmt.Errorf("ctg: negative outcome %d on edge %d->%d", outcome, from, to))
		return
	}
	b.edges = append(b.edges, Edge{From: from, To: to, CommKB: commKB,
		Cond: When(from, outcome)})
}

// SetBranchProbs sets the branch selection probabilities of a fork node.
// The slice length must match the number of outcomes used on the fork's
// conditional edges; values must be non-negative and sum to 1 (within a
// small tolerance). If not called, Build assigns a uniform distribution.
func (b *Builder) SetBranchProbs(fork TaskID, probs []float64) {
	cp := make([]float64, len(probs))
	copy(cp, probs)
	b.probs[fork] = cp
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates the graph and freezes it. The deadline is the common
// deadline of the periodic CTG in the same time unit as the platform WCETs.
func (b *Builder) Build(deadline float64) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.tasks) == 0 {
		return nil, errors.New("ctg: graph has no tasks")
	}
	if !(deadline > 0) {
		return nil, fmt.Errorf("ctg: deadline must be positive, got %v", deadline)
	}
	g := &Graph{
		tasks:    append([]Task(nil), b.tasks...),
		edges:    append([]Edge(nil), b.edges...),
		deadline: deadline,
	}
	n := len(g.tasks)
	g.succ = make([][]int, n)
	g.pred = make([][]int, n)
	for ei, e := range g.edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("ctg: edge %d->%d references unknown task", e.From, e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("ctg: self edge on task %d", e.From)
		}
		if e.CommKB < 0 {
			return nil, fmt.Errorf("ctg: negative communication volume on edge %d->%d", e.From, e.To)
		}
		if e.Cond.IsConditional() && e.Cond.Branch() != e.From {
			return nil, fmt.Errorf("ctg: edge %d->%d guarded by foreign fork %d", e.From, e.To, e.Cond.Branch())
		}
		g.succ[e.From] = append(g.succ[e.From], ei)
		g.pred[e.To] = append(g.pred[e.To], ei)
	}

	// Identify forks and their outcome counts.
	g.forkIndex = make([]int, n)
	for i := range g.forkIndex {
		g.forkIndex[i] = -1
	}
	for t := 0; t < n; t++ {
		maxOut := -1
		for _, ei := range g.succ[t] {
			if c := g.edges[ei].Cond; c.IsConditional() {
				if c.Outcome() > maxOut {
					maxOut = c.Outcome()
				}
			}
		}
		if maxOut >= 0 {
			g.forkIndex[t] = len(g.forks)
			g.forks = append(g.forks, TaskID(t))
			g.outcomes = append(g.outcomes, maxOut+1)
		}
	}
	// Every outcome index of a fork must be used by at least one edge;
	// otherwise there is a selection that leads nowhere, which is almost
	// certainly a modelling mistake.
	for fi, fork := range g.forks {
		used := make([]bool, g.outcomes[fi])
		for _, ei := range g.succ[fork] {
			if c := g.edges[ei].Cond; c.IsConditional() {
				used[c.Outcome()] = true
			}
		}
		for k, u := range used {
			if !u {
				return nil, fmt.Errorf("ctg: fork %d has no edge for outcome %d", fork, k)
			}
		}
		if g.outcomes[fi] < 2 {
			return nil, fmt.Errorf("ctg: fork %d has a single outcome; use an unconditional edge", fork)
		}
	}

	// Branch probabilities: user-supplied or uniform.
	g.probs = make([][]float64, len(g.forks))
	for fi, fork := range g.forks {
		if p, ok := b.probs[fork]; ok {
			if err := checkProbs(p, g.outcomes[fi]); err != nil {
				return nil, fmt.Errorf("ctg: fork %d: %w", fork, err)
			}
			g.probs[fi] = normalize(p)
		} else {
			u := make([]float64, g.outcomes[fi])
			for k := range u {
				u[k] = 1 / float64(g.outcomes[fi])
			}
			g.probs[fi] = u
		}
	}
	for fork := range b.probs {
		if int(fork) < 0 || int(fork) >= n || g.forkIndex[fork] < 0 {
			return nil, fmt.Errorf("ctg: probabilities set on non-fork task %d", fork)
		}
	}

	// Structural checks: acyclic, or-nodes have predecessors.
	topo, err := topoSort(n, g.edges)
	if err != nil {
		return nil, err
	}
	g.topo = topo
	for t := 0; t < n; t++ {
		if g.tasks[t].Kind == OrNode && len(g.pred[t]) == 0 {
			return nil, fmt.Errorf("ctg: or-node %d has no predecessors", t)
		}
	}
	return g, nil
}

func checkProbs(p []float64, outcomes int) error {
	if len(p) != outcomes {
		return fmt.Errorf("got %d probabilities for %d outcomes", len(p), outcomes)
	}
	sum := 0.0
	for _, v := range p {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("invalid probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("probabilities sum to %v, want 1", sum)
	}
	return nil
}

func normalize(p []float64) []float64 {
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = v / sum
	}
	return out
}

func topoSort(n int, edges []Edge) ([]TaskID, error) {
	indeg := make([]int, n)
	succ := make([][]TaskID, n)
	for _, e := range edges {
		indeg[e.To]++
		succ[e.From] = append(succ[e.From], e.To)
	}
	queue := make([]TaskID, 0, n)
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			queue = append(queue, TaskID(t))
		}
	}
	order := make([]TaskID, 0, n)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		order = append(order, t)
		for _, s := range succ[t] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("ctg: graph contains a cycle")
	}
	return order, nil
}

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Task returns the task with the given ID.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// Tasks returns all tasks in ID order. The returned slice must not be
// modified.
func (g *Graph) Tasks() []Task { return g.tasks }

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns all edges. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Succ returns the indices of the outgoing edges of t.
func (g *Graph) Succ(t TaskID) []int { return g.succ[t] }

// Pred returns the indices of the incoming edges of t.
func (g *Graph) Pred(t TaskID) []int { return g.pred[t] }

// Deadline returns the common deadline of the CTG.
func (g *Graph) Deadline() float64 { return g.deadline }

// Topo returns a topological order of the tasks. The returned slice must not
// be modified.
func (g *Graph) Topo() []TaskID { return g.topo }

// Forks returns the branch fork nodes in ID order. The returned slice must
// not be modified.
func (g *Graph) Forks() []TaskID { return g.forks }

// NumForks returns the number of branch fork nodes.
func (g *Graph) NumForks() int { return len(g.forks) }

// IsFork reports whether t has conditional outgoing edges.
func (g *Graph) IsFork(t TaskID) bool { return g.forkIndex[t] >= 0 }

// ForkIndex returns the dense index of fork t in Forks(), or -1 if t is not
// a fork.
func (g *Graph) ForkIndex(t TaskID) int { return g.forkIndex[t] }

// Outcomes returns the number of outcomes of fork t. It panics if t is not a
// fork.
func (g *Graph) Outcomes(t TaskID) int {
	fi := g.forkIndex[t]
	if fi < 0 {
		panic(fmt.Sprintf("ctg: task %d is not a fork", t))
	}
	return g.outcomes[fi]
}

// BranchProb returns the probability of the given outcome of fork t.
func (g *Graph) BranchProb(t TaskID, outcome int) float64 {
	fi := g.forkIndex[t]
	if fi < 0 {
		panic(fmt.Sprintf("ctg: task %d is not a fork", t))
	}
	return g.probs[fi][outcome]
}

// BranchProbs returns a copy of the probability vector of fork t.
func (g *Graph) BranchProbs(t TaskID) []float64 {
	fi := g.forkIndex[t]
	if fi < 0 {
		panic(fmt.Sprintf("ctg: task %d is not a fork", t))
	}
	return append([]float64(nil), g.probs[fi]...)
}

// SetBranchProbs replaces the probability vector of fork t. This is the only
// runtime-mutable aspect of a Graph; the adaptive framework calls it when
// the sliding-window estimate drifts past the threshold.
func (g *Graph) SetBranchProbs(t TaskID, probs []float64) error {
	_, err := g.ReplaceBranchProbs(t, probs)
	return err
}

// ReplaceBranchProbs is SetBranchProbs returning the vector it replaced,
// exactly as stored, so that RestoreBranchProbs can put it back.
func (g *Graph) ReplaceBranchProbs(t TaskID, probs []float64) ([]float64, error) {
	fi := g.forkIndex[t]
	if fi < 0 {
		return nil, fmt.Errorf("ctg: task %d is not a fork", t)
	}
	if err := checkProbs(probs, g.outcomes[fi]); err != nil {
		return nil, fmt.Errorf("ctg: fork %d: %w", t, err)
	}
	old := g.probs[fi]
	g.probs[fi] = normalize(probs)
	return old, nil
}

// RestoreBranchProbs reinstates a vector ReplaceBranchProbs returned for
// fork t, verbatim: normalising it again could change its last bits.
func (g *Graph) RestoreBranchProbs(t TaskID, old []float64) {
	g.probs[g.forkIndex[t]] = old
}

// CondProb returns the probability that condition c holds: 1 for
// unconditional edges, the fork's outcome probability otherwise.
func (g *Graph) CondProb(c Cond) float64 {
	if !c.IsConditional() {
		return 1
	}
	return g.BranchProb(c.Branch(), c.Outcome())
}

// WithDeadline returns a clone of the graph with a different common
// deadline. Callers typically schedule once to estimate the optimal
// makespan, then rebuild the deadline as a factor of it.
func (g *Graph) WithDeadline(d float64) (*Graph, error) {
	if !(d > 0) {
		return nil, fmt.Errorf("ctg: deadline must be positive, got %v", d)
	}
	cp := g.Clone()
	cp.deadline = d
	return cp, nil
}

// Clone returns a deep copy of the graph (probabilities included), so that a
// scheduler may mutate branch probabilities without affecting the original.
func (g *Graph) Clone() *Graph {
	cp := *g
	cp.probs = make([][]float64, len(g.probs))
	for i, p := range g.probs {
		cp.probs[i] = append([]float64(nil), p...)
	}
	return &cp
}

// Sources returns the tasks with no incoming edges.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for t := range g.tasks {
		if len(g.pred[t]) == 0 {
			out = append(out, TaskID(t))
		}
	}
	return out
}

// Sinks returns the tasks with no outgoing edges.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for t := range g.tasks {
		if len(g.succ[t]) == 0 {
			out = append(out, TaskID(t))
		}
	}
	return out
}

// String renders a compact human-readable summary.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CTG{%d tasks, %d edges, %d forks, deadline %g}",
		len(g.tasks), len(g.edges), len(g.forks), g.deadline)
	return sb.String()
}

// Dot renders the graph in Graphviz dot format, with conditional edges
// labelled by their guard. Useful for documentation and debugging.
func (g *Graph) Dot() string {
	var sb strings.Builder
	sb.WriteString("digraph ctg {\n  rankdir=TB;\n")
	for _, t := range g.tasks {
		shape := "box"
		if t.Kind == OrNode {
			shape = "diamond"
		}
		style := ""
		if g.IsFork(t.ID) {
			style = ", style=bold"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q, shape=%s%s];\n", t.ID, t.Name, shape, style)
	}
	for _, e := range g.edges {
		label := ""
		if e.Cond.IsConditional() {
			label = fmt.Sprintf(" [label=%q, style=dashed]", e.Cond.String())
		}
		fmt.Fprintf(&sb, "  n%d -> n%d%s;\n", e.From, e.To, label)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// sortedTaskIDs returns ids sorted ascending (helper shared by analyses).
func sortedTaskIDs(ids []TaskID) []TaskID {
	out := append([]TaskID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

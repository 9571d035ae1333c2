// Package stretch implements the DVFS (voltage/frequency selection) stage
// that runs after task mapping and ordering:
//
//   - Heuristic: the paper's online task-stretching heuristic (Figure 2), a
//     low-complexity slack-distribution pass that weights per-minterm
//     critical-path slack by branch and activation probabilities. This is
//     what makes runtime re-scheduling affordable.
//   - WorstCase: the probability-blind critical-path slack distribution used
//     to model reference algorithm 1 (Shin & Kim [10] / Wu et al. [9]
//     style).
//   - NLP: a convex-programming stretcher modeling reference algorithm 2
//     (Malani et al. [17]): minimize expected energy subject to deadline
//     constraints, solved by a penalty-method gradient descent.
//
// All three reason about the paths of the scheduled CTG — every maximal
// source→sink chain through real and schedule-induced pseudo edges, with the
// (unscalable) cross-PE communication delay folded into the path delay. The
// paper enumerates these paths explicitly ("calculate all possible paths
// using BFS"); since the critical path of a class is always the one with the
// largest delay (the lowest slack ratio for a common deadline), this
// implementation computes the same quantities with longest-path dynamic
// programming instead, which stays polynomial on graphs whose explicit path
// count explodes (fork-join ladders).
package stretch

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sched"
)

// dagModel is the scheduled graph the stretchers reason about: real +
// pseudo edges with mapping-resolved communication delays, and the current
// (speed-dependent) execution time of every task.
type dagModel struct {
	s     *sched.Schedule
	edges []ctg.Edge
	comm  []float64 // per combined-edge index
	outE  [][]int   // per task: combined-edge indices
	inE   [][]int
	order []ctg.TaskID // topological order of the combined graph
	pos   []int32      // per task: its index in order
	exec  []float64    // current execution times
	// above and below hold two fork sets per task, fw words each: the forks
	// strictly above the task (among its ancestors) and the forks at or
	// below it (itself and its descendants). Both depend on the mapping
	// only.
	above, below []uint64
	fw           int
	// rank is each task's position in the schedule's processing order
	// (s.Order), and late the largest rank among the task and its
	// ancestors. A task whose late exceeds its rank has an ancestor that a
	// pass processes after it, through an edge that points backward in
	// s.Order; a stretch drops down values only on such ancestors (see
	// pass.stretched).
	rank, late []int32
	// up and down are the scenario classes of the two halves of the DP,
	// built by classes; nil rows until then.
	up, down classRows
}

func newDAG(s *sched.Schedule) *dagModel {
	g := s.G
	n := g.NumTasks()
	d := &dagModel{
		s:     s,
		edges: make([]ctg.Edge, 0, g.NumEdges()+len(s.Pseudo)),
		outE:  make([][]int, n),
		inE:   make([][]int, n),
		exec:  make([]float64, n),
	}
	d.edges = append(d.edges, g.Edges()...)
	d.edges = append(d.edges, s.Pseudo...)
	d.comm = make([]float64, len(d.edges))
	// Each task's edge lists are cut from two shared arrays, one per
	// direction, sized by a first count.
	deg := make([]int, 2*n)
	for _, e := range d.edges {
		deg[e.From]++
		deg[n+int(e.To)]++
	}
	lists := make([]int, 2*len(d.edges))
	for t, off := 0, 0; t < n; t++ {
		d.outE[t], off = lists[off:off:off+deg[t]], off+deg[t]
		d.inE[t], off = lists[off:off:off+deg[n+t]], off+deg[n+t]
	}
	for ei, e := range d.edges {
		d.comm[ei] = s.P.CommTime(e.CommKB, s.PE[e.From], s.PE[e.To])
		d.outE[e.From] = append(d.outE[e.From], ei)
		d.inE[e.To] = append(d.inE[e.To], ei)
	}
	// The combined graph is acyclic: both real and pseudo edges point from
	// earlier to strictly later nominal start times, except between
	// mutually exclusive tasks, which carry no edges at all. Sorting by
	// (start, id) therefore yields a topological order. The key is a total
	// order, so the result does not depend on the sort algorithm.
	d.order = make([]ctg.TaskID, n)
	for i := range d.order {
		d.order[i] = ctg.TaskID(i)
	}
	slices.SortFunc(d.order, func(a, b ctg.TaskID) int {
		if c := cmp.Compare(s.Start[a], s.Start[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	d.pos = make([]int32, n)
	for i, t := range d.order {
		d.pos[t] = int32(i)
	}
	d.fw = (g.NumForks() + 63) / 64
	sets := make([]uint64, 2*n*d.fw)
	d.above, d.below = sets[:n*d.fw], sets[n*d.fw:]
	for _, t := range d.order {
		above := d.forksAbove(t)
		for _, ei := range d.inE[t] {
			u := d.edges[ei].From
			for i, w := range d.forksAbove(u) {
				above[i] |= w
			}
			if fi := g.ForkIndex(u); fi >= 0 {
				above[fi/64] |= 1 << (fi % 64)
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		t := d.order[i]
		below := d.forksBelow(t)
		if fi := g.ForkIndex(t); fi >= 0 {
			below[fi/64] |= 1 << (fi % 64)
		}
		for _, ei := range d.outE[t] {
			for i, w := range d.forksBelow(d.edges[ei].To) {
				below[i] |= w
			}
		}
	}
	d.rank, d.late = make([]int32, n), make([]int32, n)
	for i, t := range s.Order {
		d.rank[t] = int32(i)
	}
	for _, t := range d.order {
		d.late[t] = d.rank[t]
		for _, ei := range d.inE[t] {
			d.late[t] = max(d.late[t], d.late[d.edges[ei].From])
		}
	}
	for t := 0; t < n; t++ {
		d.exec[t] = s.ExecTime(ctg.TaskID(t))
	}
	return d
}

// forkSet is one task's fork set: bit fi%64 of word fi/64 stands for fork
// index fi.
type forkSet []uint64

// forksAbove returns the forks strictly above t: those whose outcomes are
// known when t dispatches, and the only ones that reach up[t].
func (d *dagModel) forksAbove(t ctg.TaskID) forkSet {
	return d.above[int(t)*d.fw : (int(t)+1)*d.fw]
}

// forksBelow returns t, if it is a fork, and the forks below it: the only
// ones that reach t's down classes.
func (d *dagModel) forksBelow(t ctg.TaskID) forkSet {
	return d.below[int(t)*d.fw : (int(t)+1)*d.fw]
}

// empty reports whether the set holds no fork.
func (f forkSet) empty() bool {
	for _, w := range f {
		if w != 0 {
			return false
		}
	}
	return true
}

// forEach calls fn with every fork index of the set, ascending.
func (f forkSet) forEach(fn func(fi int)) {
	for wi, w := range f {
		for ; w != 0; w &= w - 1 {
			fn(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// refreshExec re-reads the execution time of one task after its speed
// changed.
func (d *dagModel) refreshExec(t ctg.TaskID) { d.exec[t] = d.s.ExecTime(t) }

// negInf marks a path class that does not exist below a node.
var negInf = math.Inf(-1)

// classRows partitions the scenarios, per task, by their outcomes on one of
// the task's fork sets: the forks at or below it for the down half of the
// DP, those strictly above it for the up half. A conditional edge leaves its
// fork, so a half of the DP at a task reads no other outcome, and the
// scenarios of one class share every value of that half there. A task whose
// set is empty has no row: every scenario shares its unrestricted values.
// The rows depend on the mapping and the graph's scenario structure only,
// so they are built once per mapping and read by every pass over it. A row
// depends on the fork set alone, so tasks with equal sets share one.
type classRows struct {
	row []int32  // per task: offset of its row in cls, or -1
	n   []int32  // per task: its class count, 0 without a row
	cls []uint16 // per distinct fork set: one class id per scenario
}

// of returns the class of scenario si at t, which must have a row.
func (c *classRows) of(t ctg.TaskID, si int) int { return int(c.cls[int(c.row[t])+si]) }

// at returns the class of scenario si at t: 0 for a task without a row,
// whose one class is its unrestricted values.
func (c *classRows) at(t ctg.TaskID, si int) int {
	if c.row[t] < 0 {
		return 0
	}
	return c.of(t, si)
}

// count returns the number of classes at t.
func (c *classRows) count(t ctg.TaskID) int { return max(1, int(c.n[t])) }

// classes builds the model's class rows.
func (d *dagModel) classes() {
	a := d.s.A
	assign := make([][]int, a.NumScenarios())
	for si := range assign {
		assign[si] = a.Scenario(si).Assign
	}
	d.up.build(assign, len(d.exec), d.forksAbove)
	d.down.build(assign, len(d.exec), d.forksBelow)
}

// build fills c for the fork sets set returns, assign holding each
// scenario's fork outcomes (at least one scenario). Tasks with equal sets
// share one row, rows in the order of their first task. A row's class ids
// rank the scenarios' outcome tuples on the set in lexicographic order,
// lowest fork index first. They are refined fork by fork: the pairs (id so
// far, outcome at the fork) are renumbered densely in that order by a
// counting pass, until every scenario has its own id. So a row costs
// O(scenarios × forks in the set), and nothing is sorted. Ids stay below
// ctg.MaxScenarios, so they fit in 16 bits.
func (c *classRows) build(assign [][]int, n int, set func(ctg.TaskID) forkSet) {
	ns := len(assign)
	c.row, c.n = make([]int32, n), make([]int32, n)
	// owner holds each row's first task; first maps a fork set, its words
	// as bytes, to its row.
	var owner []ctg.TaskID
	first := make(map[string]int32)
	var key []byte
	for t := range c.row {
		c.row[t] = -1
		f := set(ctg.TaskID(t))
		if f.empty() {
			continue
		}
		key = key[:0]
		for _, w := range f {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		r, ok := first[string(key)]
		if !ok {
			r = int32(len(owner))
			first[string(key)] = r
			owner = append(owner, ctg.TaskID(t))
		}
		c.row[t] = r * int32(ns)
	}
	// lo and width bound each fork's outcomes, OutcomeUnassigned included.
	lo, width := make([]int, len(assign[0])), make([]int, len(assign[0]))
	for fi := range lo {
		lo[fi] = assign[0][fi]
		hi := lo[fi]
		for _, a := range assign {
			lo[fi], hi = min(lo[fi], a[fi]), max(hi, a[fi])
		}
		width[fi] = hi - lo[fi] + 1
	}
	c.cls = make([]uint16, len(owner)*ns)
	var rank []int32
	for r, t := range owner {
		ids := c.cls[r*ns : (r+1)*ns]
		count := 1
		set(t).forEach(func(fi int) {
			if count == ns {
				// Every scenario apart: pairs with distinct ids keep their
				// order.
				return
			}
			// rank marks the pairs present, then holds their dense ranks.
			rank = grow(rank[:0], count*width[fi])
			clear(rank)
			for si, a := range assign {
				rank[int(ids[si])*width[fi]+a[fi]-lo[fi]] = 1
			}
			count = 0
			for k, m := range rank {
				if m != 0 {
					rank[k] = int32(count)
					count++
				}
			}
			for si, a := range assign {
				ids[si] = uint16(rank[int(ids[si])*width[fi]+a[fi]-lo[fi]])
			}
		})
		c.n[t] = int32(count)
	}
	for t, off := range c.row {
		if off >= 0 {
			c.n[t] = c.n[owner[off/int32(ns)]]
		}
	}
}

// dpResult holds, per slot, the longest-path decomposition of the scheduled
// graph (optionally restricted to the edges consistent with one scenario).
// Slot v < n is task v's; a pass appends class slots after them (see pass).
//
//	up[v]    — the largest delay of any chain ending just before v
//	downU[v] — the largest remaining delay after v over suffixes containing
//	           NO conditional edge (prob(p, v) = 1 class), or -Inf
//	downC[v] — the same over suffixes containing at least one conditional
//	           edge (prob(p, v) ≠ 1 class), or -Inf
//	probC[v] — the joint branch probability of the argmax downC suffix,
//	           i.e. prob(p_worst, v) of the paper
//
// Backpointers permit reconstructing the argmax chains so that a critical
// path shared by several minterms can be recognized and counted once.
type dpResult struct {
	up, downU, downC, probC []float64
	ubp                     []int  // argmax incoming edge, -1 at chain start
	dbpU, dbpC              []int  // argmax outgoing edge per class, -1 at end
	classA                  []byte // which class wins downAny: 'U' or 'C'
}

// downAny returns max(downU, downC) of slot s.
func (r *dpResult) downAny(s int) float64 {
	if r.downU[s] >= r.downC[s] {
		return r.downU[s]
	}
	return r.downC[s]
}

// newDPResult allocates a decomposition for an n-task graph.
func newDPResult(n int) *dpResult {
	return &dpResult{
		up:     make([]float64, n),
		downU:  make([]float64, n),
		downC:  make([]float64, n),
		probC:  make([]float64, n),
		ubp:    make([]int, n),
		dbpU:   make([]int, n),
		dbpC:   make([]int, n),
		classA: make([]byte, n),
	}
}

// slotSel picks the slot a DP step reads for a task: the task's own (the
// zero value), or, under scenario si, its class slot where it has a row in
// rows, base holding each such task's first class slot.
type slotSel struct {
	rows *classRows
	base []int32
	si   int
}

// of returns t's slot.
func (s slotSel) of(t ctg.TaskID) int {
	if s.rows == nil || s.rows.row[t] < 0 {
		return int(t)
	}
	return int(s.base[t]) + s.rows.of(t, s.si)
}

// run computes the decomposition. assign restricts edges to those whose
// condition the scenario assignment satisfies; nil means the full graph.
//
// Note on truncated suffixes: in a scenario-restricted graph, a fork the
// scenario never assigns has no consistent conditional out-edges, so chains
// "end" there even though the unrestricted graph continues. Such truncated
// suffixes can only shorten candidate delays; since criticality always takes
// the *largest* delay, they never displace a real critical path.
func (d *dagModel) run(assign []int) *dpResult {
	return d.runInto(newDPResult(len(d.exec)), assign)
}

// runInto is run reusing a previously allocated decomposition. Every task
// slot of r is overwritten.
func (d *dagModel) runInto(r *dpResult, assign []int) *dpResult {
	for _, v := range d.order {
		d.upAt(r, v, int(v), assign, slotSel{})
	}
	for i := len(d.order) - 1; i >= 0; i-- {
		v := d.order[i]
		d.downAt(r, v, int(v), assign, slotSel{})
	}
	return r
}

// ok reports whether edge ei is consistent with the scenario assignment (nil
// admits every edge). A conditional edge always leaves the fork that guards
// it, so the filter on a task's in-edges depends only on the outcomes of its
// predecessor forks, and on its out-edges only on its own outcome.
func (d *dagModel) ok(ei int, assign []int) bool {
	if assign == nil {
		return true
	}
	c := d.edges[ei].Cond
	if !c.IsConditional() {
		return true
	}
	return assign[d.s.G.ForkIndex(c.Branch())] == c.Outcome()
}

// upAt computes slot sv, task v's, of the up half from the slots sel picks
// for v's predecessors.
func (d *dagModel) upAt(r *dpResult, v ctg.TaskID, sv int, assign []int, sel slotSel) {
	r.up[sv], r.ubp[sv] = 0, -1
	for _, ei := range d.inE[v] {
		if !d.ok(ei, assign) {
			continue
		}
		u := d.edges[ei].From
		if cand := r.up[sel.of(u)] + d.exec[u] + d.comm[ei]; cand > r.up[sv] {
			r.up[sv], r.ubp[sv] = cand, ei
		}
	}
}

// downAt computes slot sv, task v's, of the down half from the slots sel
// picks for v's successors.
func (d *dagModel) downAt(r *dpResult, v ctg.TaskID, sv int, assign []int, sel slotSel) {
	g := d.s.G
	r.downU[sv], r.dbpU[sv] = negInf, -1
	r.downC[sv], r.dbpC[sv] = negInf, -1
	r.probC[sv] = 0
	hasOut := false
	for _, ei := range d.outE[v] {
		if !d.ok(ei, assign) {
			continue
		}
		hasOut = true
		e := d.edges[ei]
		sw := sel.of(e.To)
		step := d.comm[ei] + d.exec[e.To]
		// U class: unconditional edge, continuation also U.
		if !e.Cond.IsConditional() && r.downU[sw] > negInf {
			if cand := step + r.downU[sw]; cand > r.downU[sv] {
				r.downU[sv], r.dbpU[sv] = cand, ei
			}
		}
		// C class.
		if e.Cond.IsConditional() {
			// The conditional edge itself satisfies the class; the
			// continuation may be anything.
			cont := r.downAny(sw)
			if cont > negInf {
				if cand := step + cont; cand > r.downC[sv] {
					contProb := 1.0
					if r.classA[sw] == 'C' {
						contProb = r.probC[sw]
					}
					r.downC[sv], r.dbpC[sv] = cand, ei
					r.probC[sv] = g.CondProb(e.Cond) * contProb
				}
			}
		} else if r.downC[sw] > negInf {
			if cand := step + r.downC[sw]; cand > r.downC[sv] {
				r.downC[sv], r.dbpC[sv] = cand, ei
				r.probC[sv] = r.probC[sw]
			}
		}
	}
	if !hasOut {
		// A chain end: the empty suffix is the U class.
		r.downU[sv] = 0
	}
	if r.downU[sv] >= r.downC[sv] {
		r.classA[sv] = 'U'
	} else {
		r.classA[sv] = 'C'
	}
}

// throughAny returns the largest delay of any chain through v (the paper's
// critical spanning path of step 9): up + exec + max(downU, downC).
func (d *dagModel) throughAny(r *dpResult, v ctg.TaskID) float64 {
	down := r.downAny(int(v))
	if down == negInf {
		down = 0
	}
	return r.up[v] + d.exec[v] + down
}

// longest returns the longest chain delay in the decomposition (the worst
// path delay of the whole schedule).
func (d *dagModel) longest(r *dpResult) float64 {
	best := 0.0
	for t := range d.exec {
		if l := d.throughAny(r, ctg.TaskID(t)); l > best {
			best = l
		}
	}
	return best
}

// downStep returns the argmax out-edge of slot s for a suffix of the given
// class (-1 at the chain's end) and the class the suffix continues in: after
// its first conditional edge a 'C' suffix may continue in either class.
func (r *dpResult) downStep(d *dagModel, s int, class byte) (int, byte) {
	if class == 'A' {
		class = r.classA[s]
	}
	if class == 'U' {
		return r.dbpU[s], class
	}
	ei := r.dbpC[s]
	if ei >= 0 && d.edges[ei].Cond.IsConditional() {
		class = 'A'
	}
	return ei, class
}

// criticalDenominator returns the distributable delay of the argmax chain
// through v with the given suffix class: the execution time of the not yet
// locked tasks plus the (unscalable) communication delay. Locked tasks are
// "released from consideration" (paper §III.A), so the remaining slack is
// shared among the tasks that can still absorb it. The sum runs along the
// chain: v, the prefix from v back to the chain start, then the suffix.
func (r *dpResult) criticalDenominator(d *dagModel, v ctg.TaskID, class byte, locked []bool) float64 {
	return r.downDenominator(d, r.upDenominator(d, v, int(v), slotSel{}, locked), int(v), class, slotSel{}, locked)
}

// upDenominator returns the part of a ratio denominator that t and the
// argmax prefix ending at its up slot sv add (sel picks the prefix's
// slots): t's execution time if unlocked, then per prefix edge, from t
// back to the chain start, its delay and its source's execution time if
// unlocked.
func (r *dpResult) upDenominator(d *dagModel, t ctg.TaskID, sv int, sel slotSel, locked []bool) float64 {
	denom := 0.0
	if !locked[t] {
		denom += d.exec[t]
	}
	for ei := r.ubp[sv]; ei >= 0; {
		u := d.edges[ei].From
		denom += d.comm[ei]
		if !locked[u] {
			denom += d.exec[u]
		}
		ei = r.ubp[sel.of(u)]
	}
	return denom
}

// downDenominator adds to denom what the argmax suffix of the given class
// below down slot sv adds (sel picks the suffix's slots): per edge its
// delay and its target's execution time if unlocked.
func (r *dpResult) downDenominator(d *dagModel, denom float64, sv int, class byte, sel slotSel, locked []bool) float64 {
	for s := sv; ; {
		ei, next := r.downStep(d, s, class)
		if ei < 0 {
			return denom
		}
		w := d.edges[ei].To
		denom += d.comm[ei]
		if !locked[w] {
			denom += d.exec[w]
		}
		s, class = sel.of(w), next
	}
}

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

// dpResult holds, per task, the longest-path decomposition of the scheduled
// graph (optionally restricted to the edges consistent with one scenario):
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

// downAny returns max(downU, downC) for v.
func (r *dpResult) downAny(v ctg.TaskID) float64 {
	if r.downU[v] >= r.downC[v] {
		return r.downU[v]
	}
	return r.downC[v]
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

// dpSlot is one task's slots of a decomposition.
type dpSlot struct {
	up, downU, downC, probC float64
	ubp, dbpU, dbpC         int
	classA                  byte
}

// save appends the slots of nodes to dst.
func (r *dpResult) save(dst []dpSlot, nodes []ctg.TaskID) []dpSlot {
	for _, v := range nodes {
		dst = append(dst, dpSlot{
			up: r.up[v], downU: r.downU[v], downC: r.downC[v], probC: r.probC[v],
			ubp: r.ubp[v], dbpU: r.dbpU[v], dbpC: r.dbpC[v], classA: r.classA[v],
		})
	}
	return dst
}

// restore writes back the slots save took of the same nodes.
func (r *dpResult) restore(src []dpSlot, nodes []ctg.TaskID) {
	for i, v := range nodes {
		s := &src[i]
		r.up[v], r.downU[v], r.downC[v], r.probC[v] = s.up, s.downU, s.downC, s.probC
		r.ubp[v], r.dbpU[v], r.dbpC[v], r.classA[v] = s.ubp, s.dbpU, s.dbpC, s.classA
	}
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

// runInto is run reusing a previously allocated decomposition. Every slot of
// r is overwritten.
func (d *dagModel) runInto(r *dpResult, assign []int) *dpResult {
	d.runUp(r, d.order, assign)
	d.runDown(r, d.order, assign)
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

// runUp runs upAt over the given tasks, which must be listed in topological
// order: the whole order, or a task's up-forked tasks (see cone) over a
// decomposition that holds the unrestricted values for the others.
func (d *dagModel) runUp(r *dpResult, nodes []ctg.TaskID, assign []int) {
	for _, v := range nodes {
		d.upAt(r, v, assign)
	}
}

// upAt recomputes up[v] and ubp[v] from v's predecessors' slots.
func (d *dagModel) upAt(r *dpResult, v ctg.TaskID, assign []int) {
	r.up[v], r.ubp[v] = 0, -1
	for _, ei := range d.inE[v] {
		if !d.ok(ei, assign) {
			continue
		}
		u := d.edges[ei].From
		if cand := r.up[u] + d.exec[u] + d.comm[ei]; cand > r.up[v] {
			r.up[v], r.ubp[v] = cand, ei
		}
	}
}

// runDown runs downAt over the given tasks in reverse order; nodes must be
// listed in topological order: the whole order, or a task's down-forked
// tasks (see cone) over a decomposition that holds the unrestricted values
// for the others.
func (d *dagModel) runDown(r *dpResult, nodes []ctg.TaskID, assign []int) {
	for i := len(nodes) - 1; i >= 0; i-- {
		d.downAt(r, nodes[i], assign)
	}
}

// downAt recomputes v's down-class slots from its successors' slots.
func (d *dagModel) downAt(r *dpResult, v ctg.TaskID, assign []int) {
	g := d.s.G
	r.downU[v], r.dbpU[v] = negInf, -1
	r.downC[v], r.dbpC[v] = negInf, -1
	r.probC[v] = 0
	hasOut := false
	for _, ei := range d.outE[v] {
		if !d.ok(ei, assign) {
			continue
		}
		hasOut = true
		e := d.edges[ei]
		w := e.To
		step := d.comm[ei] + d.exec[w]
		// U class: unconditional edge, continuation also U.
		if !e.Cond.IsConditional() && r.downU[w] > negInf {
			if cand := step + r.downU[w]; cand > r.downU[v] {
				r.downU[v], r.dbpU[v] = cand, ei
			}
		}
		// C class.
		if e.Cond.IsConditional() {
			// The conditional edge itself satisfies the class; the
			// continuation may be anything.
			cont := r.downAny(w)
			if cont > negInf {
				if cand := step + cont; cand > r.downC[v] {
					contProb := 1.0
					if r.classA[w] == 'C' {
						contProb = r.probC[w]
					}
					r.downC[v], r.dbpC[v] = cand, ei
					r.probC[v] = g.CondProb(e.Cond) * contProb
				}
			}
		} else if r.downC[w] > negInf {
			if cand := step + r.downC[w]; cand > r.downC[v] {
				r.downC[v], r.dbpC[v] = cand, ei
				r.probC[v] = r.probC[w]
			}
		}
	}
	if !hasOut {
		// A chain end: the empty suffix is the U class.
		r.downU[v] = 0
	}
	if r.downU[v] >= r.downC[v] {
		r.classA[v] = 'U'
	} else {
		r.classA[v] = 'C'
	}
}

// propagate repairs r, a decomposition under assign, after exec[t] changed:
// Figure 2's "update the delay and slack of all paths spanning τi". Only the
// up values below t and the down values above t read exec[t]. The up sweep
// walks the order forward from t, re-running upAt on every queued task, and
// queues a task's successors only when its up value changed; the down sweep
// walks backward over t's predecessors the same way, comparing the down
// values a predecessor reads (downU, downC and probC; classA follows from
// the first two). A task whose inputs did not change would recompute the
// same slots, so r ends bit for bit equal to a fresh runInto. dirty holds
// one flag per task, all clear on entry and on return.
func (d *dagModel) propagate(r *dpResult, t ctg.TaskID, assign []int, dirty []bool) {
	pending := 0
	for _, ei := range d.outE[t] {
		if w := d.edges[ei].To; !dirty[w] {
			dirty[w], pending = true, pending+1
		}
	}
	for p := int(d.pos[t]) + 1; pending > 0; p++ {
		v := d.order[p]
		if !dirty[v] {
			continue
		}
		dirty[v], pending = false, pending-1
		old := r.up[v]
		d.upAt(r, v, assign)
		if sameBits(r.up[v], old) {
			continue
		}
		for _, ei := range d.outE[v] {
			if w := d.edges[ei].To; !dirty[w] {
				dirty[w], pending = true, pending+1
			}
		}
	}
	for _, ei := range d.inE[t] {
		if u := d.edges[ei].From; !dirty[u] {
			dirty[u], pending = true, pending+1
		}
	}
	for p := int(d.pos[t]) - 1; pending > 0; p-- {
		v := d.order[p]
		if !dirty[v] {
			continue
		}
		dirty[v], pending = false, pending-1
		oldU, oldC, oldP := r.downU[v], r.downC[v], r.probC[v]
		d.downAt(r, v, assign)
		if sameBits(r.downU[v], oldU) && sameBits(r.downC[v], oldC) && sameBits(r.probC[v], oldP) {
			continue
		}
		for _, ei := range d.inE[v] {
			if u := d.edges[ei].From; !dirty[u] {
				dirty[u], pending = true, pending+1
			}
		}
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// cone is what the scenario classes of one task τ need of the graph; the
// unrestricted values come from the carried whole-graph decomposition.
//
// upForks and downForks are the fork indices strictly above τ and at or
// below it, ascending: the only forks whose outcomes reach the up and the
// down half of the DP at τ. A conditional edge leaves its fork, so within
// each half only some tasks depend on those outcomes: upForked lists τ's
// ancestors (and τ) with a fork strictly above them, downForked τ and its
// descendants with a fork at or below them, both in topological order.
// Every other task of either half has the same DP values under every
// scenario assignment.
type cone struct {
	upForks, downForks   []int
	upForked, downForked []ctg.TaskID
	mark                 []bool // per task: visited; all clear between fills
	stack                []walkFrame
}

// walkFrame is one task on the forked walks' DFS stack.
type walkFrame struct {
	v    ctg.TaskID
	next int // the next of v's edges to follow
}

// fillCone computes τ's cone into c, reusing its buffers.
func (d *dagModel) fillCone(c *cone, t ctg.TaskID) {
	if len(c.mark) != len(d.exec) {
		c.mark = make([]bool, len(d.exec))
	}
	c.upForks, c.downForks = c.upForks[:0], c.downForks[:0]
	d.forksAbove(t).forEach(func(fi int) { c.upForks = append(c.upForks, fi) })
	d.forksBelow(t).forEach(func(fi int) { c.downForks = append(c.downForks, fi) })
	c.upForked, c.downForked = c.upForked[:0], c.downForked[:0]
	if len(c.upForks) > 0 {
		c.upForked = d.forkedWalk(c, c.upForked, t, true)
	}
	if len(c.downForks) > 0 {
		c.downForked = d.forkedWalk(c, c.downForked, t, false)
		slices.Reverse(c.downForked)
	}
}

// forkedWalk appends to dst, in DFS postorder, the tasks reached from t over
// in-edges (up) without leaving the tasks that have a fork strictly above
// them, or over out-edges (!up) without leaving those with a fork at or
// below them. t must be such a task. The first set is closed under
// successors, so every ancestor of t in it is reached through it; the
// second is closed under predecessors, so every descendant of t in it is.
// A postorder over in-edges lists every task after its predecessors, one
// over out-edges after its successors: a topological order, reversed for
// the down walk, without a sort.
func (d *dagModel) forkedWalk(c *cone, dst []ctg.TaskID, t ctg.TaskID, up bool) []ctg.TaskID {
	adj := d.outE
	if up {
		adj = d.inE
	}
	c.mark[t] = true
	c.stack = append(c.stack[:0], walkFrame{v: t})
	for len(c.stack) > 0 {
		f := &c.stack[len(c.stack)-1]
		if f.next == len(adj[f.v]) {
			dst = append(dst, f.v)
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		ei := adj[f.v][f.next]
		f.next++
		var u ctg.TaskID
		var forked bool
		if up {
			u = d.edges[ei].From
			forked = !d.forksAbove(u).empty()
		} else {
			u = d.edges[ei].To
			forked = !d.forksBelow(u).empty()
		}
		if forked && !c.mark[u] {
			c.mark[u] = true
			c.stack = append(c.stack, walkFrame{v: u})
		}
	}
	for _, v := range dst {
		c.mark[v] = false
	}
	return dst
}

// throughAny returns the largest delay of any chain through v (the paper's
// critical spanning path of step 9): up + exec + max(downU, downC).
func (d *dagModel) throughAny(r *dpResult, v ctg.TaskID) float64 {
	down := r.downAny(v)
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

// walkCritical traverses the argmax chain through v whose suffix has the
// given class ('U', 'C' or 'A' for either), invoking node for every task on
// the chain and edge for every edge: v, then the prefix from v back to the
// chain start, then the suffix.
func (r *dpResult) walkCritical(d *dagModel, v ctg.TaskID, class byte,
	node func(ctg.TaskID), edge func(ei int)) {
	// Upward walk (prefix, visited from v back to the chain start).
	for u := v; ; {
		node(u)
		ei := r.ubp[u]
		if ei < 0 {
			break
		}
		edge(ei)
		u = d.edges[ei].From
	}
	// Downward walk in the requested class.
	for u := v; ; {
		ei, next := r.downStep(d, u, class)
		if ei < 0 {
			break
		}
		edge(ei)
		u, class = d.edges[ei].To, next
		node(u)
	}
}

// downStep returns the argmax out-edge of u for a suffix of the given class
// (-1 at the chain's end) and the class the suffix continues in: after its
// first conditional edge a 'C' suffix may continue in either class.
func (r *dpResult) downStep(d *dagModel, u ctg.TaskID, class byte) (int, byte) {
	if class == 'A' {
		class = r.classA[u]
	}
	if class == 'U' {
		return r.dbpU[u], class
	}
	ei := r.dbpC[u]
	if ei >= 0 && d.edges[ei].Cond.IsConditional() {
		class = 'A'
	}
	return ei, class
}

// appendUpChain appends the edges of the argmax prefix ending at v, from v
// back to the chain start — walkCritical's upward walk.
func (r *dpResult) appendUpChain(d *dagModel, dst []int32, v ctg.TaskID) []int32 {
	for ei := r.ubp[v]; ei >= 0; ei = r.ubp[d.edges[ei].From] {
		dst = append(dst, int32(ei))
	}
	return dst
}

// appendDownChain appends the edges of the argmax suffix of the given class
// below v — walkCritical's downward walk.
func (r *dpResult) appendDownChain(d *dagModel, dst []int32, v ctg.TaskID, class byte) []int32 {
	for u := v; ; {
		ei, next := r.downStep(d, u, class)
		if ei < 0 {
			return dst
		}
		dst = append(dst, int32(ei))
		u, class = d.edges[ei].To, next
	}
}

// pathSet deduplicates critical-path node sequences so that a chain found
// critical for several minterms is counted once by the heuristic. It
// replaces the former string-signature keys: sequences are interned in a
// reusable int32 arena and looked up by FNV-1a hash with exact sequence
// verification on hash hits, so dedup semantics are identical to string
// comparison with zero steady-state allocation.
type pathSet struct {
	arena []int32 // all interned sequences, concatenated
	// entries hold the interned [start, end) spans as hash-chained nodes:
	// heads maps a hash to the 1-based index of its newest entry and each
	// entry links to the previous one with the same hash. Chaining through a
	// flat slice (instead of map[hash][]span) keeps the steady state
	// allocation-free: reset truncates the slice and clears the map, and
	// re-populating an already-sized map and slice allocates nothing.
	entries []pathSpan
	heads   map[uint64]int32 // hash -> 1-based index into entries (0 = none)
}

// pathSpan is one interned sequence: [start, end) in the arena plus the
// 1-based index of the previous entry with the same hash.
type pathSpan struct {
	start, end int32
	prev       int32
}

// reset clears the set, retaining capacity.
func (p *pathSet) reset() {
	p.arena = p.arena[:0]
	p.entries = p.entries[:0]
	if p.heads == nil {
		p.heads = make(map[uint64]int32)
	} else {
		clear(p.heads)
	}
}

// fnv1a hashes an int32 sequence (FNV-1a over the little-endian bytes).
func fnv1a(seq []int32) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range seq {
		u := uint32(v)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= prime
		}
	}
	return h
}

// add adds a node sequence to the set, reporting whether it was new.
func (p *pathSet) add(seq []int32) bool {
	h := fnv1a(seq)
	for idx := p.heads[h]; idx != 0; {
		span := p.entries[idx-1]
		idx = span.prev
		if slices.Equal(p.arena[span.start:span.end], seq) {
			return false
		}
	}
	start := int32(len(p.arena))
	p.arena = append(p.arena, seq...)
	p.entries = append(p.entries, pathSpan{start: start, end: int32(len(p.arena)), prev: p.heads[h]})
	p.heads[h] = int32(len(p.entries))
	return true
}

// criticalDenominator returns the distributable delay of the argmax chain
// through v with the given suffix class: the execution time of the not yet
// locked tasks plus the (unscalable) communication delay. Locked tasks are
// "released from consideration" (paper §III.A), so the remaining slack is
// shared among the tasks that can still absorb it.
func (r *dpResult) criticalDenominator(d *dagModel, v ctg.TaskID, class byte, locked []bool) float64 {
	denom := 0.0
	r.walkCritical(d, v, class, func(u ctg.TaskID) {
		if !locked[u] {
			denom += d.exec[u]
		}
	}, func(ei int) {
		denom += d.comm[ei]
	})
	return denom
}

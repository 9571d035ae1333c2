package stretch

import (
	"slices"

	"ctgdvfs/internal/ctg"
)

// pass is the decomposition one stretching pass reads — Figure 2's "delay
// and slack of all paths spanning τi" — computed where it is read rather
// than where it changes.
//
// A pass processes tasks in s.Order, and a task's execution time changes
// only when the pass processes it. Up values depend only on the execution
// times of a task's ancestors and down values only on its descendants'. If
// s.Order were topological, every ancestor of the task being processed
// would be final and every descendant untouched, so each value, computed
// the first time it is read, would stay valid for every later read of it.
// So each task's slots — its own, and one per scenario class of each half
// (see classRows) — are computed once per pass, from its neighbours' slots,
// when first read: own slots by sweeps along d.order (finish needs every
// one of them anyway), class slots by a DFS from the slot read.
//
// s.Order is almost topological: gap insertion can place a task before an
// earlier-selected one on its PE, so a few edges point backward in it, and
// the sweeps run ahead of the reads. stretched repairs what a stretch
// leaves stale and a later read reaches. Starting a pass costs O(1): a
// slot's values count only if its stamp holds the pass's epoch.
type pass struct {
	d      *dagModel
	r      *dpResult // slots [0, n) are the tasks' own; class slots follow
	assign []int     // the tasks' own slots' assignment: nil, or a scenario's
	epoch  uint32
	// upDone and downDone hold, per slot of each half, the epoch its values
	// were computed in; a repair zeroes them.
	upDone, downDone []uint32
	// upBase and downBase hold each task's first class slot in each half,
	// reserved in the epoch upBaseAt and downBaseAt hold.
	upBase, downBase     []int32
	upBaseAt, downBaseAt []uint32
	// upChain, and downChainU and downChainC per class, hold the id of the
	// argmax chain from each slot (see chains), -1 until asked for. Each
	// slot's are reset when its values are computed.
	upChain, downChainU, downChainC []int32
	chains                          chainIDs
	// downHigh is the highest position of d.order whose task may lack its
	// own down slot: every later one has it (see sweepDown).
	downHigh int32
	// upLow is the lowest position of d.order whose task may lack its own
	// up slot: every earlier one has it (see sweepUp).
	upLow int32
	// stale lists tasks whose own down slot stretched left computed but
	// stale, for finish.
	stale []ctg.TaskID
	stack []walkFrame
	queue []ctg.TaskID
	// queueHigh is the longest queue of the pass, for trim.
	queueHigh int
	walk      []int32
}

// chainIDs interns the argmax chains a pass reads as node sequences, so
// that equal chains get equal ids without being walked or compared: id 0
// is the empty chain, and id k > 0 names entry k-1 of ent, a node followed
// by the chain tail names. The entries that start at one node are linked
// from its head.
type chainIDs struct {
	head   []int32  // per task: the id of its newest entry, 0 for none
	headAt []uint32 // per task: the epoch head was set in
	ent    []chainEnt
}

// chainEnt is one interned chain after its first node: its tail's id and
// the id of the previous entry with the same first node.
type chainEnt struct{ tail, next int32 }

// walkFrame is one task on a pass's DFS stack.
type walkFrame struct {
	v    ctg.TaskID
	next int // the next of v's edges to follow
}

// reset starts a pass over d whose task slots, in r, hold the values under
// assign. Nothing computed before counts any more. It allocates only when d
// has another task count than the previous pass.
func (p *pass) reset(d *dagModel, r *dpResult, assign []int) {
	n := len(d.exec)
	p.d, p.r, p.assign = d, r, assign
	if len(p.upBase) != n {
		p.upBase, p.downBase = make([]int32, n), make([]int32, n)
		p.upBaseAt, p.downBaseAt = make([]uint32, n), make([]uint32, n)
		p.upDone, p.downDone = make([]uint32, n), make([]uint32, n)
		p.upChain, p.downChainU, p.downChainC = make([]int32, n), make([]int32, n), make([]int32, n)
		p.chains.head, p.chains.headAt = make([]int32, n), make([]uint32, n)
		p.epoch = 0
	}
	p.upDone, p.downDone = p.upDone[:n], p.downDone[:n]
	p.upChain, p.downChainU, p.downChainC = p.upChain[:n], p.downChainU[:n], p.downChainC[:n]
	p.chains.ent, p.stale, p.queueHigh = p.chains.ent[:0], p.stale[:0], 0
	p.upLow, p.downHigh = 0, int32(n-1)
	r.up, r.ubp = r.up[:n], r.ubp[:n]
	r.downU, r.downC, r.probC = r.downU[:n], r.downC[:n], r.probC[:n]
	r.dbpU, r.dbpC, r.classA = r.dbpU[:n], r.dbpC[:n], r.classA[:n]
	if p.epoch++; p.epoch == 0 {
		// The stamps wrapped: no old one may pass for current.
		for _, s := range [][]uint32{p.upDone, p.downDone, p.upBaseAt, p.downBaseAt, p.chains.headAt} {
			clear(s)
		}
		p.epoch = 1
	}
}

// grow extends s by k elements, reusing its capacity. The new elements hold
// whatever the capacity held; callers overwrite them or use stamps.
func grow[T any](s []T, k int) []T {
	return slices.Grow(s, k)[:len(s)+k]
}

// growSlots is grow for a per-slot array holding n task slots before its
// class slots: a new capacity doubles the class slots alone, so the arrays
// of a pass that reads few class slots stay close to n.
func growSlots[T any](s []T, k, n int) []T {
	if len(s)+k > cap(s) {
		s = append(make([]T, 0, n+2*(len(s)+k-n)), s...)
	}
	return s[:len(s)+k]
}

// trim releases the capacity the pass came nowhere near using, so that a
// workspace keeps no more than a few times what its latest pass used: a
// full pass reads every class slot (about 1 MB at a thousand tasks) and
// interns and repairs along every chain, a warm pass on the same mapping
// touches a few.
func (p *pass) trim() {
	// The arrays of one half hold the same slots.
	n, r := len(p.d.exec), p.r
	k := len(p.upDone) - n
	p.upDone, p.upChain = trimmed(p.upDone, n, k), trimmed(p.upChain, n, k)
	r.up, r.ubp = trimmed(r.up, n, k), trimmed(r.ubp, n, k)
	k = len(p.downDone) - n
	p.downDone = trimmed(p.downDone, n, k)
	p.downChainU, p.downChainC = trimmed(p.downChainU, n, k), trimmed(p.downChainC, n, k)
	r.downU, r.downC, r.probC = trimmed(r.downU, n, k), trimmed(r.downC, n, k), trimmed(r.probC, n, k)
	r.dbpU, r.dbpC, r.classA = trimmed(r.dbpU, n, k), trimmed(r.dbpC, n, k), trimmed(r.classA, n, k)
	p.chains.ent = trimmed(p.chains.ent, 0, len(p.chains.ent))
	p.stale = trimmed(p.stale, 0, len(p.stale))
	p.queue = trimmed(p.queue, 0, p.queueHigh)
}

// trimmed returns s, or a copy of it with room for n+2k elements, as
// growSlots leaves a per-slot array, when its capacity exceeds n+4k: s
// holds n task slots (none for a pass's arenas) and k more that the pass
// used.
func trimmed[T any](s []T, n, k int) []T {
	if cap(s) > n+4*k {
		return append(make([]T, 0, n+2*k), s...)
	}
	return s
}

// upSlot returns v's up slot under scenario si (si < 0: v's own slot),
// reserving v's up class slots the first time the pass reads one.
func (p *pass) upSlot(v ctg.TaskID, si int) int {
	rows := &p.d.up
	if si < 0 || rows.row[v] < 0 {
		return int(v)
	}
	if p.upBaseAt[v] != p.epoch {
		p.reserveUp(v)
	}
	return int(p.upBase[v]) + rows.of(v, si)
}

// reserveUp appends v's up class slots.
func (p *pass) reserveUp(v ctg.TaskID) {
	k, base, n := int(p.d.up.n[v]), len(p.upDone), len(p.d.exec)
	p.upBase[v], p.upBaseAt[v] = int32(base), p.epoch
	p.upDone, p.upChain = growSlots(p.upDone, k, n), growSlots(p.upChain, k, n)
	clear(p.upDone[base:])
	p.r.up, p.r.ubp = growSlots(p.r.up, k, n), growSlots(p.r.ubp, k, n)
}

// downSlot is upSlot for the down half.
func (p *pass) downSlot(v ctg.TaskID, si int) int {
	rows := &p.d.down
	if si < 0 || rows.row[v] < 0 {
		return int(v)
	}
	if p.downBaseAt[v] != p.epoch {
		p.reserveDown(v)
	}
	return int(p.downBase[v]) + rows.of(v, si)
}

// reserveDown appends v's down class slots.
func (p *pass) reserveDown(v ctg.TaskID) {
	k, base, n := int(p.d.down.n[v]), len(p.downDone), len(p.d.exec)
	p.downBase[v], p.downBaseAt[v] = int32(base), p.epoch
	p.downDone = growSlots(p.downDone, k, n)
	p.downChainU, p.downChainC = growSlots(p.downChainU, k, n), growSlots(p.downChainC, k, n)
	clear(p.downDone[base:])
	r := p.r
	r.downU, r.downC, r.probC = growSlots(r.downU, k, n), growSlots(r.downC, k, n), growSlots(r.probC, k, n)
	r.dbpU, r.dbpC, r.classA = growSlots(r.dbpU, k, n), growSlots(r.dbpC, k, n), growSlots(r.classA, k, n)
}

// upSel returns the up slots a DP step under scenario si reads.
func (p *pass) upSel(si int) slotSel { return slotSel{rows: &p.d.up, base: p.upBase, si: si} }

// downSel returns the down slots a DP step under scenario si reads.
func (p *pass) downSel(si int) slotSel { return slotSel{rows: &p.d.down, base: p.downBase, si: si} }

// up returns v's up slot under scenario si (si < 0: v's own slot), first
// computing it and every slot it reads that the pass has not. Own slots
// come from sweepUp; class slots from a DFS over in-edges, each computed
// after its predecessors.
func (p *pass) up(v ctg.TaskID, si int) int {
	d := p.d
	if si < 0 || d.up.row[v] < 0 {
		if p.upDone[v] != p.epoch {
			p.sweepUp(v)
		}
		return int(v)
	}
	sv := p.upSlot(v, si)
	if p.upDone[sv] == p.epoch {
		return sv
	}
	assign, sel := d.s.A.Scenario(si).Assign, p.upSel(si)
	p.stack = append(p.stack[:0], walkFrame{v: v})
	for len(p.stack) > 0 {
		f := &p.stack[len(p.stack)-1]
		if in := d.inE[f.v]; f.next < len(in) {
			for f.next < len(in) {
				ei := in[f.next]
				f.next++
				u := d.edges[ei].From
				if d.up.row[u] < 0 {
					if p.upDone[u] != p.epoch && d.ok(ei, assign) {
						p.sweepUp(u)
					}
					continue
				}
				if p.upDone[p.upSlot(u, si)] != p.epoch && d.ok(ei, assign) {
					p.stack = append(p.stack, walkFrame{v: u})
					break
				}
			}
			continue
		}
		u := f.v
		p.stack = p.stack[:len(p.stack)-1]
		su := sel.of(u)
		d.upAt(p.r, u, su, assign, sel)
		p.upDone[su], p.upChain[su] = p.epoch, -1
	}
	return sv
}

// sweepUp computes the own up slots the pass has not, in order from the
// lowest position of d.order that may lack one (upLow) up to v's. Tasks
// before v that are not its ancestors get theirs too; should a later
// stretch above one change it, stretched drops it.
func (p *pass) sweepUp(v ctg.TaskID) {
	d := p.d
	for q := p.upLow; q <= d.pos[v]; q++ {
		if u := d.order[q]; p.upDone[u] != p.epoch {
			d.upAt(p.r, u, int(u), p.assign, slotSel{})
			p.upDone[u], p.upChain[u] = p.epoch, -1
		}
	}
	p.upLow = d.pos[v] + 1
}

// down returns v's down slot under scenario si (si < 0: v's own slot),
// first computing it and every slot it reads that the pass has not. Own
// slots come from sweepDown; class slots from a DFS over out-edges, each
// computed after its successors.
func (p *pass) down(v ctg.TaskID, si int) int {
	d := p.d
	if si < 0 || d.down.row[v] < 0 {
		if p.downDone[v] != p.epoch {
			p.sweepDown(v)
		}
		return int(v)
	}
	sv := p.downSlot(v, si)
	if p.downDone[sv] == p.epoch {
		return sv
	}
	assign, sel := d.s.A.Scenario(si).Assign, p.downSel(si)
	p.stack = append(p.stack[:0], walkFrame{v: v})
	for len(p.stack) > 0 {
		f := &p.stack[len(p.stack)-1]
		if out := d.outE[f.v]; f.next < len(out) {
			for f.next < len(out) {
				ei := out[f.next]
				f.next++
				w := d.edges[ei].To
				if d.down.row[w] < 0 {
					if p.downDone[w] != p.epoch && d.ok(ei, assign) {
						p.sweepDown(w)
					}
					continue
				}
				if p.downDone[p.downSlot(w, si)] != p.epoch && d.ok(ei, assign) {
					p.stack = append(p.stack, walkFrame{v: w})
					break
				}
			}
			continue
		}
		u := f.v
		p.stack = p.stack[:len(p.stack)-1]
		su := sel.of(u)
		d.downAt(p.r, u, su, assign, sel)
		p.downDone[su], p.downChainU[su], p.downChainC[su] = p.epoch, -1, -1
	}
	return sv
}

// sweepDown computes the own down slots the pass has not, in reverse order
// from the highest position of d.order that may lack one (downHigh) down
// to v's. Every task after v in the order gets its slot, not only v's
// descendants: the closing finish needs them all.
func (p *pass) sweepDown(v ctg.TaskID) {
	d := p.d
	for q := p.downHigh; q >= d.pos[v]; q-- {
		if u := d.order[q]; p.downDone[u] != p.epoch {
			d.downAt(p.r, u, int(u), p.assign, slotSel{})
			p.downDone[u], p.downChainU[u], p.downChainC[u] = p.epoch, -1, -1
		}
	}
	p.downHigh = d.pos[v] - 1
}

// stretched repairs the pass after the execution time of t, the task it
// has just processed, changed.
//
// The up slots of t's descendants read it. The pass has computed few of
// them: those sweepUp passed on its way to a task before them in d.order,
// and those read before t through an edge that points backward in
// s.Order. The walk drops the computed ones and stops at a task with none,
// since a slot is computed only after every slot it reads.
//
// The down slots of t's ancestors read it too, and the pass computed them
// before t. A later read reaches one only from an ancestor processed after
// t, so the walk drops only the ancestors whose late exceeds t's rank.
// Where it stops at a computed own slot, it lists the task for finish: the
// slot and those above it stay stale, but no later read reaches them.
func (p *pass) stretched(t ctg.TaskID) {
	d := p.d
	q := p.queue[:0]
	for _, ei := range d.outE[t] {
		q = append(q, d.edges[ei].To)
	}
	for len(q) > 0 {
		p.queueHigh = max(p.queueHigh, len(q))
		w := q[len(q)-1]
		q = q[:len(q)-1]
		if p.drop(w, p.upDone, p.upBase, p.upBaseAt, &d.up) {
			p.upLow = min(p.upLow, d.pos[w])
			for _, ei := range d.outE[w] {
				q = append(q, d.edges[ei].To)
			}
		}
	}
	rank := d.rank[t]
	for _, ei := range d.inE[t] {
		q = append(q, d.edges[ei].From)
	}
	for len(q) > 0 {
		p.queueHigh = max(p.queueHigh, len(q))
		u := q[len(q)-1]
		q = q[:len(q)-1]
		switch {
		case d.late[u] <= rank:
			if p.downDone[u] == p.epoch {
				p.stale = append(p.stale, u)
			}
		case p.drop(u, p.downDone, p.downBase, p.downBaseAt, &d.down):
			p.downHigh = max(p.downHigh, d.pos[u])
			for _, ei := range d.inE[u] {
				q = append(q, d.edges[ei].From)
			}
		}
	}
	p.queue = q
}

// finish makes the tasks' own slots exact, equal to a fresh runInto under
// the pass's assignment, and returns the decomposition. The up slots the
// pass computed are exact already, since their repair is. The stale down
// slots are those stretched listed and the computed ones above them, which
// read them: finish drops those, then computes every slot the pass has not.
func (p *pass) finish() *dpResult {
	d := p.d
	q := append(p.queue[:0], p.stale...)
	for len(q) > 0 {
		p.queueHigh = max(p.queueHigh, len(q))
		u := q[len(q)-1]
		q = q[:len(q)-1]
		if p.downDone[u] != p.epoch {
			continue
		}
		p.downDone[u], p.downHigh = 0, max(p.downHigh, d.pos[u])
		for _, ei := range d.inE[u] {
			q = append(q, d.edges[ei].From)
		}
	}
	p.queue = q
	if n := len(d.order); n > 0 {
		p.sweepUp(d.order[n-1])
		p.sweepDown(d.order[0])
	}
	return p.r
}

// drop marks every slot of v in one half stale (done, base and at are the
// half's stamps and class bases, rows its classes) and reports whether the
// pass had computed one.
func (p *pass) drop(v ctg.TaskID, done []uint32, base []int32, at []uint32, rows *classRows) bool {
	was := done[v] == p.epoch
	done[v] = 0
	if at[v] == p.epoch {
		for i := base[v]; i < base[v]+rows.n[v]; i++ {
			was = was || done[i] == p.epoch
			done[i] = 0
		}
	}
	return was
}

// intern returns the id of the chain of node v followed by the chain tail
// names.
func (p *pass) intern(v ctg.TaskID, tail int32) int32 {
	c := &p.chains
	if c.headAt[v] != p.epoch {
		c.head[v], c.headAt[v] = 0, p.epoch
	}
	for id := c.head[v]; id != 0; id = c.ent[id-1].next {
		if c.ent[id-1].tail == tail {
			return id
		}
	}
	c.ent = append(c.ent, chainEnt{tail: tail, next: c.head[v]})
	c.head[v] = int32(len(c.ent))
	return c.head[v]
}

// upChainID returns the id of the argmax prefix ending at up slot sv, v's
// under scenario si (si >= 0): its nodes from v's predecessor back to the chain
// start. It walks only as far as the first slot whose id it knows.
func (p *pass) upChainID(sv, si int) int32 {
	sel := p.upSel(si)
	walk, id := p.walk[:0], int32(0)
	for s := sv; ; {
		if known := p.upChain[s]; known >= 0 {
			id = known
			break
		}
		ei := p.r.ubp[s]
		if ei < 0 {
			p.upChain[s] = 0
			break
		}
		walk = append(walk, int32(s))
		s = sel.of(p.d.edges[ei].From)
	}
	for i := len(walk) - 1; i >= 0; i-- {
		s := walk[i]
		id = p.intern(p.d.edges[p.r.ubp[s]].From, id)
		p.upChain[s] = id
	}
	p.walk = walk
	return id
}

// downChainID returns the id of the argmax suffix of the given class below
// down slot sv, v's under scenario si (si >= 0): its nodes from v's successor to the
// chain end. It walks only as far as the first slot whose id it knows.
func (p *pass) downChainID(sv int, class byte, si int) int32 {
	sel := p.downSel(si)
	r := p.r
	// memo returns the id array of a resolved class ('U' or 'C').
	memo := func(class byte) []int32 {
		if class == 'U' {
			return p.downChainU
		}
		return p.downChainC
	}
	walk, id := p.walk[:0], int32(0)
	for s, class := sv, class; ; {
		if class == 'A' {
			class = r.classA[s]
		}
		if known := memo(class)[s]; known >= 0 {
			id = known
			break
		}
		ei, next := r.downStep(p.d, s, class)
		if ei < 0 {
			memo(class)[s] = 0
			break
		}
		// A slot and its resolved class, as 2·slot+(class == 'C').
		key := int32(2 * s)
		if class == 'C' {
			key++
		}
		walk = append(walk, key)
		s, class = sel.of(p.d.edges[ei].To), next
	}
	for i := len(walk) - 1; i >= 0; i-- {
		s, class := int(walk[i]/2), byte('U')
		if walk[i]%2 == 1 {
			class = 'C'
		}
		ei, _ := r.downStep(p.d, s, class)
		id = p.intern(p.d.edges[ei].To, id)
		memo(class)[s] = id
	}
	p.walk = walk
	return id
}

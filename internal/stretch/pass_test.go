package stretch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/tgff"
)

// reachForks computes every task's fork set by a graph search over the real
// and pseudo edges: the forks strictly above it (up), or itself if a fork
// and the forks below it (!up).
func reachForks(s *sched.Schedule, up bool) []forkSet {
	g := s.G
	n := g.NumTasks()
	next := make([][]ctg.TaskID, n)
	for _, e := range append(append([]ctg.Edge(nil), g.Edges()...), s.Pseudo...) {
		if up {
			next[e.To] = append(next[e.To], e.From)
		} else {
			next[e.From] = append(next[e.From], e.To)
		}
	}
	sets := make([]forkSet, n)
	for t := range sets {
		set := make(forkSet, (g.NumForks()+63)/64)
		add := func(v ctg.TaskID) {
			if fi := g.ForkIndex(v); fi >= 0 {
				set[fi/64] |= 1 << (fi % 64)
			}
		}
		if !up {
			add(ctg.TaskID(t))
		}
		seen := make([]bool, n)
		stack := []ctg.TaskID{ctg.TaskID(t)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range next[v] {
				if !seen[u] {
					seen[u] = true
					add(u)
					stack = append(stack, u)
				}
			}
		}
		sets[t] = set
	}
	return sets
}

// ancestorKey renders a scenario assignment restricted to the given fork
// set.
func ancestorKey(assign []int, forks forkSet) string {
	var sb strings.Builder
	forks.forEach(func(fi int) {
		sb.WriteString(strconv.Itoa(fi))
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(assign[fi]))
		sb.WriteByte(';')
	})
	return sb.String()
}

// sameBitsTest reports whether a and b are the same float64, bit for bit.
func sameBitsTest(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// backwardEdges counts the real and pseudo edges whose head comes before
// their tail in s.Order.
func backwardEdges(d *dagModel) int {
	back := 0
	for _, e := range d.edges {
		if d.rank[e.To] < d.rank[e.From] {
			back++
		}
	}
	return back
}

// checkReads compares every slot a pass can read at v under scenario si
// (si < 0: the tasks' own slots, under own) with a fresh runInto on the
// same state: the up slots of v and of the ancestors it reaches over the
// edges the assignment admits, and the down slots of v and of the
// descendants it reaches. It returns "" or the first difference.
func checkReads(p *pass, v ctg.TaskID, si int, own []int, fresh *dpResult) string {
	d := p.d
	assign := own
	if si >= 0 {
		assign = d.s.A.Scenario(si).Assign
	}
	p.up(v, si)
	p.down(v, si)
	d.runInto(fresh, assign)
	r := p.r
	seen := make([]bool, len(d.exec))
	stack := []ctg.TaskID{v}
	seen[v] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		su := p.upSlot(u, si)
		switch {
		case p.upDone[su] != p.epoch:
			return fmt.Sprintf("up slot of task %d not computed", u)
		case !sameBitsTest(r.up[su], fresh.up[u]) || r.ubp[su] != fresh.ubp[u]:
			return fmt.Sprintf("task %d: up %v/%d, runInto %v/%d", u, r.up[su], r.ubp[su], fresh.up[u], fresh.ubp[u])
		}
		for _, ei := range d.inE[u] {
			if w := d.edges[ei].From; d.ok(ei, assign) && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	clear(seen)
	stack = append(stack, v)
	seen[v] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		su := p.downSlot(u, si)
		switch {
		case p.downDone[su] != p.epoch:
			return fmt.Sprintf("down slot of task %d not computed", u)
		case !sameBitsTest(r.downU[su], fresh.downU[u]) || !sameBitsTest(r.downC[su], fresh.downC[u]) ||
			!sameBitsTest(r.probC[su], fresh.probC[u]) || r.dbpU[su] != fresh.dbpU[u] ||
			r.dbpC[su] != fresh.dbpC[u] || r.classA[su] != fresh.classA[u]:
			return fmt.Sprintf("task %d: down %v/%v/%v/%d/%d/%c, runInto %v/%v/%v/%d/%d/%c", u,
				r.downU[su], r.downC[su], r.probC[su], r.dbpU[su], r.dbpC[su], r.classA[su],
				fresh.downU[u], fresh.downC[u], fresh.probC[u], fresh.dbpU[u], fresh.dbpC[u], fresh.classA[u])
		}
		for _, ei := range d.outE[u] {
			if w := d.edges[ei].To; d.ok(ei, assign) && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return ""
}

// chainNames checks a pass's interned chain ids against the chains they
// name: within one pass, equal ids must name equal node sequences, and
// equal sequences must get equal ids.
type chainNames struct {
	seq map[int32]string
	id  map[string]int32
}

func newChainNames() *chainNames {
	return &chainNames{seq: map[int32]string{}, id: map[string]int32{}}
}

// check records that id names the chain of nodes and reports a clash.
func (c *chainNames) check(id int32, nodes []ctg.TaskID) string {
	key := fmt.Sprint(nodes)
	if prev, ok := c.seq[id]; ok && prev != key {
		return fmt.Sprintf("chain id %d names both %s and %s", id, prev, key)
	}
	if prev, ok := c.id[key]; ok && prev != id {
		return fmt.Sprintf("chain %s has ids %d and %d", key, prev, id)
	}
	c.seq[id], c.id[key] = key, id
	return ""
}

// checkChains checks the ids of the argmax prefix ending at v and of the
// C-class suffix below it, under scenario si, as calculateSlack reads them.
func checkChains(p *pass, v ctg.TaskID, si int, names *chainNames) string {
	d, r := p.d, p.r
	var nodes []ctg.TaskID
	su, sel := p.up(v, si), p.upSel(si)
	for ei := r.ubp[su]; ei >= 0; ei = r.ubp[sel.of(d.edges[ei].From)] {
		nodes = append(nodes, d.edges[ei].From)
	}
	if diff := names.check(p.upChainID(su, si), nodes); diff != "" {
		return "prefix: " + diff
	}
	sd := p.down(v, si)
	if r.downC[sd] == negInf {
		return ""
	}
	nodes, sel = nodes[:0], p.downSel(si)
	for s, class := sd, byte('C'); ; {
		ei, next := r.downStep(d, s, class)
		if ei < 0 {
			break
		}
		nodes = append(nodes, d.edges[ei].To)
		s, class = sel.of(d.edges[ei].To), next
	}
	if diff := names.check(p.downChainID(sd, 'C', si), nodes); diff != "" {
		return "suffix: " + diff
	}
	return ""
}

// TestPassReadsMatchRunInto is the pass's property. It runs passes the way
// the stretchers do — tasks processed in s.Order, all of them or a random
// subset (a masked pass), each changing its own execution time after it is
// read, then stretched — and at every processed task checks every value a
// pass can read there against a fresh runInto on the same state: the
// tasks' own slots, unrestricted and under each scenario's assignment (as
// PerScenario runs them), and, in the unrestricted passes, the class slots
// of every minterm of Γ(τ) with the interned ids of their chains (equal ids
// must name equal node sequences within the pass, and equal sequences
// equal ids). The changes include zeroing (inactive in a
// scenario's view) and small integers (chains tie, and argmaxes move
// without their values). The Flat graphs' schedules have edges that point
// backward in s.Order, so the repairs are exercised; the test counts them
// first. One pass object serves every pass of a graph, so values left from
// an earlier pass would show. It also pins the model's fork sets to a
// graph search.
func TestPassReadsMatchRunInto(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 8
	}
	backward := 0
	for _, cat := range []tgff.Category{tgff.ForkJoin, tgff.Flat} {
		for seed := int64(0); seed < seeds; seed++ {
			s := oracleWorkload(t, seed, cat, 1.6)
			dag := newDAG(s)
			dag.classes()
			n := len(dag.exec)
			backward += backwardEdges(dag)
			above, below := reachForks(s, true), reachForks(s, false)
			for v := 0; v < n; v++ {
				if !slices.Equal(above[v], dag.forksAbove(ctg.TaskID(v))) ||
					!slices.Equal(below[v], dag.forksBelow(ctg.TaskID(v))) {
					t.Fatalf("category %d seed %d task %d: fork sets %v/%v, want %v/%v", cat, seed, v,
						dag.forksAbove(ctg.TaskID(v)), dag.forksBelow(ctg.TaskID(v)), above[v], below[v])
				}
			}
			assigns := [][]int{nil}
			for si := 0; si < s.A.NumScenarios(); si++ {
				assigns = append(assigns, s.A.Scenario(si).Assign)
			}
			rng := rand.New(rand.NewSource(seed))
			fresh := newDPResult(n)
			var p pass
			r := newDPResult(n)
			for ai, own := range assigns {
				for _, masked := range []bool{false, true} {
					p.reset(dag, r, own)
					names := newChainNames()
					for _, v := range s.Order {
						if masked && rng.Intn(2) == 0 {
							continue
						}
						// The tasks' own slots, then, in an unrestricted
						// pass, the class slots of every minterm of Γ(τ).
						reads := []int{-1}
						if own == nil {
							reads = append(reads, s.A.ActivationSet(v).Slice()...)
						}
						for _, si := range reads {
							diff := checkReads(&p, v, si, own, fresh)
							if diff == "" && si >= 0 {
								diff = checkChains(&p, v, si, names)
							}
							if diff != "" {
								t.Fatalf("category %d seed %d assignment %d masked %v task %d scenario %d: %s",
									cat, seed, ai, masked, v, si, diff)
							}
						}
						old := dag.exec[v]
						switch rng.Intn(5) {
						case 0: // a stretch
							dag.exec[v] *= 1 + rng.Float64()
						case 1: // back towards full speed
							dag.exec[v] *= 0.5 + 0.5*rng.Float64()
						case 2: // inactive in a scenario's view
							dag.exec[v] = 0
						case 3: // small integers: chains tie
							dag.exec[v] = float64(rng.Intn(3))
						case 4: // no change at all
						}
						if dag.exec[v] != old {
							p.stretched(v)
						}
					}
					// finish must leave every task's own slots equal to a
					// fresh runInto.
					got, want := p.finish(), dag.runInto(fresh, own)
					for v := range dag.exec {
						if got.up[v] != want.up[v] || got.ubp[v] != want.ubp[v] ||
							!sameBitsTest(got.downU[v], want.downU[v]) || !sameBitsTest(got.downC[v], want.downC[v]) ||
							!sameBitsTest(got.probC[v], want.probC[v]) || got.dbpU[v] != want.dbpU[v] ||
							got.dbpC[v] != want.dbpC[v] || got.classA[v] != want.classA[v] {
							t.Fatalf("category %d seed %d assignment %d masked %v: finish differs from runInto at task %d",
								cat, seed, ai, masked, v)
						}
					}
				}
			}
		}
	}
	if backward == 0 {
		t.Fatal("no schedule has an edge pointing backward in s.Order; the repairs went unexercised")
	}
	t.Logf("%d backward edges", backward)
}

// TestPassEpochWrapClearsStamps checks the one reset that is not O(1): when
// the epoch counter wraps, every stamp is cleared, so no slot of an old
// pass passes for computed in the new one.
func TestPassEpochWrapClearsStamps(t *testing.T) {
	s := oracleWorkload(t, 3, tgff.ForkJoin, 1.6)
	dag := newDAG(s)
	dag.classes()
	var p pass
	p.reset(dag, newDPResult(len(dag.exec)), nil)
	v := s.Order[len(s.Order)-1]
	p.up(v, -1)
	p.down(s.Order[0], -1)
	// Stamps from the epoch the wrapped counter comes back to.
	p.epoch = math.MaxUint32
	for _, stamps := range [][]uint32{p.upDone, p.downDone, p.upBaseAt, p.downBaseAt, p.chains.headAt} {
		for i := range stamps {
			stamps[i] = 1
		}
	}
	p.reset(dag, p.r, nil)
	if p.epoch != 1 {
		t.Fatalf("epoch %d after the wrap, want 1", p.epoch)
	}
	for i := range p.upDone {
		if p.upDone[i] == p.epoch || p.downDone[i] == p.epoch {
			t.Fatalf("task %d reads as computed right after the wrap", i)
		}
	}
	if diff := checkReads(&p, v, -1, nil, newDPResult(len(dag.exec))); diff != "" {
		t.Fatal(diff)
	}
}

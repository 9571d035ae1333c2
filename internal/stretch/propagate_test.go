package stretch

import (
	"fmt"
	"math/rand"
	"slices"
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

// sameDecomposition reports the first slot where got differs from want,
// bit for bit, or "" if none does.
func sameDecomposition(want, got *dpResult) string {
	for v := range want.up {
		switch {
		case !sameBits(want.up[v], got.up[v]):
			return fmt.Sprintf("up[%d] %v != %v", v, want.up[v], got.up[v])
		case want.ubp[v] != got.ubp[v]:
			return fmt.Sprintf("ubp[%d] %d != %d", v, want.ubp[v], got.ubp[v])
		case !sameBits(want.downU[v], got.downU[v]):
			return fmt.Sprintf("downU[%d] %v != %v", v, want.downU[v], got.downU[v])
		case !sameBits(want.downC[v], got.downC[v]):
			return fmt.Sprintf("downC[%d] %v != %v", v, want.downC[v], got.downC[v])
		case !sameBits(want.probC[v], got.probC[v]):
			return fmt.Sprintf("probC[%d] %v != %v", v, want.probC[v], got.probC[v])
		case want.dbpU[v] != got.dbpU[v]:
			return fmt.Sprintf("dbpU[%d] %d != %d", v, want.dbpU[v], got.dbpU[v])
		case want.dbpC[v] != got.dbpC[v]:
			return fmt.Sprintf("dbpC[%d] %d != %d", v, want.dbpC[v], got.dbpC[v])
		case want.classA[v] != got.classA[v]:
			return fmt.Sprintf("classA[%d] %c != %c", v, want.classA[v], got.classA[v])
		}
	}
	return ""
}

// TestPropagateMatchesRunInto is the repair's property: after any sequence
// of execution-time changes on random tasks, each followed by propagate,
// every slot of the carried decomposition equals a fresh runInto bit for
// bit, unrestricted and under every scenario's assignment, and the dirty
// flags are clear again. It also pins the model's fork sets to a graph
// search.
func TestPropagateMatchesRunInto(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 8
	}
	for _, cat := range []tgff.Category{tgff.ForkJoin, tgff.Flat} {
		for seed := int64(0); seed < seeds; seed++ {
			s := oracleWorkload(t, seed, cat, 1.6)
			dag := newDAG(s)
			n := len(dag.exec)
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
			dirty := make([]bool, n)
			fresh := newDPResult(n)
			for ai, assign := range assigns {
				r := dag.run(assign)
				for step := 0; step < 2*n; step++ {
					v := ctg.TaskID(rng.Intn(n))
					switch rng.Intn(5) {
					case 0: // a stretch
						dag.exec[v] *= 1 + rng.Float64()
					case 1: // back towards full speed
						dag.exec[v] *= 0.5 + 0.5*rng.Float64()
					case 2: // inactive in a scenario's view
						dag.exec[v] = 0
					case 3: // small integers: chains tie, and argmaxes move without their values
						dag.exec[v] = float64(rng.Intn(3))
					case 4: // no change at all
					}
					dag.propagate(r, v, assign, dirty)
					if slices.Contains(dirty, true) {
						t.Fatalf("category %d seed %d assignment %d step %d: dirty flags left set", cat, seed, ai, step)
					}
					if diff := sameDecomposition(dag.runInto(fresh, assign), r); diff != "" {
						t.Fatalf("category %d seed %d assignment %d step %d (task %d): %s (runInto != propagate)",
							cat, seed, ai, step, v, diff)
					}
				}
			}
		}
	}
}

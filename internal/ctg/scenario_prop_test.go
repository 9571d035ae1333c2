package ctg

import (
	"math"
	"math/rand"
	"testing"
)

// randomCTG builds a small random conditional task graph: a layered DAG
// where some nodes become forks with two outcomes. It mirrors the structure
// the tgff package generates, kept local so ctg has no test dependencies.
func randomCTG(t *testing.T, rng *rand.Rand, n, forks int) *Graph {
	t.Helper()
	b := NewBuilder()
	ids := make([]TaskID, n)
	for i := range ids {
		ids[i] = b.AddTask("", AndNode)
	}
	forkSet := map[int]bool{}
	for len(forkSet) < forks {
		// Forks need at least two successors, so keep them away from the
		// last two positions.
		c := 1 + rng.Intn(n-3)
		forkSet[c] = true
	}
	for i := 1; i < n; i++ {
		// Ensure connectivity: every node gets at least one predecessor.
		p := rng.Intn(i)
		if forkSet[p] {
			b.AddCondEdge(ids[p], ids[i], rng.Float64(), rng.Intn(2))
		} else {
			b.AddEdge(ids[p], ids[i], rng.Float64())
		}
	}
	// Guarantee every fork uses both outcomes by adding explicit edges.
	for p := range forkSet {
		targets := rng.Perm(n - p - 1)
		if len(targets) < 2 {
			continue
		}
		b.AddCondEdge(ids[p], ids[p+1+targets[0]], rng.Float64(), 0)
		b.AddCondEdge(ids[p], ids[p+1+targets[1]], rng.Float64(), 1)
		pr := 0.1 + 0.8*rng.Float64()
		b.SetBranchProbs(ids[p], []float64{pr, 1 - pr})
	}
	g, err := b.Build(1000)
	if err != nil {
		t.Fatalf("randomCTG: %v", err)
	}
	return g
}

func TestScenarioInvariantsOnRandomCTGs(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		forks := 1 + rng.Intn(3)
		g := randomCTG(t, rng, n, forks)
		a, err := Analyze(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(a.TotalProb()-1) > 1e-9 {
			t.Fatalf("seed %d: scenario probs sum to %v", seed, a.TotalProb())
		}
		// Mutual exclusion: irreflexive, symmetric, and equivalent to
		// disjoint activation sets.
		for i := 0; i < g.NumTasks(); i++ {
			for j := 0; j < g.NumTasks(); j++ {
				me := a.MutuallyExclusive(TaskID(i), TaskID(j))
				if i == j && me {
					t.Fatalf("seed %d: task %d ME with itself", seed, i)
				}
				if me != a.MutuallyExclusive(TaskID(j), TaskID(i)) {
					t.Fatalf("seed %d: ME not symmetric for %d,%d", seed, i, j)
				}
				if i != j {
					disjoint := !a.ActivationSet(TaskID(i)).Intersects(a.ActivationSet(TaskID(j)))
					if me != disjoint {
						t.Fatalf("seed %d: ME(%d,%d)=%v but disjoint=%v", seed, i, j, me, disjoint)
					}
				}
			}
		}
		// Sources are active everywhere.
		for _, s := range g.Sources() {
			if a.ActivationProb(s) != 1 {
				t.Fatalf("seed %d: source %d has activation prob %v", seed, s, a.ActivationProb(s))
			}
		}
		// Activation probabilities lie in [0,1] and every task active in a
		// scenario has all its activation requirements: spot-check that a
		// task active in scenario s has at least one satisfied incoming
		// edge (and-nodes: all).
		for si := 0; si < a.NumScenarios(); si++ {
			sc := a.Scenario(si)
			sc.Active.ForEach(func(ti int) {
				if len(g.Pred(TaskID(ti))) == 0 {
					return
				}
				sat := 0
				for _, ei := range g.Pred(TaskID(ti)) {
					e := g.Edge(ei)
					if !sc.Active.Get(int(e.From)) {
						continue
					}
					if !e.Cond.IsConditional() {
						sat++
						continue
					}
					if sc.Assign[g.ForkIndex(e.Cond.Branch())] == e.Cond.Outcome() {
						sat++
					}
				}
				if g.Task(TaskID(ti)).Kind == AndNode && sat != len(g.Pred(TaskID(ti))) {
					t.Fatalf("seed %d scenario %d: and-node %d active with %d/%d satisfied edges",
						seed, si, ti, sat, len(g.Pred(TaskID(ti))))
				}
				if sat == 0 {
					t.Fatalf("seed %d scenario %d: node %d active with no satisfied edge", seed, si, ti)
				}
			})
		}
	}
}

func TestDecisionResolutionMatchesActivation(t *testing.T) {
	// For every full decision vector, the resolved scenario's active set
	// must equal the activation computed with the full assignment.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := randomCTG(t, rng, 12, 2)
		a, err := Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		nf := g.NumForks()
		total := 1
		for fi := 0; fi < nf; fi++ {
			total *= g.Outcomes(g.Forks()[fi])
		}
		for code := 0; code < total; code++ {
			dec := make([]int, nf)
			c := code
			for fi := 0; fi < nf; fi++ {
				k := g.Outcomes(g.Forks()[fi])
				dec[fi] = c % k
				c /= k
			}
			si, err := a.ScenarioForDecisions(dec)
			if err != nil {
				t.Fatalf("seed %d dec %v: %v", seed, dec, err)
			}
			full := make([]int, nf)
			copy(full, dec)
			active, need := g.activate(full)
			if need != NoBranch {
				t.Fatalf("seed %d: full assignment still needs fork %d", seed, need)
			}
			want := a.Scenario(si).Active
			if !active.ContainsAll(want) || !want.ContainsAll(active) {
				t.Fatalf("seed %d dec %v: active set mismatch\n got %v\nwant %v",
					seed, dec, a.Scenario(si).Active, active)
			}
		}
	}
}

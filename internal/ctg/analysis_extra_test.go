package ctg

import (
	"math"
	"strings"
	"testing"
)

func TestWithDeadline(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	g2, err := g.WithDeadline(55)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Deadline() != 55 || g.Deadline() != 100 {
		t.Fatalf("deadlines %v/%v, want 55/100", g2.Deadline(), g.Deadline())
	}
	// Structure is shared semantics: same tasks/edges.
	if g2.NumTasks() != g.NumTasks() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("WithDeadline changed structure")
	}
	if _, err := g.WithDeadline(0); err == nil {
		t.Fatal("want error for non-positive deadline")
	}
	if _, err := g.WithDeadline(-3); err == nil {
		t.Fatal("want error for negative deadline")
	}
}

func TestProbOfSet(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	full := NewBitset(a.NumScenarios())
	for i := 0; i < a.NumScenarios(); i++ {
		full.Set(i)
	}
	if got := a.ProbOfSet(full); got != 1 {
		t.Fatalf("ProbOfSet(full) = %v, want exactly 1", got)
	}
	empty := NewBitset(a.NumScenarios())
	if got := a.ProbOfSet(empty); got != 0 {
		t.Fatalf("ProbOfSet(empty) = %v", got)
	}
	// Single scenario set equals the scenario's probability.
	one := NewBitset(a.NumScenarios())
	one.Set(0)
	if got := a.ProbOfSet(one); math.Abs(got-a.Scenario(0).Prob) > 1e-12 {
		t.Fatalf("ProbOfSet(one) = %v, want %v", got, a.Scenario(0).Prob)
	}
}

func TestScenarioWeightHelpers(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	unit := func(TaskID) float64 { return 1 }
	// ScenarioWeight with unit weights counts active tasks.
	for i := 0; i < a.NumScenarios(); i++ {
		if got := a.ScenarioWeight(i, unit); got != float64(a.Scenario(i).Active.Count()) {
			t.Fatalf("scenario %d weight %v != active count", i, got)
		}
	}
	// Min/max scenarios with a weight that loads τ7 (task 6): the max
	// must be a scenario where τ7 is active.
	heavy := func(id TaskID) float64 {
		if id == 6 {
			return 100
		}
		return 1
	}
	_, maxIdx := a.MinMaxWeightScenarios(heavy)
	if !a.Scenario(maxIdx).Active.Get(6) {
		t.Fatal("max-weight scenario does not activate the heavy task")
	}
}

func TestAnalyzeScenarioExplosionGuarded(t *testing.T) {
	// 17 independent two-way forks → 2^17 scenarios > MaxScenarios.
	b := NewBuilder()
	src := b.AddTask("", AndNode)
	for i := 0; i < 17; i++ {
		f := b.AddTask("", AndNode)
		x := b.AddTask("", AndNode)
		y := b.AddTask("", AndNode)
		b.AddEdge(src, f, 0)
		b.AddCondEdge(f, x, 0, 0)
		b.AddCondEdge(f, y, 0, 1)
	}
	g, err := b.Build(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(g); err == nil {
		t.Fatal("want scenario-explosion error")
	} else if !strings.Contains(err.Error(), "scenarios") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestScenarioLabelsAndString(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < a.NumScenarios(); i++ {
		lbl := a.ScenarioLabel(i)
		if lbl == "" || seen[lbl] {
			t.Fatalf("label %q empty or duplicated", lbl)
		}
		seen[lbl] = true
	}
	if s := g.String(); !strings.Contains(s, "8 tasks") || !strings.Contains(s, "2 forks") {
		t.Fatalf("Graph.String = %q", s)
	}
}

func TestSinksAndSources(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	snk := g.Sinks()
	// Sinks: τ6, τ7, τ8 (IDs 5, 6, 7).
	if len(snk) != 3 || snk[0] != 5 || snk[1] != 6 || snk[2] != 7 {
		t.Fatalf("Sinks = %v", snk)
	}
	if got := sortedTaskIDs([]TaskID{3, 1, 2}); got[0] != 1 || got[2] != 3 {
		t.Fatalf("sortedTaskIDs = %v", got)
	}
}

func TestActivationExpr(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	// τ1 is always active.
	if got := a.ActivationExpr(0); got != "1" {
		t.Fatalf("ActivationExpr(tau1) = %q, want 1", got)
	}
	// τ4 is the a1 leaf only.
	if got := a.ActivationExpr(3); got != "b2=0" {
		t.Fatalf("ActivationExpr(tau4) = %q", got)
	}
	// τ5 covers both a2 leaves.
	if got := a.ActivationExpr(4); got != "b2=1·b4=0 + b2=1·b4=1" {
		t.Fatalf("ActivationExpr(tau5) = %q", got)
	}
}

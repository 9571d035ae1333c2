package ctg

import (
	"math"
	"testing"
)

// paperFigure1 builds the CTG of Example 1 / Figure 1 of the paper:
//
//	τ1 → τ2, τ1 → τ3
//	τ3 is fork a: a1 → τ4, a2 → τ5
//	τ5 is fork b: b1 → τ6, b2 → τ7
//	τ8 is an or-node with predecessors τ2 and τ4
//
// IDs here are zero-based: paper τk = TaskID k-1.
func paperFigure1(t *testing.T, probA, probB []float64) *Graph {
	t.Helper()
	b := NewBuilder()
	t1 := b.AddTask("tau1", AndNode)
	t2 := b.AddTask("tau2", AndNode)
	t3 := b.AddTask("tau3", AndNode)
	t4 := b.AddTask("tau4", AndNode)
	t5 := b.AddTask("tau5", AndNode)
	t6 := b.AddTask("tau6", AndNode)
	t7 := b.AddTask("tau7", AndNode)
	t8 := b.AddTask("tau8", OrNode)
	b.AddEdge(t1, t2, 1)
	b.AddEdge(t1, t3, 1)
	b.AddCondEdge(t3, t4, 1, 0) // a1
	b.AddCondEdge(t3, t5, 1, 1) // a2
	b.AddCondEdge(t5, t6, 1, 0) // b1
	b.AddCondEdge(t5, t7, 1, 1) // b2
	b.AddEdge(t2, t8, 1)
	b.AddEdge(t4, t8, 1)
	b.SetBranchProbs(t3, probA)
	b.SetBranchProbs(t5, probB)
	g, err := b.Build(100)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestPaperExampleStructure(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	if g.NumTasks() != 8 || g.NumEdges() != 8 {
		t.Fatalf("got %d tasks %d edges", g.NumTasks(), g.NumEdges())
	}
	if got := g.Forks(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("Forks = %v, want [2 4]", got)
	}
	if !g.IsFork(2) || g.IsFork(0) {
		t.Fatal("fork detection wrong")
	}
	if g.Outcomes(2) != 2 || g.Outcomes(4) != 2 {
		t.Fatal("outcome counts wrong")
	}
	if p := g.BranchProb(2, 1); p != 0.6 {
		t.Fatalf("BranchProb(a2) = %v", p)
	}
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Sources = %v", got)
	}
}

func TestPaperExampleScenarios(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Leaf minterms: a1, a2·b1, a2·b2 (the paper's M minus the symbolic "1").
	if a.NumScenarios() != 3 {
		t.Fatalf("NumScenarios = %d, want 3", a.NumScenarios())
	}
	if math.Abs(a.TotalProb()-1) > 1e-12 {
		t.Fatalf("TotalProb = %v", a.TotalProb())
	}
	wantProbs := map[string]float64{
		"b2=0":      0.4,
		"b2=1·b4=0": 0.3,
		"b2=1·b4=1": 0.3,
	}
	for i := 0; i < a.NumScenarios(); i++ {
		label := a.ScenarioLabel(i)
		want, ok := wantProbs[label]
		if !ok {
			t.Fatalf("unexpected scenario %q", label)
		}
		if math.Abs(a.Scenario(i).Prob-want) > 1e-12 {
			t.Fatalf("scenario %q prob = %v, want %v", label, a.Scenario(i).Prob, want)
		}
		delete(wantProbs, label)
	}

	// Activation probabilities from the paper's Γ sets.
	wantAct := []float64{1, 1, 1, 0.4, 0.6, 0.3, 0.3, 1}
	for tid, want := range wantAct {
		if got := a.ActivationProb(TaskID(tid)); math.Abs(got-want) > 1e-12 {
			t.Errorf("ActivationProb(tau%d) = %v, want %v", tid+1, got, want)
		}
	}
}

func TestPaperExampleMutualExclusion(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	me := func(i, j TaskID) bool { return a.MutuallyExclusive(i, j) }
	// τ4 (a1) excludes τ5, τ6, τ7 (all under a2).
	for _, other := range []TaskID{4, 5, 6} {
		if !me(3, other) {
			t.Errorf("tau4 and tau%d should be mutually exclusive", other+1)
		}
	}
	// τ6 (a2b1) excludes τ7 (a2b2) but not τ5 (a2).
	if !me(5, 6) {
		t.Error("tau6 and tau7 should be mutually exclusive")
	}
	if me(4, 5) {
		t.Error("tau5 and tau6 are not mutually exclusive")
	}
	// Always-active tasks exclude nothing.
	for other := TaskID(1); other < 8; other++ {
		if me(0, other) {
			t.Errorf("tau1 excludes tau%d", other+1)
		}
	}
	if me(3, 3) {
		t.Error("a task is never mutually exclusive with itself")
	}
}

func TestPaperExampleOrNodeActivation(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	// τ8 is an or-node fed unconditionally by τ2, so it is active in every
	// scenario even when τ4 is not.
	if got := a.ActivationProb(7); got != 1 {
		t.Fatalf("ActivationProb(tau8) = %v, want 1", got)
	}
	for i := 0; i < a.NumScenarios(); i++ {
		if !a.Scenario(i).Active.Get(7) {
			t.Fatalf("tau8 inactive in scenario %s", a.ScenarioLabel(i))
		}
	}
}

func TestPaperExampleDecisions(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	// Decision vector (a=a1, b=b2): fork b is never activated, so the
	// resolved scenario must be the a1 leaf.
	si, err := a.ScenarioForDecisions([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if lbl := a.ScenarioLabel(si); lbl != "b2=0" {
		t.Fatalf("resolved %q, want a1 leaf", lbl)
	}
	// (a=a2, b=b1) resolves to the a2·b1 leaf.
	si, err = a.ScenarioForDecisions([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if lbl := a.ScenarioLabel(si); lbl != "b2=1·b4=0" {
		t.Fatalf("resolved %q, want a2b1 leaf", lbl)
	}
	if _, err := a.ScenarioForDecisions([]int{0}); err == nil {
		t.Fatal("short decision vector must error")
	}
	if _, err := a.ScenarioForDecisions([]int{0, 5}); err == nil {
		t.Fatal("out-of-range decision must error")
	}
}

func TestReweightTracksProbChanges(t *testing.T) {
	g := paperFigure1(t, []float64{0.4, 0.6}, []float64{0.5, 0.5})
	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetBranchProbs(2, []float64{0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	a.Reweight()
	if got := a.ActivationProb(3); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("after reweight ActivationProb(tau4) = %v, want 0.9", got)
	}
	if math.Abs(a.TotalProb()-1) > 1e-12 {
		t.Fatalf("TotalProb = %v", a.TotalProb())
	}
}

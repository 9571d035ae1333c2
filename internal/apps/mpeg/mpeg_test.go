package mpeg

import (
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/trace"
)

func TestBuildMatchesPaperCounts(t *testing.T) {
	g, p, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 40 {
		t.Fatalf("tasks = %d, want 40 (paper: 40 tasks)", g.NumTasks())
	}
	if g.NumForks() != 9 {
		t.Fatalf("forks = %d, want 9 (paper: 9 branching nodes)", g.NumForks())
	}
	if p.NumPEs() != 3 {
		t.Fatalf("PEs = %d, want 3", p.NumPEs())
	}
	if p.NumTasks() != 40 {
		t.Fatalf("platform tasks = %d", p.NumTasks())
	}
}

func TestScenarioStructure(t *testing.T) {
	g, _, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	// skipped (1) + intra (1) + predicted · (2 MC modes × 2^6 CBP) = 130.
	if a.NumScenarios() != 130 {
		t.Fatalf("scenarios = %d, want 130", a.NumScenarios())
	}
	// The assemble/color/store tail always runs.
	for _, task := range []ctg.TaskID{TaskParseHeader, TaskVLD, TaskSkipCheck, TaskAssemble, TaskColorConv, TaskStore} {
		if got := a.ActivationProb(task); got != 1 {
			t.Fatalf("task %d activation prob %v, want 1", task, got)
		}
	}
	// SkipCopy and TypeCheck are mutually exclusive (different arms of a).
	if !a.MutuallyExclusive(TaskSkipCopy, TaskTypeCheck) {
		t.Fatal("SkipCopy and TypeCheck must be mutually exclusive")
	}
	// Intra IDCT excludes motion compensation.
	if !a.MutuallyExclusive(TaskIDCTIntra, TaskMCHalf) {
		t.Fatal("IDCTIntra and MCHalf must be mutually exclusive")
	}
	// Per-block IDCTs are independent, not exclusive.
	if a.MutuallyExclusive(BlockTask(0, 1), BlockTask(1, 1)) {
		t.Fatal("block IDCTs of different blocks are not mutually exclusive")
	}
}

func TestIFrameCertainty(t *testing.T) {
	// For an I-frame macroblock, a1 and b1 are certain: with those probs
	// pinned, the intra path must be always-active.
	g, _, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetBranchProbs(TaskSkipCheck, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetBranchProbs(TaskTypeCheck, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.ActivationProb(TaskIDCTIntra); got != 1 {
		t.Fatalf("IDCTIntra activation prob %v under I-frame certainty", got)
	}
	if got := a.ActivationProb(TaskDecodeMV); got != 0 {
		t.Fatalf("DecodeMV activation prob %v under I-frame certainty", got)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	g, p, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err = core.TightenDeadline(g, p, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.BuildOnline(g, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sim.Exhaustive(s, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Misses > 0 {
		t.Fatalf("%d scenario deadline misses, worst makespan %v vs deadline %v",
			sum.Misses, sum.WorstMakespan, g.Deadline())
	}
	if !(sum.ExpectedEnergy > 0) {
		t.Fatal("expected energy must be positive")
	}
	// Stretching must save energy relative to full speed.
	full := 0.0
	for task := 0; task < g.NumTasks(); task++ {
		full += s.A.ActivationProb(ctg.TaskID(task)) * s.NominalEnergy(ctg.TaskID(task))
	}
	if !(sum.ExpectedEnergy < full) {
		t.Fatalf("no energy saved: %v >= %v", sum.ExpectedEnergy, full)
	}
}

func TestAdaptiveRunOnMovieTrace(t *testing.T) {
	g, p, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err = core.TightenDeadline(g, p, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	m := trace.MovieClips()[0]
	vec := m.Generate(g, 300)
	mgr, err := core.New(g, p, core.Options{Window: 20, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances != 300 {
		t.Fatalf("instances = %d", st.Instances)
	}
	if st.Misses != 0 {
		t.Fatalf("%d deadline misses on movie trace", st.Misses)
	}
	if st.Calls == 0 {
		t.Fatal("adaptive manager never adapted on a drifting movie trace")
	}
}

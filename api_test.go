package ctgdvfs_test

import (
	"testing"

	"ctgdvfs"
)

// TestFacadeEndToEnd drives the whole public API surface the way the doc.go
// example sketches it: build a CTG and platform, plan, inspect, replay, and
// run the adaptive loop.
func TestFacadeEndToEnd(t *testing.T) {
	b := ctgdvfs.NewGraph()
	fork := b.AddTask("decide", ctgdvfs.AndNode)
	fast := b.AddTask("fast", ctgdvfs.AndNode)
	slow := b.AddTask("slow", ctgdvfs.AndNode)
	join := b.AddTask("join", ctgdvfs.OrNode)
	b.AddCondEdge(fork, fast, 1, 0)
	b.AddCondEdge(fork, slow, 1, 1)
	b.AddEdge(fast, join, 1)
	b.AddEdge(slow, join, 1)
	b.SetBranchProbs(fork, []float64{0.8, 0.2})
	g, err := b.Build(120)
	if err != nil {
		t.Fatal(err)
	}

	p, err := ctgdvfs.NewPlatform(4, 2).
		SetUniformTask(0, 5, 5).
		SetUniformTask(1, 10, 10).
		SetUniformTask(2, 20, 20).
		SetUniformTask(3, 5, 5).
		SetAllLinks(4, 0.1).
		Build()
	if err != nil {
		t.Fatal(err)
	}

	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumScenarios() != 2 {
		t.Fatalf("scenarios = %d, want 2", a.NumScenarios())
	}
	if !a.MutuallyExclusive(fast, slow) {
		t.Fatal("fast and slow arms must be mutually exclusive")
	}

	s, err := ctgdvfs.Plan(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.ExpectedEnergy() <= 0 {
		t.Fatal("expected energy must be positive")
	}
	sum, err := ctgdvfs.Exhaustive(s, ctgdvfs.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Misses != 0 {
		t.Fatalf("%d deadline misses", sum.Misses)
	}

	// Separate stretchers on fresh plans.
	a2, err := ctgdvfs.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ctgdvfs.Schedule(a2, p, ctgdvfs.ModifiedDLS())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctgdvfs.StretchNLP(raw, ctgdvfs.ContinuousDVFS(), ctgdvfs.NLPOptions{MaxIters: 200}); err != nil {
		t.Fatal(err)
	}
	raw2, err := ctgdvfs.Schedule(a2, p, ctgdvfs.PlainDLS())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctgdvfs.StretchWorstCase(raw2, ctgdvfs.ContinuousDVFS()); err != nil {
		t.Fatal(err)
	}

	// Adaptive loop over a drifting workload.
	mgr, err := ctgdvfs.NewAdaptive(g, p, ctgdvfs.AdaptiveOptions{Window: 10, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	vectors := make(ctgdvfs.Vectors, 200)
	for i := range vectors {
		out := 1 // drifted: slow arm dominates, contradicting the 0.8/0.2 profile
		if i%5 == 0 {
			out = 0
		}
		vectors[i] = []int{out}
	}
	st, err := mgr.Run(vectors)
	if err != nil {
		t.Fatal(err)
	}
	if st.Calls == 0 {
		t.Fatal("adaptive runtime never re-scheduled on a drifted stream")
	}
	if st.Misses != 0 {
		t.Fatalf("adaptive run missed %d deadlines", st.Misses)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	g, p, err := ctgdvfs.GenerateRandom(ctgdvfs.RandomConfig{
		Seed: 1, Nodes: 18, PEs: 3, Branches: 2, Category: ctgdvfs.CategoryForkJoin,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err = ctgdvfs.TightenDeadline(g, p, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctgdvfs.Plan(g, p); err != nil {
		t.Fatal(err)
	}

	mg, mp, err := ctgdvfs.BuildMPEG()
	if err != nil {
		t.Fatal(err)
	}
	if mg.NumTasks() != 40 || mp.NumPEs() != 3 {
		t.Fatal("MPEG workload dimensions wrong")
	}
	clips := ctgdvfs.MovieClips()
	if len(clips) != 8 {
		t.Fatal("want 8 movie clips")
	}
	vec := clips[0].Generate(mg, 50)
	if len(vec) != 50 {
		t.Fatal("movie vector count wrong")
	}
	avg := ctgdvfs.AverageProbs(mg, vec)
	if len(avg) != mg.NumForks() {
		t.Fatal("AverageProbs width wrong")
	}
	if err := ctgdvfs.ApplyProfile(mg, avg); err == nil {
		// Profiles containing a zero probability are rejected only if a
		// fork saw a single outcome; either way the call must not panic.
		_ = err
	}

	cg, cp, err := ctgdvfs.BuildCruise()
	if err != nil {
		t.Fatal(err)
	}
	if cg.NumTasks() != 32 || cp.NumPEs() != 5 {
		t.Fatal("cruise workload dimensions wrong")
	}
	road := ctgdvfs.RoadSequence(cg, 7, 100)
	if len(road) != 100 {
		t.Fatal("road vector count wrong")
	}
}

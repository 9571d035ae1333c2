package exp

import "testing"

// TestScaleWorkloadShape checks the generator's structural invariants on a
// small instance: task count near target, requested scenario count, a valid
// buildable analysis, and non-empty conditional arms (split activation).
func TestScaleWorkloadShape(t *testing.T) {
	g, p, err := ScaleWorkload(ScaleConfig{Tasks: 200, PEs: 8, Forks: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPEs() != 8 {
		t.Fatalf("PEs = %d, want 8", p.NumPEs())
	}
	if g.NumForks() != 3 {
		t.Fatalf("forks = %d, want 3", g.NumForks())
	}
	if n := g.NumTasks(); n < 150 || n > 220 {
		t.Fatalf("tasks = %d, want ~200", n)
	}
}

// TestScaleCampaignSmoke runs a miniature campaign cell end to end, checks
// the warm run's behavioral envelope against the full run, and pins the
// cell's deterministic columns against testdata/scale.golden.
func TestScaleCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke is seconds-scale")
	}
	r, err := ScaleCampaign([]ScaleConfig{{Tasks: 300, PEs: 8, Forks: 3, Seed: 3}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Cells[0]
	if c.WarmStarts == 0 {
		t.Fatalf("warm run never warm-started: %+v", c)
	}
	if c.MissesWarm > c.MissesFull {
		t.Fatalf("warm run misses %d > full run misses %d", c.MissesWarm, c.MissesFull)
	}
	checkGolden(t, "scale.golden", r.Render())
}

package stretch_test

import (
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
)

// TestPartialBoundWorkspaceAllocatesNothingSharedClasses is the zero-alloc
// contract on a graph whose minterms share scenario classes: on the scale
// workload (parallel chains, one conditional diamond on each of three), an
// arm task's Γ(τ) holds the outcomes of the other chains' forks, which
// reach neither half of its cone. A masked pass over the forks and arm
// tasks, as a warm step re-stretches them, must reuse the class maps and
// chain arenas without allocating.
func TestPartialBoundWorkspaceAllocatesNothingSharedClasses(t *testing.T) {
	g0, p, err := exp.ScaleWorkload(exp.ScaleConfig{Tasks: 200, PEs: 8, Forks: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.TightenDeadline(g0, p, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{}); err != nil {
		t.Fatal(err)
	}
	affected := make([]bool, g.NumTasks())
	for i := range affected {
		id := ctg.TaskID(i)
		affected[i] = g.IsFork(id) || a.ActivationProb(id) < 1
	}
	warm := sched.NewWarmState()
	ws := stretch.NewWorkspace()
	opts := stretch.Options{Guard: 0.1, Affected: affected, Workspace: ws}
	// Fill both double buffers and bind the workspace before measuring.
	for i := 0; i < 2; i++ {
		target := warm.Start(s)
		ws.Rebind(target)
		if _, err := stretch.Heuristic(target, platform.Continuous(), opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		_, err = stretch.Heuristic(warm.Start(s), platform.Continuous(), opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("masked pass over a bound workspace: %v allocs/run, want 0", allocs)
	}
}

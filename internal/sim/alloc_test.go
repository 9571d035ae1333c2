package sim_test

import (
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/sim"
)

// TestReplayAllocsBounded is the allocation contract of one replay: the
// active activity list plus the walk's per-task, per-edge, per-PE and
// per-link arrays, six allocations whatever the graph's size. The 997-task
// scale workload (16 PEs, 32 scenarios) must stay within that bound, and a
// graph a tenth its size must cost exactly as many allocations.
func TestReplayAllocsBounded(t *testing.T) {
	const bound = 6
	small := replayAllocs(t, exp.ScaleConfig{Tasks: 100, PEs: 16, Forks: 5, Seed: 1})
	large := replayAllocs(t, exp.ScaleConfig{Seed: 1})
	if large > bound {
		t.Fatalf("replay of the 997-task graph: %v allocs, want <= %d", large, bound)
	}
	if large != small {
		t.Fatalf("replay allocations grow with the graph: %v at 10^2 tasks, %v at 10^3", small, large)
	}
}

// replayAllocs schedules the scale workload and returns the allocations of
// one replay of its last scenario.
func replayAllocs(t *testing.T, cfg exp.ScaleConfig) float64 {
	t.Helper()
	g, p, err := exp.ScaleWorkload(cfg)
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
	si := s.A.NumScenarios() - 1
	allocs := testing.AllocsPerRun(20, func() {
		_, err = sim.Replay(s, si, sim.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d tasks, %d plan entries: %v allocs per replay", g.NumTasks(), len(s.Plan), allocs)
	return allocs
}

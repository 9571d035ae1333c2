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

// TestHeuristicMatchesOracleOnScaleWorkload runs the whole-graph oracles on
// the scale workload's graph shape (parallel chains, conditional diamonds
// on some), where one stretched task's repair reaches few tasks: a full
// pass, a masked pass over the forks and arm tasks, and every scenario's
// per-scenario stretch equal the oracles' bit for bit.
func TestHeuristicMatchesOracleOnScaleWorkload(t *testing.T) {
	g0, p, err := exp.ScaleWorkload(exp.ScaleConfig{Tasks: 200, PEs: 8, Forks: 3, Seed: 11})
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
	base, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	for si, got := range stretch.ScenarioStretches(base, platform.Continuous(), 0.1) {
		stretch.SameSpeeds(t, "per-scenario", stretch.OracleScenarioStretch(base, platform.Continuous(), si, 0.1), got)
	}

	o := stretch.Options{Guard: 0.1}
	want, got := base.Clone(), base.Clone()
	wantRes := stretch.OracleHeuristic(want, platform.Continuous(), o)
	gotRes, err := stretch.Heuristic(got, platform.Continuous(), o)
	if err != nil {
		t.Fatal(err)
	}
	stretch.SameSpeeds(t, "full", want.Speed, got.Speed)
	if !stretch.SameResult(wantRes, gotRes) {
		t.Fatalf("full: result %+v (oracle) != %+v", wantRes, gotRes)
	}

	affected := make([]bool, g.NumTasks())
	for i := range affected {
		id := ctg.TaskID(i)
		affected[i] = g.IsFork(id) || a.ActivationProb(id) < 1
	}
	o.Affected = affected
	ws := stretch.NewWorkspace()
	ws.Rebind(got)
	o.Workspace = ws
	wantRes = stretch.OracleHeuristic(want, platform.Continuous(), o)
	if gotRes, err = stretch.Heuristic(got, platform.Continuous(), o); err != nil {
		t.Fatal(err)
	}
	stretch.SameSpeeds(t, "masked", want.Speed, got.Speed)
	if !stretch.SameResult(wantRes, gotRes) {
		t.Fatalf("masked: result %+v (oracle) != %+v", wantRes, gotRes)
	}
}

package stretch_test

import (
	"fmt"
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

// scaleSchedule schedules a 200-task scale graph (parallel chains on 8 PEs,
// conditional diamonds on three) at twice its nominal makespan.
func scaleSchedule(t *testing.T, seed int64) *sched.Schedule {
	t.Helper()
	g0, p, err := exp.ScaleWorkload(exp.ScaleConfig{Tasks: 200, PEs: 8, Forks: 3, Seed: seed})
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
	return s
}

// everyThird is a mask of the tasks whose id is not a multiple of three.
func everyThird(n int) []bool {
	affected := make([]bool, n)
	for i := range affected {
		affected[i] = i%3 != 0
	}
	return affected
}

// TestHeuristicMatchesOracleWithBackwardEdges checks the passes where a
// stretch can leave a value stale before a later read: on a scale graph
// whose schedule has edges pointing backward in s.Order (counted first, so
// the test cannot pass vacuously), full and masked passes at guard 0.1,
// under both ratio readings, every per-scenario stretch and WorstCase equal
// the whole-graph oracles bit for bit.
func TestHeuristicMatchesOracleWithBackwardEdges(t *testing.T) {
	base := scaleSchedule(t, 7)
	if n := stretch.BackwardEdges(base); n == 0 {
		t.Fatal("no edge points backward in s.Order; the test lost its point")
	} else {
		t.Logf("%d edges point backward in s.Order", n)
	}
	for _, literal := range []bool{false, true} {
		o := stretch.Options{Guard: 0.1, LiteralRatio: literal}
		want, got := base.Clone(), base.Clone()
		wantRes := stretch.OracleHeuristic(want, platform.Continuous(), o)
		gotRes, err := stretch.Heuristic(got, platform.Continuous(), o)
		if err != nil {
			t.Fatal(err)
		}
		stretch.SameSpeeds(t, fmt.Sprintf("full, literal %v", literal), want.Speed, got.Speed)
		if !stretch.SameResult(wantRes, gotRes) {
			t.Fatalf("full, literal %v: result %+v (oracle) != %+v", literal, wantRes, gotRes)
		}

		o.Affected = everyThird(base.G.NumTasks())
		o.Workspace = stretch.NewWorkspace()
		o.Workspace.Rebind(got)
		wantRes = stretch.OracleHeuristic(want, platform.Continuous(), o)
		if gotRes, err = stretch.Heuristic(got, platform.Continuous(), o); err != nil {
			t.Fatal(err)
		}
		stretch.SameSpeeds(t, fmt.Sprintf("masked, literal %v", literal), want.Speed, got.Speed)
		if !stretch.SameResult(wantRes, gotRes) {
			t.Fatalf("masked, literal %v: result %+v (oracle) != %+v", literal, wantRes, gotRes)
		}
	}
	for si, got := range stretch.ScenarioStretches(base, platform.Continuous(), 0.1) {
		stretch.SameSpeeds(t, "per-scenario", stretch.OracleScenarioStretch(base, platform.Continuous(), si, 0.1), got)
	}
	want, got := base.Clone(), base.Clone()
	wantRes := stretch.OracleWorstCase(want, platform.Continuous())
	gotRes, err := stretch.WorstCase(got, platform.Continuous())
	if err != nil {
		t.Fatal(err)
	}
	stretch.SameSpeeds(t, "worst case", want.Speed, got.Speed)
	if !stretch.SameResult(wantRes, *gotRes) {
		t.Fatalf("worst case: result %+v (oracle) != %+v", wantRes, *gotRes)
	}
}

// TestWorkspaceKeepsNoStateBetweenPasses runs, on one bound workspace, a
// masked pass, a pass over an all-true mask and a masked pass over another
// mask, each on the schedule the previous one left, and the same three
// passes each on a fresh workspace: speeds and results must agree bit for
// bit, so nothing a pass computes leaks into the next.
func TestWorkspaceKeepsNoStateBetweenPasses(t *testing.T) {
	s := scaleSchedule(t, 7)
	if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{}); err != nil {
		t.Fatal(err)
	}
	n := s.G.NumTasks()
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	other := everyThird(n)
	for i := range other {
		other[i] = !other[i]
	}
	ws := stretch.NewWorkspace()
	ws.Rebind(s)
	for step, mask := range [][]bool{everyThird(n), all, other} {
		fresh := s.Clone()
		freshWS := stretch.NewWorkspace()
		freshWS.Rebind(fresh)
		wantRes, err := stretch.Heuristic(fresh, platform.Continuous(), stretch.Options{Guard: 0.1, Affected: mask, Workspace: freshWS})
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{Guard: 0.1, Affected: mask, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("pass %d", step)
		stretch.SameSpeeds(t, what, fresh.Speed, s.Speed)
		if !stretch.SameResult(wantRes, gotRes) {
			t.Fatalf("%s: result %+v (fresh workspace) != %+v", what, wantRes, gotRes)
		}
	}
}

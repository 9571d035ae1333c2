package stretch_test

import (
	"fmt"
	"testing"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/tgff"
)

// dlsOf schedules g on p with the modified DLS.
func dlsOf(t *testing.T, g *ctg.Graph, p *platform.Platform) *sched.Schedule {
	t.Helper()
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

// nestedForks builds a chain of forks nested in each other's arm 1, each
// fork's arm 0 a leaf: forks+1 scenarios, each of which leaves the forks
// below the arm 0 it takes unassigned, and an entry whose down set holds
// every fork.
func nestedForks(t *testing.T, forks int) (*ctg.Graph, *platform.Platform) {
	t.Helper()
	b := ctg.NewBuilder()
	last := b.AddTask("entry", ctg.AndNode)
	for k := 0; k < forks; k++ {
		fork := b.AddTask("", ctg.AndNode)
		if k == 0 {
			b.AddEdge(last, fork, 1)
		} else {
			b.AddCondEdge(last, fork, 1, 1)
		}
		leaf := b.AddTask("", ctg.AndNode)
		b.AddCondEdge(fork, leaf, 1, 0)
		b.SetBranchProbs(fork, []float64{0.5, 0.5})
		last = fork
	}
	leaf := b.AddTask("", ctg.AndNode)
	b.AddCondEdge(last, leaf, 1, 1)
	g, err := b.Build(1e6)
	if err != nil {
		t.Fatal(err)
	}
	pb := platform.NewBuilder(g.NumTasks(), 2)
	for i := 0; i < g.NumTasks(); i++ {
		pb.SetUniformTask(i, 1, 1)
	}
	pb.SetAllLinks(1, 0.1)
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

// TestClassRowsMatchSortOracle compares the class rows of both halves, per
// task its row, class count and ids, with those of the sort-based builder
// they replaced: on the three applications, the Table 4 random CTGs, the
// default scale graph and a graph of 70 nested forks, whose entry's fork
// set is two words wide and whose scenarios leave forks unassigned.
func TestClassRowsMatchSortOracle(t *testing.T) {
	type workload struct {
		name string
		g    *ctg.Graph
		p    *platform.Platform
	}
	var ws []workload
	for _, app := range []struct {
		name  string
		build func() (*ctg.Graph, *platform.Platform, error)
	}{{"mpeg", mpeg.Build}, {"wlan", wlan.Build}, {"cruise", cruise.Build}} {
		g, p, err := app.build()
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, workload{app.name, g, p})
	}
	for i, c := range tgff.Table4Cases() {
		g, p, err := tgff.Generate(c.Config)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, workload{fmt.Sprintf("table4 CTG %d", i+1), g, p})
	}
	g, p, err := exp.ScaleWorkload(exp.ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, workload{"scale", g, p})
	g, p = nestedForks(t, 70)
	ws = append(ws, workload{"nested forks", g, p})
	for _, w := range ws {
		if err := stretch.ClassRowsVsOracle(dlsOf(t, w.g, w.p)); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestWorkspaceAcrossMappings runs on one workspace a full pass on mapping
// A, a masked pass, a Rebind to mapping B (the DLS of the platform with a
// PE dead), a full pass and PerScenario, each on a fresh workspace too:
// speeds and results must agree bit for bit.
func TestWorkspaceAcrossMappings(t *testing.T) {
	g0, p, err := exp.ScaleWorkload(exp.ScaleConfig{Tasks: 200, PEs: 8, Forks: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sA := dlsOf(t, g0, p)
	g, err := g0.WithDeadline(1.6 * sA.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	sA = dlsOf(t, g, p)
	mask := platform.FullMask(p.NumPEs())
	mask.PEs[2] = false
	pB, err := p.Restrict(mask)
	if err != nil {
		t.Fatal(err)
	}
	sB := dlsOf(t, g, pB)
	unstretchedB := sB.Clone()

	ws := stretch.NewWorkspace()
	// pass runs one Heuristic pass on s over ws and on a copy over a fresh
	// workspace, and compares them.
	pass := func(what string, s *sched.Schedule, affected []bool) {
		t.Helper()
		fresh := s.Clone()
		want, err := stretch.Heuristic(fresh, platform.Continuous(), stretch.Options{Guard: 0.1, Affected: affected})
		if err != nil {
			t.Fatal(err)
		}
		got, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{Guard: 0.1, Affected: affected, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		stretch.SameSpeeds(t, what, fresh.Speed, s.Speed)
		if !stretch.SameResult(want, got) {
			t.Fatalf("%s: result %+v (fresh workspace) != %+v", what, want, got)
		}
	}
	pass("full pass on A", sA, nil)
	pass("masked pass on A", sA, everyThird(g.NumTasks()))
	ws.Rebind(sB)
	pass("full pass on B", sB, nil)

	want, err := stretch.PerScenario(unstretchedB.Clone(), platform.Continuous(), 0.1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stretch.PerScenario(unstretchedB, platform.Continuous(), 0.1, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	for si := range want.Speeds {
		stretch.SameSpeeds(t, fmt.Sprintf("PerScenario on B, scenario %d", si), want.Speeds[si], got.Speeds[si])
	}
}

// TestWorkspaceTrimsClassSlots checks the workspace's shrink rule on the
// scale graph: after a full pass, which reads every class slot, and a
// masked pass over the forks and arm tasks, which reads far fewer, every
// per-slot array keeps at most four times the class slots the masked pass
// read, and the chain arena, stale list and queue at most four times what
// it used of them.
func TestWorkspaceTrimsClassSlots(t *testing.T) {
	s := scaleSchedule(t, 7)
	a := s.A
	ws := stretch.NewWorkspace()
	if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	full, _ := stretch.Footprint(ws)
	affected := make([]bool, s.G.NumTasks())
	for i := range affected {
		id := ctg.TaskID(i)
		affected[i] = s.G.IsFork(id) || a.ActivationProb(id) < 1
	}
	if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{Guard: 0.1, Affected: affected, Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	used, kept := stretch.Footprint(ws)
	trimmed := 0
	for i := range used {
		if full[i] > 4*used[i] {
			trimmed++
		}
		if kept[i] > 4*used[i] {
			t.Errorf("buffer %d: keeps %d after a masked pass that used %d", i, kept[i], used[i])
		}
	}
	if trimmed == 0 {
		t.Fatalf("the full pass used %v, the masked pass %v: no trim to check", full, used)
	}
}

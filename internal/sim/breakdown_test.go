package sim

import (
	"math"
	"strings"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/tgff"
)

func TestBreakdownMatchesExpectedEnergy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, p, err := tgff.Generate(tgff.Config{
			Seed: 1700 + seed, Nodes: 16, PEs: 3, Branches: 2,
		})
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
		b := AnalyzeBreakdown(s)
		if math.Abs(b.Total-s.ExpectedEnergy()) > 1e-9*math.Max(1, b.Total) {
			t.Fatalf("seed %d: breakdown total %v != expected energy %v",
				seed, b.Total, s.ExpectedEnergy())
		}
		tasks := 0
		for _, st := range b.PEs {
			tasks += st.Tasks
			if st.BusyTime < 0 || st.Utilization < 0 {
				t.Fatalf("seed %d: negative PE stats %+v", seed, st)
			}
		}
		if tasks != g.NumTasks() {
			t.Fatalf("seed %d: breakdown covers %d tasks, want %d", seed, tasks, g.NumTasks())
		}
	}
}

func TestBreakdownAttribution(t *testing.T) {
	// Two tasks pinned to different PEs with a cross edge: attribution is
	// exact.
	b := ctg.NewBuilder()
	src := b.AddTask("", ctg.AndNode)
	dst := b.AddTask("", ctg.AndNode)
	b.AddEdge(src, dst, 10)
	g, err := b.Build(100)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	pb := platform.NewBuilder(2, 2)
	pb.SetTask(0, []float64{10, 1000}, []float64{6, 6})
	pb.SetTask(1, []float64{1000, 10}, []float64{8, 8})
	pb.SetAllLinks(2, 0.5)
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	bd := AnalyzeBreakdown(s)
	if bd.PEs[0].CompEnergy != 6 || bd.PEs[1].CompEnergy != 8 {
		t.Fatalf("PE energies %v/%v, want 6/8", bd.PEs[0].CompEnergy, bd.PEs[1].CompEnergy)
	}
	if bd.PEs[0].Tasks != 1 || bd.PEs[1].Tasks != 1 {
		t.Fatal("task attribution wrong")
	}
	if bd.CommEnergy != 5 { // 10 KB × 0.5
		t.Fatalf("comm energy %v, want 5", bd.CommEnergy)
	}
	if bd.CommTime != 5 { // 10 KB / 2
		t.Fatalf("comm time %v, want 5", bd.CommTime)
	}
	if bd.PEs[0].Utilization != 0.1 { // 10 / 100
		t.Fatalf("utilization %v, want 0.1", bd.PEs[0].Utilization)
	}
	out := bd.String()
	for _, want := range []string{"PE", "interconnect", "total expected energy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

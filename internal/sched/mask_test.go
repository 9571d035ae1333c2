package sched

import (
	"errors"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/tgff"
)

// forkJoinGraph builds two parallel sources a, b feeding a join task c with
// the given communication volume on both edges.
func forkJoinGraph(t *testing.T, comm float64) *ctg.Analysis {
	t.Helper()
	b := ctg.NewBuilder()
	a := b.AddTask("", ctg.AndNode)
	bb := b.AddTask("", ctg.AndNode)
	c := b.AddTask("", ctg.AndNode)
	b.AddEdge(a, c, comm)
	b.AddEdge(bb, c, comm)
	g, err := b.Build(1000)
	if err != nil {
		t.Fatal(err)
	}
	an, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func restrict(t *testing.T, p *platform.Platform, m platform.Mask) *platform.Platform {
	t.Helper()
	r, err := p.Restrict(m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSchedulersAvoidDeadPE(t *testing.T) {
	g, gp, err := tgff.Generate(tgff.Config{Seed: 5, Nodes: 20, PEs: 3, Branches: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	m := platform.FullMask(3)
	m.PEs[1] = false
	rp := restrict(t, gp, m)

	for name, build := range map[string]func() (*Schedule, error){
		"dls": func() (*Schedule, error) { return DLS(a, rp, Modified()) },
	} {
		s, err := build()
		if err != nil {
			t.Fatalf("%s on degraded platform: %v", name, err)
		}
		for task, pe := range s.PE {
			if pe == 1 {
				t.Fatalf("%s placed task %d on dead PE 1", name, task)
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s degraded schedule invalid: %v", name, err)
		}
	}
}

func TestSchedulersAvoidDownLinks(t *testing.T) {
	g, gp, err := tgff.Generate(tgff.Config{Seed: 9, Nodes: 16, PEs: 3, Branches: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	m := platform.FullMask(3)
	m.Links[0][1] = false
	m.Links[1][0] = false
	rp := restrict(t, gp, m)

	for name, build := range map[string]func() (*Schedule, error){
		"dls": func() (*Schedule, error) { return DLS(a, rp, Modified()) },
	} {
		s, err := build()
		if err != nil {
			t.Fatalf("%s with down links: %v", name, err)
		}
		for ei := range s.G.Edges() {
			if s.CommStart[ei] == LocalComm {
				continue
			}
			e := s.G.Edge(ei)
			if !rp.LinkUp(s.PE[e.From], s.PE[e.To]) {
				t.Fatalf("%s routed edge %d->%d over down link %d->%d",
					name, e.From, e.To, s.PE[e.From], s.PE[e.To])
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s link-degraded schedule invalid: %v", name, err)
		}
	}
}

func TestValidateRejectsPlacementsOnMaskedHardware(t *testing.T) {
	a := forkJoinGraph(t, 10)
	p := uniformPlatform(t, 3, 2, 5, 1)

	for name, build := range map[string]func() (*Schedule, error){
		"dls": func() (*Schedule, error) { return DLS(a, p, Modified()) },
	} {
		s, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s healthy schedule invalid: %v", name, err)
		}
		// The healthy schedule uses both PEs (the sources spread), so
		// validating it against a view where one of them died must fail.
		usedPE := s.PE[0]
		m := platform.FullMask(2)
		m.PEs[usedPE] = false
		masked := *s
		masked.P = restrict(t, p, m)
		if err := masked.Validate(); err == nil {
			t.Fatalf("%s: schedule placing tasks on dead PE %d passed validation", name, usedPE)
		}
		// Likewise a schedule whose cross-PE transfer crosses a down link.
		if s.PE[0] == s.PE[1] {
			t.Fatalf("%s: sources unexpectedly colocated, cannot exercise link check", name)
		}
		lm := platform.FullMask(2)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if i != j {
					lm.Links[i][j] = false
				}
			}
		}
		linkMasked := *s
		linkMasked.P = restrict(t, p, lm)
		if err := linkMasked.Validate(); err == nil {
			t.Fatalf("%s: schedule routing comm over down links passed validation", name)
		}
	}
}

func TestSchedulersReportInfeasibleTopology(t *testing.T) {
	// Sources a and b spread across the two PEs; with every cross link down,
	// the join task c cannot receive both dependencies anywhere — the greedy
	// (which never backtracks) must fail with the typed error.
	a := forkJoinGraph(t, 10)
	p := uniformPlatform(t, 3, 2, 5, 1)
	m := platform.FullMask(2)
	m.Links[0][1] = false
	m.Links[1][0] = false
	rp := restrict(t, p, m)

	for name, build := range map[string]func() (*Schedule, error){
		"dls": func() (*Schedule, error) { return DLS(a, rp, Modified()) },
	} {
		_, err := build()
		var ie *InfeasibleError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: want *InfeasibleError, got %v", name, err)
		}
		if ie.Task != 2 {
			t.Fatalf("%s: infeasible task = %d, want the join task 2", name, ie.Task)
		}
	}
}

func TestSingleSurvivorSerializesEverything(t *testing.T) {
	g, gp, err := tgff.Generate(tgff.Config{Seed: 3, Nodes: 12, PEs: 3, Branches: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	m := platform.FullMask(3)
	m.PEs[0] = false
	m.PEs[2] = false
	rp := restrict(t, gp, m)
	s, err := DLS(a, rp, Modified())
	if err != nil {
		t.Fatal(err)
	}
	for task, pe := range s.PE {
		if pe != 1 {
			t.Fatalf("task %d on PE %d with only PE 1 alive", task, pe)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for ei := range s.G.Edges() {
		if s.CommStart[ei] != LocalComm {
			t.Fatalf("edge %d scheduled a link transfer on a single-PE topology", ei)
		}
	}
}

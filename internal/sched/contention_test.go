package sched

import (
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/tgff"
)

// contentionWorkload: one producer on PE0 feeding two consumers pinned to
// PE1, both with large transfers over the same link.
func contentionWorkload(t *testing.T) (*ctg.Analysis, *platform.Platform) {
	t.Helper()
	b := ctg.NewBuilder()
	src := b.AddTask("src", ctg.AndNode)
	c1 := b.AddTask("c1", ctg.AndNode)
	c2 := b.AddTask("c2", ctg.AndNode)
	b.AddEdge(src, c1, 10)
	b.AddEdge(src, c2, 10)
	g, err := b.Build(1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	pb := platform.NewBuilder(3, 2)
	pb.SetTask(0, []float64{10, 1000}, []float64{1, 1})
	pb.SetTask(1, []float64{1000, 10}, []float64{1, 1})
	pb.SetTask(2, []float64{1000, 10}, []float64{1, 1})
	pb.SetAllLinks(1, 0.1) // 10 KB at 1 KB/tu = 10 tu per transfer
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a, p
}

func TestCommAwareSerializesLinkTransfers(t *testing.T) {
	a, p := contentionWorkload(t)
	s, err := DLS(a, p, Modified())
	if err != nil {
		t.Fatal(err)
	}
	// Producer finishes at 10. Transfers serialize on the PE0→PE1 link:
	// first at 10..20, second at 20..30. The consumers' PE also
	// serializes, so the later consumer starts at max(30, first consumer
	// end).
	cs := []float64{s.CommStart[0], s.CommStart[1]}
	if cs[0] > cs[1] {
		cs[0], cs[1] = cs[1], cs[0]
	}
	if cs[0] != 10 || cs[1] != 20 {
		t.Fatalf("contention-aware transfer starts = %v, want [10 20]", cs)
	}
	onLink := 0
	for _, d := range s.Plan {
		if d.Comm {
			e := s.G.Edge(int(d.ID))
			if s.PE[e.From] == 0 && s.PE[e.To] == 1 {
				onLink++
			}
		}
	}
	if onLink != 2 {
		t.Fatalf("dispatch plan has %d transfers on link 0->1, want 2", onLink)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// The contention-blind variant lets both transfers start at 10; its
	// nominal schedule is optimistic (both consumers "arrive" at 20).
	opts := Modified()
	opts.CommAware = false
	s2, err := DLS(a, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.CommStart[0] != 10 || s2.CommStart[1] != 10 {
		t.Fatalf("contention-blind transfer starts = %v %v, want both 10",
			s2.CommStart[0], s2.CommStart[1])
	}
	if s2.Makespan > s.Makespan {
		t.Fatal("blind variant cannot be nominally slower than the aware one")
	}
}

func TestValidateCatchesBrokenSchedules(t *testing.T) {
	a, p := contentionWorkload(t)
	good, err := DLS(a, p, Modified())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Schedule){
		"pe out of range":   func(s *Schedule) { s.PE[0] = 99 },
		"negative start":    func(s *Schedule) { s.Start[1] = -1 },
		"zero speed":        func(s *Schedule) { s.Speed[2] = 0 },
		"speed above 1":     func(s *Schedule) { s.Speed[2] = 1.5 },
		"precedence broken": func(s *Schedule) { s.Start[1] = 0 },
		"comm too early":    func(s *Schedule) { s.CommStart[0] = 1 },
		"pe overlap": func(s *Schedule) {
			// Move both consumers to the same instant on PE1.
			s.Start[1] = 40
			s.Start[2] = 45
			s.CommStart[0] = 10
			s.CommStart[1] = 20
			s.sortPEOrder()
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			s := good.Clone()
			corrupt(s)
			if err := s.Validate(); err == nil {
				t.Fatalf("corruption %q not caught", name)
			}
		})
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("pristine schedule rejected: %v", err)
	}
}

func TestValidateSizesMismatch(t *testing.T) {
	a, p := contentionWorkload(t)
	s, err := DLS(a, p, Modified())
	if err != nil {
		t.Fatal(err)
	}
	s.Speed = s.Speed[:1]
	if err := s.Validate(); err == nil {
		t.Fatal("short speed vector not caught")
	}
}

// TestPlanCoversScheduleInKeyOrder pins the dispatch plan DLS publishes:
// every task exactly once, every cross-PE transfer exactly once, no local
// edge, each entry carrying its nominal start, and the entries sorted on the
// dispatch key (start, transfers first, ID) on every random workload.
func TestPlanCoversScheduleInKeyOrder(t *testing.T) {
	for _, cat := range []tgff.Category{tgff.ForkJoin, tgff.Flat} {
		for seed := int64(0); seed < 15; seed++ {
			g, p, err := tgff.Generate(tgff.Config{
				Seed: 4100 + seed, Nodes: 18, PEs: 3, Branches: 2, Category: cat,
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := ctg.Analyze(g)
			if err != nil {
				t.Fatal(err)
			}
			s, err := DLS(a, p, Modified())
			if err != nil {
				t.Fatal(err)
			}
			tasks := make([]int, g.NumTasks())
			edges := make([]int, g.NumEdges())
			for i, d := range s.Plan {
				if i > 0 && dispatchLess(s.Plan[i-1], d) >= 0 {
					t.Fatalf("cat %v seed %d: plan entries %d and %d out of key order: %+v, %+v",
						cat, seed, i-1, i, s.Plan[i-1], d)
				}
				if !d.Comm {
					tasks[d.ID]++
					if d.Start != s.Start[d.ID] {
						t.Fatalf("cat %v seed %d: task %d planned at %v, starts at %v",
							cat, seed, d.ID, d.Start, s.Start[d.ID])
					}
					continue
				}
				edges[d.ID]++
				if d.Start != s.CommStart[d.ID] {
					t.Fatalf("cat %v seed %d: edge %d planned at %v, transfers at %v",
						cat, seed, d.ID, d.Start, s.CommStart[d.ID])
				}
			}
			for task, n := range tasks {
				if n != 1 {
					t.Fatalf("cat %v seed %d: task %d appears %d times in the plan", cat, seed, task, n)
				}
			}
			cross := 0
			for ei, n := range edges {
				want := 1
				if s.CommStart[ei] == LocalComm {
					want = 0
				} else {
					cross++
				}
				if n != want {
					t.Fatalf("cat %v seed %d: edge %d (comm start %v) appears %d times, want %d",
						cat, seed, ei, s.CommStart[ei], n, want)
				}
			}
			if cross == 0 {
				t.Fatalf("cat %v seed %d: no cross-PE transfer; the workload tests nothing", cat, seed)
			}
		}
	}
}

package sched_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/tgff"
)

// refCase is one graph and platform to schedule.
type refCase struct {
	name string
	g    *ctg.Graph
	p    *platform.Platform
}

// refCases returns the shipped workloads, the ten Table 4 random CTGs,
// further tgff graphs and the scale graph at 200 and 997 tasks (200 only in
// -short mode), interleaved so that consecutive runs on one workspace change
// size and PE count.
func refCases(t *testing.T) []refCase {
	t.Helper()
	var cases []refCase
	add := func(name string, g *ctg.Graph, p *platform.Platform, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, refCase{name, g, p})
	}
	if !testing.Short() {
		g, p, err := exp.ScaleWorkload(exp.ScaleConfig{Tasks: 1000, Seed: 1})
		add("scale997", g, p, err)
	}
	g, p, err := mpeg.Build()
	add("mpeg", g, p, err)
	g, p, err = exp.ScaleWorkload(exp.ScaleConfig{Tasks: 200, Seed: 2})
	add("scale200", g, p, err)
	g, p, err = wlan.Build()
	add("wlan", g, p, err)
	g, p, err = cruise.Build()
	add("cruise", g, p, err)
	for i, c := range tgff.Table4Cases() {
		g, p, err = tgff.Generate(c.Config)
		add(fmt.Sprintf("table4-%d", i+1), g, p, err)
	}
	for seed := int64(0); seed < 6; seed++ {
		cat := tgff.ForkJoin
		if seed%2 == 1 {
			cat = tgff.Flat
		}
		g, p, err = tgff.Generate(tgff.Config{Seed: 900 + seed, Nodes: 20 + 7*int(seed),
			PEs: 2 + int(seed%4), Branches: int(seed % 4), Category: cat})
		add(fmt.Sprintf("tgff-%d", seed), g, p, err)
	}
	return cases
}

// restrictions returns p itself, p with PE 1 dead, and p with the links
// between PEs 0 and 1 down.
func restrictions(t *testing.T, p *platform.Platform) map[string]*platform.Platform {
	t.Helper()
	out := map[string]*platform.Platform{"full": p}
	if p.NumPEs() < 2 {
		return out
	}
	dead := platform.FullMask(p.NumPEs())
	dead.PEs[1] = false
	down := platform.FullMask(p.NumPEs())
	down.Links[0][1], down.Links[1][0] = false, false
	for name, m := range map[string]platform.Mask{"dead-pe": dead, "down-link": down} {
		r, err := p.Restrict(m)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = r
	}
	return out
}

var refOptions = map[string]sched.Options{
	"modified": sched.Modified(),
	"plain":    sched.Plain(),
	"energy":   {Probabilistic: true, MEOverlap: true, CommAware: true, EnergyWeight: 0.5},
}

// sameSchedule reports the first field in which got differs from want, bit
// for bit.
func sameSchedule(got, want *sched.Schedule) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for task := range want.PE {
		if got.PE[task] != want.PE[task] || !same(got.Start[task], want.Start[task]) {
			return fmt.Errorf("task %d: PE %d start %v, want PE %d start %v", task,
				got.PE[task], got.Start[task], want.PE[task], want.Start[task])
		}
	}
	if len(got.Order) != len(want.Order) {
		return fmt.Errorf("order has %d tasks, want %d", len(got.Order), len(want.Order))
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			return fmt.Errorf("order[%d] = %d, want %d", i, got.Order[i], want.Order[i])
		}
	}
	if len(got.PEOrder) != len(want.PEOrder) {
		return fmt.Errorf("%d PE orders, want %d", len(got.PEOrder), len(want.PEOrder))
	}
	for pe := range want.PEOrder {
		if fmt.Sprint(got.PEOrder[pe]) != fmt.Sprint(want.PEOrder[pe]) {
			return fmt.Errorf("PE %d order %v, want %v", pe, got.PEOrder[pe], want.PEOrder[pe])
		}
	}
	for ei := range want.CommStart {
		if !same(got.CommStart[ei], want.CommStart[ei]) {
			return fmt.Errorf("edge %d transfer at %v, want %v", ei, got.CommStart[ei], want.CommStart[ei])
		}
	}
	if len(got.Plan) != len(want.Plan) {
		return fmt.Errorf("plan has %d entries, want %d", len(got.Plan), len(want.Plan))
	}
	for i, d := range want.Plan {
		if g := got.Plan[i]; g.ID != d.ID || g.Comm != d.Comm || !same(g.Start, d.Start) {
			return fmt.Errorf("plan[%d] = %+v, want %+v", i, g, d)
		}
	}
	if len(got.Pseudo) != len(want.Pseudo) {
		return fmt.Errorf("%d pseudo edges, want %d", len(got.Pseudo), len(want.Pseudo))
	}
	for i := range want.Pseudo {
		if got.Pseudo[i] != want.Pseudo[i] {
			return fmt.Errorf("pseudo[%d] = %+v, want %+v", i, got.Pseudo[i], want.Pseudo[i])
		}
	}
	if !same(got.Makespan, want.Makespan) {
		return fmt.Errorf("makespan %v, want %v", got.Makespan, want.Makespan)
	}
	return nil
}

// TestDLSMatchesReference checks the incremental DLS against the reference
// that re-scores every pair every round, on every shipped and generated
// workload, under each option set and on degraded platforms, all through
// one workspace. Before each case a run is cancelled halfway, which must
// leave the workspace as reusable as a completed one.
func TestDLSMatchesReference(t *testing.T) {
	ws := sched.NewWorkspace()
	compared := 0
	for _, c := range refCases(t) {
		a, err := ctg.Analyze(c.g)
		if err != nil {
			t.Fatal(err)
		}
		polls, fuse := 0, c.g.NumTasks()/2
		ws.Cancel = func() error {
			if polls++; polls > fuse {
				return errors.New("cancelled")
			}
			return nil
		}
		if _, err := sched.DLSInto(a, c.p, sched.Modified(), ws); err == nil {
			t.Fatalf("%s: run cancelled after %d rounds returned no error", c.name, fuse)
		}
		ws.Cancel = nil
		for pname, p := range restrictions(t, c.p) {
			for oname, opts := range refOptions {
				want, wantErr := sched.ReferenceDLS(a, p, opts)
				got, err := sched.DLSInto(a, p, opts, ws)
				where := fmt.Sprintf("%s/%s/%s", c.name, pname, oname)
				if wantErr != nil {
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s: error %v, want %v", where, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if err := sameSchedule(got, want); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				compared++
			}
		}
	}
	if compared < 100 {
		t.Fatalf("only %d schedules compared", compared)
	}
}

// TestDLSMatchesReferenceWhenInfeasible routes a join over links that are
// all down: both schedulers must give up on the same task with the same
// typed error, and the workspace must schedule normally afterwards.
func TestDLSMatchesReferenceWhenInfeasible(t *testing.T) {
	b := ctg.NewBuilder()
	x := b.AddTask("", ctg.AndNode)
	y := b.AddTask("", ctg.AndNode)
	join := b.AddTask("", ctg.AndNode)
	b.AddEdge(x, join, 10)
	b.AddEdge(y, join, 10)
	g, err := b.Build(1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	pb := platform.NewBuilder(3, 2)
	for i := 0; i < 3; i++ {
		pb.SetUniformTask(i, 5, 1)
	}
	pb.SetAllLinks(1, 0.1)
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := platform.FullMask(2)
	m.Links[0][1], m.Links[1][0] = false, false
	rp, err := p.Restrict(m)
	if err != nil {
		t.Fatal(err)
	}

	ws := sched.NewWorkspace()
	_, wantErr := sched.ReferenceDLS(a, rp, sched.Modified())
	_, err = sched.DLSInto(a, rp, sched.Modified(), ws)
	var want, got *sched.InfeasibleError
	if !errors.As(wantErr, &want) || !errors.As(err, &got) {
		t.Fatalf("errors %v and %v, want two *InfeasibleError", err, wantErr)
	}
	if *got != *want {
		t.Fatalf("infeasible %+v, want %+v", *got, *want)
	}

	s, err := sched.DLSInto(a, p, sched.Modified(), ws)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sched.ReferenceDLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSchedule(s, ref); err != nil {
		t.Fatalf("after an infeasible run: %v", err)
	}
}

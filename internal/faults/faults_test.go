package faults

import (
	"math"
	"testing"
)

func TestValidation(t *testing.T) {
	bad := []Spec{
		{OverrunProb: -0.1},
		{OverrunProb: 1.5},
		{OverrunProb: math.NaN()},
		{OverrunFactor: 0.5, OverrunProb: 0.1},
		{OverrunFactor: math.Inf(1), OverrunProb: 0.1},
		{HotTasks: -1},
		{HotTasks: 100},
		{BurstLen: -2},
		{HotTasks: 1, BurstProb: 0.5}, // BurstLen missing
		{PESlowProb: 2},
		{PESlowFactor: 0.2, PESlowProb: 0.1},
	}
	for i, spec := range bad {
		if _, err := New(spec, 10, 2); err == nil {
			t.Errorf("spec %d (%+v): want error", i, spec)
		}
	}
	if _, err := New(Spec{}, 0, 2); err == nil {
		t.Error("want error for zero tasks")
	}
	if _, err := New(Spec{}, 10, 0); err == nil {
		t.Error("want error for zero PEs")
	}
}

func TestZeroSpecIsIdentity(t *testing.T) {
	p, err := New(Spec{Seed: 7}, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < 50; inst++ {
		for task := 0; task < 12; task++ {
			for pe := 0; pe < 3; pe++ {
				if f := p.Factor(inst, task, pe); f != 1 {
					t.Fatalf("zero spec factor(%d,%d,%d)=%v", inst, task, pe, f)
				}
			}
		}
	}
	if p.MaxFactor() != 1 {
		t.Fatalf("zero spec MaxFactor %v", p.MaxFactor())
	}
}

func TestDeterminismAndSeedSensitivity(t *testing.T) {
	spec := Spec{
		Seed: 42, OverrunProb: 0.25, OverrunFactor: 1.2,
		HotTasks: 3, HotFactor: 1.4, BurstProb: 0.05, BurstLen: 8,
		PESlowProb: 0.05, PESlowFactor: 1.15,
	}
	a, err := New(spec, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(spec, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.Seed = 43
	c, err := New(spec2, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for inst := 0; inst < 200; inst++ {
		for task := 0; task < 20; task++ {
			fa, fb := a.TaskFactor(inst, task), b.TaskFactor(inst, task)
			if fa != fb {
				t.Fatalf("same seed diverged at (%d,%d): %v vs %v", inst, task, fa, fb)
			}
			if fa != c.TaskFactor(inst, task) {
				diff++
			}
		}
		for pe := 0; pe < 4; pe++ {
			if a.PEFactor(inst, pe) != b.PEFactor(inst, pe) {
				t.Fatalf("same seed PE factor diverged at (%d,%d)", inst, pe)
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestOverrunRateMatchesProb(t *testing.T) {
	p, err := New(Spec{Seed: 9, OverrunProb: 0.2, OverrunFactor: 1.2}, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, hits := 0, 0
	for inst := 0; inst < 2000; inst++ {
		for task := 0; task < 10; task++ {
			n++
			if p.TaskFactor(inst, task) > 1 {
				hits++
			}
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("empirical overrun rate %v, want ≈0.2", rate)
	}
}

func TestHotTasksBurst(t *testing.T) {
	p, err := New(Spec{
		Seed: 5, HotTasks: 2, HotFactor: 1.5, BurstProb: 0.1, BurstLen: 5,
	}, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	hot := p.hot
	if len(hot) != 2 || hot[0] == hot[1] {
		t.Fatalf("hot tasks %v, want 2 distinct", hot)
	}
	// Hot tasks burst in runs: a burst starting at instance j covers
	// [j, j+BurstLen), so some run of ≥ BurstLen consecutive overrun
	// instances must exist. Non-hot tasks never overrun under this spec.
	maxRun := 0
	for task := 0; task < 15; task++ {
		run := 0
		for inst := 0; inst < 500; inst++ {
			f := p.TaskFactor(inst, task)
			if !p.isHot[task] {
				if f != 1 {
					t.Fatalf("non-hot task %d overran", task)
				}
				continue
			}
			if f > 1 {
				run++
				if run > maxRun {
					maxRun = run
				}
			} else {
				run = 0
			}
		}
	}
	if maxRun < 5 {
		t.Fatalf("longest burst run %d, want ≥ BurstLen (5)", maxRun)
	}
	if p.MaxFactor() != 1.5 {
		t.Fatalf("MaxFactor %v, want 1.5", p.MaxFactor())
	}
}

func TestPESlowdown(t *testing.T) {
	p, err := New(Spec{Seed: 3, PESlowProb: 0.1, PESlowFactor: 1.3}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for inst := 0; inst < 1000; inst++ {
		for pe := 0; pe < 3; pe++ {
			f := p.PEFactor(inst, pe)
			if f != 1 && f != 1.3 {
				t.Fatalf("PE factor %v", f)
			}
			if f > 1 {
				hits++
			}
		}
	}
	rate := float64(hits) / 3000
	if math.Abs(rate-0.1) > 0.03 {
		t.Fatalf("PE slowdown rate %v, want ≈0.1", rate)
	}
	// Combined factor multiplies.
	if got := p.Factor(0, 99, -1); got != 1 {
		t.Fatalf("out-of-range ids must be identity, got %v", got)
	}
}

func TestDefaultedFactors(t *testing.T) {
	p, err := New(Spec{Seed: 1, OverrunProb: 0.5, OverrunFactor: 1.3, HotTasks: 1, BurstProb: 0.2, BurstLen: 3}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.spec.HotFactor != 1.3 {
		t.Fatalf("HotFactor should default to OverrunFactor, got %v", p.spec.HotFactor)
	}
	if p.spec.PESlowFactor != 1 {
		t.Fatalf("PESlowFactor should default to 1, got %v", p.spec.PESlowFactor)
	}
}

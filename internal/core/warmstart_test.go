package core

import (
	"math"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// warmEnvelope bounds how far a warm-started run's average energy may drift
// from the full-recompute run's: the warm path approximates the stretch
// weighting of unaffected tasks, never schedule validity, so the two runs
// must land in the same energy regime.
const warmEnvelope = 0.15

// TestWarmEquivalenceProperty is the acceptance property of incremental
// rescheduling: across random CTGs and drift patterns, a warm-started run
// and a from-scratch run (caching off in both, so every trigger recomputes)
// produce valid schedules with identical deadline-miss counts and average
// energy within the envelope — and the warm run actually exercises the
// incremental path.
func TestWarmEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{3, 17, 29, 41} {
		g, cfg := testWorkload(t, seed)
		_, p, err := tgff.Generate(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		vec := trace.Fluctuating(g, seed+100, 400, 0.45)

		run := func(warm bool) (RunStats, *Manager) {
			opts := Options{Window: 20, WarmStart: warm}
			opts.SetThreshold(0.1)
			m, err := New(g, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run(vec)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Schedule().Validate(); err != nil {
				t.Fatalf("seed %d warm=%v: final schedule invalid: %v", seed, warm, err)
			}
			return st, m
		}
		full, _ := run(false)
		warm, wm := run(true)

		if full.WarmStarts != 0 {
			t.Fatalf("seed %d: warm-off run reported %d warm starts", seed, full.WarmStarts)
		}
		if warm.WarmStarts == 0 {
			t.Fatalf("seed %d: warm-on run never warm-started (fallbacks %d)", seed, warm.WarmFallbacks)
		}
		if ws, fb := wm.WarmStats(); ws != warm.WarmStarts || fb != warm.WarmFallbacks {
			t.Fatalf("seed %d: WarmStats (%d, %d) disagree with RunStats (%d, %d)",
				seed, ws, fb, warm.WarmStarts, warm.WarmFallbacks)
		}
		if warm.Misses != full.Misses {
			t.Fatalf("seed %d: warm run missed %d deadlines, full run %d", seed, warm.Misses, full.Misses)
		}
		if full.AvgEnergy > 0 {
			if delta := math.Abs(warm.AvgEnergy-full.AvgEnergy) / full.AvgEnergy; delta > warmEnvelope {
				t.Fatalf("seed %d: warm avg energy %v vs full %v (%.1f%% apart, envelope %.0f%%)",
					seed, warm.AvgEnergy, full.AvgEnergy, 100*delta, 100*warmEnvelope)
			}
		}
		if warm.Instances != full.Instances || warm.Calls > full.Calls {
			t.Fatalf("seed %d: warm run (%d instances, %d calls) vs full (%d, %d)",
				seed, warm.Instances, warm.Calls, full.Instances, full.Calls)
		}
	}
}

// TestWarmEquivalencePerScenario pins the same property for the
// per-scenario DVFS mode, whose warm tier reuses the speed table verbatim
// under pure probability drift.
func TestWarmEquivalencePerScenario(t *testing.T) {
	g, cfg := testWorkload(t, 23)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	vec := trace.Fluctuating(g, 123, 300, 0.45)

	run := func(warm bool) RunStats {
		opts := Options{Window: 20, PerScenario: true, WarmStart: warm}
		opts.SetThreshold(0.1)
		m, err := New(g, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(vec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full := run(false)
	warm := run(true)
	if warm.WarmStarts == 0 {
		t.Fatal("per-scenario warm run never warm-started")
	}
	if warm.Misses != full.Misses {
		t.Fatalf("per-scenario: warm missed %d, full %d", warm.Misses, full.Misses)
	}
	// The per-scenario speed table depends only on mapping/platform/guard,
	// so warm reuse is exact: energies must agree to float tolerance.
	if full.AvgEnergy > 0 {
		if delta := math.Abs(warm.AvgEnergy-full.AvgEnergy) / full.AvgEnergy; delta > 1e-9 {
			t.Fatalf("per-scenario warm energy %v != full %v", warm.AvgEnergy, full.AvgEnergy)
		}
	}
}

// TestMarkAffectedMatchesReference checks the manager's buffer-reusing
// affected-set computation against the exported from-first-principles
// reference on every single-fork and pairwise drift.
func TestMarkAffectedMatchesReference(t *testing.T) {
	g, cfg := testWorkload(t, 31)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, p, Options{Window: 20})
	if err != nil {
		t.Fatal(err)
	}
	nf := g.NumForks()
	var cases [][]int
	for fi := 0; fi < nf; fi++ {
		cases = append(cases, []int{fi})
		for fj := fi + 1; fj < nf; fj++ {
			cases = append(cases, []int{fi, fj})
		}
	}
	for _, changed := range cases {
		count := m.tx.markAffected(changed)
		want := affectedByDrift(m.a, changed)
		got := m.tx.affected
		wantCount := 0
		for t2 := range want {
			if want[t2] {
				wantCount++
			}
			if got[t2] != want[t2] {
				t.Fatalf("drift %v: task %d affected=%v, reference %v", changed, t2, got[t2], want[t2])
			}
		}
		if count != wantCount {
			t.Fatalf("drift %v: markAffected count %d, reference %d", changed, count, wantCount)
		}
		if wantCount == 0 {
			t.Fatalf("drift %v: empty affected set (fork itself must be affected)", changed)
		}
	}
}

// TestWarmPureReuseWhenStateUnchanged pins the cheapest warm tier: when a
// trigger leaves the schedule-built probability/guard state bit-for-bit
// intact, the incumbent is adopted verbatim (no stretch pass, no fallback).
func TestWarmPureReuseWhenStateUnchanged(t *testing.T) {
	g, cfg := testWorkload(t, 37)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, p, Options{Window: 20, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Schedule()
	tx := m.begin(nil)
	ok, err := tx.tryWarmStart("drift", tx.effectiveGuard())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("unchanged state not served by pure reuse")
	}
	m.adopt(tx)
	if m.Schedule() != before {
		t.Fatal("pure reuse replaced the schedule pointer")
	}
	if starts, fallbacks := m.WarmStats(); starts != 1 || fallbacks != 0 {
		t.Fatalf("WarmStats after pure reuse = (%d, %d), want (1, 0)", starts, fallbacks)
	}
}

// TestProfilerEstimateIntoEquivalence pins the allocation-free estimate
// accessors against their allocating counterparts.
func TestProfilerEstimateIntoEquivalence(t *testing.T) {
	g, _ := testWorkload(t, 43)
	p, err := NewProfiler(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		for fi := 0; fi < g.NumForks(); fi++ {
			if err := p.Observe(fi, i%p.NumOutcomes(fi)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf []float64
	for fi := 0; fi < g.NumForks(); fi++ {
		est := p.Estimate(fi)
		buf = p.EstimateInto(fi, buf[:0])
		if len(buf) != len(est) {
			t.Fatalf("fork %d: EstimateInto len %d, Estimate len %d", fi, len(buf), len(est))
		}
		for k := range est {
			if buf[k] != est[k] {
				t.Fatalf("fork %d outcome %d: EstimateInto %v != Estimate %v", fi, k, buf[k], est[k])
			}
			if got := p.estimateAt(fi, k, -1); got != est[k] {
				t.Fatalf("fork %d outcome %d: estimateAt %v != Estimate %v", fi, k, got, est[k])
			}
		}
	}
}

// affectedByDrift computes, from first principles, the warm-start affected
// mask for a drift confined to the given forks (dense indices): each changed
// fork itself plus every task whose activation set is split across that
// fork's outcomes. It is the reference rule markAffected (buffer-reusing,
// incremental) is compared against.
func affectedByDrift(a *ctg.Analysis, changed []int) []bool {
	g := a.Graph()
	forks := g.Forks()
	affected := make([]bool, g.NumTasks())
	for _, fi := range changed {
		fork := forks[fi]
		outcomes := g.Outcomes(fork)
		sets := make([]ctg.Bitset, outcomes)
		for o := range sets {
			sets[o] = ctg.NewBitset(a.NumScenarios())
		}
		for si := 0; si < a.NumScenarios(); si++ {
			if o := a.Scenario(si).Assign[fi]; o >= 0 {
				sets[o].Set(si)
			}
		}
		affected[fork] = true
		for t := 0; t < g.NumTasks(); t++ {
			if affected[t] {
				continue
			}
			gamma := a.ActivationSet(ctg.TaskID(t))
			hits := 0
			for _, so := range sets {
				if gamma.Intersects(so) {
					hits++
				}
			}
			if hits >= 1 && hits < outcomes {
				affected[t] = true
			}
		}
	}
	return affected
}

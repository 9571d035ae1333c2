package exp

import (
	"strings"
	"testing"
)

// The experiment runners are deterministic (seeded workloads), so these
// tests pin the qualitative shape of every reproduced table and figure —
// the same relations DESIGN.md §3 promises — and compare each rendered
// table with its golden file under testdata/ (go test -update rewrites them).

func TestTable1Shape(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Online != 100 {
			t.Fatalf("CTG %d: online not normalized to 100", row.CTG)
		}
		// Reference algorithm 1 is clearly worse on every CTG.
		if row.Ref1 < 110 {
			t.Errorf("CTG %d: ref1 = %.1f, want ≥ 110", row.CTG, row.Ref1)
		}
		// Reference algorithm 2 (NLP) is at least as good as the online
		// heuristic, but close to it (the paper's ~8% gap).
		if row.Ref2 > 102 {
			t.Errorf("CTG %d: ref2 = %.1f, want ≤ 102", row.CTG, row.Ref2)
		}
		if row.Ref2 < 80 {
			t.Errorf("CTG %d: ref2 = %.1f suspiciously far below online", row.CTG, row.Ref2)
		}
	}
	if r.AvgRef1 < 120 {
		t.Errorf("avg ref1 = %.1f, want ≥ 120 (paper: ~180)", r.AvgRef1)
	}
	// The heuristic replaces the NLP at a runtime orders of magnitude
	// lower.
	if r.Speedup < 50 {
		t.Errorf("speedup = %.0f, want ≥ 50", r.Speedup)
	}
	if !strings.Contains(r.Timing(), "speedup") {
		t.Error("timing missing the speedup")
	}
	checkGolden(t, "table1.golden", r.Render())
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 1000 {
		t.Fatalf("got %d points, want 1000", len(r.Points))
	}
	if r.Updates < 2 || r.Updates > 80 {
		t.Fatalf("updates = %d, want a handful over 1000 iterations", r.Updates)
	}
	prevFiltered := 0.5
	for i, pt := range r.Points {
		if pt.WindowProb < 0 || pt.WindowProb > 1 {
			t.Fatalf("point %d: window prob %v out of range", i, pt.WindowProb)
		}
		if pt.Selection != 0 && pt.Selection != 1 {
			t.Fatalf("point %d: selection %d", i, pt.Selection)
		}
		// The filtered series only moves on updates (low-pass behavior).
		if !pt.Updated && pt.Filtered != prevFiltered {
			t.Fatalf("point %d: filtered moved without an update", i)
		}
		if pt.Updated && pt.Filtered != pt.WindowProb {
			t.Fatalf("point %d: update did not adopt the window estimate", i)
		}
		prevFiltered = pt.Filtered
	}
	checkGolden(t, "figure4.golden", r.Render())
}

func TestMPEGShape(t *testing.T) {
	if testing.Short() {
		t.Skip("MPEG experiment takes a few seconds")
	}
	r, err := MPEG()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("got %d movies, want 8", len(r.Rows))
	}
	// Fine-grained adaptation (T=0.1) saves energy on average, and more
	// than coarse adaptation (T=0.5) does.
	if r.SavingsT01 <= 0.02 {
		t.Errorf("T=0.1 savings = %.3f, want > 2%%", r.SavingsT01)
	}
	if r.SavingsT01 <= r.SavingsT05 {
		t.Errorf("T=0.1 savings %.3f not above T=0.5 savings %.3f", r.SavingsT01, r.SavingsT05)
	}
	// The threshold controls the re-scheduling rate by more than an order
	// of magnitude (paper: 9 vs 162 calls).
	if r.AvgCallsT01 < 5*r.AvgCallsT05 {
		t.Errorf("call counts %v vs %v: T=0.1 should re-schedule far more",
			r.AvgCallsT01, r.AvgCallsT05)
	}
	if r.AvgCallsT05 > 40 {
		t.Errorf("T=0.5 calls = %.1f, want coarse (≈9)", r.AvgCallsT05)
	}
	checkGolden(t, "figure5.golden", r.Render())
}

func TestCruiseShape(t *testing.T) {
	r, err := Cruise()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d sequences, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Adaptive never loses on the cruise workload...
		if row.Adaptive > row.NonAdaptive*1.005 {
			t.Errorf("sequence %d: adaptive %.2f worse than non-adaptive %.2f",
				row.Sequence, row.Adaptive, row.NonAdaptive)
		}
	}
	// ...but the gain stays small (the paper's ~5%): three minterms of
	// nearly equal energy and a deadline at twice the optimum.
	if r.AvgSaving <= 0 || r.AvgSaving > 0.15 {
		t.Errorf("avg saving = %.3f, want small positive", r.AvgSaving)
	}
	// Threshold 0.1 sequences re-schedule two orders of magnitude more
	// than the threshold 0.5 one (paper: ~150 vs ~9).
	if r.Rows[0].Calls < 50 || r.Rows[1].Calls < 50 {
		t.Errorf("T=0.1 calls = %d/%d, want ≥ 50", r.Rows[0].Calls, r.Rows[1].Calls)
	}
	if r.Rows[2].Calls > 30 {
		t.Errorf("T=0.5 calls = %d, want coarse", r.Rows[2].Calls)
	}
	checkGolden(t, "table3.golden", r.Render())
}

func TestRandomCTGShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("random-CTG experiments take a few seconds")
	}
	t4, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	f6, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 10 || len(t5.Rows) != 10 || len(f6.Rows) != 10 {
		t.Fatal("each random-CTG experiment must cover 10 graphs")
	}

	// The central Table 4 vs Table 5 contrast: a profile biased to the
	// lowest-energy minterm costs the online algorithm far more than one
	// biased to the highest-energy minterm.
	if t4.AvgSavingT01 < t5.AvgSavingT01+0.05 {
		t.Errorf("T=0.1 savings: lowest-bias %.3f vs highest-bias %.3f, want a clear gap",
			t4.AvgSavingT01, t5.AvgSavingT01)
	}
	if t4.AvgSavingT05 < t5.AvgSavingT05 {
		t.Errorf("T=0.5 savings: lowest-bias %.3f below highest-bias %.3f",
			t4.AvgSavingT05, t5.AvgSavingT05)
	}
	// Both biased settings leave the adaptive algorithm ahead on average.
	if t4.AvgSavingT01 <= 0.05 {
		t.Errorf("table 4 savings %.3f, want substantial", t4.AvgSavingT01)
	}
	if t5.AvgSavingT01 <= 0 {
		t.Errorf("table 5 savings %.3f, want positive", t5.AvgSavingT01)
	}
	// Ideal profiling shrinks but does not erase the adaptive advantage.
	if f6.AvgSavingT01 < -0.01 || f6.AvgSavingT01 > t4.AvgSavingT01 {
		t.Errorf("figure 6 savings %.3f out of expected band", f6.AvgSavingT01)
	}
	// Category 1 (nested fork-join) benefits at least as much as the flat
	// Category 2 under biased profiles (paper: ~8% higher).
	if t5.Cat1SavingT05 < t5.Cat2SavingT05 {
		t.Errorf("table 5 category savings inverted: %.3f vs %.3f",
			t5.Cat1SavingT05, t5.Cat2SavingT05)
	}
	// Threshold ordering of call counts holds everywhere.
	for _, r := range []*RandomResult{t4, t5, f6} {
		if r.AvgCallsT01 < 3*r.AvgCallsT05 {
			t.Errorf("%v: calls %v vs %v, want far more at T=0.1",
				r.Bias, r.AvgCallsT01, r.AvgCallsT05)
		}
	}
	if t4.Bias.String() == t5.Bias.String() {
		t.Error("bias labels must differ")
	}
	checkGolden(t, "table4.golden", t4.Render())
	checkGolden(t, "table5.golden", t5.Render())
	checkGolden(t, "figure6.golden", f6.Render())
}

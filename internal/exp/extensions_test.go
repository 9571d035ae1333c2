package exp

import "testing"

func TestAblationRatioShape(t *testing.T) {
	r, err := AblationRatio()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(r.Rows))
	}
	// The released-denominator reading tracks the NLP optimum closely;
	// the literal reading strands a large share of the slack.
	if r.AvgReleased > 115 {
		t.Errorf("released variant avg %.1f, want close to NLP (≤ 115)", r.AvgReleased)
	}
	if r.AvgLiteral < r.AvgReleased+20 {
		t.Errorf("literal variant avg %.1f not clearly worse than released %.1f",
			r.AvgLiteral, r.AvgReleased)
	}
	for _, row := range r.Rows {
		if row.NLP <= 0 {
			t.Errorf("CTG %d: non-positive NLP energy", row.CTG)
		}
		if row.Literal < row.Released-1 {
			t.Errorf("CTG %d: literal %.1f beats released %.1f", row.CTG, row.Literal, row.Released)
		}
	}
	checkGolden(t, "ablation.golden", r.Render())
}

func TestAblationDesignShape(t *testing.T) {
	r, err := AblationDesign()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("got %d rows, want 6 (seed 99 + the five Table 1 CTGs)", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Four speed levels can only round a continuous speed up, so
		// quantization never saves energy.
		if row.Discrete < row.Default {
			t.Errorf("%s: 4-level DVFS %.2f beats continuous %.2f", row.Name, row.Discrete, row.Default)
		}
	}
	checkGolden(t, "ablation-design.golden", r.Render())
}

func TestOverheadShape(t *testing.T) {
	r, err := Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 4 {
		t.Fatalf("got %d points", len(r.Points))
	}
	if r.Points[0].SwitchTime != 0 {
		t.Fatal("first point must be the zero-overhead baseline")
	}
	if r.Points[0].Misses != 0 {
		t.Fatal("zero overhead must meet all deadlines")
	}
	// Energy grows monotonically with the overhead, and the stretched
	// schedule stays below the full-speed reference until the overhead is
	// extreme.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Energy < r.Points[i-1].Energy-1e-9 {
			t.Errorf("energy not monotone at point %d", i)
		}
		if r.Points[i].Misses < r.Points[i-1].Misses {
			t.Errorf("misses not monotone at point %d", i)
		}
	}
	last := r.Points[len(r.Points)-1]
	if last.Misses == 0 {
		t.Error("extreme unbudgeted switch time should break some deadlines")
	}
	if r.Points[0].Energy >= r.Points[0].FullSpeedEnergy {
		t.Error("DVFS must beat full speed at zero overhead")
	}
	checkGolden(t, "overhead.golden", r.Render())
}

func TestSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs adaptive managers")
	}
	// A trimmed grid keeps the test fast while still checking the two
	// monotonicities that matter.
	r, err := Sweep([]int{10, 20}, []float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 4 {
		t.Fatalf("got %d cells", len(r.Cells))
	}
	get := func(w int, th float64) SweepCell {
		for _, c := range r.Cells {
			if c.Window == w && c.Threshold == th {
				return c
			}
		}
		t.Fatalf("missing cell %d/%v", w, th)
		return SweepCell{}
	}
	// Lower thresholds re-schedule more, at every window size.
	for _, w := range []int{10, 20} {
		if get(w, 0.1).Calls <= get(w, 0.5).Calls {
			t.Errorf("window %d: calls not decreasing in threshold", w)
		}
	}
	// Larger windows re-schedule less at the same threshold (noise is
	// averaged away).
	if get(20, 0.1).Calls >= get(10, 0.1).Calls {
		t.Error("window 20 should trigger fewer calls than window 10")
	}
	checkGolden(t, "sweep.golden", r.Render())
}

func TestPerScenarioDVFSShape(t *testing.T) {
	r, err := PerScenarioDVFS()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("got %d rows, want 7 (5 random + MPEG + WLAN)", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Conditioning on more information can never hurt.
		if row.PerScenario > row.SingleSpeed*1.001 {
			t.Errorf("%s: per-scenario %v worse than single-speed %v",
				row.Name, row.PerScenario, row.SingleSpeed)
		}
		if row.Scenarios < 2 {
			t.Errorf("%s: degenerate scenario count %d", row.Name, row.Scenarios)
		}
	}
	if r.AvgSaving <= 0.05 {
		t.Errorf("avg saving %.3f, want a clear advantage", r.AvgSaving)
	}
	checkGolden(t, "perscenario.golden", r.Render())
}

func TestRobustnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness replays the Table 4/5 experiment per seed")
	}
	r, err := Robustness(2)
	if err != nil {
		t.Fatal(err)
	}
	// The Table 4/5 contrast is no seed artifact: a profile biased to the
	// lowest-energy minterm leaves more to adapt than one biased to the
	// highest, on every replication.
	if r.Gap.Min <= 0 {
		t.Errorf("Table4−Table5 gap %v, want positive on every seed", r.Gap)
	}
	if r.SavingT01.Min <= 0 {
		t.Errorf("T=0.1 saving %v, want positive on every seed", r.SavingT01)
	}
	checkGolden(t, "robustness.golden", r.Render())
}

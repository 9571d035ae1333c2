package wlan

import (
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sim"
)

func TestBuildStructure(t *testing.T) {
	g, p, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 22 {
		t.Fatalf("tasks = %d, want 22", g.NumTasks())
	}
	if g.NumForks() != 2 {
		t.Fatalf("forks = %d, want 2", g.NumForks())
	}
	if got := g.Outcomes(ctg.TaskID(TaskRateSelect)); got != 4 {
		t.Fatalf("rate fork outcomes = %d, want 4", got)
	}
	if p.NumPEs() != NumPEs || p.NumTasks() != 22 {
		t.Fatal("platform dimensions wrong")
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	// 2 preamble modes × 4 rates.
	if a.NumScenarios() != 8 {
		t.Fatalf("scenarios = %d, want 8", a.NumScenarios())
	}
	// The four demod chains are pairwise exclusive; preamble and rate
	// arms are orthogonal.
	if !a.MutuallyExclusive(TaskDBPSKDemod, TaskCCK11Demod) {
		t.Fatal("different rate arms must be exclusive")
	}
	if a.MutuallyExclusive(TaskLongSync, TaskCCK11Demod) {
		t.Fatal("preamble and rate arms are orthogonal, not exclusive")
	}
	// The 1 Mbps chain is the heaviest (low rate = long airtime/work).
	if p.WCET(TaskDBPSKDemod, 1) <= p.WCET(TaskCCK11Demod, 1) {
		t.Fatal("1M demod must outweigh 11M demod")
	}
}

func TestChannelTraceFollowsSNR(t *testing.T) {
	g, _, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	v := ChannelTrace(g, 5, 4000)
	if len(v) != 4000 {
		t.Fatalf("got %d vectors", len(v))
	}
	rateIdx := g.ForkIndex(ctg.TaskID(TaskRateSelect))
	preIdx := g.ForkIndex(ctg.TaskID(TaskSyncDetect))
	counts := [4]int{}
	shortWith11, shortTotal := 0, 0
	for _, row := range v {
		counts[row[rateIdx]]++
		if row[rateIdx] == 3 {
			shortTotal++
			if row[preIdx] == 1 {
				shortWith11++
			}
		}
	}
	for k, c := range counts {
		if c == 0 {
			t.Fatalf("rate %d never selected over 4000 frames", k)
		}
	}
	// 11 Mbps frames correlate with good channels, hence short preambles.
	if shortTotal > 0 && float64(shortWith11)/float64(shortTotal) < 0.5 {
		t.Fatalf("11M frames use short preambles only %d/%d of the time",
			shortWith11, shortTotal)
	}
}

func TestEndToEndAdaptive(t *testing.T) {
	g, p, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err = core.TightenDeadline(g, p, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.BuildOnline(g, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sim.Exhaustive(s, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Misses > 0 {
		t.Fatalf("%d deadline misses on the static schedule", sum.Misses)
	}

	vec := ChannelTrace(g, 9, 600)
	mgr, err := core.New(g, p, core.Options{Window: 20, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 0 {
		t.Fatalf("%d adaptive misses", st.Misses)
	}
	if st.Calls == 0 {
		t.Fatal("no adaptation under a fading channel")
	}
}

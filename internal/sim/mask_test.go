package sim

import (
	"strings"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// TestReplayRefusesMaskedHardware pins the dispatcher-side guard: a schedule
// whose placements land on masked-out hardware must be rejected at replay,
// not silently executed.
func TestReplayRefusesMaskedHardware(t *testing.T) {
	b := ctg.NewBuilder()
	t0 := b.AddTask("", ctg.AndNode)
	t1 := b.AddTask("", ctg.AndNode)
	b.AddEdge(t0, t1, 10)
	g, err := b.Build(1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	p := uniformPlatform(t, 2, 2, 5, 1)
	// Force a cross-PE placement so the schedule uses both a PE and a link.
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	s.PE[0], s.PE[1] = 0, 1
	s.Start[1] = s.Start[0] + p.WCET(0, 0) + p.CommTime(10, 0, 1)
	s.CommStart[0] = s.Start[0] + p.WCET(0, 0)
	s.LinkOrder = map[[2]int][]int{{0, 1}: {0}}
	s.Order = []ctg.TaskID{0, 1}
	if _, err := Replay(s, 0, Config{}); err != nil {
		t.Fatalf("healthy replay failed: %v", err)
	}

	deadPE := platform.FullMask(2)
	deadPE.PEs[1] = false
	rp, err := p.Restrict(deadPE)
	if err != nil {
		t.Fatal(err)
	}
	masked := *s
	masked.P = rp
	if _, err := Replay(&masked, 0, Config{}); err == nil || !strings.Contains(err.Error(), "dead PE") {
		t.Fatalf("replay on dead PE: err = %v, want dead-PE refusal", err)
	}

	downLink := platform.FullMask(2)
	downLink.Links[0][1] = false
	rl, err := p.Restrict(downLink)
	if err != nil {
		t.Fatal(err)
	}
	linkMasked := *s
	linkMasked.P = rl
	if _, err := Replay(&linkMasked, 0, Config{}); err == nil || !strings.Contains(err.Error(), "down link") {
		t.Fatalf("replay over down link: err = %v, want down-link refusal", err)
	}
}

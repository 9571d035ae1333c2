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
	// WCETs that make each task run 200x faster on its own PE force DLS
	// into a cross-PE placement, so the schedule (and its dispatch plan)
	// uses both a PE and a link.
	pb := platform.NewBuilder(2, 2)
	pb.SetTask(0, []float64{5, 1000}, []float64{1, 1})
	pb.SetTask(1, []float64{1000, 5}, []float64{1, 1})
	pb.SetAllLinks(1, 0.1)
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	if s.PE[0] != 0 || s.PE[1] != 1 || s.CommStart[0] == sched.LocalComm {
		t.Fatalf("fixture placed tasks on PEs %v with comm start %v; want 0->1 over the link",
			s.PE, s.CommStart[0])
	}
	if _, err := Replay(s, 0, Config{}); err != nil {
		t.Fatalf("healthy replay failed: %v", err)
	}

	// A schedule without a dispatch plan is refused, not replayed as an
	// empty timeline that trivially meets the deadline.
	bare := *s
	bare.Plan = nil
	if _, err := Replay(&bare, 0, Config{}); err == nil || !strings.Contains(err.Error(), "no dispatch plan") {
		t.Fatalf("replay without a plan: err = %v, want no-plan refusal", err)
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

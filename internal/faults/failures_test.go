package faults

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTimelineValidation(t *testing.T) {
	bad := []FailureSpec{
		{PEDeathProb: -0.1},
		{PEDeathProb: 1.5},
		{PEFailProb: 2},
		{LinkFailProb: -1},
		{PERepair: -1},
		{LinkRepair: -2},
		{Events: []FailureEvent{{Kind: "pe", PE: -1}}},
		{Events: []FailureEvent{{Kind: "pe", PE: 9}}},
		{Events: []FailureEvent{{Kind: "link", From: 0, To: 0}}},
		{Events: []FailureEvent{{Kind: "link", From: 0, To: 7}}},
		{Events: []FailureEvent{{Kind: "volcano"}}},
		{Events: []FailureEvent{{Kind: "pe", PE: 0, Instance: -2}}},
		{Events: []FailureEvent{{Kind: "pe", PE: 0, Duration: -1}}},
	}
	for i, spec := range bad {
		if _, err := NewTimeline(spec, 3); err == nil {
			t.Errorf("spec %d (%+v): accepted", i, spec)
		}
	}
	if _, err := NewTimeline(FailureSpec{}, 0); err == nil {
		t.Error("zero PE count accepted")
	}
	if _, err := NewTimeline(FailureSpec{}, 3); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
}

func TestZeroSpecNeverFails(t *testing.T) {
	tl, err := NewTimeline(FailureSpec{Seed: 99}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []int{0, 1, 17, 1000} {
		if !tl.MaskAt(inst).IsFull() {
			t.Fatalf("instance %d: zero spec produced a degraded mask", inst)
		}
	}
}

func TestTimelineDeterministicAndOrderIndependent(t *testing.T) {
	spec := FailureSpec{Seed: 7, PEDeathProb: 0.01, PEFailProb: 0.1, PERepair: 3, LinkFailProb: 0.05, LinkRepair: 2}
	a, err := NewTimeline(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTimeline(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Query a forward, b backward: masks must agree instance by instance.
	const n = 200
	fwd := make([]string, n)
	for i := 0; i < n; i++ {
		fwd[i] = a.MaskAt(i).String()
	}
	for i := n - 1; i >= 0; i-- {
		if got := b.MaskAt(i).String(); got != fwd[i] {
			t.Fatalf("instance %d: order-dependent mask: %s vs %s", i, got, fwd[i])
		}
	}
	// A different seed must decorrelate (at these rates 200 instances of
	// identical history would be astronomically unlikely).
	c, err := NewTimeline(FailureSpec{Seed: 8, PEDeathProb: 0.01, PEFailProb: 0.1, PERepair: 3, LinkFailProb: 0.05, LinkRepair: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < n; i++ {
		if c.MaskAt(i).String() != fwd[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not alter the failure history")
	}
}

func TestPermanentDeathIsMonotonic(t *testing.T) {
	tl, err := NewTimeline(FailureSpec{Seed: 3, PEDeathProb: 0.05}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	deadAt := make([]int, 4)
	for pe := range deadAt {
		deadAt[pe] = -1
	}
	for i := 0; i < n; i++ {
		m := tl.MaskAt(i)
		for pe := 0; pe < 4; pe++ {
			if !m.PEAlive(pe) {
				if deadAt[pe] < 0 {
					deadAt[pe] = i
				}
				if !tl.PermanentlyDead(i, pe) {
					t.Fatalf("instance %d: PE %d down but not PermanentlyDead under a death-only spec", i, pe)
				}
			} else if deadAt[pe] >= 0 {
				t.Fatalf("instance %d: PE %d resurrected (died at %d)", i, pe, deadAt[pe])
			}
		}
	}
	died := 0
	for _, d := range deadAt {
		if d >= 0 {
			died++
		}
	}
	// At death prob 0.05 over 400 instances each PE dies w.p. ~1-(0.95)^400;
	// the keep-alive floor must still leave one survivor.
	if died == 0 {
		t.Fatal("no PE died over 400 instances at PEDeathProb 0.05 (suspicious hashing)")
	}
	if died == 4 {
		t.Fatal("keep-alive floor failed: all PEs permanently dead")
	}
}

func TestKeepAliveFloor(t *testing.T) {
	// PEDeathProb 1 would kill everything at instance 0; the floor must spare
	// exactly one PE forever.
	tl, err := NewTimeline(FailureSpec{Seed: 11, PEDeathProb: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []int{0, 5, 50} {
		m := tl.MaskAt(inst)
		if got := m.NumAlive(3); got != 1 {
			t.Fatalf("instance %d: %d survivors, want exactly 1", inst, got)
		}
	}
	// Combined with transient outages on everything the floor still holds.
	tl2, err := NewTimeline(FailureSpec{Seed: 11, PEDeathProb: 1, PEFailProb: 1, PERepair: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < 20; inst++ {
		if got := tl2.MaskAt(inst).NumAlive(3); got < 1 {
			t.Fatalf("instance %d: no survivors", inst)
		}
	}
}

func TestTransientOutageRepairs(t *testing.T) {
	const repair = 3
	tl, err := NewTimeline(FailureSpec{Seed: 5, PEFailProb: 0.08, PERepair: repair}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	sawDown, sawRecovery := false, false
	downRun := make([]int, 3)
	for i := 0; i < n; i++ {
		m := tl.MaskAt(i)
		for pe := 0; pe < 3; pe++ {
			if !m.PEAlive(pe) {
				sawDown = true
				downRun[pe]++
				if tl.PermanentlyDead(i, pe) {
					t.Fatalf("transient outage reported permanent (instance %d pe %d)", i, pe)
				}
			} else {
				if downRun[pe] > 0 {
					sawRecovery = true
				}
				downRun[pe] = 0
			}
		}
	}
	if !sawDown || !sawRecovery {
		t.Fatalf("expected transient outages and recoveries over %d instances (down=%v up=%v)",
			n, sawDown, sawRecovery)
	}
}

func TestScriptedEvents(t *testing.T) {
	spec := FailureSpec{Events: []FailureEvent{
		{Kind: EventPE, PE: 1, Instance: 5, Duration: 3},
		{Kind: EventPE, PE: 2, Instance: 10}, // permanent
		{Kind: EventLink, From: 0, To: 2, Instance: 2, Duration: 4},
	}}
	tl, err := NewTimeline(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		inst      int
		pe1, pe2  bool // alive?
		link02    bool
		degradedQ bool
	}{
		{0, true, true, true, false},
		{2, true, true, false, true},
		{5, false, true, false, true},
		{6, false, true, true, true},
		{8, true, true, true, false},
		// PE 2 is permanently dead from instance 10, so any link touching it
		// reports down even though no link event is active.
		{10, true, false, false, true},
		{100, true, false, false, true},
	}
	for _, tc := range cases {
		m := tl.MaskAt(tc.inst)
		if m.PEAlive(1) != tc.pe1 || m.PEAlive(2) != tc.pe2 || m.LinkUp(0, 2) != tc.link02 {
			t.Fatalf("instance %d: got pe1=%v pe2=%v link02=%v, want %v/%v/%v",
				tc.inst, m.PEAlive(1), m.PEAlive(2), m.LinkUp(0, 2), tc.pe1, tc.pe2, tc.link02)
		}
		if !m.IsFull() != tc.degradedQ {
			t.Fatalf("instance %d: degraded = %v, want %v", tc.inst, !m.IsFull(), tc.degradedQ)
		}
	}
	if !tl.PermanentlyDead(10, 2) {
		t.Fatal("scripted permanent event not reported by PermanentlyDead")
	}
	if tl.PermanentlyDead(5, 1) {
		t.Fatal("scripted transient event reported permanent")
	}
}

func TestSpecFileRoundTrip(t *testing.T) {
	f := &SpecFile{
		Perturb: &Spec{Seed: 42, OverrunProb: 0.2, OverrunFactor: 1.2, HotTasks: 2, HotFactor: 1.5, BurstProb: 0.1, BurstLen: 4},
		Failures: &FailureSpec{
			Seed: 7, PEDeathProb: 0.001, PEFailProb: 0.02, PERepair: 3,
			LinkFailProb: 0.01, LinkRepair: 2,
			Events: []FailureEvent{{Kind: EventPE, PE: 1, Instance: 50, Duration: 10}},
		},
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpecFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if *back.Perturb != *f.Perturb {
		t.Fatalf("perturb spec did not round-trip: %+v vs %+v", *back.Perturb, *f.Perturb)
	}
	if back.Failures.Seed != f.Failures.Seed || back.Failures.PERepair != f.Failures.PERepair ||
		len(back.Failures.Events) != 1 || back.Failures.Events[0] != f.Failures.Events[0] {
		t.Fatalf("failure spec did not round-trip: %+v", *back.Failures)
	}
}

func TestSpecFileRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"unknown top-level field", `{"perturbations": {}}`},
		{"unknown nested field", `{"perturb": {"seed": 1, "overrun_probability": 0.2}}`},
		{"invalid probability", `{"perturb": {"overrun_prob": 1.5}}`},
		{"invalid factor", `{"perturb": {"overrun_prob": 0.1, "overrun_factor": 0.5}}`},
		{"invalid failure prob", `{"failures": {"pe_death_prob": -1}}`},
		{"invalid event kind", `{"failures": {"events": [{"kind": "gpu"}]}}`},
		{"trailing data", `{"failures": {}} {"failures": {}}`},
		{"not json", `pe_death_prob = 0.5`},
		// Power budgets are not part of the spec file: a power section is an
		// unknown field.
		{"power section", `{"power": {"cap": 10}}`},
	}
	for _, tc := range cases {
		if _, err := DecodeSpecFile([]byte(tc.data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSpecValidateMatchesNew(t *testing.T) {
	// Validate must reject exactly what New rejects for count-independent
	// specs: spot-check a few shapes both ways.
	bad := []Spec{
		{OverrunProb: 2},
		{OverrunProb: 0.1, OverrunFactor: 0.9},
		{HotTasks: -1},
		{BurstLen: -1},
		{HotTasks: 1, BurstProb: 0.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d: Validate accepted", i)
		}
		if _, err := New(s, 10, 2); err == nil {
			t.Errorf("spec %d: New accepted", i)
		}
	}
	ok := Spec{Seed: 1, OverrunProb: 0.2, OverrunFactor: 1.2}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestTimelineMaskString(t *testing.T) {
	tl, err := NewTimeline(FailureSpec{Events: []FailureEvent{{Kind: EventPE, PE: 0, Instance: 0}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := tl.MaskAt(0).String()
	if !strings.Contains(s, "dead PEs [0]") {
		t.Fatalf("mask string %q missing dead-PE report", s)
	}
}

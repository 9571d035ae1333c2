package series

import (
	"strings"
	"testing"

	"ctgdvfs/internal/telemetry"
)

// TestThresholdRuleForAndHysteresis walks the full rule state machine: the
// for-hold delays the firing, the firing event carries Seq/Cause provenance,
// the Clear dead band keeps the rule firing between clear and value, and the
// resolution chains back to the firing via Cause.
func TestThresholdRuleForAndHysteresis(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("m")
	clear := 0.1
	st := NewStore(StoreOptions{Registry: reg, Rules: []Rule{
		{Name: "hot", Metric: "m", Value: 0.2, For: 2, Clear: &clear},
	}})
	rec := telemetry.NewMemoryRecorder()
	seq := telemetry.NewSequencer()
	step := func(tick int, v float64, cause uint64) {
		g.Set(v)
		st.Tick(tick, rec, seq, cause)
	}

	step(0, 0.3, 7) // hold 1 of 2: no event yet
	if n := len(rec.Events()); n != 0 {
		t.Fatalf("rule fired after one breaching sample despite For: 2 (%d events)", n)
	}
	step(1, 0.35, 9) // hold 2 -> fires
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != telemetry.KindAlertFiring {
		t.Fatalf("want one alert_firing event, got %+v", evs)
	}
	fire := evs[0]
	if fire.Name != "hot" || fire.Reason != "m" || fire.Value != 0.35 || fire.Threshold != 0.2 {
		t.Fatalf("firing payload %+v", fire)
	}
	if fire.Instance != 1 || fire.Level != 2 {
		t.Fatalf("firing tick/hold = %d/%d, want 1/2", fire.Instance, fire.Level)
	}
	if fire.Seq == 0 || fire.Cause != 9 {
		t.Fatalf("firing Seq/Cause = %d/%d, want nonzero/9 (this tick's cause)", fire.Seq, fire.Cause)
	}

	step(2, 0.15, 0) // inside the dead band: still firing, no event
	if len(rec.Events()) != 1 {
		t.Fatal("rule flapped inside the Clear dead band")
	}
	al := st.Alerts()
	if len(al) != 1 || !al[0].Firing || al[0].Value != 0.15 {
		t.Fatalf("Alerts mid-band = %+v", al)
	}

	step(3, 0.05, 0) // below clear -> resolves
	evs = rec.Events()
	if len(evs) != 2 || evs[1].Kind != telemetry.KindAlertResolved {
		t.Fatalf("want alert_resolved, got %+v", evs)
	}
	if evs[1].Cause != fire.Seq {
		t.Fatalf("resolve Cause = %d, want the firing seq %d", evs[1].Cause, fire.Seq)
	}
	if al := st.Alerts(); al[0].Firing {
		t.Fatal("rule still firing after resolve")
	}

	// A breach after resolution is a fresh episode: hold restarts.
	step(4, 0.3, 0)
	if len(rec.Events()) != 2 {
		t.Fatal("hold counter did not reset after resolve")
	}
}

func TestRateRule(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("m")
	st := NewStore(StoreOptions{Registry: reg, Rules: []Rule{
		{Name: "climb", Metric: "m", Kind: RuleRate, Value: 0.5, Window: 4},
	}})
	rec := telemetry.NewMemoryRecorder()
	g.Set(0)
	st.Tick(0, rec, nil, 0) // one sample: rate undefined, no fire
	if len(rec.Events()) != 0 {
		t.Fatal("rate rule fired with a single sample")
	}
	g.Set(2)
	st.Tick(1, rec, nil, 0) // rate (2-0)/1 = 2 > 0.5 -> fires
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != telemetry.KindAlertFiring || evs[0].Value != 2 {
		t.Fatalf("rate firing events %+v", evs)
	}
}

func TestAbsenceRule(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("present").Set(1) // some unrelated metric keeps the store busy
	st := NewStore(StoreOptions{Registry: reg, Rules: []Rule{
		{Name: "silent", Metric: "ghost", Kind: RuleAbsence, Stale: 3},
	}})
	rec := telemetry.NewMemoryRecorder()
	st.Tick(0, rec, nil, 0)
	st.Tick(1, rec, nil, 0)
	if len(rec.Events()) != 0 {
		t.Fatal("absence rule fired before Stale ticks of silence")
	}
	st.Tick(2, rec, nil, 0) // third silent tick -> fires
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != telemetry.KindAlertFiring || evs[0].Name != "silent" {
		t.Fatalf("absence firing events %+v", evs)
	}
	// The metric appears: the next tick samples it at the current tick and
	// the rule resolves.
	reg.Gauge("ghost").Set(4)
	st.Tick(3, rec, nil, 0)
	evs = rec.Events()
	if len(evs) != 2 || evs[1].Kind != telemetry.KindAlertResolved {
		t.Fatalf("absence did not resolve on reappearance: %+v", evs)
	}
}

func TestRuleValidate(t *testing.T) {
	bad := [][]Rule{
		{{Metric: "m", Value: 1}},                             // no name
		{{Name: "x", Value: 1}},                               // no metric
		{{Name: "x", Metric: "m", Kind: "bogus"}},             // unknown kind
		{{Name: "x", Metric: "m", Op: "=="}},                  // unknown op
		{{Name: "x", Metric: "m", For: -1}},                   // negative for
		{{Name: "x", Metric: "m", Kind: RuleRate, Window: 1}}, // rate over one sample never fires
		{{Name: "x", Metric: "m", Value: 0.1, Clear: func() *float64 { v := 0.2; return &v }()}}, // clear above a ">" bound
		{{Name: "x", Metric: "m", Value: 1}, {Name: "x", Metric: "n", Value: 2}},                 // duplicate name
	}
	for i, rules := range bad {
		if err := (RuleSet{Rules: rules}).Validate(); err == nil {
			t.Errorf("rule set %d (%+v) validated, want error", i, rules)
		}
	}
	good := RuleSet{Rules: []Rule{
		{Name: "x", Metric: "m", Op: "<", Value: 0.5},
		{Name: "y", Metric: "m", Value: 0.9},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid rule set rejected: %v", err)
	}
}

func TestParseRulesRejectsUnknownFields(t *testing.T) {
	_, err := ParseRules(strings.NewReader(`{"rules":[{"name":"x","metric":"m","bogus":1}]}`))
	if err == nil {
		t.Fatal("unknown rule field accepted")
	}
	rs, err := ParseRules(strings.NewReader(`{"rules":[{"name":"x","metric":"m","value":0.5,"for":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 1 || rs.Rules[0].For != 2 {
		t.Fatalf("parsed %+v", rs)
	}
}

func TestNewStorePanicsOnBadInput(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("nil registry", func() { NewStore(StoreOptions{}) })
	expectPanic("invalid rule", func() {
		NewStore(StoreOptions{Registry: telemetry.NewRegistry(), Rules: []Rule{{Name: "x"}}})
	})
	expectPanic("duplicate rule name", func() {
		r := Rule{Name: "x", Metric: "m", Value: 1}
		NewStore(StoreOptions{Registry: telemetry.NewRegistry(), Rules: []Rule{r, r}})
	})
}

// TestCheckMetrics checks the dead-rule refusal matches names as the store
// samples them: counters and gauges by name, histograms only through their
// suffixed sub-series, and absence rules never refused.
func TestCheckMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("c")
	reg.Gauge("g")
	reg.Histogram("h", 0, 1, 4)
	for _, c := range []struct {
		rule Rule
		ok   bool
	}{
		{Rule{Name: "r", Metric: "c"}, true},
		{Rule{Name: "r", Metric: "g", Kind: RuleRate}, true},
		{Rule{Name: "r", Metric: "h" + SuffixP95}, true},
		{Rule{Name: "r", Metric: "h"}, false},
		{Rule{Name: "r", Metric: "missing"}, false},
		{Rule{Name: "r", Metric: "missing", Kind: RuleRate}, false},
		{Rule{Name: "r", Metric: "missing", Kind: RuleAbsence}, true},
	} {
		if err := CheckMetrics(reg, []Rule{c.rule}); (err == nil) != c.ok {
			t.Errorf("%+v: err %v, want ok=%v", c.rule, err, c.ok)
		}
	}
}

package series

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ctgdvfs/internal/telemetry"
)

// RuleKind enumerates the alert rule types.
type RuleKind string

const (
	// RuleThreshold fires when the metric's latest sample crosses Value.
	RuleThreshold RuleKind = "threshold"
	// RuleRate fires when the metric's per-tick rate of change over Window
	// samples crosses Value.
	RuleRate RuleKind = "rate"
	// RuleAbsence fires when the metric has not been sampled for Stale
	// consecutive ticks (a producer that should be reporting went silent).
	RuleAbsence RuleKind = "absence"
)

// Rule is one alert rule over one series. Rules are evaluated on every Tick
// against the freshly sampled values; a rule must hold for For consecutive
// breaching samples before it fires (the `for`-duration), and once firing it
// resolves only when the clear-side condition holds (hysteresis via Clear).
type Rule struct {
	// Name identifies the rule in alert events and the watch view.
	Name string `json:"name"`
	// Metric is the series watched (histogram sub-series use the metric name
	// plus .count/.mean/.p50/.p95/.p99).
	Metric string `json:"metric"`
	// Kind selects threshold, rate or absence semantics (default threshold).
	Kind RuleKind `json:"kind,omitempty"`
	// Op is the breach comparison: ">", ">=", "<" or "<=" (default ">").
	// Ignored by absence rules.
	Op string `json:"op,omitempty"`
	// Value is the breach bound. Ignored by absence rules.
	Value float64 `json:"value"`
	// For is the number of consecutive breaching samples required before the
	// rule fires (default 1 — fire on first breach).
	For int `json:"for,omitempty"`
	// Clear is the resolve bound: a firing rule resolves when the observed
	// value is on the non-breach side of Clear. Default Value (no
	// hysteresis); set it inside the breach bound to add a dead band, e.g.
	// Op ">" Value 0.12 Clear 0.10 fires above 0.12 and resolves below 0.10.
	Clear *float64 `json:"clear,omitempty"`
	// Window is the trailing sample window of a rate rule (default 8; a
	// rate needs at least 2 samples).
	Window int `json:"window,omitempty"`
	// Stale is the silent-tick count that fires an absence rule (default 8).
	Stale int `json:"stale,omitempty"`
}

// Validate reports whether the rule is well-formed.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("rule has no name")
	}
	if r.Metric == "" {
		return fmt.Errorf("rule %q has no metric", r.Name)
	}
	switch r.Kind {
	case "", RuleThreshold, RuleRate, RuleAbsence:
	default:
		return fmt.Errorf("rule %q: unknown kind %q", r.Name, r.Kind)
	}
	switch r.Op {
	case "", ">", ">=", "<", "<=":
	default:
		return fmt.Errorf("rule %q: unknown op %q", r.Name, r.Op)
	}
	if r.For < 0 {
		return fmt.Errorf("rule %q: negative for %d", r.Name, r.For)
	}
	if r.Window < 0 {
		return fmt.Errorf("rule %q: negative window %d", r.Name, r.Window)
	}
	if r.Kind == RuleRate && r.Window == 1 {
		// Series.Rate needs two samples in the window: such a rule could
		// never fire.
		return fmt.Errorf("rule %q: rate window 1 holds one sample, need at least 2", r.Name)
	}
	if r.Stale < 0 {
		return fmt.Errorf("rule %q: negative stale %d", r.Name, r.Stale)
	}
	if r.Clear != nil && r.Kind != RuleAbsence {
		op, v, c := r.Op, r.Value, *r.Clear
		if op == "" {
			op = ">"
		}
		upper := op == ">" || op == ">="
		if (upper && c > v) || (!upper && c < v) {
			return fmt.Errorf("rule %q: clear %g is outside the %s %g breach bound", r.Name, c, op, v)
		}
	}
	return nil
}

// RuleSet is a named collection of rules — the on-disk format of a -rules
// file.
type RuleSet struct {
	Rules []Rule `json:"rules"`
}

// Validate validates every rule and rejects duplicate names: alert state
// (the store's rules, the health report's rule table) is keyed by name, so
// two rules sharing one would overwrite each other's firing state.
func (rs RuleSet) Validate() error {
	seen := make(map[string]bool, len(rs.Rules))
	for _, r := range rs.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.Name] {
			return fmt.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}

// ParseRules decodes a RuleSet from JSON and validates it.
func ParseRules(r io.Reader) (RuleSet, error) {
	var rs RuleSet
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rs); err != nil {
		return RuleSet{}, fmt.Errorf("series: parse rules: %w", err)
	}
	if err := rs.Validate(); err != nil {
		return RuleSet{}, fmt.Errorf("series: %w", err)
	}
	return rs, nil
}

// LoadRules reads and validates a rules file.
func LoadRules(path string) (RuleSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return RuleSet{}, err
	}
	defer f.Close()
	return ParseRules(f)
}

// CheckMetrics refuses the threshold and rate rules whose metric reg does not
// hold, matching names as a Store samples them (a histogram counts as its
// five suffixed series, .count through .p99). Such a rule never sees a
// sample, so it could never fire. Absence rules are exempt: a missing series
// is their signal. Run it once the producers have registered their metrics.
func CheckMetrics(reg *telemetry.Registry, rules []Rule) error {
	st := NewStore(StoreOptions{Registry: reg, Capacity: 1})
	st.discover(reg.Sizes())
	for _, r := range rules {
		if r.Kind != RuleAbsence && st.byName[r.Metric] == nil {
			return fmt.Errorf("rule %q watches %q, which is never registered: it could never fire", r.Name, r.Metric)
		}
	}
	return nil
}

// ruleState is the per-rule evaluation state machine: a hold counter climbs
// on breaching samples, the rule fires at hold ≥ For, and a firing rule
// resolves when the clear-side condition holds.
type ruleState struct {
	rule    Rule
	op      string
	forN    int
	clear   float64
	window  int
	stale   int
	hold    int
	firing  bool
	fireSeq uint64 // Seq of the alert_firing event, Cause of the resolve
	// silent counts consecutive ticks the watched series went unsampled
	// (absence rules).
	silent  int
	value   float64 // last observed value (watch display)
	firedAt int     // tick the rule last fired (watch display)
}

func newRuleState(r Rule) *ruleState {
	st := &ruleState{rule: r, op: r.Op, forN: r.For, window: r.Window, stale: r.Stale}
	if st.op == "" {
		st.op = ">"
	}
	if st.forN <= 0 {
		st.forN = 1
	}
	if st.window <= 0 {
		st.window = 8
	}
	if st.stale <= 0 {
		st.stale = 8
	}
	if r.Clear != nil {
		st.clear = *r.Clear
	} else {
		st.clear = r.Value
	}
	return st
}

func (st *ruleState) breach(v float64) bool {
	switch st.op {
	case ">":
		return v > st.rule.Value
	case ">=":
		return v >= st.rule.Value
	case "<":
		return v < st.rule.Value
	case "<=":
		return v <= st.rule.Value
	}
	return false
}

// cleared reports the hysteresis resolve condition: the value is strictly on
// the non-breach side of the clear bound.
func (st *ruleState) cleared(v float64) bool {
	switch st.op {
	case ">":
		return v <= st.clear
	case ">=":
		return v < st.clear
	case "<":
		return v >= st.clear
	case "<=":
		return v > st.clear
	}
	return false
}

// eval advances the rule state machine for the sample taken at tick t.
func (st *ruleState) eval(store *Store, t int, rec telemetry.Recorder, seq *telemetry.Sequencer, cause uint64) {
	s := store.byName[st.rule.Metric]

	if st.rule.Kind == RuleAbsence {
		// A series is "present" on this tick iff its newest sample carries
		// tick t — stores push every known metric each tick, so a stale or
		// missing series means its producer stopped registering values.
		present := false
		if s != nil {
			if tick, _ := s.Last(); tick == t && s.Len() > 0 {
				present = true
			}
		}
		if present {
			st.silent = 0
			if st.firing {
				st.resolve(t, 0, rec, seq)
			}
			return
		}
		st.silent++
		st.value = float64(st.silent)
		if st.silent >= st.stale && !st.firing {
			st.hold = st.silent
			st.fire(t, float64(st.silent), rec, seq, cause)
		}
		return
	}

	if s == nil || s.Len() == 0 {
		return
	}
	var v float64
	var ok bool
	switch st.rule.Kind {
	case RuleRate:
		v, ok = s.Rate(st.window)
	default: // threshold
		_, v = s.Last()
		ok = true
	}
	if !ok {
		return
	}
	st.value = v
	if st.firing {
		if st.cleared(v) {
			st.resolve(t, v, rec, seq)
		}
		return
	}
	if st.breach(v) {
		st.hold++
		if st.hold >= st.forN {
			st.fire(t, v, rec, seq, cause)
		}
	} else {
		st.hold = 0
	}
}

func (st *ruleState) fire(t int, v float64, rec telemetry.Recorder, seq *telemetry.Sequencer, cause uint64) {
	st.firing = true
	st.firedAt = t
	if rec == nil {
		return
	}
	var sq uint64
	if seq != nil {
		sq = seq.Next()
	}
	st.fireSeq = sq
	rec.Record(telemetry.Event{
		Kind:      telemetry.KindAlertFiring,
		Instance:  t,
		Seq:       sq,
		Cause:     cause,
		Name:      st.rule.Name,
		Reason:    st.rule.Metric,
		Value:     v,
		Threshold: st.rule.Value,
		Level:     st.hold,
	})
}

func (st *ruleState) resolve(t int, v float64, rec telemetry.Recorder, seq *telemetry.Sequencer) {
	st.firing = false
	st.hold = 0
	st.silent = 0
	fireSeq := st.fireSeq
	st.fireSeq = 0
	if rec == nil {
		return
	}
	var sq uint64
	if seq != nil {
		sq = seq.Next()
	}
	rec.Record(telemetry.Event{
		Kind:      telemetry.KindAlertResolved,
		Instance:  t,
		Seq:       sq,
		Cause:     fireSeq,
		Name:      st.rule.Name,
		Reason:    st.rule.Metric,
		Value:     v,
		Threshold: st.rule.Value,
	})
}

// AlertStatus is the externally visible state of one rule.
type AlertStatus struct {
	Rule    Rule    `json:"rule"`
	Firing  bool    `json:"firing"`
	Value   float64 `json:"value"`
	Hold    int     `json:"hold,omitempty"`
	FiredAt int     `json:"fired_at,omitempty"`
}

// Alerts returns the current status of every rule, in rule order.
func (st *Store) Alerts() []AlertStatus {
	if st == nil || len(st.rules) == 0 {
		return nil
	}
	out := make([]AlertStatus, len(st.rules))
	for i, rs := range st.rules {
		out[i] = AlertStatus{
			Rule:    rs.rule,
			Firing:  rs.firing,
			Value:   rs.value,
			Hold:    rs.hold,
			FiredAt: rs.firedAt,
		}
	}
	return out
}

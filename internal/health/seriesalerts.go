package health

import (
	"fmt"
	"sort"

	"ctgdvfs/internal/telemetry"
)

// seriesAlertState tracks the alert_firing / alert_resolved events of the one
// alert engine, internal/series rules evaluated on the sampled time-series
// rings. The analyzer only mirrors them, once each: which rules exist, which
// are firing now, and how often each fired. Offline analysis reports what
// the live rules fired; it never evaluates rules again.
type seriesAlertState struct {
	seen     bool
	firings  int
	resolved int
	rules    map[string]*ruleAlertState
}

// ruleAlertState is one rule's latest observed state.
type ruleAlertState struct {
	firing    bool
	firings   int
	metric    string
	value     float64
	threshold float64
}

// RuleAlertStatus is one alerting rule's summary in the snapshot.
type RuleAlertStatus struct {
	// Rule is the rule name, Metric the series it watches.
	Rule   string `json:"rule"`
	Metric string `json:"metric"`
	// Firing reports whether the rule was still firing at snapshot time;
	// Firings counts its distinct firing episodes.
	Firing  bool `json:"firing"`
	Firings int  `json:"firings"`
	// Value is the metric value carried by the rule's latest event;
	// Threshold the bound its last firing crossed.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold,omitempty"`
}

// SeriesAlertsStatus summarizes the metric-rule alert history of a run. It is
// nil (omitted from JSON and the text report) when the stream carried no
// alert_firing/alert_resolved events, keeping rule-less captures unchanged.
type SeriesAlertsStatus struct {
	// Firings and Resolved count firing episodes and resolutions across all
	// rules.
	Firings  int `json:"firings"`
	Resolved int `json:"resolved"`
	// Rules lists every rule seen in the stream, sorted by name.
	Rules []RuleAlertStatus `json:"rules,omitempty"`
}

func (ss *seriesAlertState) observe(a *analyzer, e telemetry.Event) {
	if ss.rules == nil {
		ss.rules = map[string]*ruleAlertState{}
	}
	ss.seen = true
	rs := ss.rules[e.Name]
	if rs == nil {
		rs = &ruleAlertState{}
		ss.rules[e.Name] = rs
	}
	rs.metric = e.Reason
	rs.value = e.Value
	switch e.Kind {
	case telemetry.KindAlertFiring:
		ss.firings++
		rs.firing = true
		rs.firings++
		rs.threshold = e.Threshold
		a.note(e.Instance, "alert_firing", fmt.Sprintf("rule %s: %s = %.4g crossed %.4g",
			e.Name, e.Reason, e.Value, e.Threshold))
	case telemetry.KindAlertResolved:
		ss.resolved++
		rs.firing = false
		a.note(e.Instance, "alert_ok", fmt.Sprintf("rule %s resolved: %s = %.4g",
			e.Name, e.Reason, e.Value))
	}
}

func (ss *seriesAlertState) snapshot() *SeriesAlertsStatus {
	if !ss.seen {
		return nil
	}
	st := &SeriesAlertsStatus{Firings: ss.firings, Resolved: ss.resolved}
	names := make([]string, 0, len(ss.rules))
	for name := range ss.rules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := ss.rules[name]
		st.Rules = append(st.Rules, RuleAlertStatus{
			Rule:      name,
			Metric:    rs.metric,
			Firing:    rs.firing,
			Firings:   rs.firings,
			Value:     rs.value,
			Threshold: rs.threshold,
		})
	}
	return st
}

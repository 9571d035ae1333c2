package health

import (
	"fmt"
	"strings"
)

// Snapshot is the analysis of one event stream — what `ctgsched analyze
// -json` prints and what Report renders as text.
type Snapshot struct {
	Events    int `json:"events"`
	Instances int `json:"instances"`

	Drift    []ForkDrift `json:"drift,omitempty"`
	SLO      SLOStatus   `json:"slo"`
	Hotspots Hotspots    `json:"hotspots"`
	// Availability is nil when the stream carried no pe_down/pe_up/remap
	// events, so healthy-run snapshots and reports are unchanged.
	Availability *AvailabilityStatus `json:"availability,omitempty"`
	// Pipeline is nil when the stream carried no pipeline_span events, so
	// pre-provenance captures render unchanged.
	Pipeline *PipelineStatus `json:"pipeline,omitempty"`
	// SeriesAlerts is nil when the stream carried no alert_firing/
	// alert_resolved events (no alerting rules were configured), so rule-less
	// captures render unchanged.
	SeriesAlerts *SeriesAlertsStatus `json:"series_alerts,omitempty"`

	Timeline        []TimelineEntry `json:"timeline,omitempty"`
	TimelineDropped int             `json:"timeline_dropped,omitempty"`
}

// levelMove renders a guard-level transition for the timeline.
func levelMove(from, to int) string {
	switch {
	case to > from:
		return fmt.Sprintf("raised %d -> %d", from, to)
	case to < from:
		return fmt.Sprintf("relaxed %d -> %d", from, to)
	default:
		return fmt.Sprintf("held at %d", to)
	}
}

// Report renders the snapshot as the deterministic plain-text diagnosis the
// `ctgsched analyze` subcommand prints: header (with the number of rule
// alert firings), per-fork drift, SLO verdicts, hotspot rankings and the
// decision timeline. The format is fixed (%.3f / %.1f) so the output is
// golden-file testable.
func (s Snapshot) Report() string {
	var b strings.Builder
	firings := 0
	if s.SeriesAlerts != nil {
		firings = s.SeriesAlerts.Firings
	}
	fmt.Fprintf(&b, "health report: %d events, %d instances, %d alerts\n",
		s.Events, s.Instances, firings)

	b.WriteString("\nestimator drift\n")
	if len(s.Drift) == 0 {
		b.WriteString("  (no data)\n")
	}
	for _, f := range s.Drift {
		fmt.Fprintf(&b, "  fork %d: err ewma %.3f (last %.3f), %d estimates\n",
			f.Fork, f.ErrEWMA, f.LastErr, f.Estimates)
		fmt.Fprintf(&b, "    estimate %s  realized %s\n",
			probsString(f.Estimate), probsString(f.Realized))
	}

	b.WriteString("\nSLO\n")
	fmt.Fprintf(&b, "  instances %d  misses %d (rate %.3f)  overruns %d  miss streak %d (max %d)\n",
		s.SLO.Instances, s.SLO.Misses, s.SLO.MissRate, s.SLO.Overruns,
		s.SLO.CurStreak, s.SLO.MaxStreak)
	fmt.Fprintf(&b, "  reschedules %d  fallbacks %d (%d saved)  guard level %d (max %d)\n",
		s.SLO.Reschedules, s.SLO.Fallbacks, s.SLO.FallbacksSaved,
		s.SLO.GuardLevel, s.SLO.MaxGuardLevel)
	fmt.Fprintf(&b, "  lateness p50/p95/p99/max %.3f/%.3f/%.3f/%.3f  makespan p95 %.3f  avg energy %.3f\n",
		s.SLO.Lateness.P50, s.SLO.Lateness.P95, s.SLO.Lateness.P99, s.SLO.Lateness.Max,
		s.SLO.Makespan.P95, s.SLO.AvgEnergy)
	fmt.Fprintf(&b, "  miss budget burn %.2f\n", s.SLO.BudgetBurn)
	if len(s.SLO.Verdicts) == 0 {
		b.WriteString("  verdicts: (none configured)\n")
	}
	for _, v := range s.SLO.Verdicts {
		verdict := "PASS"
		if !v.Pass {
			verdict = "FAIL"
		}
		if v.Pending {
			verdict += " (pending)"
		}
		fmt.Fprintf(&b, "  verdict %-13s %.4g vs bound %.4g: %s\n",
			v.Name, v.Actual, v.Bound, verdict)
	}
	if len(s.SLO.DriftTrajectory) > 0 {
		b.WriteString("  drift trajectory:")
		for _, p := range s.SLO.DriftTrajectory {
			fmt.Fprintf(&b, " %d:%.3f", p.Instance, p.Drift)
		}
		b.WriteString("\n")
	}

	if s.Availability != nil {
		b.WriteString("\nhardware availability\n")
		fmt.Fprintf(&b, "  remaps %d (restores %d)  link outages %d\n",
			s.Availability.Remaps, s.Availability.Restores, s.Availability.LinkDowns)
		for _, pe := range s.Availability.PEs {
			state := "in service"
			if pe.Down {
				state = "DOWN"
			}
			if pe.Permanent {
				state = "DEAD (permanent)"
			}
			fmt.Fprintf(&b, "  PE %-2d outages %d  [%s]\n", pe.PE, pe.Outages, state)
		}
	}

	if s.Pipeline != nil {
		b.WriteString("\nreschedule pipeline latency\n")
		fmt.Fprintf(&b, "  %d spans\n", s.Pipeline.Spans)
		for _, p := range s.Pipeline.Phases {
			fmt.Fprintf(&b, "  phase %-9s runs %-5d mean %.1fus  min %.1fus  max %.1fus  total %.1fus\n",
				p.Phase, p.Count, p.Mean, p.Min, p.Max, p.Total)
		}
	}

	if s.SeriesAlerts != nil {
		b.WriteString("\nmetric rule alerts\n")
		fmt.Fprintf(&b, "  firings %d  resolved %d\n",
			s.SeriesAlerts.Firings, s.SeriesAlerts.Resolved)
		for _, r := range s.SeriesAlerts.Rules {
			state := "ok"
			if r.Firing {
				state = "FIRING"
			}
			fmt.Fprintf(&b, "  rule %-16s %s = %.4g vs %.4g  firings %d  [%s]\n",
				r.Rule, r.Metric, r.Value, r.Threshold, r.Firings, state)
		}
	}

	b.WriteString("\nhotspots (tasks by critical-path count)\n")
	if len(s.Hotspots.Tasks) == 0 {
		b.WriteString("  (no data)\n")
	}
	for i, t := range s.Hotspots.Tasks {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("task %d", t.Task)
		}
		fmt.Fprintf(&b, "  %d. %-12s critical %dx  busy %.1f  energy %.1f  slices %d\n",
			i+1, name, t.Critical, t.Busy, t.Energy, t.Slices)
	}
	b.WriteString("hotspots (PEs by busy time)\n")
	if len(s.Hotspots.PEs) == 0 {
		b.WriteString("  (no data)\n")
	}
	for i, p := range s.Hotspots.PEs {
		fmt.Fprintf(&b, "  %d. PE %-2d busy %.1f  energy %.1f  slices %d\n",
			i+1, p.PE, p.Busy, p.Energy, p.Slices)
	}
	b.WriteString("hotspots (links by busy time)\n")
	if len(s.Hotspots.Links) == 0 {
		b.WriteString("  (no data)\n")
	}
	for i, l := range s.Hotspots.Links {
		fmt.Fprintf(&b, "  %d. link %d->%d  busy %.1f  energy %.1f  transfers %d\n",
			i+1, l.From, l.To, l.Busy, l.Energy, l.Transfers)
	}

	b.WriteString("\ntimeline (reschedules, fallbacks, guard moves, alerts)\n")
	if len(s.Timeline) == 0 {
		b.WriteString("  (no data)\n")
	}
	if s.TimelineDropped > 0 {
		fmt.Fprintf(&b, "  ... %d earlier entries dropped\n", s.TimelineDropped)
	}
	for _, e := range s.Timeline {
		fmt.Fprintf(&b, "  [%4d] %-11s %s\n", e.Instance, e.Kind, e.Detail)
	}
	return b.String()
}

func probsString(ps []float64) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%.3f", p)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

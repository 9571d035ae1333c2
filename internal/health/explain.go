package health

import (
	"fmt"
	"strings"

	"ctgdvfs/internal/telemetry"
)

// ExplainQuery selects the decision an Explanation reconstructs. Seq pins an
// exact event; otherwise the query filters (kind, instance, tenant compose
// conjunctively) and the LAST matching decision in stream order is explained
// — "why did instance 412 reschedule" is a question about what happened most
// recently.
type ExplainQuery struct {
	// Seq selects the event with this exact seq id (0 = unset).
	Seq uint64
	// Instance restricts to decisions of one instance (negative = any).
	Instance int
	// Kind restricts to one event kind (e.g. "reschedule", "fallback",
	// "alert_firing"); empty matches any decision kind.
	Kind string
	// Tenant restricts to events naming this serve tenant (tenant_panic,
	// checkpoint and restore carry it in Name).
	Tenant string
}

// Explanation is one reconstructed decision provenance: the causal chain
// that led to the decision (root first, Cause links walked upward) and the
// decision's downstream effects (every event that names it — directly or
// transitively — as its Cause).
type Explanation struct {
	// Decision is the explained event.
	Decision telemetry.Event
	// Chain is the causal chain root-first; its last element is Decision.
	Chain []telemetry.Event
	// Effects are Decision's descendants in the cause graph, preorder.
	Effects []ExplainEffect
	// Pipeline holds the span and stretch-summary events sharing Decision's
	// own cause: the pipeline run the decision belongs to. (Those events
	// chain to the trigger, as siblings of the decision, so they are not in
	// Effects.)
	Pipeline []telemetry.Event
}

// ExplainEffect is one downstream event of an explained decision; Depth 1 is
// a direct effect, deeper levels chained through intermediate events.
type ExplainEffect struct {
	Event telemetry.Event
	Depth int
}

// decisionKinds are the event kinds `ctgsched explain -list` enumerates and
// an unconstrained query may select: the runtime's actual decisions and the
// external triggers (hardware loss) that force them.
var decisionKinds = map[telemetry.Kind]bool{
	telemetry.KindReschedule:    true,
	telemetry.KindFallback:      true,
	telemetry.KindGuardLevel:    true,
	telemetry.KindRemap:         true,
	telemetry.KindPEDown:        true,
	telemetry.KindPEUp:          true,
	telemetry.KindAlertFiring:   true,
	telemetry.KindAlertResolved: true,
	telemetry.KindTenantPanic:   true,
	telemetry.KindCheckpoint:    true,
	telemetry.KindRestore:       true,
}

// Describe renders one event as the one-line description Explain's output
// uses — for decision listings (`ctgsched explain -list`).
func Describe(e telemetry.Event) string { return describeEvent(e) }

// Decisions returns the stream's explainable decisions in order — the menu
// behind `ctgsched explain -list`.
func Decisions(events []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range events {
		if decisionKinds[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

func (q ExplainQuery) matches(e telemetry.Event) bool {
	if q.Kind != "" {
		if string(e.Kind) != q.Kind {
			return false
		}
	} else if !decisionKinds[e.Kind] {
		return false
	}
	if q.Instance >= 0 && e.Instance != q.Instance {
		return false
	}
	if q.Tenant != "" && e.Name != q.Tenant {
		return false
	}
	return true
}

// Explain reconstructs the causal provenance of one decision in a recorded
// event stream. The stream must carry seq ids (captured by a sequencing
// producer); pre-provenance captures are rejected with an error.
func Explain(events []telemetry.Event, q ExplainQuery) (*Explanation, error) {
	bySeq := make(map[uint64]telemetry.Event, len(events))
	children := make(map[uint64][]int)
	sequenced := false
	for i, e := range events {
		if e.Seq != 0 {
			sequenced = true
			bySeq[e.Seq] = e
		}
		if e.Cause != 0 {
			children[e.Cause] = append(children[e.Cause], i)
		}
	}
	if !sequenced {
		return nil, fmt.Errorf("stream carries no seq ids — captured before provenance was recorded?")
	}

	var decision telemetry.Event
	found := false
	if q.Seq != 0 {
		decision, found = bySeq[q.Seq]
		if !found {
			return nil, fmt.Errorf("no event with seq %d in stream", q.Seq)
		}
	} else {
		for _, e := range events {
			if q.matches(e) {
				decision, found = e, true
			}
		}
		if !found {
			return nil, fmt.Errorf("no decision matches the query (kind %q, instance %d, tenant %q) — try -list",
				q.Kind, q.Instance, q.Tenant)
		}
	}

	x := &Explanation{Decision: decision}
	// Walk the Cause links upward; the visited set guards against a
	// corrupted stream with a cause cycle.
	visited := map[uint64]bool{}
	for e, ok := decision, true; ok; {
		x.Chain = append(x.Chain, e)
		if e.Cause == 0 || visited[e.Cause] {
			break
		}
		visited[e.Cause] = true
		e, ok = bySeq[e.Cause]
	}
	for i, j := 0, len(x.Chain)-1; i < j; i, j = i+1, j-1 {
		x.Chain[i], x.Chain[j] = x.Chain[j], x.Chain[i]
	}

	// Collect descendants preorder (effects of effects stay grouped under
	// the effect that caused them).
	var descend func(seq uint64, depth int)
	seen := map[uint64]bool{decision.Seq: true}
	descend = func(seq uint64, depth int) {
		for _, i := range children[seq] {
			e := events[i]
			if e.Seq != 0 && seen[e.Seq] {
				continue
			}
			if e.Seq != 0 {
				seen[e.Seq] = true
			}
			x.Effects = append(x.Effects, ExplainEffect{Event: e, Depth: depth})
			if e.Seq != 0 {
				descend(e.Seq, depth+1)
			}
		}
	}
	descend(decision.Seq, 1)
	if decision.Cause != 0 {
		for _, e := range events {
			if e.Cause == decision.Cause && e.Seq != decision.Seq &&
				(e.Kind == telemetry.KindSpan || e.Kind == telemetry.KindStretch) {
				x.Pipeline = append(x.Pipeline, e)
			}
		}
	}
	return x, nil
}

// maxRenderedEffects bounds the rendered effect list; an instance_start's
// descendants include every slice of the instance's replay.
const maxRenderedEffects = 48

// Render formats the explanation as the deterministic text `ctgsched
// explain` prints: the decision, the causal chain root-first, and the
// decision's downstream effects indented by causal depth.
func (x *Explanation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decision [seq %d] at instance %d: %s\n",
		x.Decision.Seq, x.Decision.Instance, describeEvent(x.Decision))
	b.WriteString("\nwhy (causal chain, root first):\n")
	for _, e := range x.Chain {
		fmt.Fprintf(&b, "  [seq %4d] %-15s %s\n", e.Seq, e.Kind, describeEvent(e))
	}
	if len(x.Pipeline) > 0 {
		b.WriteString("\npipeline run (same trigger):\n")
		for _, e := range x.Pipeline {
			fmt.Fprintf(&b, "  [seq %4d] %-15s %s\n", e.Seq, e.Kind, describeEvent(e))
		}
	}
	b.WriteString("\neffects:\n")
	if len(x.Effects) == 0 {
		b.WriteString("  (none recorded)\n")
		return b.String()
	}
	for i, ef := range x.Effects {
		if i == maxRenderedEffects {
			fmt.Fprintf(&b, "  ... %d more\n", len(x.Effects)-i)
			break
		}
		fmt.Fprintf(&b, "  %s[seq %4d] %-15s %s\n",
			strings.Repeat("  ", ef.Depth-1), ef.Event.Seq, ef.Event.Kind, describeEvent(ef.Event))
	}
	return b.String()
}

// describeEvent renders one event as a human-readable clause, the vocabulary
// shared by the chain and effects sections.
func describeEvent(e telemetry.Event) string {
	switch e.Kind {
	case telemetry.KindInstanceStart:
		return fmt.Sprintf("instance %d began (scenario %d)", e.Instance, e.Scenario)
	case telemetry.KindInstanceFinish:
		verdict := "met deadline"
		if !e.Met {
			verdict = fmt.Sprintf("MISSED deadline (lateness %.4g)", e.Lateness)
		}
		return fmt.Sprintf("instance %d finished: %s, makespan %.4g, energy %.4g",
			e.Instance, verdict, e.Makespan, e.Energy)
	case telemetry.KindEstimate:
		return fmt.Sprintf("fork %d window estimate %s after outcome %d (drift %.3f)",
			e.Fork, probsString(e.Probs), e.Outcome, e.Drift)
	case telemetry.KindReschedule:
		how := "computed fresh"
		if e.Warm {
			how = "warm-started from the incumbent"
		}
		s := fmt.Sprintf("reschedule (%s): %s, call %d", e.Reason, how, e.Calls)
		if e.Threshold > 0 {
			s += fmt.Sprintf(", drift threshold %.4g", e.Threshold)
		}
		return s
	case telemetry.KindStretch:
		return fmt.Sprintf("stretched %d tasks: slack found %.4g, used %.4g, expected energy %.4g",
			e.Tasks, e.SlackFound, e.SlackUsed, e.Energy)
	case telemetry.KindSpan:
		return fmt.Sprintf("pipeline phase %s took %.1fus", e.Name, e.Value)
	case telemetry.KindOverrun:
		return fmt.Sprintf("task %d on PE %d overran ×%.3g", e.Task, e.PE, e.Factor)
	case telemetry.KindFallback:
		verdict := "missed again"
		if e.Met {
			verdict = "met the deadline"
		}
		return fmt.Sprintf("worst-case fallback replay %s (fallback makespan %.4g, failed primary %.4g)",
			verdict, e.Makespan, e.Makespan2)
	case telemetry.KindGuardLevel:
		s := fmt.Sprintf("circuit breaker %s", levelMove(e.Level2, e.Level))
		if e.Threshold > 0 {
			s += fmt.Sprintf(" (miss-rate bound %.4g)", e.Threshold)
		}
		return s
	case telemetry.KindPEDown:
		return fmt.Sprintf("PE %d went down (%s), %d PEs alive", e.PE, e.Reason, e.Alive)
	case telemetry.KindPEUp:
		return fmt.Sprintf("PE %d repaired, %d PEs alive", e.PE, e.Alive)
	case telemetry.KindLinkDown:
		return fmt.Sprintf("link %d→%d went down", e.PE, e.PE2)
	case telemetry.KindLinkUp:
		return fmt.Sprintf("link %d→%d repaired", e.PE, e.PE2)
	case telemetry.KindRemap:
		return fmt.Sprintf("re-mapped (%s) onto %d PEs", e.Reason, e.Alive)
	case telemetry.KindTenantPanic:
		return fmt.Sprintf("tenant %q worker panicked at instance %d (contained): %s (consecutive panic %d, breaker backoff %.4gms)",
			e.Name, e.Instance, e.Reason, e.Level, e.Value)
	case telemetry.KindCheckpoint:
		return fmt.Sprintf("tenant %q checkpointed at instance %d (call %d, digest %s)",
			e.Name, e.Instance, e.Calls, e.Key)
	case telemetry.KindRestore:
		from := "from its latest snapshot"
		if e.Reason == "fallback" {
			from = "from the previous snapshot generation (primary torn or corrupt)"
		}
		return fmt.Sprintf("tenant %q restored to instance %d %s (digest %s verified)",
			e.Name, e.Instance, from, e.Key)
	case telemetry.KindAlertFiring:
		return fmt.Sprintf("alert %q firing: %s = %.4g crossed %.4g (held %d samples)",
			e.Name, e.Reason, e.Value, e.Threshold, e.Level)
	case telemetry.KindAlertResolved:
		return fmt.Sprintf("alert %q resolved: %s = %.4g back in bounds", e.Name, e.Reason, e.Value)
	case telemetry.KindTaskSlice:
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("task %d", e.Task)
		}
		return fmt.Sprintf("%s ran on PE %d [%.4g, %.4g] at speed %.3g",
			name, e.PE, e.Start, e.End, e.Speed)
	case telemetry.KindCommSlice:
		return fmt.Sprintf("edge %d (task %d→%d) over link %d→%d [%.4g, %.4g]",
			e.Edge, e.Task, e.Task2, e.PE, e.PE2, e.Start, e.End)
	default:
		return string(e.Kind)
	}
}

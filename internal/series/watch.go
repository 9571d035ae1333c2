package series

import (
	"fmt"
	"math"
	"strings"
)

// sparkRunes are the eight-level unicode sparkline glyphs, lowest first.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the trailing `width` values of v as a unicode sparkline,
// scaled to the rendered window's own min/max (a flat window renders at the
// lowest level). NaN samples render as spaces.
func Sparkline(v []float64, width int) string {
	if width <= 0 {
		width = 48
	}
	if len(v) > width {
		v = v[len(v)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if math.IsNaN(x) {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	var b strings.Builder
	for _, x := range v {
		switch {
		case math.IsNaN(x):
			b.WriteByte(' ')
		case hi <= lo:
			b.WriteRune(sparkRunes[0])
		default:
			idx := int((x - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
			b.WriteRune(sparkRunes[idx])
		}
	}
	return b.String()
}

// WatchOptions configures RenderWatch.
type WatchOptions struct {
	// Width is the sparkline width in samples/columns (default 48).
	Width int
}

// watchRow renders one labeled sparkline line: label, sparkline, last value,
// and window min/max.
func watchRow(b *strings.Builder, label string, sd *SeriesDump, width int) {
	if sd == nil || len(sd.V) == 0 {
		return
	}
	last := sd.V[len(sd.V)-1]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range sd.V {
		if math.IsNaN(x) {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	fmt.Fprintf(b, "  %-22s %s  %.4g  [%.4g..%.4g]\n", label, Sparkline(sd.V, width), last, lo, hi)
}

// RenderWatch renders a dump as the `ctgsched watch` terminal view: the
// manager's sparkline rows (windowed miss rate, run miss rate, guard level,
// drift), the daemon's rows when the dump polled ctgschedd (steps, step
// p95, rule sheds, panics) and an alerts section. Output is deterministic,
// so the view goldens cleanly.
func RenderWatch(d Dump, opts WatchOptions) string {
	width := opts.Width
	if width <= 0 {
		width = 48
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ctgsched watch — %d ticks, %d series\n", d.Ticks, len(d.Series))

	if mr := d.Get("adaptive.miss_rate_window"); mr != nil || d.Get("adaptive.miss_rate") != nil {
		b.WriteString("\nmanager\n")
		watchRow(&b, "miss rate (window)", mr, width)
		watchRow(&b, "miss rate (run)", d.Get("adaptive.miss_rate"), width)
		watchRow(&b, "guard level", d.Get("adaptive.guard_level"), width)
		watchRow(&b, "drift", d.Get("adaptive.drift"), width)
	}
	if steps := d.Get("serve.steps"); steps != nil {
		b.WriteString("\ndaemon\n")
		watchRow(&b, "steps", steps, width)
		watchRow(&b, "step p95 (µs)", d.Get("serve.step_us"+SuffixP95), width)
		watchRow(&b, "rejected (slo)", d.Get("serve.rejected_slo"), width)
		watchRow(&b, "panics", d.Get("serve.panics"), width)
	}

	firing := 0
	for _, a := range d.Alerts {
		if a.Firing {
			firing++
		}
	}
	if len(d.Alerts) > 0 {
		fmt.Fprintf(&b, "\nalerts (%d rules, %d firing)\n", len(d.Alerts), firing)
		for _, a := range d.Alerts {
			state := "ok    "
			if a.Firing {
				state = "FIRING"
			}
			fmt.Fprintf(&b, "  %s %-24s %s %s %.4g (value %.4g)\n",
				state, a.Rule.Name, a.Rule.Metric, opDisplay(a.Rule), a.Rule.Value, a.Value)
		}
	}
	return b.String()
}

func opDisplay(r Rule) string {
	if r.Kind == RuleAbsence {
		return "absent ≥"
	}
	op := r.Op
	if op == "" {
		op = ">"
	}
	if r.Kind == RuleRate {
		return "rate " + op
	}
	return op
}

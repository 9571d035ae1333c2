package main

import (
	"hash/fnv"
	"math"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/telemetry"
)

// spanRecorder is the traced run's telemetry sink. It counts every event the
// program emits and keeps the reschedule pipeline's spans and decisions in
// memory; the per-task slice events and the rest are dropped after counting.
// A manager is single-caller, so the recorder needs no lock.
type spanRecorder struct {
	total int
	kept  []telemetry.Event
}

func (r *spanRecorder) Record(e telemetry.Event) {
	r.total++
	if e.Kind == telemetry.KindSpan || e.Kind == telemetry.KindReschedule {
		r.kept = append(r.kept, e)
	}
}

// pipelineLayers accumulates the reschedule pipeline's spans, under the span
// names the program emits ("dls", "diff", "stretch", "validate"), and its
// decisions. A stretch span is full when it follows a dls span and partial
// when it follows a warm-start diff; a per-scenario tenant's stretch spans
// are counted apart, since they stretch one speed table per scenario.
type pipelineLayers struct {
	dls, diff, validate        []float64
	full, partial, perScenario []float64
	reschedules, cacheHits     int
	prev                       string
}

// add folds one event stream segment in and returns the summed span time.
func (p *pipelineLayers) add(evs []telemetry.Event, perScenario bool) float64 {
	total := 0.0
	for _, e := range evs {
		switch e.Kind {
		case telemetry.KindReschedule:
			p.reschedules++
			if e.CacheHit {
				p.cacheHits++
			}
			p.prev = ""
		case telemetry.KindSpan:
			total += e.Value
			switch e.Name {
			case "dls":
				p.dls = append(p.dls, e.Value)
			case "diff":
				p.diff = append(p.diff, e.Value)
			case "validate":
				p.validate = append(p.validate, e.Value)
			case "stretch":
				switch {
				case perScenario:
					p.perScenario = append(p.perScenario, e.Value)
				case p.prev == "diff":
					p.partial = append(p.partial, e.Value)
				default:
					p.full = append(p.full, e.Value)
				}
			}
			p.prev = e.Name
		}
	}
	return total
}

func (p *pipelineLayers) stretchTotal() float64 {
	return sum(p.full) + sum(p.partial) + sum(p.perScenario)
}

// report writes the pipeline's per-layer metrics.
func (p *pipelineLayers) report(m metrics) {
	m["sched.dls_us"] = median(p.dls)
	m["sched.dls_count"] = float64(len(p.dls))
	m["core.warm_diff_us"] = median(p.diff)
	m["core.warm_validate_us"] = median(p.validate)
	m["stretch.full_us"] = median(p.full)
	m["stretch.full_total_ms"] = sum(p.full) / 1e3
	m["stretch.partial_us"] = median(p.partial)
	m["stretch.partial_total_ms"] = sum(p.partial) / 1e3
	m["stretch.per_scenario_us"] = median(p.perScenario)
	m["stretch.per_scenario_total_ms"] = sum(p.perScenario) / 1e3
}

// digest fingerprints a manager's externally observable scheduling state:
// the incumbent mapping, start times, speeds and makespan, the per-scenario
// speed table when one is active, the per-fork estimates, the call count and
// the guard level. Two runs of the same inputs must end on equal digests.
func digest(m *core.Manager) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	if s := m.Schedule(); s != nil {
		for _, pe := range s.PE {
			put(uint64(pe))
		}
		for i := range s.Start {
			putF(s.Start[i])
			putF(s.Speed[i])
		}
		putF(s.Makespan)
	}
	if sp := m.ScenarioSpeeds(); sp != nil {
		for _, row := range sp.Speeds {
			for _, v := range row {
				putF(v)
			}
		}
	}
	for fi := 0; ; fi++ {
		probs := m.Probs(fi)
		if probs == nil {
			break
		}
		for _, v := range probs {
			putF(v)
		}
	}
	put(uint64(m.Calls()))
	put(uint64(m.GuardLevel()))
	return h.Sum64()
}

// failures.go models hardware-availability faults — the second half of the
// package's fault story. Where Plan perturbs execution *times*, a Timeline
// perturbs the *topology*: processing elements die permanently, suffer
// transient outages that heal after a repair interval, and point-to-point
// links drop. The adaptive manager (internal/core) consults the timeline at
// every instance boundary and reschedules the workload onto the survivor set.
//
// Determinism mirrors Plan: every availability decision is a pure hash of
// (seed, stream, instance-or-PE), so the same spec reproduces the same
// failure history regardless of query order or worker count. Permanent
// deaths are drawn as geometric death instants (one uniform per PE), which
// keeps MaskAt O(PEs · repair window) instead of O(instance).
package faults

import (
	"fmt"
	"math"

	"ctgdvfs/internal/platform"
)

// Failure-event kinds for FailureSpec.Events.
const (
	// EventPE scripts a processing-element outage.
	EventPE = "pe"
	// EventLink scripts a directed-link outage.
	EventLink = "link"
)

// FailureEvent scripts one explicit availability fault: the named PE or link
// goes down at Instance and stays down for Duration instances (0 = forever).
// Scripted events compose with the stochastic model — campaigns use the
// rates, targeted tests use events.
type FailureEvent struct {
	// Kind is EventPE or EventLink.
	Kind string `json:"kind"`
	// Instance is the CTG-instance index at which the outage begins.
	Instance int `json:"instance"`
	// PE is the processing element of an EventPE outage.
	PE int `json:"pe,omitempty"`
	// From and To are the directed-link endpoints of an EventLink outage.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Duration is the outage length in instances; 0 means permanent.
	Duration int `json:"duration,omitempty"`
}

// FailureSpec parameterizes a hardware-availability timeline. The zero value
// never fails anything.
type FailureSpec struct {
	// Seed selects the deterministic failure history.
	Seed int64 `json:"seed"`

	// PEDeathProb is the per-PE per-instance probability of *permanent*
	// death. Deaths are drawn as geometric death instants, so a PE with
	// death probability q dies before instance k with probability
	// 1−(1−q)^k and never recovers.
	PEDeathProb float64 `json:"pe_death_prob,omitempty"`

	// PEFailProb is the per-PE per-instance probability that a *transient*
	// outage begins; an outage keeps the PE down for PERepair instances
	// (the repair time). PERepair defaults to 1 when outages are enabled.
	PEFailProb float64 `json:"pe_fail_prob,omitempty"`
	PERepair   int     `json:"pe_repair,omitempty"`

	// LinkFailProb is the per-directed-link per-instance probability that a
	// transient link outage begins, lasting LinkRepair instances.
	// LinkRepair defaults to 1 when link outages are enabled.
	LinkFailProb float64 `json:"link_fail_prob,omitempty"`
	LinkRepair   int     `json:"link_repair,omitempty"`

	// Events scripts explicit outages on top of the stochastic model.
	Events []FailureEvent `json:"events,omitempty"`
}

// Validate checks the spec's internal consistency — the platform-independent
// half of NewTimeline's validation, shared with the JSON decoding path.
func (s *FailureSpec) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"PEDeathProb", s.PEDeathProb},
		{"PEFailProb", s.PEFailProb},
		{"LinkFailProb", s.LinkFailProb},
	} {
		if pr.v < 0 || pr.v > 1 || math.IsNaN(pr.v) {
			return fmt.Errorf("faults: %s must be in [0,1], got %v", pr.name, pr.v)
		}
	}
	if s.PERepair < 0 {
		return fmt.Errorf("faults: negative PERepair %d", s.PERepair)
	}
	if s.LinkRepair < 0 {
		return fmt.Errorf("faults: negative LinkRepair %d", s.LinkRepair)
	}
	for i, ev := range s.Events {
		switch ev.Kind {
		case EventPE:
			if ev.PE < 0 {
				return fmt.Errorf("faults: event %d: negative PE %d", i, ev.PE)
			}
		case EventLink:
			if ev.From < 0 || ev.To < 0 || ev.From == ev.To {
				return fmt.Errorf("faults: event %d: invalid link %d->%d", i, ev.From, ev.To)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %q (want %q or %q)",
				i, ev.Kind, EventPE, EventLink)
		}
		if ev.Instance < 0 {
			return fmt.Errorf("faults: event %d: negative instance %d", i, ev.Instance)
		}
		if ev.Duration < 0 {
			return fmt.Errorf("faults: event %d: negative duration %d", i, ev.Duration)
		}
	}
	return nil
}

// Timeline is a validated, seeded hardware-availability history for a
// platform with a fixed PE count. All methods are safe for concurrent use
// (the timeline is immutable after NewTimeline).
//
// The timeline guarantees at least one surviving PE at every instance: if the
// drawn history would kill or down every PE simultaneously, the PE with the
// latest permanent death instant (ties to the lowest index) is spared its
// outages — a documented keep-alive floor that lets campaigns sweep
// aggressive failure rates without tripping the schedulers' infeasible-mask
// rejection.
type Timeline struct {
	spec FailureSpec
	pes  int
	// death[pe] is the instance at which the PE dies permanently from the
	// stochastic draw (maxInt = never).
	death []int
	// immortal is the keep-alive PE: the one spared when everything else is
	// gone (the PE with the latest stochastic death instant, ties low).
	immortal int
}

// Hash streams for the availability channels, disjoint from Plan's.
const (
	streamPEDeath uint64 = 0x70656474 // "pedt"
	streamPEFail  uint64 = 0x7065666c // "pefl"
	streamLink    uint64 = 0x6c6e666c // "lnfl"
)

const neverDies = math.MaxInt64

// NewTimeline validates a failure spec against a PE count and builds the
// timeline.
func NewTimeline(spec FailureSpec, numPEs int) (*Timeline, error) {
	if numPEs <= 0 {
		return nil, fmt.Errorf("faults: need a positive PE count, got %d", numPEs)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for i, ev := range spec.Events {
		switch ev.Kind {
		case EventPE:
			if ev.PE >= numPEs {
				return nil, fmt.Errorf("faults: event %d: PE %d out of range for %d PEs", i, ev.PE, numPEs)
			}
		case EventLink:
			if ev.From >= numPEs || ev.To >= numPEs {
				return nil, fmt.Errorf("faults: event %d: link %d->%d out of range for %d PEs",
					i, ev.From, ev.To, numPEs)
			}
		}
	}
	if spec.PEFailProb > 0 && spec.PERepair == 0 {
		spec.PERepair = 1
	}
	if spec.LinkFailProb > 0 && spec.LinkRepair == 0 {
		spec.LinkRepair = 1
	}
	tl := &Timeline{spec: spec, pes: numPEs, death: make([]int, numPEs)}
	for pe := range tl.death {
		tl.death[pe] = tl.deathInstant(pe)
		if tl.death[pe] > tl.death[tl.immortal] {
			tl.immortal = pe
		}
	}
	return tl, nil
}

// Spec returns the validated spec (with defaulted repair times filled in).
func (t *Timeline) Spec() FailureSpec { return t.spec }

// NumPEs returns the PE count the timeline was built for.
func (t *Timeline) NumPEs() int { return t.pes }

// bits/uniform mirror Plan's derivation under the failure spec's seed.
func (t *Timeline) bits(stream, a, b uint64) uint64 {
	h := uint64(t.spec.Seed) * 0x9e3779b97f4a7c15
	h = mix64(h ^ stream)
	h = mix64(h ^ a*0xa24baed4963ee407)
	h = mix64(h ^ b*0x9fb21c651e98df25)
	return h
}

func (t *Timeline) uniform(stream, a, b uint64) float64 {
	return float64(t.bits(stream, a, b)>>11) / (1 << 53)
}

// deathInstant draws the PE's permanent death instance from the geometric
// distribution with per-instance probability PEDeathProb: one uniform per PE,
// inverted through the geometric CDF, so death is O(1) to query and
// monotonic by construction (dead stays dead).
func (t *Timeline) deathInstant(pe int) int {
	q := t.spec.PEDeathProb
	if q <= 0 {
		return neverDies
	}
	if q >= 1 {
		return 0
	}
	u := t.uniform(streamPEDeath, uint64(pe), 0)
	// Smallest k with 1−(1−q)^(k+1) > u, i.e. the instance of the first
	// successful Bernoulli draw.
	k := math.Floor(math.Log1p(-u) / math.Log1p(-q))
	if k >= float64(neverDies) || math.IsNaN(k) {
		return neverDies
	}
	return int(k)
}

// peTransientDown reports whether a stochastic transient outage covers the
// instance for the PE: an outage started within the last PERepair instances.
func (t *Timeline) peTransientDown(instance, pe int) bool {
	q := t.spec.PEFailProb
	if q <= 0 {
		return false
	}
	for j := instance - t.spec.PERepair + 1; j <= instance; j++ {
		if j < 0 {
			continue
		}
		if t.uniform(streamPEFail, uint64(j), uint64(pe)) < q {
			return true
		}
	}
	return false
}

// linkTransientDown reports whether a stochastic link outage covers the
// instance for the directed link.
func (t *Timeline) linkTransientDown(instance, from, to int) bool {
	q := t.spec.LinkFailProb
	if q <= 0 {
		return false
	}
	link := uint64(from)*uint64(t.pes) + uint64(to)
	for j := instance - t.spec.LinkRepair + 1; j <= instance; j++ {
		if j < 0 {
			continue
		}
		if t.uniform(streamLink, uint64(j), link) < q {
			return true
		}
	}
	return false
}

// eventActive reports whether a scripted event covers the instance.
func eventActive(ev FailureEvent, instance int) bool {
	if instance < ev.Instance {
		return false
	}
	return ev.Duration == 0 || instance < ev.Instance+ev.Duration
}

// PermanentlyDead reports whether the PE is permanently gone at the instance
// (stochastic death or a scripted permanent outage) — the label telemetry
// attaches to pe-down events.
func (t *Timeline) PermanentlyDead(instance, pe int) bool {
	if pe < 0 || pe >= t.pes {
		return false
	}
	if t.death[pe] <= instance && pe != t.immortal {
		return true
	}
	for _, ev := range t.spec.Events {
		if ev.Kind == EventPE && ev.PE == pe && ev.Duration == 0 && ev.Instance <= instance {
			return true
		}
	}
	return false
}

// MaskAt returns the availability mask in force during the given instance.
// The result is a fresh mask; callers may mutate it freely. Masks are a pure
// function of (spec, instance): querying any instance in any order yields the
// same history.
func (t *Timeline) MaskAt(instance int) platform.Mask {
	m := platform.FullMask(t.pes)
	for pe := 0; pe < t.pes; pe++ {
		if t.death[pe] <= instance || t.peTransientDown(instance, pe) {
			m.PEs[pe] = false
		}
	}
	if t.spec.LinkFailProb > 0 {
		for i := 0; i < t.pes; i++ {
			for j := 0; j < t.pes; j++ {
				if i != j && t.linkTransientDown(instance, i, j) {
					m.Links[i][j] = false
				}
			}
		}
	}
	for _, ev := range t.spec.Events {
		if !eventActive(ev, instance) {
			continue
		}
		switch ev.Kind {
		case EventPE:
			m.PEs[ev.PE] = false
		case EventLink:
			m.Links[ev.From][ev.To] = false
		}
	}
	// Keep-alive floor: never let the last PE go; a mask with no survivors
	// would be rejected by every scheduler, which is the right response to a
	// hand-built impossible topology but the wrong one mid-sweep.
	alive := 0
	for _, a := range m.PEs {
		if a {
			alive++
		}
	}
	if alive == 0 {
		m.PEs[t.immortal] = true
	}
	return m
}

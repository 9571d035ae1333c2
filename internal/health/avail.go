package health

import (
	"fmt"
	"sort"

	"ctgdvfs/internal/telemetry"
)

// availState tracks hardware availability from the pe_down/pe_up/link_down/
// link_up/remap event kinds the adaptive manager emits at instance
// boundaries. The PEs it reports down are the ones the manager's mask hides,
// which the manager publishes live as the adaptive.health.pes_down gauge.
type availState struct {
	seen      bool
	peDown    map[int]bool // currently-down PEs
	down      int          // PEs currently down
	peOutages map[int]int  // total down transitions per PE
	permanent map[int]bool // PE ever reported permanently dead
	linkDowns int
	remaps    int
	restores  int
}

// PEAvailability is one PE's availability record in a snapshot.
type PEAvailability struct {
	PE int `json:"pe"`
	// Outages is the number of down transitions observed.
	Outages int `json:"outages"`
	// Down reports whether the PE is currently out of service.
	Down bool `json:"down,omitempty"`
	// Permanent reports whether any outage was a permanent death.
	Permanent bool `json:"permanent,omitempty"`
}

// AvailabilityStatus summarizes the hardware-availability history of a run.
// It is nil (omitted from JSON and the text report) when the stream carried
// no availability events at all, keeping healthy-run output unchanged.
type AvailabilityStatus struct {
	PEs []PEAvailability `json:"pes,omitempty"`
	// LinkDowns counts link outage events.
	LinkDowns int `json:"link_downs"`
	// Remaps counts degraded-mode re-mapping decisions; Restores counts
	// remaps back onto the recovered full topology.
	Remaps   int `json:"remaps"`
	Restores int `json:"restores"`
}

func (av *availState) observe(a *analyzer, e telemetry.Event) {
	if av.peDown == nil {
		av.peDown = map[int]bool{}
		av.peOutages = map[int]int{}
		av.permanent = map[int]bool{}
	}
	av.seen = true
	switch e.Kind {
	case telemetry.KindPEDown:
		av.peOutages[e.PE]++
		if e.Reason == "permanent" {
			av.permanent[e.PE] = true
		}
		a.note(e.Instance, "pe_down", fmt.Sprintf("PE %d (%s), %d alive", e.PE, e.Reason, e.Alive))
		if !av.peDown[e.PE] {
			av.peDown[e.PE] = true
			av.down++
		}
	case telemetry.KindPEUp:
		if av.peDown[e.PE] {
			av.peDown[e.PE] = false
			av.down--
		}
		a.note(e.Instance, "pe_up", fmt.Sprintf("PE %d restored, %d alive", e.PE, e.Alive))
	case telemetry.KindLinkDown:
		av.linkDowns++
		a.note(e.Instance, "link_down", fmt.Sprintf("link %d->%d", e.PE, e.PE2))
	case telemetry.KindLinkUp:
		a.note(e.Instance, "link_up", fmt.Sprintf("link %d->%d", e.PE, e.PE2))
	case telemetry.KindRemap:
		if e.Reason == "restored" {
			av.restores++
		} else {
			av.remaps++
		}
		a.note(e.Instance, "remap", fmt.Sprintf("%s, scheduling onto %d PEs", e.Reason, e.Alive))
	}
}

func (av *availState) snapshot() *AvailabilityStatus {
	if !av.seen {
		return nil
	}
	st := &AvailabilityStatus{LinkDowns: av.linkDowns, Remaps: av.remaps, Restores: av.restores}
	pes := make([]int, 0, len(av.peOutages))
	for pe := range av.peOutages {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		st.PEs = append(st.PEs, PEAvailability{
			PE:        pe,
			Outages:   av.peOutages[pe],
			Down:      av.peDown[pe],
			Permanent: av.permanent[pe],
		})
	}
	return st
}

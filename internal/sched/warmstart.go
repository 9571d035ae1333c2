package sched

import (
	"fmt"
	"slices"

	"ctgdvfs/internal/ctg"
)

// This file is the warm-start entry point of the mapping stage. An adaptive
// re-schedule triggered by a small probability drift does not need a new
// mapping: given a fixed task→PE assignment and resource order, the nominal
// start times, communication starts and pseudo edges are all
// probability-independent (they follow from WCETs, the platform and the
// resource orders alone). Branch probabilities only influence which mapping
// DLS *selects* and how the stretching stage weights slack. The warm path
// therefore reuses the incumbent schedule skeleton wholesale — copied into a
// reusable buffer so the incumbent (possibly shared with the schedule cache)
// is never mutated — and leaves only the speed assignment to be recomputed
// by a masked stretch.Heuristic pass (stretch.Options.Affected).

// CopyInto deep-copies s into dst, reusing dst's backing storage where the
// capacity allows; the immutable dispatch plan is shared, not copied. dst
// may be nil (a fresh Schedule is allocated). When dst was last used for a
// schedule of the same shape — the steady state of the warm-start loop,
// which alternates between two buffers of one mapping — the copy allocates
// nothing.
func (s *Schedule) CopyInto(dst *Schedule) *Schedule {
	if dst == nil {
		dst = &Schedule{}
	}
	dst.G, dst.A, dst.P = s.G, s.A, s.P
	dst.PE = append(dst.PE[:0], s.PE...)
	dst.Start = append(dst.Start[:0], s.Start...)
	dst.Speed = append(dst.Speed[:0], s.Speed...)
	dst.Order = append(dst.Order[:0], s.Order...)
	if cap(dst.PEOrder) < len(s.PEOrder) {
		dst.PEOrder = make([][]ctg.TaskID, len(s.PEOrder))
	}
	dst.PEOrder = dst.PEOrder[:len(s.PEOrder)]
	for pe := range s.PEOrder {
		dst.PEOrder[pe] = append(dst.PEOrder[pe][:0], s.PEOrder[pe]...)
	}
	dst.CommStart = append(dst.CommStart[:0], s.CommStart...)
	dst.Plan = s.Plan // immutable, shared (see Schedule.Plan)
	dst.Pseudo = append(dst.Pseudo[:0], s.Pseudo...)
	dst.Makespan = s.Makespan
	return dst
}

// WarmState double-buffers the schedule copies of the warm-start path. Start
// always copies the incumbent into a buffer the incumbent does *not*
// occupy, so a warm-started schedule handed to the runtime stays immutable
// while the next warm start builds its successor — the same
// never-mutate-a-published-schedule discipline the schedule cache relies on.
type WarmState struct {
	bufs [2]*Schedule
}

// NewWarmState returns an empty warm-start buffer pair.
func NewWarmState() *WarmState { return &WarmState{} }

// Start copies the incumbent schedule into a buffer that holds neither the
// incumbent nor any schedule in keep (one still published elsewhere, e.g.
// the committed schedule while a step works on a staged one) and returns
// it. The returned schedule shares the immutable graph/analysis/platform and
// is safe to mutate (speeds) without touching the incumbent. After the first
// two calls on one mapping, Start allocates nothing. Two buffers suffice
// while at most one published schedule besides the incumbent is a buffer;
// Start panics otherwise.
func (w *WarmState) Start(incumbent *Schedule, keep ...*Schedule) *Schedule {
	i := 0
	for ; i < len(w.bufs); i++ {
		if b := w.bufs[i]; b == nil || (b != incumbent && !slices.Contains(keep, b)) {
			break
		}
	}
	if i == len(w.bufs) {
		panic("sched: both warm-start buffers are published")
	}
	w.bufs[i] = incumbent.CopyInto(w.bufs[i])
	return w.bufs[i]
}

// QuickValidate is the O(tasks + edges) consistency check of the warm-start
// path: placement, speed ranges, and precedence-plus-communication
// inequalities. It is Validate without the quadratic per-PE exclusivity scan
// — warm starts never move tasks between PEs, so exclusivity is inherited
// from the (fully validated) incumbent mapping.
func (s *Schedule) QuickValidate() error {
	n := s.G.NumTasks()
	if len(s.PE) != n || len(s.Start) != n || len(s.Speed) != n {
		return fmt.Errorf("sched: schedule arrays sized %d/%d/%d, want %d",
			len(s.PE), len(s.Start), len(s.Speed), n)
	}
	for t := 0; t < n; t++ {
		if err := s.validTask(t); err != nil {
			return err
		}
	}
	return s.validEdges()
}

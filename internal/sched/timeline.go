package sched

import (
	"slices"

	"ctgdvfs/internal/ctg"
)

// interval is a reserved busy period on a resource (PE or link), tagged with
// the set of scenarios in which the occupying activity actually happens. Two
// intervals may overlap in time iff their scenario sets are disjoint — that
// is the paper's "mutually exclusive tasks may start on the same processor
// during the same time".
type interval struct {
	start, end float64
	scen       ctg.Bitset
}

// timeline tracks the reservations of one resource, kept sorted by start
// time. A PE's timeline grows to one interval per task it runs (about 60 per
// PE on the 16-PE scale graph at 10³ tasks, 250 at 4·10³), and DLS queries
// it near its end, so queries do not scan it from the front: maxEnd[i] is
// the largest end among ivals[:i+1], non-decreasing, and a binary search
// over it skips every interval that ends before the queried window. Every
// query's result is independent of the order of intervals with equal
// starts, and the index uses comparisons only, so the answers are exactly
// those of a linear scan.
type timeline struct {
	ivals  []interval
	maxEnd []float64
}

// reset empties the timeline, retaining capacity for reuse across DLS calls
// (see Workspace).
func (tl *timeline) reset() {
	tl.ivals = tl.ivals[:0]
	tl.maxEnd = tl.maxEnd[:0]
}

// endingAfter returns the index of the first interval whose prefix-maximum
// end exceeds t: every interval before it ends at or before t.
func (tl *timeline) endingAfter(t float64) int {
	lo, hi := 0, len(tl.maxEnd)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tl.maxEnd[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// conflictsAt reports whether placing an activity over [t, t+dur) with the
// given scenario set would overlap a reservation active in a shared
// scenario.
func (tl *timeline) conflictsAt(t, dur float64, scen ctg.Bitset) bool {
	end := t + dur
	for _, iv := range tl.ivals[tl.endingAfter(t):] {
		if iv.start >= end {
			break // sorted: nothing later can overlap
		}
		if iv.end > t && iv.scen.Intersects(scen) {
			return true
		}
	}
	return false
}

// earliestFit returns the earliest start ≥ ready at which an activity of the
// given duration and scenario set fits. Candidate starts are the ready time
// and the end of each conflicting reservation. An end equal to ready is no
// candidate once ready conflicts, so the scan starts at the first interval
// ending after ready, and it stops at the first interval starting at or
// after the best fit so far, whose end (like every later one) cannot beat
// it.
func (tl *timeline) earliestFit(ready, dur float64, scen ctg.Bitset) float64 {
	if !tl.conflictsAt(ready, dur, scen) {
		return ready
	}
	best := -1.0
	for _, iv := range tl.ivals[tl.endingAfter(ready):] {
		if best >= 0 && iv.start >= best {
			break
		}
		t := iv.end
		if t < ready {
			continue
		}
		if (best < 0 || t < best) && !tl.conflictsAt(t, dur, scen) {
			best = t
		}
	}
	if best < 0 {
		// Unreachable for finite timelines (the end of the last interval
		// always fits), but keep a safe fallback.
		return max(tl.maxEnd[len(tl.maxEnd)-1], ready)
	}
	return best
}

// add reserves [start, start+dur) for an activity with the given scenario
// set, inserting it after every interval that starts no later. Zero-duration
// activities reserve nothing.
func (tl *timeline) add(start, dur float64, scen ctg.Bitset) {
	if dur <= 0 {
		return
	}
	end := start + dur
	lo, hi := 0, len(tl.ivals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tl.ivals[mid].start <= start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	tl.ivals = slices.Insert(tl.ivals, lo, interval{start: start, end: end, scen: scen})
	m := end
	if lo > 0 {
		m = max(m, tl.maxEnd[lo-1])
	}
	tl.maxEnd = slices.Insert(tl.maxEnd, lo, m)
	// Later prefixes now include end; they are non-decreasing, so the
	// first one already at or past it ends the update.
	for j := lo + 1; j < len(tl.maxEnd) && tl.maxEnd[j] < end; j++ {
		tl.maxEnd[j] = end
	}
}

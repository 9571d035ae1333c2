package sched

import (
	"testing"

	"ctgdvfs/internal/ctg"
)

func bs(n int, bits ...int) ctg.Bitset {
	b := ctg.NewBitset(n)
	for _, i := range bits {
		b.Set(i)
	}
	return b
}

func TestTimelineEarliestFitEmpty(t *testing.T) {
	var tl timeline
	if got := tl.earliestFit(3, 5, bs(4, 0)); got != 3 {
		t.Fatalf("earliestFit on empty timeline = %v, want 3", got)
	}
}

func TestTimelineSerializesConflicts(t *testing.T) {
	var tl timeline
	all := bs(4, 0, 1, 2, 3)
	tl.add(0, 10, all)
	if got := tl.earliestFit(0, 5, all); got != 10 {
		t.Fatalf("earliestFit = %v, want 10", got)
	}
	// Fits into the gap after the first interval, before a later one.
	tl.add(20, 10, all)
	if got := tl.earliestFit(0, 5, all); got != 10 {
		t.Fatalf("earliestFit with gap = %v, want 10", got)
	}
	if got := tl.earliestFit(0, 15, all); got != 30 {
		t.Fatalf("earliestFit too big for gap = %v, want 30", got)
	}
	if got := tl.earliestFit(12, 5, all); got != 12 {
		t.Fatalf("earliestFit inside gap = %v, want 12", got)
	}
}

func TestTimelineAllowsMutuallyExclusiveOverlap(t *testing.T) {
	var tl timeline
	s0 := bs(4, 0)
	s1 := bs(4, 1)
	s01 := bs(4, 0, 1)
	tl.add(0, 10, s0)
	// Disjoint scenario sets may overlap in time.
	if got := tl.earliestFit(0, 5, s1); got != 0 {
		t.Fatalf("ME overlap rejected: earliestFit = %v, want 0", got)
	}
	// Intersecting sets must serialize.
	if got := tl.earliestFit(0, 5, s01); got != 10 {
		t.Fatalf("intersecting sets overlapped: earliestFit = %v, want 10", got)
	}
}

func TestTimelineZeroDurationAddIsNoop(t *testing.T) {
	var tl timeline
	tl.add(5, 0, bs(1, 0))
	if len(tl.ivals) != 0 {
		t.Fatal("zero-duration interval was stored")
	}
}

func TestTimelineConflictsAtBoundary(t *testing.T) {
	var tl timeline
	all := bs(1, 0)
	tl.add(0, 10, all)
	// Half-open intervals: starting exactly at the end is fine.
	if tl.conflictsAt(10, 5, all) {
		t.Fatal("back-to-back intervals must not conflict")
	}
	if !tl.conflictsAt(9.999, 5, all) {
		t.Fatal("overlapping intervals must conflict")
	}
}

// FuzzTimeline drives the indexed timeline and the linear-scan reference
// through the same reservations and queries. Each 4-byte record is one
// operation: an add or a query (conflictsAt and earliestFit), with a start
// on a half-unit grid of 32 points (so starts tie often), a duration of 0
// to 3.5 units and a scenario set over four scenarios (overlapping,
// disjoint or empty). Every answer must match the reference exactly.
func FuzzTimeline(f *testing.F) {
	f.Add([]byte{0, 4, 4, 1, 0, 4, 2, 2, 0, 4, 6, 3, 1, 4, 2, 1, 1, 0, 7, 15})
	f.Add([]byte{0, 0, 2, 15, 0, 2, 2, 15, 0, 8, 0, 15, 1, 1, 3, 1, 1, 2, 0, 2, 1, 9, 1, 8})
	f.Add([]byte{0, 10, 7, 5, 0, 2, 7, 10, 0, 6, 3, 3, 1, 0, 4, 12, 1, 5, 5, 1, 1, 30, 0, 0})
	// A long reservation inserted before a shorter one must raise the
	// shorter one's prefix maximum.
	f.Add([]byte{0, 4, 1, 1, 0, 0, 7, 1, 1, 6, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tl timeline
		var ref refTimeline
		for ; len(data) >= 4; data = data[4:] {
			start := float64(data[1]%32) / 2
			dur := float64(data[2]%8) / 2
			scen := ctg.NewBitset(4)
			for i := 0; i < 4; i++ {
				if data[3]&(1<<i) != 0 {
					scen.Set(i)
				}
			}
			if data[0]%2 == 0 {
				tl.add(start, dur, scen)
				ref.add(start, dur, scen)
				continue
			}
			if got, want := tl.conflictsAt(start, dur, scen), ref.conflictsAt(start, dur, scen); got != want {
				t.Fatalf("conflictsAt(%v, %v, %v) = %v, want %v", start, dur, scen, got, want)
			}
			if got, want := tl.earliestFit(start, dur, scen), ref.earliestFit(start, dur, scen); got != want {
				t.Fatalf("earliestFit(%v, %v, %v) = %v, want %v", start, dur, scen, got, want)
			}
		}
	})
}

package telemetry

import (
	"bytes"
	"testing"
)

func TestSequencerMonotonic(t *testing.T) {
	s := NewSequencer()
	if got := s.Last(); got != 0 {
		t.Fatalf("fresh Last = %d, want 0", got)
	}
	for want := uint64(1); want <= 5; want++ {
		if got := s.Next(); got != want {
			t.Fatalf("Next = %d, want %d", got, want)
		}
	}
	if got := s.Last(); got != 5 {
		t.Fatalf("Last = %d, want 5", got)
	}
}

func TestFlightRecorderWindow(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 1; i <= 6; i++ {
		r.Record(Event{Kind: KindTaskSlice, Instance: i})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 6 {
		t.Fatalf("Total = %d, want 6", r.Total())
	}
	snap := r.Snapshot()
	for i, e := range snap {
		if want := i + 3; e.Instance != want {
			t.Fatalf("snapshot[%d].Instance = %d, want %d (oldest-first window)", i, e.Instance, want)
		}
	}
	var buf bytes.Buffer
	if err := r.DumpTo(&buf); err != nil {
		t.Fatalf("DumpTo: %v", err)
	}
	evs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL(dump): %v", err)
	}
	if len(evs) != 4 || evs[0].Instance != 3 || evs[3].Instance != 6 {
		t.Fatalf("dump round-trip = %+v", evs)
	}
}

func TestFlightRecorderNilDisabled(t *testing.T) {
	var r *FlightRecorder
	r.Record(Event{Kind: KindFallback}) // must not panic
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("nil recorder reported state")
	}
}

func TestFlightRecorderZeroAllocSteadyState(t *testing.T) {
	r := NewFlightRecorder(64)
	ev := Event{Kind: KindTaskSlice, Instance: 1, Task: 2, PE: 1, Start: 0.5, End: 1.5, Seq: 9}
	allocs := testing.AllocsPerRun(1000, func() { r.Record(ev) })
	if allocs != 0 {
		t.Fatalf("steady-state Record allocates %v/op, want 0", allocs)
	}
	var nilRec *FlightRecorder
	allocs = testing.AllocsPerRun(1000, func() { nilRec.Record(ev) })
	if allocs != 0 {
		t.Fatalf("nil Record allocates %v/op, want 0", allocs)
	}
}

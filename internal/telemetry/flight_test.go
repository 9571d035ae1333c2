package telemetry

import (
	"bytes"
	"testing"
)

func TestSequencerMonotonic(t *testing.T) {
	s := NewSequencer()
	for want := uint64(1); want <= 5; want++ {
		if got := s.Next(); got != want {
			t.Fatalf("Next = %d, want %d", got, want)
		}
	}
}

func TestFlightRecorderWindow(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 1; i <= 6; i++ {
		r.Record(Event{Kind: KindTaskSlice, Instance: i})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("window holds %d events, want 4", len(snap))
	}
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

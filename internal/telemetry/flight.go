package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// FlightRecorder is a fixed-capacity ring-buffer Recorder — the runtime's
// black box. It is cheap enough to leave always on: steady-state recording
// overwrites preallocated slots and allocates nothing (pinned by test), and a
// nil *FlightRecorder ignores Record calls so the disabled path is one
// branch. DumpTo writes the current window as JSONL, a self-contained event
// stream that ReadJSONL, `ctgsched analyze` and `ctgsched explain` ingest
// directly; the daemon serves it at GET /v1/tenants/{name}/events.
//
// Events alias their Probs slices (like MemoryRecorder); producers emit
// fresh slices, so the window stays immutable once captured.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []Event
	head int // next write slot
	n    int // live events (≤ len(buf))
}

// NewFlightRecorder returns a recorder that keeps the most recent capacity
// events (capacity ≤ 0 selects 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &FlightRecorder{buf: make([]Event, capacity)}
}

// Record stores the event in the ring, overwriting the oldest slot once
// full. A nil receiver ignores the call, so "flight recorder not installed"
// costs one branch.
func (r *FlightRecorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// DumpTo writes the current window oldest-first as JSONL to w.
func (r *FlightRecorder) DumpTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range r.Snapshot() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Snapshot returns the window oldest-first as a copy.
func (r *FlightRecorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := range out {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

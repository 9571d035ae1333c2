package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// DefaultFlightTriggers are the event kinds that arm a flight-recorder dump
// when no explicit trigger set is configured: a circuit-breaker level change,
// a worst-case fallback activation, a health-monitor alert (SLO breach,
// drift, miss streak) and a series-rule alert firing — the moments an
// operator wants the black box for.
var DefaultFlightTriggers = []Kind{
	KindGuardLevel, KindFallback, KindHealthAlert, KindAlertFiring,
}

// FlightRecorderOptions configures a FlightRecorder.
type FlightRecorderOptions struct {
	// Capacity is the ring size in events (default 256). The recorder keeps
	// the most recent Capacity events; a dump writes that window.
	Capacity int
	// Triggers are the kinds that fire an automatic dump (default
	// DefaultFlightTriggers). Ignored when Sink is nil.
	Triggers []Kind
	// Sink opens the destination of one automatic dump. It is called at
	// most once per trigger firing; the recorder writes the window as JSONL
	// and closes the writer. A nil Sink disables automatic dumps — the
	// recorder is then a pure black box read via Snapshot/DumpTo.
	Sink func() (io.WriteCloser, error)
	// Cooldown is the minimum number of recorded events between automatic
	// dumps, so a trigger storm (e.g. a fallback per instance during an
	// outage) produces distinct windows instead of near-duplicates. Default:
	// Capacity (a dump per full ring turnover). Use a negative value for no
	// cooldown.
	Cooldown int
}

// FlightRecorder is a fixed-capacity ring-buffer Recorder — the runtime's
// black box. It is cheap enough to leave always on: steady-state recording
// overwrites preallocated slots and allocates nothing (pinned by benchmark),
// and a nil *FlightRecorder ignores Record calls so the disabled path is one
// branch. When an armed trigger kind arrives it dumps the current window as
// JSONL through the configured sink; the window is a self-contained event
// stream that `ctgsched analyze` and `ctgsched explain` ingest directly.
//
// Events alias their Probs slices (like MemoryRecorder); producers emit
// fresh slices, so the window stays immutable once captured.
type FlightRecorder struct {
	mu       sync.Mutex
	buf      []Event
	head     int    // next write slot
	n        int    // live events (≤ len(buf))
	total    uint64 // events ever recorded
	trig     map[Kind]bool
	sink     func() (io.WriteCloser, error)
	cooldown int
	lastDump uint64 // total at the last automatic dump
	dumps    int
	err      error // first sink error, sticky
}

// NewFlightRecorder builds a flight recorder from opts (zero value = 256-slot
// black box with default triggers and no automatic dumps).
func NewFlightRecorder(opts FlightRecorderOptions) *FlightRecorder {
	capN := opts.Capacity
	if capN <= 0 {
		capN = 256
	}
	triggers := opts.Triggers
	if triggers == nil {
		triggers = DefaultFlightTriggers
	}
	trig := make(map[Kind]bool, len(triggers))
	for _, k := range triggers {
		trig[k] = true
	}
	cd := opts.Cooldown
	if cd == 0 {
		cd = capN
	} else if cd < 0 {
		cd = 0
	}
	return &FlightRecorder{
		buf:      make([]Event, capN),
		trig:     trig,
		sink:     opts.Sink,
		cooldown: cd,
	}
}

// Record stores the event in the ring, overwriting the oldest slot once full,
// and fires an automatic dump when the event's kind is an armed trigger (and
// the cooldown since the previous dump has elapsed). A nil receiver ignores
// the call, so "flight recorder not installed" costs one branch.
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
	r.total++
	if r.sink != nil && r.trig[e.Kind] &&
		(r.lastDump == 0 || r.total-r.lastDump >= uint64(r.cooldown)) {
		r.dumpLocked()
	}
	r.mu.Unlock()
}

// dumpLocked writes the window through one sink opening. Sink and write
// errors are sticky (first kept, reported by Err); a failed dump still counts
// the cooldown so a broken sink is not retried on every trigger.
func (r *FlightRecorder) dumpLocked() {
	r.dumps++
	r.lastDump = r.total
	w, err := r.sink()
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return
	}
	err = r.writeLocked(w)
	if cerr := w.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil && r.err == nil {
		r.err = err
	}
}

// writeLocked encodes the window oldest-first as JSONL.
func (r *FlightRecorder) writeLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		if err := enc.Encode(r.buf[(start+i)%len(r.buf)]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpTo writes the current window as JSONL to w (manual dump; does not
// count against the automatic-dump cooldown).
func (r *FlightRecorder) DumpTo(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writeLocked(w)
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
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

// Len returns the number of events currently held (≤ capacity).
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Total returns the number of events ever recorded.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dumps returns the number of automatic dumps fired (including failed ones).
func (r *FlightRecorder) Dumps() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumps
}

// Err returns the first sink error seen by an automatic dump (sticky).
func (r *FlightRecorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

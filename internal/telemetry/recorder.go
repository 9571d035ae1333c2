package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Recorder consumes telemetry events. Implementations must be safe for
// concurrent Record calls: replays fan out over the scenario-engine worker
// pool, and the experiment harness runs whole workloads in parallel.
//
// A nil Recorder means "telemetry disabled"; every producer checks for nil
// before building an event, so the disabled path allocates nothing.
type Recorder interface {
	Record(Event)
}

// MemoryRecorder buffers events in order of arrival. It is the sink the
// Chrome-trace exporter and the tests consume.
type MemoryRecorder struct {
	mu     sync.Mutex
	events []Event
}

// NewMemoryRecorder returns an empty in-memory sink.
func NewMemoryRecorder() *MemoryRecorder { return &MemoryRecorder{} }

// Record appends the event.
func (r *MemoryRecorder) Record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a snapshot copy of the recorded stream.
func (r *MemoryRecorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *MemoryRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// CountByKind tallies the recorded events per kind.
func (r *MemoryRecorder) CountByKind() map[Kind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[Kind]int)
	for _, e := range r.events {
		m[e.Kind]++
	}
	return m
}

// ErrRecordAfterClose is the sticky error a JSONLRecorder reports when an
// event arrives after Close: the event was dropped, not written to a closed
// sink.
var ErrRecordAfterClose = errors.New("telemetry: record after close")

// JSONLRecorder streams events as one JSON object per line. Writes are
// buffered; call Close (or Flush) to drain the buffer. Encoding errors are
// sticky — the first one is kept and reported by Err, Flush and Close — so
// the hot path never returns an error, and nothing is silently swallowed: a
// lossy stream always surfaces its first failure. A closed recorder drops
// further events (recording ErrRecordAfterClose) instead of writing to the
// closed sink.
type JSONLRecorder struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer // non-nil when the recorder owns the underlying writer
	enc    *json.Encoder
	err    error
	closed bool
}

// NewJSONLRecorder wraps an io.Writer. If the writer is also an io.Closer,
// Close closes it after flushing.
func NewJSONLRecorder(w io.Writer) *JSONLRecorder {
	bw := bufio.NewWriter(w)
	r := &JSONLRecorder{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		r.c = c
	}
	return r
}

// Record encodes the event as one JSONL line. After the first encode/write
// error the stream stops (the error is sticky; read it with Err); after Close
// events are dropped and ErrRecordAfterClose recorded.
func (r *JSONLRecorder) Record(e Event) {
	r.mu.Lock()
	switch {
	case r.closed:
		if r.err == nil {
			r.err = ErrRecordAfterClose
		}
	case r.err == nil:
		r.err = r.enc.Encode(e) // Encode appends the newline
	}
	r.mu.Unlock()
}

// Err returns the first encode/write error seen so far (nil while the stream
// is healthy). Check it after a run — Record itself never reports failures.
func (r *JSONLRecorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Flush drains the write buffer and returns the first error seen so far.
func (r *JSONLRecorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushLocked()
}

func (r *JSONLRecorder) flushLocked() error {
	if r.err == nil {
		r.err = r.w.Flush()
	}
	return r.err
}

// Close flushes and, when the recorder owns an io.Closer, closes it. Close
// is idempotent: later calls return the sticky error without touching the
// underlying writer again.
func (r *JSONLRecorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	r.closed = true
	err := r.flushLocked()
	if r.c != nil {
		if cerr := r.c.Close(); cerr != nil && err == nil {
			err = cerr
			r.err = cerr
		}
	}
	return err
}

// TruncatedTailError reports a JSONL capture whose final line failed to
// parse — the signature of a recorder killed mid-write (crash, full disk,
// SIGKILL). ReadJSONL returns it alongside the successfully parsed prefix:
// callers should treat it as a warning, not a failure, because everything
// before the torn line is intact.
type TruncatedTailError struct {
	// Line is the 1-based line number of the unparseable trailing line.
	Line int
	// Err is the underlying JSON decode error.
	Err error
}

func (e *TruncatedTailError) Error() string {
	return fmt.Sprintf("truncated JSONL tail: line %d unparseable (%v); keeping the %d-line prefix",
		e.Line, e.Err, e.Line-1)
}

func (e *TruncatedTailError) Unwrap() error { return e.Err }

// ReadJSONL decodes a JSONL event stream (the inverse of JSONLRecorder) line
// by line; blank lines are skipped and empty input is no events and no
// error. A final line that fails to parse is a torn tail: the intact prefix
// comes back with a *TruncatedTailError. A line that fails to parse with
// events after it is corruption mid-stream: no events and a plain error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var out []Event
	var bad error
	badLine := 0
	for line := 1; ; line++ {
		raw, rerr := br.ReadBytes('\n')
		if raw = bytes.TrimSpace(raw); len(raw) > 0 {
			if bad != nil {
				return nil, fmt.Errorf("line %d: %w", badLine, bad)
			}
			var e Event
			if err := json.Unmarshal(raw, &e); err != nil {
				bad, badLine = err, line
			} else {
				out = append(out, e)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	if bad != nil {
		return out, &TruncatedTailError{Line: badLine, Err: bad}
	}
	return out, nil
}

// MultiRecorder fans one event stream out to several sinks.
type MultiRecorder []Recorder

// Record forwards the event to every sink.
func (m MultiRecorder) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

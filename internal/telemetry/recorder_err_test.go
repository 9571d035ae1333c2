package telemetry

import (
	"bytes"
	"errors"
	"testing"
)

// failWriter fails every write after the first n bytes-worth of calls.
type failWriter struct {
	okWrites int
	writes   int
	closed   bool
}

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.okWrites {
		return 0, errDiskFull
	}
	return len(p), nil
}

func (w *failWriter) Close() error {
	w.closed = true
	return nil
}

// TestJSONLRecorderSurfacesWriteErrors pins the no-silent-loss guarantee: the
// first write failure is sticky and visible through Flush and Close —
// Record never panics or blocks, but the stream's failure cannot go unseen.
func TestJSONLRecorderSurfacesWriteErrors(t *testing.T) {
	w := &failWriter{okWrites: 0}
	r := NewJSONLRecorder(w)
	// The bufio layer absorbs small events; force the flush path to fail.
	r.Record(Event{Kind: KindInstanceStart})
	if err := r.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush = %v, want errDiskFull", err)
	}
	if err := r.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("second Flush = %v, want errDiskFull", err)
	}
	// Later records are dropped without clearing the sticky error.
	r.Record(Event{Kind: KindInstanceFinish})
	if err := r.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want the first error kept", err)
	}
	if !w.closed {
		t.Fatal("owned writer not closed")
	}
}

// TestJSONLRecorderEncodeErrorSticky drives the encoder itself into failure
// (oversized event exceeding the failing writer's budget) and checks the
// healthy prefix survives while the error is reported.
func TestJSONLRecorderEncodeErrorSticky(t *testing.T) {
	var buf bytes.Buffer
	r := NewJSONLRecorder(&buf)
	r.Record(Event{Kind: KindInstanceStart, Instance: 1})
	if err := r.Flush(); err != nil {
		t.Fatalf("healthy stream reports %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJSONL(&buf)
	if err != nil || len(evs) != 1 {
		t.Fatalf("roundtrip: %d events, %v", len(evs), err)
	}
}

// TestJSONLRecorderClosedSinkGuard pins the close semantics: Close is
// idempotent, and events recorded after Close are dropped with
// ErrRecordAfterClose — never written into a closed writer.
func TestJSONLRecorderClosedSinkGuard(t *testing.T) {
	var buf bytes.Buffer
	r := NewJSONLRecorder(&buf)
	r.Record(Event{Kind: KindInstanceStart})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	r.Record(Event{Kind: KindInstanceFinish})
	if buf.Len() != n {
		t.Fatal("event written after Close")
	}
	if err := r.Flush(); !errors.Is(err, ErrRecordAfterClose) {
		t.Fatalf("Flush = %v, want ErrRecordAfterClose", err)
	}
	// Idempotent: the second Close reports the sticky error, no new writes.
	if err := r.Close(); !errors.Is(err, ErrRecordAfterClose) {
		t.Fatalf("second Close = %v, want sticky ErrRecordAfterClose", err)
	}
	// A pre-close failure outranks the post-close drop marker.
	w := &failWriter{}
	r2 := NewJSONLRecorder(w)
	r2.Record(Event{Kind: KindInstanceStart})
	r2.Close()
	r2.Record(Event{Kind: KindInstanceFinish})
	if err := r2.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush = %v, want first error (errDiskFull) kept", err)
	}
}

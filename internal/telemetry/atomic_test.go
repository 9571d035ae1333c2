package telemetry

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists a directory's entries, so a test can see leftover temp files.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func readString(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestWriteFileAtomicPublishesOrKeepsPrevious checks both outcomes of an
// atomic write: success replaces the destination, failure leaves the
// previous file as it was, and neither leaves a temp file behind.
func TestWriteFileAtomicPublishesOrKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, write("first\n")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, write("second\n")); err != nil {
		t.Fatal(err)
	}
	if got := readString(t, path); got != "second\n" {
		t.Fatalf("destination = %q, want the second write", got)
	}

	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the writer's error, got %v", err)
	}
	if got := readString(t, path); got != "second\n" {
		t.Fatalf("failed write changed the destination to %q", got)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "out.jsonl" {
		t.Fatalf("directory holds %v, want only out.jsonl", names)
	}

	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), write("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestAtomicFileAbortAndClose covers the writer's own life cycle: Abort
// discards pending bytes, a second Close or an Abort after Close is a no-op.
func TestAtomicFileAbortAndClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	f, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("pending")); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	f.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("aborted write published %s: %v", path, err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("abort left %v behind", names)
	}

	f, err = CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("done")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	f.Abort()
	if got := readString(t, path); got != "done" {
		t.Fatalf("destination = %q, want %q", got, "done")
	}
}

// TestAtomicFileStickyWriteError checks that a failed Write is sticky: later
// writes fail too, and Close refuses to publish the partial file.
func TestAtomicFileStickyWriteError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	f, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	f.tmp.Close() // the next write fails with "file already closed"
	if _, err := f.Write([]byte("a")); err == nil {
		t.Fatal("write to a closed temp file succeeded")
	}
	if _, err := f.Write([]byte("b")); err == nil {
		t.Fatal("write after a failed write succeeded")
	}
	if err := f.Close(); err == nil {
		t.Fatal("Close published after a failed write")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write published %s: %v", path, err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("failed write left %v behind", names)
	}
}

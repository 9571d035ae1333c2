package telemetry

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicFile is a crash-safe file writer: bytes land in a hidden temp file in
// the destination's directory, and only a successful Close fsyncs and renames
// it into place (then fsyncs the directory so the rename itself survives a
// crash). A process killed mid-write therefore never leaves a half-written
// capture under the destination name — readers either see the previous
// complete file or the new complete file, never a torn one that `analyze` /
// `explain` would report as mid-stream corruption. Abort (or a failed Close)
// removes the temp file and leaves the destination untouched.
type AtomicFile struct {
	dest string
	tmp  *os.File
	err  error // first write error, sticky — Close refuses to publish after it
}

// CreateAtomic opens an atomic writer targeting path. The temp file is
// created in path's directory (same filesystem, so the final rename is
// atomic).
func CreateAtomic(path string) (*AtomicFile, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{dest: path, tmp: tmp}, nil
}

// Write appends to the pending temp file.
func (f *AtomicFile) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	n, err := f.tmp.Write(p)
	if err != nil {
		f.err = err
	}
	return n, err
}

// Close publishes the file: fsync, close, rename over the destination, fsync
// the directory. If any step — or any earlier Write — failed, the temp file
// is removed instead and the destination is left as it was.
func (f *AtomicFile) Close() error {
	if f.tmp == nil {
		return f.err
	}
	tmp := f.tmp
	f.tmp = nil
	if f.err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return f.err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		f.err = err
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		f.err = err
		return err
	}
	if err := os.Rename(tmp.Name(), f.dest); err != nil {
		os.Remove(tmp.Name())
		f.err = err
		return err
	}
	return syncDir(filepath.Dir(f.dest))
}

// Abort discards the pending bytes without touching the destination. Safe
// after Close (no-op).
func (f *AtomicFile) Abort() {
	if f.tmp == nil {
		return
	}
	tmp := f.tmp
	f.tmp = nil
	tmp.Close()
	os.Remove(tmp.Name())
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Filesystems
// that refuse to sync directories (some network mounts) degrade gracefully:
// the rename is still atomic, only its durability window widens.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// WriteFileAtomic writes the output of fn to path crash-safely: fn streams
// into a temp file that is fsynced and atomically renamed into place only if
// fn succeeded. On error the destination is untouched.
func WriteFileAtomic(path string, fn func(io.Writer) error) error {
	f, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Abort()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("telemetry: atomic write %s: %w", path, err)
	}
	return nil
}

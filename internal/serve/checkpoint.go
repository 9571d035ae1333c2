package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/telemetry"
)

// Checkpoint format. A snapshot is a single file:
//
//	ctgschedd-snapshot v1 sha256=<hex digest of the payload bytes>\n
//	<payload JSON>
//
// written via write-temp-then-rename (telemetry.CreateAtomic: temp file in
// the same directory, fsync, atomic rename, directory fsync), so a crash
// mid-write never leaves a torn file under the snapshot name. The previous
// generation is rotated to <name>.ckpt.prev before the rename lands, and
// restore falls back to it when the primary is torn, corrupt or missing —
// the same tolerate-the-tail-report-the-middle posture as
// telemetry.TruncatedTailError.
//
// The payload deliberately snapshots *inputs*, not engine internals: the
// tenant spec (CTG, platform, manager knobs) plus the full decision-vector
// log. Restore rebuilds the manager and replays the log; because the engine
// is deterministic, that reproduces the estimator window, the incumbent
// schedule, the guard level and the cache state bit-for-bit. The snapshot's
// Instances/Calls/GuardLevel/Digest fields are *verification* values: after
// replay they are compared against the rebuilt state, and any mismatch is
// reported as a corrupt snapshot rather than silently served.
const (
	snapshotMagic   = "ctgschedd-snapshot v1 sha256="
	snapshotExt     = ".ckpt"
	snapshotPrevExt = ".ckpt.prev"
)

// SnapshotError reports a torn, corrupt or divergent snapshot file. Like
// telemetry.TruncatedTailError it is a diagnosis, not just a failure: Reason
// says what was wrong (bad header, checksum mismatch, replay divergence), so
// the operator can tell a half-written file from real corruption.
type SnapshotError struct {
	Path   string
	Reason string
	Err    error
}

func (e *SnapshotError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("serve: snapshot %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("serve: snapshot %s: %s", e.Path, e.Reason)
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// snapshotPayload is the JSON body of one checkpoint.
type snapshotPayload struct {
	Name    string     `json:"name"`
	Spec    TenantSpec `json:"spec"`
	Vectors [][]int    `json:"vectors"`

	// Verification fields: what the replayed state must report.
	Instances  int    `json:"instances"`
	Calls      int    `json:"calls"`
	GuardLevel int    `json:"guard_level"`
	Digest     string `json:"digest"` // %016x of scheduleDigest at capture
}

// snapshotPath is the primary snapshot file of a tenant.
func snapshotPath(dir, name string) string {
	return filepath.Join(dir, name+snapshotExt)
}

// writeSnapshot persists one snapshot atomically, rotating the previous
// generation to .ckpt.prev.
func writeSnapshot(path string, pay *snapshotPayload) error {
	body, err := json.Marshal(pay)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(body)
	f, err := telemetry.CreateAtomic(path)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s%s\n", snapshotMagic, hex.EncodeToString(sum[:])); err != nil {
		f.Abort()
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Abort()
		return err
	}
	// Keep the previous generation around: a crash between these two renames
	// leaves at worst only the .prev file, which restore falls back to.
	if _, serr := os.Stat(path); serr == nil {
		if err := os.Rename(path, path+".prev"); err != nil {
			f.Abort()
			return err
		}
	}
	return f.Close()
}

// loadSnapshot parses and checksums one snapshot file.
func loadSnapshot(path string) (*snapshotPayload, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, &SnapshotError{Path: path, Reason: "unreadable", Err: err}
	}
	nl := strings.IndexByte(string(raw), '\n')
	if nl < 0 || !strings.HasPrefix(string(raw[:nl]), snapshotMagic) {
		return nil, &SnapshotError{Path: path, Reason: "bad header (torn or not a snapshot)"}
	}
	wantHex := strings.TrimPrefix(string(raw[:nl]), snapshotMagic)
	body := raw[nl+1:]
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != wantHex {
		return nil, &SnapshotError{Path: path, Reason: "checksum mismatch (torn or corrupt payload)"}
	}
	var pay snapshotPayload
	if err := json.Unmarshal(body, &pay); err != nil {
		return nil, &SnapshotError{Path: path, Reason: "payload unmarshal", Err: err}
	}
	if pay.Instances != len(pay.Vectors) {
		return nil, &SnapshotError{Path: path,
			Reason: fmt.Sprintf("inconsistent payload: %d instances vs %d vectors", pay.Instances, len(pay.Vectors))}
	}
	return &pay, nil
}

// loadSnapshotWithFallback loads the primary snapshot, falling back to the
// rotated previous generation when the primary is torn or corrupt. It
// returns the payload, whether the fallback generation was used, and the
// primary's error when one was diagnosed (nil on a clean primary load).
func loadSnapshotWithFallback(path string) (pay *snapshotPayload, usedPrev bool, primaryErr error) {
	pay, primaryErr = loadSnapshot(path)
	if primaryErr == nil {
		return pay, false, nil
	}
	prev, perr := loadSnapshot(path + ".prev")
	if perr != nil {
		return nil, false, primaryErr
	}
	return prev, true, primaryErr
}

// scheduleDigest fingerprints the externally observable scheduling state of a
// manager: the incumbent mapping, start times and speeds, the makespan, the
// per-scenario speed table when one is active, and the current per-fork
// probability estimates. Two managers with equal digests dispatch every
// future instance identically — this is the "bit-for-bit identical schedule"
// a restore must reproduce.
func scheduleDigest(m *core.Manager) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	putF := func(v float64) { putU64(math.Float64bits(v)) }
	s := m.Schedule()
	if s == nil {
		return 0
	}
	for _, pe := range s.PE {
		putU64(uint64(int64(pe)))
	}
	for _, v := range s.Start {
		putF(v)
	}
	for _, v := range s.Speed {
		putF(v)
	}
	putF(s.Makespan)
	if sp := m.ScenarioSpeeds(); sp != nil {
		for _, row := range sp.Speeds {
			for _, v := range row {
				putF(v)
			}
		}
	}
	for fi := 0; ; fi++ {
		probs := m.Probs(fi)
		if probs == nil {
			break
		}
		for _, v := range probs {
			putF(v)
		}
	}
	putU64(uint64(int64(m.GuardLevel())))
	return h.Sum64()
}

func digestHex(d uint64) string { return fmt.Sprintf("%016x", d) }

package core

import (
	"runtime"
	"testing"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/trace"
)

// TestFullRescheduleAllocsBounded pins the allocations of an MPEG step that
// runs a full reschedule (window 20, threshold 0.1, warm start off), the
// mean over the full reschedules of 400 steps after 100 to warm up. The DLS
// run and its schedule allocate; the stretch pass reuses the manager's
// workspace, rebound to each new mapping, and its grown buffers. The mean
// is 404; a fresh workspace per full pass raises it to about 513.
func TestFullRescheduleAllocsBounded(t *testing.T) {
	g0, p, err := mpeg.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := TightenDeadline(g0, p, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	vecs := trace.MovieClips()[0].Generate(g, 500)
	m, err := New(g, p, Options{Window: 20, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var mallocs uint64
	full := 0
	for i, v := range vecs {
		runtime.ReadMemStats(&before)
		res, err := m.Step(v)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 100 && res.Rescheduled {
			mallocs += after.Mallocs - before.Mallocs
			full++
		}
	}
	if full < 25 {
		t.Fatalf("%d full reschedules in 400 steps, want at least 25", full)
	}
	if mean := float64(mallocs) / float64(full); mean > 425 {
		t.Fatalf("%.1f allocs per full-reschedule step over %d, want <= 425", mean, full)
	}
}

package telemetry

import (
	"sync"
	"testing"
)

// TestGaugeSetMaxConcurrent hammers SetMax from several writers and checks
// the CAS loop converges on the global maximum (run under -race to validate
// the synchronization itself).
func TestGaugeSetMaxConcurrent(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("max")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.SetMax(float64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	want := float64(workers*perWorker - 1)
	if got := g.Value(); got != want {
		t.Fatalf("concurrent SetMax converged on %g, want %g", got, want)
	}
}

// TestHistogramSnapshotDuringObserve interleaves Snapshot reads with
// concurrent writers; every observation must land and no intermediate
// snapshot may go backwards in count.
func TestHistogramSnapshotDuringObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", 0, 100, 20)
	const workers, perWorker = 4, 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i % 100))
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	var prev uint64
	for {
		snap := h.Snapshot()
		if snap.Count < prev {
			t.Errorf("snapshot count went backwards: %d after %d", snap.Count, prev)
			break
		}
		prev = snap.Count
		select {
		case <-done:
			if got := h.Snapshot().Count; got != workers*perWorker {
				t.Fatalf("final count %d, want %d", got, workers*perWorker)
			}
			return
		default:
		}
	}
}

package stretch

import (
	"testing"

	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
)

// TestPerScenarioParallelMatchesSerial pins the determinism contract of the
// parallel scenario engine: per-minterm stretching on one worker and on many
// workers must produce bit-for-bit identical speed tables. Run under -race
// this also exercises the scratch-buffer isolation between workers.
func TestPerScenarioParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := prepare(t, 900+seed, 1.6)

		prev := par.SetLimit(1)
		serial, err := PerScenario(s, platform.Continuous(), 0, nil, nil)
		if err != nil {
			par.SetLimit(prev)
			t.Fatal(err)
		}
		// Force more workers than the container may have cores, so the
		// concurrent path runs even on a single-CPU host.
		par.SetLimit(4)
		parallel, err := PerScenario(s, platform.Continuous(), 0, nil, nil)
		par.SetLimit(prev)
		if err != nil {
			t.Fatal(err)
		}

		if len(serial.Speeds) != len(parallel.Speeds) {
			t.Fatalf("seed %d: %d vs %d scenarios", seed, len(serial.Speeds), len(parallel.Speeds))
		}
		for si := range serial.Speeds {
			for task, v := range serial.Speeds[si] {
				if parallel.Speeds[si][task] != v {
					t.Fatalf("seed %d scenario %d task %d: serial %v, parallel %v",
						seed, si, task, v, parallel.Speeds[si][task])
				}
			}
		}
	}
}

package sim

import (
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/tgff"
)

// TestExhaustiveParallelMatchesSerial pins the determinism contract of the
// parallel replay engine: exhaustive scenario aggregation on one worker and
// on many workers must agree bit for bit (the reduction always runs serially
// in scenario order). Run under -race this also checks that concurrent
// replays of a shared schedule do not interfere.
func TestExhaustiveParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g, p, err := tgff.Generate(tgff.Config{
			Seed: 1200 + seed, Nodes: 16 + int(seed%8), PEs: 2 + int(seed%3),
			Branches: 2 + int(seed%2), Category: tgff.ForkJoin,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := ctg.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.DLS(a, p, sched.Modified())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{}); err != nil {
			t.Fatal(err)
		}

		prev := par.SetLimit(1)
		serial, err := Exhaustive(s, Config{})
		if err != nil {
			par.SetLimit(prev)
			t.Fatal(err)
		}
		// More workers than the container may have cores, so the concurrent
		// path runs even on a single-CPU host.
		par.SetLimit(4)
		parallel, err := Exhaustive(s, Config{})
		par.SetLimit(prev)
		if err != nil {
			t.Fatal(err)
		}

		if serial != parallel {
			t.Fatalf("seed %d: serial %+v != parallel %+v", seed, serial, parallel)
		}
	}
}

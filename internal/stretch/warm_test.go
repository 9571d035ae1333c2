package stretch

import (
	"testing"

	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// TestPartialAllAffectedMatchesGuarded pins the documented contract of a
// masked Heuristic pass: with an all-true affected mask over a bound
// workspace it reproduces the nil-mask (full) pass bit for bit — same
// per-task speeds, same slack accounting, same worst-case delay — across
// random CTGs, deadline tightness and guard levels.
func TestPartialAllAffectedMatchesGuarded(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, factor := range []float64{1.2, 1.6, 2.5} {
			for _, guard := range []float64{0, 0.2} {
				ref := prepare(t, seed, factor)
				got := ref.Clone()

				want, err := Heuristic(ref, platform.Continuous(), Options{Guard: guard})
				if err != nil {
					t.Fatal(err)
				}
				affected := make([]bool, got.G.NumTasks())
				for i := range affected {
					affected[i] = true
				}
				ws := NewWorkspace()
				ws.Rebind(got)
				res, err := Heuristic(got, platform.Continuous(), Options{Guard: guard, Affected: affected, Workspace: ws})
				if err != nil {
					t.Fatal(err)
				}

				for task := range ref.Speed {
					if ref.Speed[task] != got.Speed[task] {
						t.Fatalf("seed %d factor %v guard %v: task %d speed %v (full) != %v (masked)",
							seed, factor, guard, task, ref.Speed[task], got.Speed[task])
					}
				}
				if res.Stretched != want.Stretched || res.SlackFound != want.SlackFound ||
					res.SlackUsed != want.SlackUsed || res.WorstDelay != want.WorstDelay {
					t.Fatalf("seed %d factor %v guard %v: masked result %+v != full %+v",
						seed, factor, guard, res, want)
				}
				// A masked pass leaves ExpectedEnergy to the caller; the
				// schedules themselves must agree.
				if res.ExpectedEnergy != 0 {
					t.Fatalf("seed %d factor %v guard %v: masked pass set ExpectedEnergy %v",
						seed, factor, guard, res.ExpectedEnergy)
				}
				if e1, e2 := want.ExpectedEnergy, got.ExpectedEnergy(); e1 != e2 {
					t.Fatalf("seed %d factor %v guard %v: energy %v != %v", seed, factor, guard, e1, e2)
				}
			}
		}
	}
}

// TestPartialBoundWorkspaceAllocatesNothing pins the warm path's hot-loop
// contract: a masked pass over a bound workspace and a reused warm-start
// buffer makes zero allocations.
func TestPartialBoundWorkspaceAllocatesNothing(t *testing.T) {
	s := prepare(t, 3, 1.6)
	if _, err := Heuristic(s, platform.Continuous(), Options{}); err != nil {
		t.Fatal(err)
	}
	affected := make([]bool, s.G.NumTasks())
	for i := range affected {
		affected[i] = i%2 == 0
	}
	warm := sched.NewWarmState()
	ws := NewWorkspace()
	opts := Options{Guard: 0.1, Affected: affected, Workspace: ws}
	// Fill both double buffers and bind the workspace before measuring.
	for i := 0; i < 2; i++ {
		target := warm.Start(s)
		ws.Rebind(target)
		if _, err := Heuristic(target, platform.Continuous(), opts); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		_, err = Heuristic(warm.Start(s), platform.Continuous(), opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("masked pass over a bound workspace: %v allocs/run, want 0", allocs)
	}
}

// TestPartialSubsetKeepsDeadline checks deadline safety of genuinely partial
// re-stretches: whatever subset of tasks is re-stretched (the rest keeping
// incumbent speeds), the worst-case delay stays within the deadline.
func TestPartialSubsetKeepsDeadline(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := prepare(t, seed, 1.6)
		if _, err := Heuristic(s, platform.Continuous(), Options{}); err != nil {
			t.Fatal(err)
		}
		warm := sched.NewWarmState()
		ws := NewWorkspace()
		n := s.G.NumTasks()
		// Re-stretch sliding windows of tasks: prefixes, suffixes, stripes.
		masks := [][]bool{make([]bool, n), make([]bool, n), make([]bool, n)}
		for i := 0; i < n; i++ {
			masks[0][i] = i < n/2
			masks[1][i] = i >= n/2
			masks[2][i] = i%3 == 0
		}
		for mi, affected := range masks {
			target := warm.Start(s)
			ws.Rebind(target)
			res, err := Heuristic(target, platform.Continuous(), Options{Affected: affected, Workspace: ws})
			if err != nil {
				t.Fatal(err)
			}
			if res.WorstDelay > target.G.Deadline()*(1+1e-9) {
				t.Fatalf("seed %d mask %d: partial re-stretch delay %v exceeds deadline %v",
					seed, mi, res.WorstDelay, target.G.Deadline())
			}
			if err := target.QuickValidate(); err != nil {
				t.Fatalf("seed %d mask %d: warm schedule invalid: %v", seed, mi, err)
			}
			// Unaffected tasks keep their incumbent speeds untouched.
			for task := range affected {
				if !affected[task] && target.Speed[task] != s.Speed[task] {
					t.Fatalf("seed %d mask %d: unaffected task %d speed changed %v -> %v",
						seed, mi, task, s.Speed[task], target.Speed[task])
				}
			}
		}
	}
}

package stretch

import (
	"errors"
	"sync/atomic"
	"testing"

	"ctgdvfs/internal/platform"
)

var errCancelled = errors.New("cancelled")

// countingCancel is a monotone cancel source safe for the per-scenario
// parallel fan-out: nil for the first fuse polls, errCancelled forever after.
type countingCancel struct {
	polls atomic.Int64
	fuse  int64
}

func (c *countingCancel) fn() CancelFunc {
	return func() error {
		if c.polls.Add(1) > c.fuse {
			return errCancelled
		}
		return nil
	}
}

func TestHeuristicCancelAbortsWithinOneTask(t *testing.T) {
	s := prepare(t, 42, 1.6)
	cc := &countingCancel{fuse: 2}
	res, err := Heuristic(s, platform.Continuous(), Options{Cancel: cc.fn()})
	if !errors.Is(err, errCancelled) {
		t.Fatalf("want errCancelled, got %v (res %v)", err, res)
	}
	if res != (Result{}) {
		t.Fatal("cancelled stretch returned a result")
	}
	// Polled once per stretched task: the abort lands on poll fuse+1.
	if got := cc.polls.Load(); got != cc.fuse+1 {
		t.Fatalf("polled %d times, want %d (abort within one task)", got, cc.fuse+1)
	}
}

func TestHeuristicCancelCompletedRunIdentical(t *testing.T) {
	want := prepare(t, 43, 1.6)
	wres, err := Heuristic(want, platform.Continuous(), Options{Guard: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	got := prepare(t, 43, 1.6)
	cc := &countingCancel{fuse: 1 << 30}
	gres, err := Heuristic(got, platform.Continuous(), Options{Guard: 0.1, Cancel: cc.fn()})
	if err != nil {
		t.Fatal(err)
	}
	if cc.polls.Load() == 0 {
		t.Fatal("cancel source was never polled")
	}
	if gres.ExpectedEnergy != wres.ExpectedEnergy || gres.SlackUsed != wres.SlackUsed {
		t.Fatalf("result differs: %+v vs %+v", gres, wres)
	}
	for i := range want.Speed {
		if got.Speed[i] != want.Speed[i] {
			t.Fatalf("task %d speed %v != %v", i, got.Speed[i], want.Speed[i])
		}
	}
}

func TestPerScenarioCancelAbortsBeforeFold(t *testing.T) {
	s := prepare(t, 44, 1.6)
	nsc := s.A.NumScenarios()
	cc := &countingCancel{fuse: 0}
	sp, err := PerScenario(s, platform.Continuous(), 0, cc.fn(), nil)
	if !errors.Is(err, errCancelled) {
		t.Fatalf("want errCancelled, got %v (speeds %v)", err, sp)
	}
	if sp != nil {
		t.Fatal("cancelled per-scenario stretch returned speeds")
	}
	// Promptness bound: every scenario worker polls at most once before
	// bailing, plus the post-barrier poll — never more than one full batch.
	if got := cc.polls.Load(); got > int64(nsc)+1 {
		t.Fatalf("polled %d times across %d scenarios (should abort within one batch)", got, nsc)
	}
}

func TestPerScenarioCancelCompletedRunIdentical(t *testing.T) {
	want := prepare(t, 45, 1.6)
	wsp, err := PerScenario(want, platform.Continuous(), 0.1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := prepare(t, 45, 1.6)
	cc := &countingCancel{fuse: 1 << 30}
	gsp, err := PerScenario(got, platform.Continuous(), 0.1, cc.fn(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cc.polls.Load() == 0 {
		t.Fatal("cancel source was never polled")
	}
	if len(gsp.Speeds) != len(wsp.Speeds) {
		t.Fatalf("scenario count %d != %d", len(gsp.Speeds), len(wsp.Speeds))
	}
	for si := range wsp.Speeds {
		for ti := range wsp.Speeds[si] {
			if gsp.Speeds[si][ti] != wsp.Speeds[si][ti] {
				t.Fatalf("scenario %d task %d: %v != %v", si, ti,
					gsp.Speeds[si][ti], wsp.Speeds[si][ti])
			}
		}
	}
}

package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		out, err := MapErr(n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: got %d results", n, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("n=%d: out[%d] = %d", n, i, v)
			}
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int64
	run(n, workersFor(n), func(_, i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	errAt := func(bad ...int) error {
		isBad := map[int]bool{}
		for _, b := range bad {
			isBad[b] = true
		}
		_, err := MapErr(64, func(i int) (int, error) {
			if isBad[i] {
				return 0, fmt.Errorf("fail@%d", i)
			}
			return i, nil
		})
		return err
	}
	if err := errAt(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	for trial := 0; trial < 10; trial++ {
		err := errAt(41, 7, 23)
		if err == nil || err.Error() != "fail@7" {
			t.Fatalf("want deterministic lowest-index error fail@7, got %v", err)
		}
	}
}

func TestMapErrStillPopulatesResults(t *testing.T) {
	out, err := MapErr(8, func(i int) (int, error) {
		if i == 3 {
			return -1, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	// No short-circuit: indices after the failure still ran.
	if out[7] != 7 {
		t.Fatalf("index 7 did not run: %v", out)
	}
}

func TestSetLimitBoundsConcurrency(t *testing.T) {
	defer SetLimit(SetLimit(3))
	var cur, peak atomic.Int64
	run(64, workersFor(64), func(_, _ int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent bodies with limit 3", p)
	}
}

func TestSerialFallbackRunsInline(t *testing.T) {
	defer SetLimit(SetLimit(1))
	order := make([]int, 0, 10)
	// With limit 1 the loop must run in index order on this goroutine.
	run(10, workersFor(10), func(_, i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial fallback out of order: %v", order)
		}
	}
}

func TestMapScratchReusesPerWorkerState(t *testing.T) {
	made := atomic.Int64{}
	out := MapScratch(200, func() *[]int {
		made.Add(1)
		buf := make([]int, 0, 8)
		return &buf
	}, func(s *[]int, i int) int {
		*s = append((*s)[:0], i, i) // scribble to catch sharing across workers
		return (*s)[0] + (*s)[1]
	})
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if m := made.Load(); m > int64(Limit()) {
		t.Fatalf("made %d scratches with limit %d", m, Limit())
	}
}

func TestPanicInWorkerPropagatesAtEveryBound(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 3, 4, 8, 16, 64} {
		prev := SetLimit(workers)
		func() {
			defer SetLimit(prev)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
				if s, ok := r.(string); !ok || s != "boom 7" {
					t.Fatalf("workers=%d: recovered %v, want lowest-index panic \"boom 7\"", workers, r)
				}
			}()
			// Two panicking indices: the lower one must win at every bound,
			// matching what a serial loop would raise first.
			run(n, workersFor(n), func(_, i int) {
				if i == 7 || i == 40 {
					panic(fmt.Sprintf("boom %d", i))
				}
			})
		}()
	}
}

func TestPanicDoesNotStarveSiblingIndices(t *testing.T) {
	// Every non-panicking index still runs: the pool drains instead of
	// dying with the panicking goroutine.
	const n = 200
	var ran [n]atomic.Int64
	prev := SetLimit(4)
	defer SetLimit(prev)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		run(n, workersFor(n), func(_, i int) {
			ran[i].Add(1)
			if i == 13 {
				panic(errors.New("unlucky"))
			}
		})
	}()
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times after sibling panic", i, c)
		}
	}
}

// Package par is a minimal, stdlib-only bounded worker pool for the
// scenario-indexed hot loops of the scheduler (per-minterm stretching,
// exhaustive replay, per-graph experiment fan-out).
//
// Design constraints, in order:
//
//   - Determinism: every helper writes results into an index-addressed slot,
//     so the output of a parallel run is byte-identical to the serial loop
//     regardless of interleaving. Callers that reduce (sum, max) must do so
//     serially over the returned slice in index order.
//   - Boundedness: at most Limit() goroutines run per call. Nested calls
//     (an experiment fan-out whose cases replay scenarios in parallel) each
//     apply their own bound rather than sharing a global semaphore — sharing
//     one would deadlock when an outer worker blocks on inner work.
//   - Zero overhead when it cannot help: with one index or a limit of one,
//     the loop runs inline on the calling goroutine (no goroutines, no
//     channels), which keeps -race equivalence tests honest and avoids
//     penalizing single-core hosts.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// limit is the per-call worker bound; 0 means "GOMAXPROCS at call time".
var limit atomic.Int64

// Limit returns the current per-call worker bound.
func Limit() int {
	if n := limit.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetLimit overrides the per-call worker bound and returns the previous
// value. n <= 0 restores the default (GOMAXPROCS). Intended for benchmarks
// and serial-vs-parallel equivalence tests.
func SetLimit(n int) int {
	prev := Limit()
	if n <= 0 {
		limit.Store(0)
	} else {
		limit.Store(int64(n))
	}
	return prev
}

// workersFor returns the worker count for an n-index loop under the current
// limit.
func workersFor(n int) int {
	workers := Limit()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// run distributes indices [0, n) over the given number of workers, passing
// each invocation its dense worker id in [0, workers). It is the common
// engine under the exported helpers.
//
// Panic safety: a panicking body never kills a worker goroutine mid-pool or
// deadlocks the caller. Each worker recovers per index, records the panic,
// and keeps draining; after the pool joins, the panic of the *lowest* index
// is re-raised on the calling goroutine — the same deterministic panic (and
// the same goroutine) a serial loop would produce, regardless of worker
// bound or interleaving.
func run(n, workers int, body func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var (
		panicMu  sync.Mutex
		panicIdx = n // lowest panicking index seen; n = none
		panicVal any
	)
	invoke := func(worker, i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if i < panicIdx {
					panicIdx, panicVal = i, r
				}
				panicMu.Unlock()
			}
		}()
		body(worker, i)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				invoke(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if panicIdx < n {
		panic(panicVal)
	}
}

// MapErr computes out[i], errs[i] = fn(i) for every i in [0, n) on the pool.
// All indices run (no short-circuit, so the result slice is fully
// populated); if any invocation fails, the error with the lowest index is
// returned, making the reported failure deterministic.
func MapErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	run(n, workersFor(n), func(_, i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// MapScratch computes out[i] = fn(scratch, i) for every i in [0, n) on the
// pool, with per-worker scratch state: each worker calls mk once
// and passes its scratch to every fn it executes. Use it to reuse large
// buffers (DP tables, graph views) across loop iterations without
// synchronization.
func MapScratch[T, S any](n int, mk func() S, fn func(scratch S, i int) T) []T {
	out := make([]T, n)
	workers := workersFor(n)
	scratches := make([]S, workers)
	for i := range scratches {
		scratches[i] = mk()
	}
	run(n, workers, func(w, i int) { out[i] = fn(scratches[w], i) })
	return out
}

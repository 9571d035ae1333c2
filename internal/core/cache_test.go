package core

import (
	"math"
	"math/rand"
	"testing"

	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// periodicVectors builds a decision sequence that alternates between two
// saturated regimes (blocks of all-zeros and all-ones, longer than the
// window), so the profiler's adopted probability states recur exactly from
// the second period onward — the situation the schedule cache exists for.
func periodicVectors(numForks, block, periods int) [][]int {
	var v [][]int
	for p := 0; p < periods; p++ {
		for _, outcome := range []int{0, 1} {
			for i := 0; i < block; i++ {
				d := make([]int, numForks)
				for f := range d {
					d[f] = outcome
				}
				v = append(v, d)
			}
		}
	}
	return v
}

func TestCacheHitMissAccounting(t *testing.T) {
	g, cfg := testWorkload(t, 11)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, p, Options{Window: 20, Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	vec := periodicVectors(g.NumForks(), 40, 3)
	st, err := m.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	cs := m.CacheStats()
	if cs.Hits == 0 {
		t.Fatal("recurring regimes produced no cache hits")
	}
	// Every rescheduling invocation consults the cache, plus the initial
	// schedule (which New excludes from Calls).
	if cs.Hits+cs.Misses != st.Calls+1 {
		t.Fatalf("hits %d + misses %d != calls %d + 1", cs.Hits, cs.Misses, st.Calls)
	}
	if st.CacheHits != cs.Hits || st.CacheMisses != cs.Misses {
		t.Fatalf("RunStats cache counters (%d, %d) disagree with CacheStats (%d, %d)",
			st.CacheHits, st.CacheMisses, cs.Hits, cs.Misses)
	}
	if cs.Size > DefaultCacheSize {
		t.Fatalf("cache size %d exceeds bound %d", cs.Size, DefaultCacheSize)
	}
}

func TestCacheEvictionBound(t *testing.T) {
	g, cfg := testWorkload(t, 12)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Window: 20, CacheSize: 2}
	opts.SetThreshold(0.05)
	m, err := New(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(trace.Fluctuating(g, 7, 600, 0.45)); err != nil {
		t.Fatal(err)
	}
	cs := m.CacheStats()
	if cs.Size > 2 {
		t.Fatalf("cache size %d exceeds configured bound 2", cs.Size)
	}
	if cs.Evictions == 0 {
		t.Fatal("want evictions on a 2-entry cache over a fluctuating run")
	}
	// Every miss inserts a fresh entry, which either grows the cache or
	// evicts the LRU entry.
	if cs.Misses != cs.Size+cs.Evictions {
		t.Fatalf("misses %d != size %d + evictions %d", cs.Misses, cs.Size, cs.Evictions)
	}
}

// TestCacheDeterminism is the acceptance check: a cached adaptive run must be
// indistinguishable — per-step energy, rescheduling decisions, call count —
// from the same run with caching disabled.
func TestCacheDeterminism(t *testing.T) {
	g, cfg := testWorkload(t, 13)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, perScenario := range []bool{false, true} {
		cached, err := New(g, p, Options{Window: 20, Threshold: 0.2, PerScenario: perScenario})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := New(g, p, Options{Window: 20, Threshold: 0.2, PerScenario: perScenario, CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		if s := plain.CacheStats(); s != (CacheStats{}) {
			t.Fatalf("disabled cache reports stats %+v", s)
		}
		vec := periodicVectors(g.NumForks(), 30, 3)
		for i, d := range vec {
			rc, err := cached.Step(d)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := plain.Step(d)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(rc.Instance.Energy-rp.Instance.Energy) > 1e-9 {
				t.Fatalf("perScenario=%v step %d: cached energy %v, uncached %v",
					perScenario, i, rc.Instance.Energy, rp.Instance.Energy)
			}
			if rc.Rescheduled != rp.Rescheduled {
				t.Fatalf("perScenario=%v step %d: rescheduled %v vs %v",
					perScenario, i, rc.Rescheduled, rp.Rescheduled)
			}
		}
		if cached.Calls() != plain.Calls() {
			t.Fatalf("perScenario=%v: cached calls %d, uncached %d",
				perScenario, cached.Calls(), plain.Calls())
		}
		if cached.CacheStats().Hits == 0 {
			t.Fatalf("perScenario=%v: determinism run exercised no cache hits", perScenario)
		}
	}
}

func TestThresholdZeroExplicit(t *testing.T) {
	g, cfg := testWorkload(t, 14)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.SetThreshold(0)
	opts.Window = 20
	m, err := New(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.opts.Threshold != 0 {
		t.Fatalf("explicit T=0 replaced by %v", m.opts.Threshold)
	}
	vec := trace.Fluctuating(g, 5, 50, 0.45)
	st, err := m.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	// At T = 0 any drift crosses the threshold, so every instance triggers
	// one rescheduling.
	if st.Calls != len(vec) {
		t.Fatalf("T=0 made %d calls over %d instances, want one per instance", st.Calls, len(vec))
	}
}

func TestZeroValuesStillDefault(t *testing.T) {
	g, cfg := testWorkload(t, 15)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.opts.Threshold != DefaultThreshold || m.opts.Window != DefaultWindow {
		t.Fatalf("zero-valued options resolved to (W=%d, T=%v), want defaults (%d, %v)",
			m.opts.Window, m.opts.Threshold, DefaultWindow, DefaultThreshold)
	}
	if m.opts.CacheSize != DefaultCacheSize {
		t.Fatalf("zero CacheSize resolved to %d, want %d", m.opts.CacheSize, DefaultCacheSize)
	}
}

func TestWindowZeroExplicitRejected(t *testing.T) {
	g, cfg := testWorkload(t, 16)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.SetWindow(0)
	if _, err := New(g, p, opts); err == nil {
		t.Fatal("explicit window 0 must be rejected, not defaulted")
	}
}

// TestCacheLookupMatchesApply pins the staged lookup against the cache it
// simulates: over random bounds, histories and access sequences, lookup of
// a key after staged accesses answers exactly what the cache answers once
// those accesses are applied.
func TestCacheLookupMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 2000; trial++ {
		bound := 1 + rng.Intn(4)
		committed, applied := newScheduleCache(bound), newScheduleCache(bound)
		for i := rng.Intn(8); i > 0; i-- {
			k := keys[rng.Intn(len(keys))]
			for _, c := range []*scheduleCache{committed, applied} {
				if _, hit := c.lookup(k, nil); hit {
					c.apply(cacheOp{key: k, hit: true})
				} else {
					c.apply(cacheOp{key: k})
					c.apply(cacheOp{key: k, put: &cacheEntry{key: k}})
				}
			}
		}
		var staged []cacheOp
		for i := rng.Intn(6); i > 0; i-- {
			k := keys[rng.Intn(len(keys))]
			e, hit := committed.lookup(k, staged)
			want, wantHit := applied.lookup(k, nil)
			if hit != wantHit || (hit && e.key != want.key) {
				t.Fatalf("trial %d: lookup %q after %d staged ops = (%v, %v), applied cache says (%v, %v)",
					trial, k, len(staged), e, hit, want, wantHit)
			}
			ops := []cacheOp{{key: k, hit: hit}}
			if !hit && rng.Intn(2) == 0 {
				ops = append(ops, cacheOp{key: k, put: &cacheEntry{key: k}})
			}
			for _, op := range ops {
				staged = append(staged, op)
				applied.apply(op)
			}
		}
	}
}

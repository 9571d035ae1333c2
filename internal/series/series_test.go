package series

import (
	"math"
	"reflect"
	"testing"

	"ctgdvfs/internal/telemetry"
)

func TestRingWrap(t *testing.T) {
	s := newSeries(4)
	for i := 0; i < 10; i++ {
		s.push(i, float64(i)*2)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	for i := 0; i < 4; i++ {
		tick, v := s.At(i)
		if tick != 6+i || v != float64(6+i)*2 {
			t.Fatalf("At(%d) = (%d, %g), want (%d, %g)", i, tick, v, 6+i, float64(6+i)*2)
		}
	}
	if tick, v := s.Last(); tick != 9 || v != 18 {
		t.Fatalf("Last = (%d, %g), want (9, 18)", tick, v)
	}
}

func TestSeriesAggregates(t *testing.T) {
	s := newSeries(8)
	if _, v := s.Last(); !math.IsNaN(v) {
		t.Fatalf("empty Last value = %g, want NaN", v)
	}
	if _, ok := s.Rate(0); ok {
		t.Fatal("Rate on empty series reported ok")
	}
	s.push(0, 1)
	s.push(1, 3)
	s.push(3, 2)
	// (2-1) over ticks 0..3.
	if r, ok := s.Rate(0); !ok || r != 1.0/3 {
		t.Fatalf("Rate = (%g, %v), want (1/3, true)", r, ok)
	}
}

// TestStoreSamplesAndDiscovers checks the store picks up metrics registered
// after construction (and even after the first tick) and samples everything
// each tick, histograms expanded into their five sub-series.
func TestStoreSamplesAndDiscovers(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	st := NewStore(StoreOptions{Registry: reg, Capacity: 16})
	c.Inc()
	g.Set(1.5)
	st.Tick(0, nil, nil, 0)

	h := reg.Histogram("h", 0, 10, 10)
	h.Observe(2)
	c.Inc()
	g.Set(2.5)
	st.Tick(1, nil, nil, 0)

	if st.Ticks() != 2 {
		t.Fatalf("Ticks = %d, want 2", st.Ticks())
	}
	if st.Len() != 7 {
		t.Fatalf("Len = %d, want 7", st.Len())
	}
	for _, name := range []string{"c", "g", "h.count", "h.mean", "h.p50", "h.p95", "h.p99"} {
		if st.Series(name) == nil {
			t.Fatalf("series %q missing", name)
		}
	}
	cs := st.Series("c")
	if cs.Len() != 2 {
		t.Fatalf("counter series has %d samples, want 2", cs.Len())
	}
	if _, v := cs.Last(); v != 2 {
		t.Fatalf("counter last = %g, want 2", v)
	}
	if tick, v := st.Series("g").Last(); tick != 1 || v != 2.5 {
		t.Fatalf("gauge last = (%d, %g), want (1, 2.5)", tick, v)
	}
	// The histogram appeared after tick 0, so its sub-series hold one sample.
	hc := st.Series("h" + SuffixCount)
	if hc.Len() != 1 {
		t.Fatalf("histogram count series has %d samples, want 1", hc.Len())
	}
	if _, v := hc.Last(); v != 1 {
		t.Fatalf("histogram count = %g, want 1", v)
	}
	if _, v := st.Series("h" + SuffixMean).Last(); v != 2 {
		t.Fatalf("histogram mean = %g, want 2", v)
	}
}

// TestStoreDeterministicAcrossRegistrationOrder pins the discovery sort: two
// runs registering the same metrics in different orders build identical
// stores.
func TestStoreDeterministicAcrossRegistrationOrder(t *testing.T) {
	build := func(names []string) Dump {
		reg := telemetry.NewRegistry()
		for i, n := range names {
			reg.Gauge(n).Set(float64(i))
		}
		st := NewStore(StoreOptions{Registry: reg, Capacity: 8})
		st.Tick(0, nil, nil, 0)
		for _, n := range names {
			reg.Gauge(n).Set(7)
		}
		st.Tick(1, nil, nil, 0)
		d := st.Dump()
		// Zero out the values that legitimately differ (first-tick values
		// depend on registration order above); shape and order must not.
		for i := range d.Series {
			d.Series[i].V[0] = 0
		}
		return d
	}
	a := build([]string{"b", "a", "c"})
	b := build([]string{"c", "b", "a"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("store shape depends on registration order:\n%+v\n%+v", a, b)
	}
}

func TestNilStoreIsNoop(t *testing.T) {
	var st *Store
	st.Tick(0, nil, nil, 0) // must not panic
	if st.Ticks() != 0 || st.Len() != 0 || st.Series("x") != nil {
		t.Fatal("nil store accessors must return zero values")
	}
	if d := st.Dump(); len(d.Series) != 0 {
		t.Fatal("nil store dump must be empty")
	}
}

// TestStoreTickAllocsZero pins the always-on cost: once every metric has been
// discovered, Tick allocates nothing — including rule evaluation.
func TestStoreTickAllocsZero(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", 0, 10, 10)
	st := NewStore(StoreOptions{Registry: reg, Capacity: 64, Rules: []Rule{
		{Name: "hot", Metric: "g", Value: 1e9},
		{Name: "quiet", Metric: "c", Kind: RuleRate, Value: 1e9},
	}})
	rec := telemetry.NewMemoryRecorder()
	seq := telemetry.NewSequencer()
	st.Tick(0, rec, seq, 0)
	tick := 1
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(float64(tick))
		h.Observe(float64(tick % 10))
		st.Tick(tick, rec, seq, 0)
		tick++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Tick allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestCollectorIngestSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("c").Add(3)
	reg.Gauge("g").Set(0.5)
	reg.Histogram("h", 0, 10, 10).Observe(4)

	col := NewCollector(8)
	col.IngestSnapshot(0, reg.Snapshot())
	reg.Counter("c").Inc()
	col.IngestSnapshot(1, reg.Snapshot())

	d := col.Dump()
	if d.Ticks != 2 {
		t.Fatalf("Ticks = %d, want 2", d.Ticks)
	}
	cs := d.Get("c")
	if cs == nil || !reflect.DeepEqual(cs.V, []float64{3, 4}) {
		t.Fatalf("counter series = %+v", cs)
	}
	for _, name := range []string{"h" + SuffixCount, "h" + SuffixMean, "h" + SuffixP50, "h" + SuffixP95, "h" + SuffixP99} {
		if d.Get(name) == nil {
			t.Fatalf("missing expanded histogram series %s", name)
		}
	}
}

package telemetry

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestMemoryRecorder(t *testing.T) {
	r := NewMemoryRecorder()
	r.Record(Event{Kind: KindInstanceStart, Instance: 0})
	r.Record(Event{Kind: KindTaskSlice, Instance: 0, Task: 3, PE: 1, Start: 1, End: 2})
	r.Record(Event{Kind: KindInstanceFinish, Instance: 0, Energy: 12.5, Met: true})
	if len(r.Events()) != 3 {
		t.Fatalf("len = %d, want 3", len(r.Events()))
	}
	byKind := r.CountByKind()
	if byKind[KindTaskSlice] != 1 || byKind[KindInstanceStart] != 1 {
		t.Fatalf("counts: %v", byKind)
	}
	evs := r.Events()
	evs[0].Kind = KindFallback // snapshot must be a copy
	if r.Events()[0].Kind != KindInstanceStart {
		t.Fatal("Events() exposed internal storage")
	}
}

func TestMemoryRecorderConcurrent(t *testing.T) {
	r := NewMemoryRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Kind: KindTaskSlice, Instance: w, Task: i})
			}
		}(w)
	}
	wg.Wait()
	if len(r.Events()) != 800 {
		t.Fatalf("len = %d, want 800", len(r.Events()))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewJSONLRecorder(&buf)
	in := []Event{
		{Kind: KindInstanceStart, Instance: 7, Scenario: 2},
		{Kind: KindTaskSlice, Instance: 7, Task: 1, Name: "idct", PE: 2, Start: 0.5, End: 1.25, Speed: 0.8},
		{Kind: KindReschedule, Instance: 7, Reason: "drift", Warm: true, Calls: 3},
		{Kind: KindCheckpoint, Instance: 7, Name: "mpeg", Calls: 3, Key: "ab12"},
		{Kind: KindFallback, Instance: 7, Met: true, Makespan: 90, Makespan2: 120, Phase: PhaseFallback},
	}
	for _, e := range in {
		r.Record(e)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(in) {
		t.Fatalf("wrote %d lines, want %d", lines, len(in))
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(out[i], in[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

// TestReadJSONLTruncatedTail pins the one event reader's tolerance rules: a
// capture whose final line was torn mid-write parses to its intact prefix
// with a typed warning, a bad line with events after it is fatal, blank
// lines are skipped and empty input is no events and no error.
func TestReadJSONLTruncatedTail(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "truncated.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(bytes.NewReader(data))
	var tail *TruncatedTailError
	if !errors.As(err, &tail) {
		t.Fatalf("want TruncatedTailError, got %v", err)
	}
	if len(events) != 4 || events[3].Kind != KindReschedule {
		t.Fatalf("prefix not recovered: %+v", events)
	}
	if tail.Line != 5 {
		t.Fatalf("torn line reported as %d, want 5", tail.Line)
	}

	// The same torn line mid-stream (events after it) is corruption, not
	// truncation: hard error, no events returned.
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	midStream := bytes.Join([][]byte{lines[0], lines[4], lines[1]}, []byte("\n"))
	if evs, err := ReadJSONL(bytes.NewReader(midStream)); err == nil || errors.As(err, &tail) || evs != nil {
		t.Fatalf("mid-stream corruption tolerated: %d events, %v", len(evs), err)
	}
	garbage := []byte("not json at all\n" + string(lines[0]) + "\n")
	if _, err := ReadJSONL(bytes.NewReader(garbage)); err == nil || errors.As(err, &tail) {
		t.Fatalf("garbage first line tolerated: %v", err)
	}

	// Blank lines (any whitespace) are skipped; the line count still
	// includes them.
	spaced := bytes.Join([][]byte{lines[0], nil, []byte("  \t"), lines[1], lines[4]}, []byte("\n"))
	events, err = ReadJSONL(bytes.NewReader(spaced))
	if !errors.As(err, &tail) || tail.Line != 5 || len(events) != 2 {
		t.Fatalf("blank lines: %d events, %v", len(events), err)
	}

	for _, empty := range []string{"", "\n\n", "  \n"} {
		if evs, err := ReadJSONL(strings.NewReader(empty)); err != nil || len(evs) != 0 {
			t.Fatalf("empty input %q: %d events, %v", empty, len(evs), err)
		}
	}
}

func TestMultiRecorder(t *testing.T) {
	a, b := NewMemoryRecorder(), NewMemoryRecorder()
	multi := MultiRecorder{a, b}
	multi.Record(Event{Kind: KindTaskSlice})
	multi.Record(Event{Kind: KindReschedule, Reason: "drift"})
	for name, r := range map[string]*MemoryRecorder{"a": a, "b": b} {
		if len(r.Events()) != 2 || r.Events()[1].Kind != KindReschedule {
			t.Fatalf("multi sink %s got %v", name, r.Events())
		}
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("runtime.calls")
	c.Inc()
	c.Add(4)
	if reg.Counter("runtime.calls") != c {
		t.Fatal("counter handle not cached")
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Add(-1)
	if c.Value() != 4 {
		t.Fatalf("counter after Add(-1) = %d, want 4", c.Value())
	}

	g := reg.Gauge("runtime.guard_level")
	g.Set(2)
	g.SetMax(1) // must not lower
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
	g.SetMax(3)
	if g.Value() != 3 {
		t.Fatalf("gauge = %v, want 3", g.Value())
	}

	h := reg.Histogram("runtime.lateness", 0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	snap := h.Snapshot()
	if snap.Count != 100 || snap.Min != 0 || snap.Max != 99 {
		t.Fatalf("histogram snapshot: %+v", snap)
	}
	if snap.P50 < 40 || snap.P50 > 60 {
		t.Fatalf("P50 = %v, want ≈ 50", snap.P50)
	}

	full := reg.Snapshot()
	if full.Counters["runtime.calls"] != 4 || full.Gauges["runtime.guard_level"] != 3 {
		t.Fatalf("registry snapshot: %+v", full)
	}
	if full.Histograms["runtime.lateness"].Count != 100 {
		t.Fatalf("registry snapshot histograms: %+v", full.Histograms)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("c").Inc()
				reg.Gauge("g").SetMax(float64(i))
				reg.Histogram("h", 0, 1000, 16).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h", 0, 1000, 16).Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestRegistryHTTPAndJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("instances").Add(42)
	reg.Gauge("drift").Set(0.25)

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"instances": 42`, `"drift": 0.25`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON snapshot missing %q:\n%s", want, buf.String())
		}
	}

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"instances": 42`) {
		t.Fatalf("HTTP exposition: code %d body %s", rec.Code, rec.Body.String())
	}
}

// TestExpositionDeterministic pins the sorted-output contract of the JSON
// exposition: two registries holding the same metrics, registered in
// different orders, serialize byte-identically.
func TestExpositionDeterministic(t *testing.T) {
	build := func(order []string) *Registry {
		reg := NewRegistry()
		for _, n := range order {
			reg.Counter("c." + n).Add(int64(len(n)))
			reg.Gauge("g." + n).Set(0.5)
			reg.Histogram("h."+n, 0, 10, 4).Observe(3)
		}
		return reg
	}
	a := build([]string{"beta", "alpha", "gamma"})
	b := build([]string{"gamma", "beta", "alpha"})

	var aJSON, bJSON bytes.Buffer
	if err := a.WriteJSON(&aJSON); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aJSON.Bytes(), bJSON.Bytes()) {
		t.Fatalf("WriteJSON depends on registration order:\n%s\nvs\n%s", aJSON.String(), bJSON.String())
	}
}

// TestRegistrySizesAndVisit covers the sweep API the series sampler is built
// on: Sizes as the cheap change check, Visit* as the handle enumeration.
func TestRegistrySizesAndVisit(t *testing.T) {
	r := NewRegistry()
	if c, g, h := r.Sizes(); c != 0 || g != 0 || h != 0 {
		t.Fatalf("empty registry sizes = %d/%d/%d", c, g, h)
	}
	r.Counter("a").Add(1)
	r.Counter("b").Add(2)
	r.Gauge("g").Set(3)
	r.Histogram("h", 0, 10, 5).Observe(4)
	if c, g, h := r.Sizes(); c != 2 || g != 1 || h != 1 {
		t.Fatalf("sizes = %d/%d/%d, want 2/1/1", c, g, h)
	}
	// Re-fetching a handle must not grow the registry.
	r.Counter("a").Add(1)
	if c, _, _ := r.Sizes(); c != 2 {
		t.Fatalf("counter count grew to %d on re-fetch", c)
	}

	counters := map[string]int64{}
	r.VisitCounters(func(name string, c *Counter) { counters[name] = c.Value() })
	if len(counters) != 2 || counters["a"] != 2 || counters["b"] != 2 {
		t.Fatalf("VisitCounters saw %v", counters)
	}
	gauges := map[string]float64{}
	r.VisitGauges(func(name string, g *Gauge) { gauges[name] = g.Value() })
	if len(gauges) != 1 || gauges["g"] != 3 {
		t.Fatalf("VisitGauges saw %v", gauges)
	}
	hists := map[string]uint64{}
	r.VisitHistograms(func(name string, h *HistogramMetric) { hists[name] = h.Snapshot().Count })
	if len(hists) != 1 || hists["h"] != 1 {
		t.Fatalf("VisitHistograms saw %v", hists)
	}
}

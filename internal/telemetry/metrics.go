package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"ctgdvfs/internal/stats"
)

// Counter is a monotonically adjustable integer metric. All methods are
// lock-free and safe for concurrent use. A counter created in a mirror
// registry (NewMirrorRegistry) forwards every write to the same-named counter
// of the parent, so local and aggregate views stay in sync from one call.
type Counter struct {
	v      atomic.Int64
	mirror *Counter
}

// Inc adds one.
func (c *Counter) Inc() {
	c.v.Add(1)
	if c.mirror != nil {
		c.mirror.Inc()
	}
}

// Add adds n (n may be negative — used to net out warm-up increments).
func (c *Counter) Add(n int64) {
	c.v.Add(n)
	if c.mirror != nil {
		c.mirror.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 metric. Mirror-registry gauges forward
// writes like Counter does.
type Gauge struct {
	bits   atomic.Uint64
	mirror *Gauge
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	g.bits.Store(floatBits(v))
	if g.mirror != nil {
		g.mirror.Set(v)
	}
}

// SetMax stores the value only if it exceeds the current one.
func (g *Gauge) SetMax(v float64) {
	if g.mirror != nil {
		g.mirror.SetMax(v)
	}
	for {
		old := g.bits.Load()
		if v <= floatOf(old) {
			return
		}
		if g.bits.CompareAndSwap(old, floatBits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatOf(g.bits.Load()) }

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatOf(b uint64) float64   { return math.Float64frombits(b) }

// HistogramMetric is a mutex-guarded fixed-bucket histogram metric (the
// distribution counterpart of Counter/Gauge), backed by stats.Histogram.
// Mirror-registry histograms forward observations like Counter does (outside
// the local lock — the two histograms never nest their mutexes).
type HistogramMetric struct {
	mu     sync.Mutex
	h      *stats.Histogram
	mirror *HistogramMetric
}

// Observe records one value.
func (m *HistogramMetric) Observe(x float64) {
	m.mu.Lock()
	m.h.Observe(x)
	m.mu.Unlock()
	if m.mirror != nil {
		m.mirror.Observe(x)
	}
}

// Snapshot summarizes the distribution.
func (m *HistogramMetric) Snapshot() HistogramSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return HistogramSnapshot{
		Count: m.h.Count(),
		Mean:  m.h.Mean(),
		Min:   m.h.Min(),
		Max:   m.h.Max(),
		P50:   m.h.Quantile(0.50),
		P95:   m.h.Quantile(0.95),
		P99:   m.h.Quantile(0.99),
	}
}

// HistogramSnapshot is the exported summary of one histogram metric.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Registry is a process-local metrics registry: named counters, gauges and
// fixed-bucket histograms with a JSON snapshot and HTTP exposition. Metric handles are created on first use and cached; producers
// resolve their handles once (outside the hot path) and then operate
// lock-free (counters/gauges) or under a short mutex (histograms).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*HistogramMetric
	// parent, when non-nil, makes this a mirror registry: every handle
	// created here forwards its writes to the same-named handle in parent.
	parent *Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*HistogramMetric),
	}
}

// NewMirrorRegistry returns a registry whose metric handles forward every
// write to the same-named handle of parent. It gives one producer a private,
// deterministic view (e.g. for the series sampler) while the shared parent
// keeps aggregating across producers: reads from the mirror see only this
// producer's writes, reads from the parent see everyone's. A nil parent is
// equivalent to NewRegistry.
func NewMirrorRegistry(parent *Registry) *Registry {
	r := NewRegistry()
	r.parent = parent
	return r
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	if r.parent != nil {
		c.mirror = r.parent.Counter(name)
	}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	if r.parent != nil {
		g.mirror = r.parent.Gauge(name)
	}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram metric, creating it over [lo, hi]
// with the given bucket count on first use (later calls keep the original
// layout and ignore the arguments).
func (r *Registry) Histogram(name string, lo, hi float64, buckets int) *HistogramMetric {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &HistogramMetric{h: stats.MustHistogram(lo, hi, buckets)}
	if r.parent != nil {
		h.mirror = r.parent.Histogram(name, lo, hi, buckets)
	}
	r.hists[name] = h
	return h
}

// Sizes returns the current number of counters, gauges and histograms — the
// cheap change check the series sampler uses to skip handle discovery on the
// steady-state path.
func (r *Registry) Sizes() (counters, gauges, hists int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.counters), len(r.gauges), len(r.hists)
}

// VisitCounters calls fn for every counter. Iteration order is unspecified
// (map order); callers needing determinism must sort what they collect.
func (r *Registry) VisitCounters(fn func(name string, c *Counter)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		fn(name, c)
	}
}

// VisitGauges calls fn for every gauge (order unspecified, see VisitCounters).
func (r *Registry) VisitGauges(fn func(name string, g *Gauge)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, g := range r.gauges {
		fn(name, g)
	}
}

// VisitHistograms calls fn for every histogram (order unspecified, see
// VisitCounters).
func (r *Registry) VisitHistograms(fn func(name string, h *HistogramMetric)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, h := range r.hists {
		fn(name, h)
	}
}

// Snapshot is a point-in-time copy of every metric in the registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures all metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// sortedKeys returns m's keys in lexicographic order — the explicit ordering
// contract of every exposition surface (WriteJSON and the series dump): two registries holding the same metrics render byte-identically no
// matter the creation order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// orderedSnapshot renders a Snapshot with explicitly sorted keys in every
// section, so WriteJSON's determinism does not hinge on encoding/json's map
// behavior.
type orderedSnapshot struct{ s Snapshot }

func (o orderedSnapshot) MarshalJSON() ([]byte, error) {
	var b []byte
	section := func(name string, keys []string, value func(string) any) error {
		if len(b) > 1 {
			b = append(b, ',')
		}
		nb, err := json.Marshal(name)
		if err != nil {
			return err
		}
		b = append(b, nb...)
		b = append(b, ':', '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			vb, err := json.Marshal(value(k))
			if err != nil {
				return err
			}
			b = append(b, kb...)
			b = append(b, ':')
			b = append(b, vb...)
		}
		b = append(b, '}')
		return nil
	}
	b = append(b, '{')
	if err := section("counters", sortedKeys(o.s.Counters), func(k string) any { return o.s.Counters[k] }); err != nil {
		return nil, err
	}
	if err := section("gauges", sortedKeys(o.s.Gauges), func(k string) any { return o.s.Gauges[k] }); err != nil {
		return nil, err
	}
	if err := section("histograms", sortedKeys(o.s.Histograms), func(k string) any { return o.s.Histograms[k] }); err != nil {
		return nil, err
	}
	b = append(b, '}')
	return b, nil
}

// WriteJSON renders the snapshot as indented JSON with explicitly sorted
// keys in every section (see sortedKeys), so output is deterministic and
// diffs cleanly across runs.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(orderedSnapshot{r.Snapshot()})
}

// ServeHTTP exposes the snapshot as JSON — mount the registry on a mux
// (the daemon serves it at GET /v1/metrics).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := r.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

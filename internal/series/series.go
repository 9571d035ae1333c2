// Package series is the deterministic time-series layer over the telemetry
// metrics registry: a fixed-capacity ring-buffer store that samples every
// registered metric on sim-time boundaries (the manager's instance index —
// never wall clock, so replays are bit-for-bit), a rule-based alerting engine
// evaluated per sample (rules.go), a replayable JSON dump format (dump.go),
// and a terminal sparkline renderer (watch.go).
//
// Like the flight recorder, the store is cheap enough to leave always on:
// steady-state sampling reuses preallocated rings and allocates nothing
// (pinned by benchmark — handle discovery runs only when the registry grew),
// and a nil *Store ignores Tick calls so the disabled path is one branch.
package series

import (
	"math"
	"sort"

	"ctgdvfs/internal/telemetry"
)

// DefaultCapacity is the ring length used when StoreOptions.Capacity is not
// positive: enough history for a watch window without unbounded growth.
const DefaultCapacity = 512

// Histogram sub-series suffixes: each histogram metric expands into five
// scalar series so windowed aggregates and rules work uniformly.
const (
	SuffixCount = ".count"
	SuffixMean  = ".mean"
	SuffixP50   = ".p50"
	SuffixP95   = ".p95"
	SuffixP99   = ".p99"
)

var histSuffixes = [5]string{SuffixCount, SuffixMean, SuffixP50, SuffixP95, SuffixP99}

// Series is one named ring of (tick, value) samples, oldest overwritten
// first. Ticks are the producer's sim-time index (the instance), not
// timestamps.
type Series struct {
	name string
	t    []int
	v    []float64
	head int // next write slot
	n    int // live samples (≤ cap)
}

func newSeries(name string, capacity int) *Series {
	return &Series{name: name, t: make([]int, capacity), v: make([]float64, capacity)}
}

// Name returns the series name (the registry metric name, plus a histogram
// suffix for expanded histogram series).
func (s *Series) Name() string { return s.name }

// Len returns the number of live samples (≤ capacity).
func (s *Series) Len() int { return s.n }

func (s *Series) push(t int, v float64) {
	s.t[s.head] = t
	s.v[s.head] = v
	s.head++
	if s.head == len(s.v) {
		s.head = 0
	}
	if s.n < len(s.v) {
		s.n++
	}
}

// At returns the i-th live sample, oldest first (0 ≤ i < Len).
func (s *Series) At(i int) (tick int, value float64) {
	idx := s.head - s.n + i
	if idx < 0 {
		idx += len(s.v)
	}
	return s.t[idx], s.v[idx]
}

// Last returns the most recent sample, or (0, NaN) when empty.
func (s *Series) Last() (tick int, value float64) {
	if s.n == 0 {
		return 0, math.NaN()
	}
	return s.At(s.n - 1)
}

// Rate returns last − first over the trailing window of at most `window`
// samples (whole ring when window ≤ 0), divided by the window's tick span —
// the per-tick rate of change. ok=false when fewer than two samples exist or
// the window spans zero ticks.
func (s *Series) Rate(window int) (rate float64, ok bool) {
	w := s.window(window)
	if w < 2 {
		return 0, false
	}
	t0, first := s.At(s.n - w)
	t1, last := s.At(s.n - 1)
	if t1 == t0 {
		return 0, false
	}
	return (last - first) / float64(t1-t0), true
}

func (s *Series) window(window int) int {
	if window <= 0 || window > s.n {
		return s.n
	}
	return window
}

// StoreOptions configures a Store.
type StoreOptions struct {
	// Registry is the metrics registry the store samples. Required.
	Registry *telemetry.Registry
	// Capacity is the per-series ring length (default DefaultCapacity).
	Capacity int
	// Rules are evaluated against the freshly sampled values on every Tick;
	// firings and resolutions are emitted as telemetry events through the
	// recorder passed to Tick.
	Rules []Rule
}

// counterHandle pairs a resolved counter with its series ring.
type counterHandle struct {
	c *telemetry.Counter
	s *Series
}

type gaugeHandle struct {
	g *telemetry.Gauge
	s *Series
}

type histHandle struct {
	h *telemetry.HistogramMetric
	s [5]*Series // count, mean, p50, p95, p99 — histSuffixes order
}

// Store samples a metrics registry into fixed-capacity per-metric rings on
// demand (Tick) and evaluates alert rules against each sample. It is not
// internally locked: one producer owns one store and ticks it from its own
// step loop (the manager's instance boundary). Give concurrent producers
// their own stores over their own registries — that is what keeps sampling
// deterministic under parallel campaigns.
type Store struct {
	reg      *telemetry.Registry
	capacity int

	counters []counterHandle
	gauges   []gaugeHandle
	hists    []histHandle
	// byName indexes every series (histograms under their suffixed names)
	// for rule evaluation and dump/read access.
	byName map[string]*Series
	// cached registry sizes: discovery reruns only when these change, which
	// keeps the steady-state Tick allocation-free.
	nCounters, nGauges, nHists int

	rules []*ruleState
	ticks int
}

// NewStore builds a store over opts.Registry. Panics on a nil registry or an
// invalid rule set (campaign setup is fail-fast; validate user-supplied rule
// files with RuleSet.Validate first).
func NewStore(opts StoreOptions) *Store {
	if opts.Registry == nil {
		panic("series: NewStore requires a Registry")
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	st := &Store{
		reg:      opts.Registry,
		capacity: capacity,
		byName:   make(map[string]*Series),
	}
	if err := (RuleSet{Rules: opts.Rules}).Validate(); err != nil {
		panic("series: " + err.Error())
	}
	for _, r := range opts.Rules {
		st.rules = append(st.rules, newRuleState(r))
	}
	return st
}

// Registry returns the registry the store samples — producers that accept a
// store use this as their metrics registry so every write lands where the
// sampler reads.
func (st *Store) Registry() *telemetry.Registry {
	if st == nil {
		return nil
	}
	return st.reg
}

// Ticks returns how many samples have been taken.
func (st *Store) Ticks() int {
	if st == nil {
		return 0
	}
	return st.ticks
}

// Len returns the number of series (histograms counted per sub-series).
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	return len(st.byName)
}

// Series returns the named series (nil when absent). Histogram sub-series
// use the metric name plus a Suffix* constant.
func (st *Store) Series(name string) *Series {
	if st == nil {
		return nil
	}
	return st.byName[name]
}

// Tick samples every registered metric at sim-time t and evaluates the alert
// rules against the fresh values. rec/seq stamp rule firings as telemetry
// events; cause is the Seq of the event the sample was taken at (the
// instance_finish for managers, 0 for none) and becomes the Cause of any alert fired on this tick. A nil store
// ignores the call.
//
// Steady state (no new metrics registered since the previous tick) allocates
// nothing: the change check is three map lengths under the registry's read
// lock, sampling writes into preallocated rings, and rule evaluation is
// plain arithmetic on resolved series handles.
func (st *Store) Tick(t int, rec telemetry.Recorder, seq *telemetry.Sequencer, cause uint64) {
	if st == nil {
		return
	}
	if nc, ng, nh := st.reg.Sizes(); nc != st.nCounters || ng != st.nGauges || nh != st.nHists {
		st.discover(nc, ng, nh)
	}
	for i := range st.counters {
		h := &st.counters[i]
		h.s.push(t, float64(h.c.Value()))
	}
	for i := range st.gauges {
		h := &st.gauges[i]
		h.s.push(t, h.g.Value())
	}
	for i := range st.hists {
		h := &st.hists[i]
		snap := h.h.Snapshot()
		h.s[0].push(t, float64(snap.Count))
		h.s[1].push(t, snap.Mean)
		h.s[2].push(t, snap.P50)
		h.s[3].push(t, snap.P95)
		h.s[4].push(t, snap.P99)
	}
	st.ticks++
	for _, rs := range st.rules {
		rs.eval(st, t, rec, seq, cause)
	}
}

// discover resolves handles for metrics that appeared since the last tick.
// It runs off the steady-state path (only when the registry grew) and keeps
// ring creation deterministic by sorting new names before appending — two
// runs that register the same metrics in different orders still build
// identical stores.
func (st *Store) discover(nc, ng, nh int) {
	var newCounters, newGauges, newHists []string
	st.reg.VisitCounters(func(name string, _ *telemetry.Counter) {
		if _, ok := st.byName[name]; !ok {
			newCounters = append(newCounters, name)
		}
	})
	st.reg.VisitGauges(func(name string, _ *telemetry.Gauge) {
		if _, ok := st.byName[name]; !ok {
			newGauges = append(newGauges, name)
		}
	})
	st.reg.VisitHistograms(func(name string, _ *telemetry.HistogramMetric) {
		if _, ok := st.byName[name+SuffixCount]; !ok {
			newHists = append(newHists, name)
		}
	})
	sort.Strings(newCounters)
	sort.Strings(newGauges)
	sort.Strings(newHists)
	for _, name := range newCounters {
		s := newSeries(name, st.capacity)
		st.byName[name] = s
		st.counters = append(st.counters, counterHandle{c: st.reg.Counter(name), s: s})
	}
	for _, name := range newGauges {
		s := newSeries(name, st.capacity)
		st.byName[name] = s
		st.gauges = append(st.gauges, gaugeHandle{g: st.reg.Gauge(name), s: s})
	}
	for _, name := range newHists {
		// Histogram layout args are ignored for existing metrics, so the
		// zero layout resolves the already-created handle.
		h := histHandle{h: st.reg.Histogram(name, 0, 1, 1)}
		for i, suf := range histSuffixes {
			s := newSeries(name+suf, st.capacity)
			st.byName[name+suf] = s
			h.s[i] = s
		}
		st.hists = append(st.hists, h)
	}
	st.nCounters, st.nGauges, st.nHists = nc, ng, nh
}

// Collector is a client-side store builder for consumers that do not own a
// registry — `ctgsched watch` polling a /metrics endpoint ingests successive
// snapshots into one.
type Collector struct {
	capacity int
	byName   map[string]*Series
	ticks    int
}

// NewCollector returns an empty collector with the given per-series ring
// capacity (default DefaultCapacity).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{capacity: capacity, byName: make(map[string]*Series)}
}

// Observe appends one (tick, value) sample to the named series, creating it
// on first use.
func (c *Collector) Observe(name string, t int, v float64) {
	s, ok := c.byName[name]
	if !ok {
		s = newSeries(name, c.capacity)
		c.byName[name] = s
	}
	s.push(t, v)
}

// IngestSnapshot appends every metric of a registry snapshot at tick t,
// expanding histograms into the same five sub-series a Store produces.
func (c *Collector) IngestSnapshot(t int, snap telemetry.Snapshot) {
	for name, v := range snap.Counters {
		c.Observe(name, t, float64(v))
	}
	for name, v := range snap.Gauges {
		c.Observe(name, t, v)
	}
	for name, h := range snap.Histograms {
		c.Observe(name+SuffixCount, t, float64(h.Count))
		c.Observe(name+SuffixMean, t, h.Mean)
		c.Observe(name+SuffixP50, t, h.P50)
		c.Observe(name+SuffixP95, t, h.P95)
		c.Observe(name+SuffixP99, t, h.P99)
	}
	c.ticks++
}

// Dump converts the collector's contents into the same Dump a Store
// produces, so one renderer serves both live and replay watch modes.
func (c *Collector) Dump() Dump {
	return dumpFrom(c.capacity, c.ticks, c.byName, nil)
}

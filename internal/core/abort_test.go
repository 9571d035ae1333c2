package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// abortCtx is a context whose k-th and later Err polls abort the step:
// they return context.DeadlineExceeded, or panic when panics is set. A
// count-only context (k = 0) never aborts.
type abortCtx struct {
	mu     sync.Mutex
	polls  int
	k      int
	panics bool
}

func (c *abortCtx) Err() error {
	c.mu.Lock()
	c.polls++
	fire := c.k > 0 && c.polls >= c.k
	c.mu.Unlock()
	if !fire {
		return nil
	}
	if c.panics {
		panic(abortPanic{})
	}
	return context.DeadlineExceeded
}
func (c *abortCtx) Done() <-chan struct{}       { return nil }
func (c *abortCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *abortCtx) Value(any) any               { return nil }

type abortPanic struct{}

// abortSetup is one manager configuration of the abort property.
type abortSetup struct {
	name string
	// build returns the graph, platform and options; opts gets a fresh
	// recorder (and, with rules, a fresh store) per manager.
	build func(t *testing.T) (*ctg.Graph, *platform.Platform, Options, [][]int)
	rules bool
	// pick selects the candidate steps from an undisturbed run's results
	// (nil: any step).
	pick func(i int, r StepResult) bool
}

// managerImage is everything an aborted step must leave as it was.
type managerImage struct {
	St         state
	Digest     uint64
	Probs      [][]float64
	Calls      int
	Instances  int
	Level      int
	Window     [][]int
	Pos        []int
	Counts     [][]int
	Ring       []bool
	SchedProbs []float64
	Registry   string
	Series     string
	Events     int
}

func captureImage(t *testing.T, m *Manager, rec *telemetry.MemoryRecorder) managerImage {
	t.Helper()
	img := managerImage{
		St:         m.st,
		Digest:     stateDigest(m),
		Calls:      m.Calls(),
		Instances:  m.Instances(),
		Level:      m.GuardLevel(),
		Pos:        append([]int(nil), m.profiler.pos...),
		Ring:       append([]bool(nil), m.missRing...),
		SchedProbs: append([]float64(nil), m.warm.schedProbs...),
		Events:     len(rec.Events()),
	}
	for fi := 0; m.Probs(fi) != nil; fi++ {
		img.Probs = append(img.Probs, m.Probs(fi))
	}
	for fi := range m.profiler.buf {
		img.Window = append(img.Window, append([]int(nil), m.profiler.buf[fi]...))
		img.Counts = append(img.Counts, append([]int(nil), m.profiler.counts[fi]...))
	}
	var buf bytes.Buffer
	if err := m.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	img.Registry = buf.String()
	if st := m.opts.Series; st != nil {
		buf.Reset()
		if err := st.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		img.Series = buf.String()
	}
	return img
}

// stateDigest hashes the incumbent and fallback schedules' contents, the
// speed table, the probabilities and the guard level: an aborted step must
// not have written into a published schedule either.
func stateDigest(m *Manager) uint64 {
	h := fnv.New64a()
	put := func(vs ...float64) {
		for _, v := range vs {
			var b [8]byte
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	for _, s := range []*sched.Schedule{m.Schedule(), m.Fallback()} {
		if s == nil {
			continue
		}
		fmt.Fprint(h, s.PE)
		put(s.Start...)
		put(s.Speed...)
		put(s.CommStart...)
		put(s.Makespan)
	}
	if sp := m.ScenarioSpeeds(); sp != nil {
		for _, row := range sp.Speeds {
			put(row...)
		}
	}
	for fi := 0; m.Probs(fi) != nil; fi++ {
		put(m.Probs(fi)...)
	}
	put(float64(m.GuardLevel()))
	return h.Sum64()
}

// normalizeStream replaces every Seq by its position in the stream and every
// Cause by the position of the event it names (-1: none), and masks the
// wall-clock pipeline_span values, so two streams compare by order.
func normalizeStream(t *testing.T, evs []telemetry.Event) []telemetry.Event {
	t.Helper()
	pos := make(map[uint64]uint64, len(evs))
	for i, e := range evs {
		pos[e.Seq] = uint64(i)
	}
	out := make([]telemetry.Event, len(evs))
	for i, e := range evs {
		e.Seq = uint64(i)
		if e.Cause != 0 {
			p, ok := pos[e.Cause]
			if !ok {
				t.Fatalf("event %d (%s) names cause %d, not on the stream", i, e.Kind, e.Cause)
			}
			e.Cause = p
		} else {
			e.Cause = math.MaxUint64
		}
		if e.Kind == telemetry.KindSpan {
			e.Value = 0
		}
		out[i] = e
	}
	return out
}

func abortSetups() []abortSetup {
	always := func(o *Options) { o.SetThreshold(0) } // every step reschedules
	small := func(t *testing.T, seed int64, factor float64) (*ctg.Graph, *platform.Platform) {
		g, p := telemetryWorkload(t, seed)
		g, err := TightenDeadline(g, p, factor)
		if err != nil {
			t.Fatal(err)
		}
		return g, p
	}
	return []abortSetup{
		{name: "plain", build: func(t *testing.T) (*ctg.Graph, *platform.Platform, Options, [][]int) {
			g, p := small(t, 11, 1.6)
			var o Options
			always(&o)
			return g, p, o, trace.Fluctuating(g, 3, 30, 0.4)
		}},
		{name: "per-scenario", build: func(t *testing.T) (*ctg.Graph, *platform.Platform, Options, [][]int) {
			g, p := small(t, 11, 1.6)
			o := Options{PerScenario: true, GuardBand: 0.1}
			always(&o)
			return g, p, o, trace.Fluctuating(g, 3, 30, 0.4)
		}},
		{name: "warm-cache", build: func(t *testing.T) (*ctg.Graph, *platform.Platform, Options, [][]int) {
			g, p := small(t, 31, 1.6)
			o := Options{Window: 10, WarmStart: true}
			always(&o)
			return g, p, o, trace.Fluctuating(g, 5, 40, 0.45)
		}, pick: func(_ int, r StepResult) bool { return r.Rescheduled }},
		{name: "recovery-faults", build: func(t *testing.T) (*ctg.Graph, *platform.Platform, Options, [][]int) {
			g, p := small(t, 67, 1.3)
			plan, err := faults.New(faults.Spec{Seed: 21, OverrunProb: 0.3, OverrunFactor: 1.3}, g.NumTasks(), p.NumPEs())
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Recovery: true, Faults: plan, GuardBand: 0.15}
			always(&o)
			return g, p, o, trace.Fluctuating(g, 4, 80, 0.45)
		}, pick: func(_ int, r StepResult) bool { return r.FallbackUsed }},
		{name: "failure-timeline", build: func(t *testing.T) (*ctg.Graph, *platform.Platform, Options, [][]int) {
			g, p := small(t, 7, 1.8)
			// The outage's first instance remaps (a full pipeline) and then
			// warm-starts the drift reschedule: two pipelines in one step.
			tl, err := faults.NewTimeline(faults.FailureSpec{Events: []faults.FailureEvent{
				{Kind: faults.EventPE, PE: 0, Instance: 6, Duration: 5},
			}}, p.NumPEs())
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Window: 10, Recovery: true, Failures: tl, WarmStart: true}
			always(&o)
			return g, p, o, trace.Fluctuating(g, 2, 24, 0.45)
		}, pick: func(_ int, r StepResult) bool { return r.Remapped && r.Degraded }},
		{name: "series-rules", rules: true, build: func(t *testing.T) (*ctg.Graph, *platform.Platform, Options, [][]int) {
			g, p := small(t, 11, 1.6)
			o := Options{Window: 10}
			always(&o)
			return g, p, o, trace.Fluctuating(g, 3, 30, 0.4)
		}, pick: func(i int, _ StepResult) bool { return i >= 3 }},
	}
}

// TestAbortedStepLeavesNoTrace is the transactional-step property: for every
// setup it picks a random step and, at every context poll k of that step,
// aborts it once by cancellation and once by a panic. After each abort the
// manager must be exactly as before the step (state, schedule contents,
// estimator windows, registry, series store) and no event may have
// been recorded. The manager then finishes the run and must match an
// undisturbed twin in every StepResult, its final state and its event
// stream (compared by order: aborted steps leave Seq gaps). Under -short
// only about a dozen cut points per setup run.
func TestAbortedStepLeavesNoTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, su := range abortSetups() {
		t.Run(su.name, func(t *testing.T) {
			g, p, opts, vecs := su.build(t)
			// The chosen step: drawn among the candidates of a reference run
			// that poll their context more than once.
			ref := newAbortManager(t, g, p, opts, su.rules, 0)
			var cands, polls []int
			for i, v := range vecs {
				counter := &abortCtx{}
				r, err := ref.m.StepCtx(counter, v)
				if err != nil {
					t.Fatal(err)
				}
				polls = append(polls, counter.polls)
				if counter.polls > 1 && (su.pick == nil || su.pick(i, r)) {
					cands = append(cands, i)
				}
			}
			if len(cands) == 0 {
				t.Fatal("no candidate step")
			}
			step := cands[rng.Intn(len(cands))]

			a := newAbortManager(t, g, p, opts, su.rules, step)
			b := newAbortManager(t, g, p, opts, su.rules, step)
			var want []StepResult
			for i, v := range vecs {
				r, err := b.m.Step(v)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
				if i < step {
					if _, err := a.m.Step(v); err != nil {
						t.Fatal(err)
					}
				}
			}
			n := polls[step]
			stride := 1
			if testing.Short() {
				stride = max(1, n/12)
			}
			pre := captureImage(t, a.m, a.rec)
			cuts := 0
			for k := 1; k <= n; k += stride {
				for _, panics := range []bool{false, true} {
					rec, err := stepAborted(a.m, &abortCtx{k: k, panics: panics}, vecs[step])
					switch {
					case panics && rec == nil:
						t.Fatalf("step %d poll %d: no panic (err %v)", step, k, err)
					case panics && rec != (abortPanic{}):
						t.Fatalf("step %d poll %d: panic %v", step, k, rec)
					case !panics && !errors.Is(err, context.DeadlineExceeded):
						t.Fatalf("step %d poll %d: want DeadlineExceeded, got %v (panic %v)", step, k, err, rec)
					}
					if got := captureImage(t, a.m, a.rec); !reflect.DeepEqual(got, pre) {
						t.Fatalf("step %d aborted at poll %d/%d (panic %v) left a trace:\n%s",
							step, k, n, panics, imageDiff(pre, got))
					}
					cuts++
				}
			}
			t.Logf("step %d: %d polls, %d aborts", step, n, cuts)
			for i := step; i < len(vecs); i++ {
				got, err := a.m.Step(vecs[i])
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Fatalf("step %d after the aborts:\n got %+v\nwant %+v", i, got, want[i])
				}
			}
			// Aborted steps drew mapping generations of their own.
			sa, sb := a.m.st, b.m.st
			sa.mapGen, sb.mapGen = 0, 0
			if stateDigest(a.m) != stateDigest(b.m) || !reflect.DeepEqual(sa, sb) {
				t.Fatal("final state differs from the undisturbed run")
			}
			ga, gb := normalizeStream(t, a.rec.Events()), normalizeStream(t, b.rec.Events())
			if len(ga) != len(gb) {
				t.Fatalf("stream holds %d events, undisturbed %d", len(ga), len(gb))
			}
			for i := range ga {
				if !reflect.DeepEqual(ga[i], gb[i]) {
					t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, ga[i], gb[i])
				}
			}
			if su.rules {
				moves := map[telemetry.Kind]int{}
				for _, e := range a.rec.Events() {
					if e.Instance == step && (e.Kind == telemetry.KindAlertFiring || e.Kind == telemetry.KindAlertResolved) {
						moves[e.Kind]++
					}
				}
				if moves[telemetry.KindAlertFiring] != 1 || moves[telemetry.KindAlertResolved] != 1 {
					t.Fatalf("rules moved %v at step %d, want one firing and one resolution", moves, step)
				}
			}
		})
	}
}

// abortManager is a manager with its own recorder (and, with rules, a store
// whose two rules both move exactly at step: one fires, one resolves).
type abortManager struct {
	m   *Manager
	rec *telemetry.MemoryRecorder
}

func newAbortManager(t *testing.T, g *ctg.Graph, p *platform.Platform, opts Options, rules bool, step int) abortManager {
	t.Helper()
	rec := telemetry.NewMemoryRecorder()
	opts.Recorder = rec
	if rules {
		n := float64(step + 1) // adaptive.instances once step commits
		opts.Series = series.NewStore(series.StoreOptions{Registry: telemetry.NewRegistry(), Rules: []series.Rule{
			{Name: "warming", Metric: "adaptive.instances", Op: "<", Value: n},
			{Name: "warm", Metric: "adaptive.instances", Op: ">=", Value: n},
		}})
		opts.Metrics = opts.Series.Registry()
	}
	m, err := New(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return abortManager{m, rec}
}

// stepAborted runs one StepCtx, returning its error or the value it panicked
// with.
func stepAborted(m *Manager, ctx context.Context, v []int) (panicked any, err error) {
	defer func() { panicked = recover() }()
	_, err = m.StepCtx(ctx, v)
	return nil, err
}

// imageDiff names the image fields that differ.
func imageDiff(a, b managerImage) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out bytes.Buffer
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			fmt.Fprintf(&out, "  %s: %v -> %v\n", va.Type().Field(i).Name, va.Field(i), vb.Field(i))
		}
	}
	return out.String()
}

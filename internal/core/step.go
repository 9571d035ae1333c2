package core

import (
	"context"
	"fmt"
	"time"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/telemetry"
)

// A step is a transaction in four stages:
//
//  1. stage: resolve the instance's scenario and stage its decisions in the
//     estimator windows (txn.obs) without shifting them in;
//  2. replay: re-map at the instance boundary when the failure timeline
//     changed the survivor set, replay the instance on the incumbent, and
//     re-run it on the full-speed fallback when it missed;
//  3. decide: the window estimates, the circuit breaker and the drift
//     check, then the reschedule they trigger;
//  4. commit: the only code that assigns Manager fields, writes registry
//     handles, records events or ticks the series store.
//
// The first three stages write only the txn: a copy of the committed state,
// staged copies of the breaker window and the warm-start probability
// snapshot, span timings and events. The one exception is the graph's
// branch probabilities, which DLS and stretching read during decide: decide
// keeps every vector it replaces, and abort puts them back verbatim and
// re-weights the analysis. Any error, cancellation or panic before commit
// therefore leaves the manager exactly as the last committed step left it,
// on the event stream included. The sequencer is
// the one thing an aborted step advances, so the stream may skip Seq values.
//
// Replay precedes decide because the instance runs on the incumbent: the
// fallback and the breaker read its outcome, and the drift reschedule only
// serves the next instance.

// txn is the staging area of one step, allocated once per manager and reset
// by begin.
type txn struct {
	m *Manager
	s state // the step's copy of the committed state
	// cancel is the in-flight StepCtx's context poll (nil under Step): the
	// reschedule pipeline threads it into the DLS placement loop and the
	// stretching passes, so a request whose context expires aborts
	// mid-pipeline instead of running to completion.
	cancel func() error

	scenario int
	obs      []int // per fork: the outcome staged this step, -1 when it did not run

	res         StepResult
	primaryMiss bool
	fbSeq       uint64 // the fallback decision's event, when one fired
	finSeq      uint64 // the instance_finish event

	// replaced holds the graph's branch-probability vectors decide replaced,
	// in order, so abort can put them back; commit empties it.
	replaced []replacedProbs

	ring          []bool    // the staged breaker window (missRing)
	schedProbs    []float64 // the staged warm.schedProbs
	windowRate    float64   // adaptive.miss_rate_window, when windowRateSet
	windowRateSet bool
	spans         []spanSample
	events        eventBuf

	// Provenance (live only while m.rec != nil): the seq of this instance's
	// instance_start, the trigger seq the in-flight reschedule pipeline
	// chains its decision events to, and the per-fork seqs of this step's
	// window-estimate events (so a drift-triggered reschedule can name the
	// estimate that crossed the threshold).
	startSeq uint64
	causeSeq uint64
	estSeqs  []uint64

	// Scratch reused across steps; what an aborted step leaves here is
	// overwritten before it is read again. gen issues mapping generations
	// (state.mapGen) and never goes back, so a generation an aborted step
	// issued is never reused; wsGen is the generation ws is bound to.
	gen      int
	wsGen    int
	dlsWS    *sched.Workspace
	bufs     *sched.WarmState   // double-buffered warm-start schedule copies
	ws       *stretch.Workspace // every stretch pass's scratch, see workspace
	changed  []int              // dense indices of drifted forks
	affected []bool             // per-task affected mask
	probsBuf []float64          // the smoothed estimate of a crossing fork
}

// replacedProbs is one branch-probability vector decide replaced.
type replacedProbs struct {
	fork ctg.TaskID
	old  []float64
}

// spanSample is one timed reschedule phase, observed into its histogram at
// commit.
type spanSample struct {
	h  *telemetry.HistogramMetric
	us float64
}

// eventBuf collects a step's events, the simulator's slices included;
// commit records them in order.
type eventBuf []telemetry.Event

func (b *eventBuf) Record(e telemetry.Event) { *b = append(*b, e) }

func newTxn(m *Manager) *txn {
	nf := m.g.NumForks()
	t := &txn{
		m:          m,
		obs:        make([]int, nf),
		schedProbs: make([]float64, len(m.warm.schedProbs)),
		wsGen:      -1,
		dlsWS:      sched.NewWorkspace(),
		bufs:       sched.NewWarmState(),
		ws:         stretch.NewWorkspace(),
		changed:    make([]int, 0, nf),
		affected:   make([]bool, m.g.NumTasks()),
	}
	if m.missRing != nil {
		t.ring = make([]bool, len(m.missRing))
	}
	if m.rec != nil {
		t.estSeqs = make([]uint64, nf)
	}
	return t
}

// begin resets the txn to a fresh copy of the committed state.
func (m *Manager) begin(cancel func() error) *txn {
	t := m.tx
	t.s = m.st
	t.cancel = cancel
	t.res = StepResult{}
	t.primaryMiss = false
	t.fbSeq, t.finSeq, t.startSeq, t.causeSeq = 0, 0, 0, 0
	for i := range t.obs {
		t.obs[i] = -1
	}
	t.replaced = t.replaced[:0]
	copy(t.ring, m.missRing)
	copy(t.schedProbs, m.warm.schedProbs)
	t.windowRateSet = false
	t.spans = t.spans[:0]
	t.events = t.events[:0]
	return t
}

// StepCtx is Step under a context: the context's cancellation/deadline is
// polled at cooperative checkpoints inside the reschedule pipeline — once per
// DLS placement round, once per stretched task (single-speed heuristic and
// warm partial pass), and once per scenario in the per-scenario fan-out — so
// an expired request aborts within one unit of pipeline work rather than
// running to completion. The returned error is the context's own
// (context.DeadlineExceeded / context.Canceled), unwrapped, so callers can
// errors.Is it directly.
//
// A cancelled step leaves no trace: it commits nothing, so the manager, its
// registry, its series store and its event stream are exactly as the last
// committed step left them (the stream may skip the Seq values the aborted
// step drew), and re-Stepping the same vector behaves as if the cancelled
// attempt never happened. A call that completes before the context expires
// is bit-for-bit identical to an uncancelled one.
func (m *Manager) StepCtx(ctx context.Context, decisions []int) (StepResult, error) {
	if err := ctx.Err(); err != nil {
		return StepResult{}, err
	}
	return m.step(decisions, ctx.Err)
}

// Step processes one CTG instance: replay it under the current schedule,
// shift the decisions of the branch forks that actually executed into their
// windows, and re-run the online algorithm if the estimate drifted past the
// threshold. On any error (or panic) the manager is left untouched.
func (m *Manager) Step(decisions []int) (StepResult, error) {
	return m.step(decisions, nil)
}

func (m *Manager) step(decisions []int, cancel func() error) (StepResult, error) {
	t := m.begin(cancel)
	// Runs on errors and while a panic unwinds alike; the panic goes on.
	defer t.abort()
	if err := t.stage(decisions); err != nil {
		return StepResult{}, err
	}
	if err := t.replay(); err != nil {
		return StepResult{}, err
	}
	if err := t.decide(); err != nil {
		return StepResult{}, err
	}
	return m.commit(t), nil
}

// abort undoes decide's one write outside the txn (nothing once the step
// committed): the replaced probability vectors go back verbatim, latest
// first, and the analysis re-weights from them (a pure function of the
// vectors, so its scenario weights come back bit for bit).
func (t *txn) abort() {
	if len(t.replaced) == 0 {
		return
	}
	for i := len(t.replaced) - 1; i >= 0; i-- {
		t.m.g.RestoreBranchProbs(t.replaced[i].fork, t.replaced[i].old)
	}
	t.m.a.Reweight()
}

// stage resolves the instance's scenario and stages the decisions of the
// forks that executed in it (only executed forks produce observable
// decisions).
func (t *txn) stage(decisions []int) error {
	m := t.m
	si, err := m.a.ScenarioForDecisions(decisions)
	if err != nil {
		return err
	}
	t.scenario = si
	active := m.a.Scenario(si).Active
	for fi, fork := range m.g.Forks() {
		if active.Get(int(fork)) {
			t.obs[fi] = decisions[fi]
		}
	}
	return nil
}

// replay runs the instance: availability changes are detected at instance
// boundaries (the timeline's mask for this instance against the one in
// force, re-mapping onto the survivor set on any difference), then the
// instance replays on the incumbent and, when it misses under Recovery,
// again on the full-speed fallback.
func (t *txn) replay() error {
	m := t.m
	idx := t.s.instances
	remapped := false
	if m.opts.Failures != nil {
		cur := m.opts.Failures.MaskAt(idx)
		if !cur.Equal(t.s.mask, m.base.NumPEs()) {
			if err := t.applyTopology(cur, idx); err != nil {
				return err
			}
			remapped = true
		}
	}
	var cfg sim.Config
	if m.rec != nil {
		t.startSeq = t.emit(telemetry.Event{Kind: telemetry.KindInstanceStart, Instance: idx, Scenario: t.scenario})
		// Estimate seqs are per-step: forks inactive this instance must not
		// leave a stale id for the drift trigger to pick up.
		clear(t.estSeqs)
		cfg.Recorder = &t.events
		cfg.Seq = m.seq
		cfg.Cause = t.startSeq
	}
	if t.s.speeds != nil {
		cfg.ScenarioSpeeds = t.s.speeds.Speeds
	}
	if m.opts.Faults != nil {
		cfg.Faults = m.opts.Faults
		cfg.FaultInstance = t.s.faultInstance
		t.s.faultInstance++
	}
	cfg.InstanceID = idx
	inst, err := sim.Replay(t.s.schedule, t.scenario, cfg)
	if err != nil {
		return err
	}
	t.res = StepResult{Instance: inst, Degraded: t.s.degraded, Remapped: remapped, Rescheduled: remapped}
	t.primaryMiss = !inst.DeadlineMet
	if !t.primaryMiss || t.s.fallback == nil {
		return nil
	}
	// Recovery: re-run the instance at full speed on the worst-case fallback
	// schedule. The same fault instance applies — the overruns that sank the
	// primary run hit the fallback too, but without stretching the timeline
	// has the full static slack to absorb them.
	cfg.ScenarioSpeeds = nil
	cfg.Phase = telemetry.PhaseFallback
	fb, err := sim.Replay(t.s.fallback, t.scenario, cfg)
	if err != nil {
		return err
	}
	t.res.FallbackUsed = true
	t.res.Primary = inst
	t.res.Instance = fb
	t.s.activations++
	if fb.DeadlineMet {
		t.s.missesAvoided++
	}
	if m.rec != nil {
		// Makespan is the fallback re-run's; Makespan2 keeps the failed
		// primary timeline for comparison. The cause is the primary replay
		// that missed (its overruns are the instance's fault_overrun events).
		t.fbSeq = t.emit(telemetry.Event{
			Kind:      telemetry.KindFallback,
			Instance:  idx,
			Met:       fb.DeadlineMet,
			Makespan:  fb.Makespan,
			Makespan2: inst.Makespan,
			Phase:     telemetry.PhaseFallback,
			Cause:     t.startSeq,
		})
	}
	return nil
}

// decide reads the staged window estimates, moves the circuit breaker on the
// primary outcome, adopts the estimates that crossed the threshold and
// reschedules when either fired, then closes the instance.
func (t *txn) decide() error {
	m := t.m
	idx := t.s.instances
	t.res.Drift = m.profiler.maxDrift(t.obs)
	if m.rec != nil {
		// One window-estimate update per fork that actually executed (the
		// others observed nothing this instance).
		for fi, o := range t.obs {
			if o < 0 {
				continue
			}
			t.estSeqs[fi] = t.emit(telemetry.Event{
				Kind:     telemetry.KindEstimate,
				Instance: idx,
				Fork:     fi,
				Probs:    m.profiler.estimate(fi, o),
				Drift:    t.res.Drift,
				Outcome:  o,
				Cause:    t.startSeq,
			})
		}
	}
	prevLevel := t.s.guardLevel
	breakerMoved := t.s.fallback != nil && t.recordPrimaryOutcome(t.primaryMiss)
	var glSeq uint64 // the breaker move, when one fired this step
	if breakerMoved && m.rec != nil {
		// The breaker moved on this step's windowed outcome: chain to the
		// fallback when one fired (the miss that tipped the window), to the
		// instance otherwise (e.g. a relaxation on a clean run).
		cause := t.startSeq
		if t.fbSeq != 0 {
			cause = t.fbSeq
		}
		glSeq = t.emit(telemetry.Event{
			Kind:      telemetry.KindGuardLevel,
			Instance:  idx,
			Level:     t.s.guardLevel,
			Level2:    prevLevel,
			Threshold: DefaultMissRateBound,
			Cause:     cause,
		})
	}
	// Update only the branches whose estimate crossed the threshold (the
	// paper's "the branch probability is updated with this new value");
	// any update triggers one re-scheduling. The comparison is inclusive:
	// see FilteredSeries for why "crosses" must admit equality.
	updated := false
	var trigSeq uint64 // the first threshold-crossing fork's estimate event
	for fi, fork := range m.g.Forks() {
		crossed := false
		for k := 0; k < m.profiler.NumOutcomes(fi); k++ {
			d := m.profiler.estimateAt(fi, k, t.obs[fi]) - m.g.BranchProb(fork, k)
			if d < 0 {
				d = -d
			}
			if d >= m.opts.Threshold-1e-12 {
				crossed = true
				break
			}
		}
		if crossed {
			if trigSeq == 0 && m.rec != nil {
				trigSeq = t.estSeqs[fi]
			}
			t.probsBuf = m.profiler.smoothedInto(fi, t.obs[fi], t.probsBuf[:0])
			old, err := m.g.ReplaceBranchProbs(fork, t.probsBuf)
			if err != nil {
				return err
			}
			t.replaced = append(t.replaced, replacedProbs{fork, old})
			updated = true
		}
	}
	if updated {
		m.a.Reweight()
	}
	if updated || breakerMoved {
		reason := "drift"
		switch {
		case updated && breakerMoved:
			reason = "drift+breaker"
		case breakerMoved:
			reason = "breaker"
		}
		// The decision's provenance: the estimate that crossed the
		// threshold when drift triggered (or contributed), else the breaker
		// move that forced the re-stretch.
		if updated && trigSeq != 0 {
			t.causeSeq = trigSeq
		} else if breakerMoved {
			t.causeSeq = glSeq
		}
		if err := t.reschedule(reason); err != nil {
			return err
		}
		t.res.Rescheduled = true
	}
	t.res.GuardLevel = t.s.guardLevel
	inst := t.res.Instance
	t.s.instances++
	if t.s.degraded {
		t.s.degradedInsts++
		if !inst.DeadlineMet {
			t.s.topoMisses++
		}
	}
	if inst.DeadlineMet {
		t.s.missStreak = 0
	} else {
		t.s.missesTotal++
		t.s.missStreak++
		t.s.maxMissStreak = max(t.s.maxMissStreak, t.s.missStreak)
	}
	if m.rec != nil {
		t.finSeq = t.emit(telemetry.Event{
			Kind:        telemetry.KindInstanceFinish,
			Instance:    idx,
			Scenario:    inst.Scenario,
			Energy:      inst.Energy,
			Makespan:    inst.Makespan,
			Lateness:    inst.Lateness,
			Met:         inst.DeadlineMet,
			Overruns:    inst.Overruns,
			Rescheduled: t.res.Rescheduled,
			Drift:       t.res.Drift,
			Level:       t.s.guardLevel,
			Cause:       t.startSeq,
		})
	}
	return nil
}

// commit adopts the step (see adopt), publishes the instance's metrics and
// samples the series store at the instance boundary (the sim-time axis),
// chaining any alert firing to the step's instance_finish.
func (m *Manager) commit(t *txn) StepResult {
	prev := m.st
	m.adopt(t)
	res := t.res
	mm := &m.mm
	mm.instances.Inc()
	if m.st.missesTotal != prev.missesTotal {
		mm.misses.Inc()
	}
	if res.Instance.Overruns > 0 {
		mm.overruns.Add(int64(res.Instance.Overruns))
	}
	mm.lateness.Observe(res.Instance.Lateness)
	mm.makespan.Observe(res.Instance.Makespan)
	mm.drift.Set(res.Drift)
	mm.missRate.Set(float64(m.st.missesTotal) / float64(m.st.instances))
	mm.missStreak.Set(float64(m.st.missStreak))
	mm.maxMissStreak.SetMax(float64(m.st.maxMissStreak))
	if m.opts.Series != nil {
		m.opts.Series.Tick(prev.instances, m.rec, m.seq, t.finSeq)
	}
	return res
}

// adopt is the part of commit New shares: it shifts the staged decisions
// into the estimator windows and folds each shifted fork's new estimate
// into its drift tracker, adopts the staged state and slices, mirrors the
// state's changes into the registry and records the staged events in order.
func (m *Manager) adopt(t *txn) {
	t.replaced = t.replaced[:0]
	prev := m.st
	m.st = t.s
	for fi, o := range t.obs {
		if o >= 0 {
			m.profiler.shift(fi, o)
			t.probsBuf = m.profiler.EstimateInto(fi, t.probsBuf[:0])
			m.drift[fi].Observe(t.probsBuf, o)
		}
	}
	mm := &m.mm
	worst := 0.0
	for i := range m.drift {
		worst = max(worst, m.drift[i].ErrEWMA)
	}
	mm.driftErr.Set(worst)
	n := m.base.NumPEs()
	mm.pesDown.Set(float64(n - m.st.mask.NumAlive(n)))
	m.missRing, t.ring = t.ring, m.missRing
	m.warm.schedProbs, t.schedProbs = t.schedProbs, m.warm.schedProbs
	addDelta(mm.calls, m.st.calls-prev.calls)
	addDelta(mm.fallbacks, m.st.activations-prev.activations)
	addDelta(mm.missesAvoided, m.st.missesAvoided-prev.missesAvoided)
	addDelta(mm.warmStarts, m.st.warmStarts-prev.warmStarts)
	addDelta(mm.warmFallbacks, m.st.warmFallbacks-prev.warmFallbacks)
	if t.windowRateSet {
		mm.missRateWindow.Set(t.windowRate)
	}
	if m.st.guardLevel != prev.guardLevel {
		mm.guardLevel.Set(float64(m.st.guardLevel))
		mm.maxGuardLevel.SetMax(float64(m.st.guardLevel))
	}
	for _, sp := range t.spans {
		sp.h.Observe(sp.us)
	}
	for i := range t.events {
		m.rec.Record(t.events[i])
	}
}

func addDelta(c *telemetry.Counter, d int) {
	if d != 0 {
		c.Add(int64(d))
	}
}

// emit stamps the event with the next sequence id and stages it, returning
// the id so the event can be named as the Cause of its effects. Callers must
// have checked m.rec != nil (the provenance state only exists then).
func (t *txn) emit(ev telemetry.Event) uint64 {
	ev.Seq = t.m.seq.Next()
	t.events = append(t.events, ev)
	return ev.Seq
}

// span closes one timed reschedule phase: the wall time since start is
// staged for the phase's histogram and, when a recorder is listening, goes
// out as a pipeline_span event chained to the pipeline's trigger. Phases:
// "diff" (the warm path's fork diff + affected-set marking), "dls" (the full
// path's mapping/ordering run), "stretch" (slack distribution, full or
// partial), "validate" (the warm result's deadline + consistency checks).
func (t *txn) span(phase string, h *telemetry.HistogramMetric, start time.Time) {
	us := float64(time.Since(start)) / float64(time.Microsecond)
	t.spans = append(t.spans, spanSample{h, us})
	if t.m.rec != nil {
		t.emit(telemetry.Event{
			Kind: telemetry.KindSpan, Instance: t.s.instances,
			Name: phase, Value: us, Cause: t.causeSeq,
		})
	}
}

// effectiveGuard is the guard band after circuit-breaker escalation: level k
// halves the unguarded slack fraction k times, 1 − (1 − base)/2^k.
func (t *txn) effectiveGuard() float64 {
	g := t.m.opts.GuardBand
	if t.s.guardLevel > 0 {
		g = 1 - (1-g)/float64(uint64(1)<<uint(t.s.guardLevel))
	}
	if g > 1 {
		g = 1
	}
	return g
}

// newMapping issues a fresh mapping generation for a schedule that may carry
// a different mapping than the incumbent.
func (t *txn) newMapping() {
	t.gen++
	t.s.mapGen = t.gen
}

// workspace returns the stretch workspace bound to the staged mapping,
// first rebinding it to s, a schedule with that mapping, when it is bound
// to another: once per mapping, which every later pass on it reuses.
func (t *txn) workspace(s *sched.Schedule) *stretch.Workspace {
	if t.wsGen != t.s.mapGen {
		// Bound to no generation until Rebind returns.
		t.wsGen = -1
		t.ws.Rebind(s)
		t.wsGen = t.s.mapGen
	}
	return t.ws
}

// emitMaskDiff stages the PE and link transitions between two availability
// masks, returning the last event's seq (0 when no recorder or no
// transition) so the remap/reschedule that follows can chain to it. The
// events have no in-stream cause — the hardware failed on its own. PE deaths
// carry the timeline's permanence verdict; link events are reported only for
// links whose endpoints are alive under both masks, so a PE death is one
// pe_down event rather than a storm of implied link losses.
func (t *txn) emitMaskDiff(old, cur platform.Mask, instance int) uint64 {
	m := t.m
	if m.rec == nil {
		return 0
	}
	var last uint64
	n := m.base.NumPEs()
	alive := cur.NumAlive(n)
	for pe := 0; pe < n; pe++ {
		was, is := old.PEAlive(pe), cur.PEAlive(pe)
		switch {
		case was && !is:
			reason := "transient"
			if m.opts.Failures != nil && m.opts.Failures.PermanentlyDead(instance, pe) {
				reason = "permanent"
			}
			last = t.emit(telemetry.Event{
				Kind: telemetry.KindPEDown, Instance: instance,
				PE: pe, Reason: reason, Alive: alive,
			})
		case !was && is:
			last = t.emit(telemetry.Event{
				Kind: telemetry.KindPEUp, Instance: instance, PE: pe, Alive: alive,
			})
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !old.PEAlive(i) || !old.PEAlive(j) || !cur.PEAlive(i) || !cur.PEAlive(j) {
				continue
			}
			was, is := old.LinkUp(i, j), cur.LinkUp(i, j)
			switch {
			case was && !is:
				last = t.emit(telemetry.Event{
					Kind: telemetry.KindLinkDown, Instance: instance, PE: i, PE2: j,
				})
			case !was && is:
				last = t.emit(telemetry.Event{
					Kind: telemetry.KindLinkUp, Instance: instance, PE: i, PE2: j,
				})
			}
		}
	}
	return last
}

// applyTopology re-maps the runtime onto a changed survivor set: restrict
// the platform to the new mask, rebuild the full-speed fallback for the same
// survivors (reusing the preserved healthy fallback when the full topology
// returns), and re-run the online algorithm on the survivors. An
// infeasible mask (or an unroutable degraded topology, surfaced as
// sched.InfeasibleError) propagates as an error: the workload cannot run on
// what remains.
func (t *txn) applyTopology(cur platform.Mask, instance int) error {
	m := t.m
	// The remap and the topology reschedule below both chain to the last
	// hardware transition.
	topoSeq := t.emitMaskDiff(t.s.mask, cur, instance)
	rp, err := m.base.Restrict(cur)
	if err != nil {
		return fmt.Errorf("core: instance %d availability mask: %w", instance, err)
	}
	t.s.p = rp
	t.s.mask = cur
	t.s.degraded = !cur.IsFull()
	if m.opts.Recovery {
		// Only the recovery machinery keeps a fallback; rebuilding one for a
		// manager that never had it would silently enable fallback replays.
		if t.s.degraded || t.s.healthyFallback == nil {
			fb, err := sched.DLS(m.a, t.s.p, sched.Modified())
			if err != nil {
				return err
			}
			t.s.fallback = fb
			if !t.s.degraded {
				t.s.healthyFallback = fb
			}
		} else {
			t.s.fallback = t.s.healthyFallback
		}
	}
	reason := "restored"
	if t.s.degraded {
		reason = "degraded"
	}
	t.causeSeq = topoSeq
	if err := t.reschedule("topology"); err != nil {
		return err
	}
	t.s.remaps++
	if m.rec != nil {
		t.emit(telemetry.Event{
			Kind: telemetry.KindRemap, Instance: instance,
			Reason: reason, Alive: t.s.p.NumAlivePEs(), Cause: topoSeq,
		})
	}
	return nil
}

// reschedule runs the online algorithm (DLS + stretching) with the graph's
// current probability estimates, trying the warm-start path first when it
// is enabled.
func (t *txn) reschedule(reason string) error {
	m := t.m
	guard := t.effectiveGuard()
	if ok, err := t.tryWarmStart(reason, guard); err != nil {
		return err
	} else if ok {
		return nil
	}
	dlsStart := time.Now()
	t.dlsWS.Cancel = t.cancel
	s, err := sched.DLSInto(m.a, t.s.p, sched.Modified(), t.dlsWS)
	if err != nil {
		return err
	}
	t.span("dls", m.mm.pipeDLS, dlsStart)
	stretchStart := time.Now()
	t.newMapping()
	if m.opts.PerScenario {
		sp, err := stretch.PerScenario(s, m.opts.DVFS, guard, t.cancel, t.workspace(s))
		if err != nil {
			return err
		}
		t.s.speeds = sp
		t.span("stretch", m.mm.pipeStretch, stretchStart)
	} else {
		sr, err := stretch.Heuristic(s, m.opts.DVFS, stretch.Options{Guard: guard, Cancel: t.cancel, Workspace: t.workspace(s)})
		if err != nil {
			return err
		}
		t.s.speeds = nil
		t.span("stretch", m.mm.pipeStretch, stretchStart)
		t.emitStretch(sr, s)
	}
	t.s.schedule = s
	t.s.calls++
	t.noteScheduleState(guard)
	t.emitReschedule(reason, false)
	return nil
}

// emitStretch stages the single-speed stretch-pass summary: how much slack
// Figure 2 distributed and how much of it the (guarded, possibly discrete)
// DVFS model actually converted. The per-scenario path has no single
// summary — its detail is a scenarios × tasks table. A masked (warm) pass
// leaves Result.ExpectedEnergy zero, so the energy is then evaluated on the
// stretched schedule s.
func (t *txn) emitStretch(sr stretch.Result, s *sched.Schedule) {
	if t.m.rec == nil {
		return
	}
	if sr.ExpectedEnergy == 0 {
		sr.ExpectedEnergy = s.ExpectedEnergy()
	}
	t.emit(telemetry.Event{
		Kind:       telemetry.KindStretch,
		Instance:   t.s.instances,
		Tasks:      sr.Stretched,
		SlackFound: sr.SlackFound,
		SlackUsed:  sr.SlackUsed,
		Energy:     sr.ExpectedEnergy,
		Makespan:   sr.WorstDelay,
		Cause:      t.causeSeq,
	})
}

// emitReschedule stages the re-scheduling decision event and consumes the
// pipeline's trigger seq (every reschedule path ends here, so the cause never
// leaks into an unrelated later decision). Drift-triggered decisions carry
// the threshold that tripped them.
func (t *txn) emitReschedule(reason string, warm bool) {
	cause := t.causeSeq
	t.causeSeq = 0
	if t.m.rec == nil {
		return
	}
	ev := telemetry.Event{
		Kind:     telemetry.KindReschedule,
		Instance: t.s.instances,
		Reason:   reason,
		Warm:     warm,
		Calls:    t.s.calls,
		Cause:    cause,
	}
	if reason == "drift" || reason == "drift+breaker" {
		ev.Threshold = t.m.opts.Threshold
	}
	t.emit(ev)
}

// recordPrimaryOutcome shifts one primary-schedule outcome into the staged
// circuit-breaker window and moves the escalation level when the windowed
// miss rate crosses the configured bounds. It reports whether the level
// changed (which requires a re-stretch at the new effective guard). The
// window is cleared on every transition, giving the breaker hysteresis: a
// fresh window must fill before the next move.
func (t *txn) recordPrimaryOutcome(miss bool) bool {
	s := &t.s
	if s.missFill == len(t.ring) {
		if t.ring[s.missCursor] {
			s.missCount--
		}
	} else {
		s.missFill++
	}
	t.ring[s.missCursor] = miss
	if miss {
		s.missCount++
	}
	s.missCursor = (s.missCursor + 1) % len(t.ring)
	if s.missFill < len(t.ring) {
		return false
	}
	rate := float64(s.missCount) / float64(len(t.ring))
	t.windowRate, t.windowRateSet = rate, true
	switch {
	case rate > DefaultMissRateBound && s.guardLevel < maxGuardLevel:
		s.guardLevel++
	case rate <= DefaultMissRateBound/2 && s.guardLevel > 0:
		s.guardLevel--
	default:
		return false
	}
	if s.guardLevel > s.maxLevelSeen {
		s.maxLevelSeen = s.guardLevel
	}
	s.missFill, s.missCursor, s.missCount = 0, 0, 0
	clear(t.ring)
	return true
}

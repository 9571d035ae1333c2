package serve

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// gateRecorder forwards events to its sink chain unless switched off. The
// daemon gates a tenant's stream off while checkpoint restore replays its
// decision log: the replayed steps re-emit thousands of events that were
// already recorded the first time around, and delivering them again would
// corrupt every downstream consumer's notion of what happened. Toggled and
// read only under the owning tenant's state lock.
type gateRecorder struct {
	next telemetry.Recorder
	off  bool
}

func (g *gateRecorder) Record(e telemetry.Event) {
	if !g.off {
		g.next.Record(e)
	}
}

// tailRecorder remembers the last event that passed the gate, so a
// tenant_panic can name the last committed event as its Cause.
type tailRecorder struct {
	last telemetry.Event
	n    int
}

func (t *tailRecorder) Record(e telemetry.Event) {
	t.last = e
	t.n++
}

func (t *tailRecorder) lastSeq() uint64 { return t.last.Seq }

// ChaosSpec is the per-request fault injection accepted only when the daemon
// runs with Options.Chaos. It exists for the chaos harness: a production
// daemon ignores it entirely.
type ChaosSpec struct {
	// DelayMS stalls the tenant's worker before the step (a slow tenant —
	// its own queue backs up; siblings must not notice).
	DelayMS int `json:"delay_ms,omitempty"`
	// Panic panics the tenant's worker with this value mid-request.
	Panic string `json:"panic,omitempty"`
}

// StepReply is the daemon's answer to one step request.
type StepReply struct {
	Tenant       string  `json:"tenant"`
	Instance     int     `json:"instance"` // 0-based index of the instance just processed
	Scenario     int     `json:"scenario"`
	Met          bool    `json:"met"`
	Energy       float64 `json:"energy"`
	Makespan     float64 `json:"makespan"`
	Lateness     float64 `json:"lateness,omitempty"`
	Rescheduled  bool    `json:"rescheduled,omitempty"`
	FallbackUsed bool    `json:"fallback_used,omitempty"`
	GuardLevel   int     `json:"guard_level,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
}

// stepDone carries one request's outcome back to the HTTP handler.
type stepDone struct {
	reply StepReply
	err   error
}

// stepReq is one queued step request.
type stepReq struct {
	ctx       context.Context
	decisions []int
	chaos     ChaosSpec
	done      chan stepDone
}

// tenant is one hosted manager plus everything that isolates it from its
// siblings: a private worker goroutine and queue, private admission state
// (token bucket + circuit breaker), a private telemetry chain, and a private
// decision log that checkpoints carry and restore replays. A failed,
// cancelled or panicking step commits nothing in the manager, so the log
// only ever grows by committed steps and nothing else is rebuilt.
//
// Lock order: stMu may be taken alone or before admMu; admMu is never held
// while taking stMu.
type tenant struct {
	name string
	spec TenantSpec
	srv  *Server

	queue chan *stepReq
	stop  chan struct{}
	done  chan struct{} // closed when the worker exits

	// admMu guards admission state, touched by HTTP handler goroutines.
	admMu      sync.Mutex
	bucket     tokenBucket
	brk        breaker
	rng        *rand.Rand
	rejRate    int
	rejQueue   int
	rejBreaker int
	rejShed    int
	lastAdmit  time.Time // last admitted step; paces probes while shedding

	// shedding is set by the worker after each step while any shed rule
	// fires; admission reads it without taking stMu.
	shedding atomic.Bool

	// stMu guards the engine state, touched by the worker (and by read-only
	// HTTP handlers for schedules/stats).
	stMu         sync.Mutex
	mgr          *core.Manager
	store        *series.Store // nil unless Options.ShedRules
	log          [][]int
	seq          *telemetry.Sequencer
	gate         *gateRecorder
	tail         *tailRecorder
	sinks        telemetry.MultiRecorder // post-gate sinks; serve events bypass the gate
	flight       *telemetry.FlightRecorder
	events       *telemetry.JSONLRecorder // nil unless Options.EventsDir
	eventsErr    error                    // the event stream's first write error
	status       string                   // "ok", "degraded"
	consecPanics int
	steps        int
	panics       int
	checkpoints  int
	restored     bool
	restoredFrom string // "", "ok", "fallback"
}

// newTenant builds a tenant's telemetry chain and admission state but
// neither its manager nor its worker: a new tenant builds its manager with
// the gate on (its initial schedule belongs on the live stream), a restored
// one through rebuildLocked, and the caller starts the worker after that.
func newTenant(srv *Server, spec TenantSpec) (*tenant, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	t := &tenant{
		name:   spec.Name,
		spec:   spec,
		srv:    srv,
		queue:  make(chan *stepReq, srv.opts.QueueDepth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		seq:    telemetry.NewSequencer(),
		tail:   &tailRecorder{},
		status: "ok",
	}
	t.bucket = tokenBucket{rate: srv.opts.Rate, burst: srv.opts.Burst}
	// Deterministic per-tenant jitter: seed derived from the daemon seed and
	// the tenant name so chaos runs are reproducible.
	t.rng = rand.New(rand.NewSource(srv.opts.Seed ^ int64(fnvString(spec.Name))))

	t.flight = telemetry.NewFlightRecorder(srv.opts.FlightWindow)
	t.sinks = telemetry.MultiRecorder{t.tail, t.flight}
	if dir := srv.opts.EventsDir; dir != "" {
		// O_TRUNC: a prior run's stream may end in a torn tail (the daemon
		// was killed); appending after it would turn crash damage readers
		// tolerate at the tail into mid-stream corruption they must report.
		f, err := os.OpenFile(filepath.Join(dir, spec.Name+".events.jsonl"),
			os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("serve: events stream for %s: %w", spec.Name, err)
		}
		t.events = telemetry.NewJSONLRecorder(f)
		t.sinks = append(t.sinks, t.events)
	}
	t.gate = &gateRecorder{next: t.sinks}
	return t, nil
}

// buildManager constructs a fresh manager from the spec, wired to the
// tenant's telemetry chain. With shed rules configured it also gets a fresh
// series store over a fresh registry, so replaying the decision log rebuilds
// the rules' state together with the manager's.
func (t *tenant) buildManager() (*core.Manager, *series.Store, error) {
	g, p, err := t.spec.build()
	if err != nil {
		return nil, nil, err
	}
	opts := t.spec.coreOptions()
	opts.Recorder = t.gate
	opts.Sequencer = t.seq
	if rules := t.srv.opts.ShedRules; len(rules) > 0 {
		opts.Series = series.NewStore(series.StoreOptions{Registry: telemetry.NewRegistry(), Rules: rules})
		opts.Metrics = opts.Series.Registry()
	}
	m, err := core.New(g, p, opts)
	if err != nil {
		// The manager's options come from the spec alone, so a rejection
		// is malformed input (e.g. an out-of-range guard band).
		return nil, nil, clientErrorf("%v", err)
	}
	return m, opts.Series, nil
}

// publishShedLocked records whether any shed rule is firing, for admission
// to read. Called with stMu held after each committed step and a restore.
func (t *tenant) publishShedLocked() {
	firing := false
	for _, a := range t.store.Alerts() {
		firing = firing || a.Firing
	}
	t.shedding.Store(firing)
}

// start launches the worker goroutine.
func (t *tenant) start() {
	go t.worker()
}

// halt stops the worker and waits for it to exit. Queued requests are failed
// with ErrClosed.
func (t *tenant) halt() {
	close(t.stop)
	<-t.done
	for {
		select {
		case req := <-t.queue:
			req.done <- stepDone{err: ErrClosed}
		default:
			return
		}
	}
}

// closeSinks flushes and closes the tenant's owned sinks (the JSONL stream)
// and returns the stream's first write error, so a full disk that truncated
// <name>.events.jsonl is reported, not lost. Callers that are already
// failing with an error of their own drop it.
func (t *tenant) closeSinks() error {
	if t.events == nil {
		return nil
	}
	if err := t.events.Close(); err != nil {
		return fmt.Errorf("serve: events stream for %s: %w", t.name, err)
	}
	return nil
}

func (t *tenant) worker() {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			return
		case req := <-t.queue:
			t.handle(req)
		}
	}
}

// handle runs one request with panic containment and breaker bookkeeping.
func (t *tenant) handle(req *stepReq) {
	var d stepDone
	func() {
		defer func() {
			if r := recover(); r != nil {
				d = stepDone{err: t.containPanic(r)}
			}
		}()
		d.reply, d.err = t.step(req)
	}()
	t.admMu.Lock()
	switch {
	case d.err == nil:
		t.brk.onSuccess()
	case isClientErr(d.err):
		// Malformed input is the caller's fault, not tenant ill-health;
		// a half-open probe it used up goes back, or no later step would
		// ever be admitted.
		t.releaseProbeLocked()
	case isPanicErr(d.err):
		// containPanic already opened the breaker with its own backoff.
	default:
		t.brk.onFailure(t.srv.now(), t.srv.opts.MaxFailures,
			t.srv.opts.BaseBackoff, t.srv.opts.MaxBackoff, t.rng)
	}
	t.admMu.Unlock()
	// Drain the event stream's write buffer after every request so a later
	// kill -9 loses at most the in-flight step's events — in particular,
	// tenant_panic records are durable the moment the caller sees the
	// outcome. JSONLRecorder.Flush is self-locking. Its error is sticky:
	// the tenant keeps it and stays degraded from then on, and closeSinks
	// returns it when the tenant is removed or the daemon closes.
	if t.events != nil {
		if err := t.events.Flush(); err != nil {
			t.stMu.Lock()
			if t.eventsErr == nil {
				t.eventsErr = err
			}
			t.status = "degraded"
			t.stMu.Unlock()
		}
	}
	req.done <- d
}

// step processes one instance on the worker goroutine.
func (t *tenant) step(req *stepReq) (StepReply, error) {
	// A request whose deadline expired while queued is refused before it
	// reaches the manager.
	if err := req.ctx.Err(); err != nil {
		t.srv.metrics.deadlineCancels.Inc()
		return StepReply{}, err
	}
	if t.srv.opts.Chaos {
		if req.chaos.DelayMS > 0 {
			t.srv.sleep(time.Duration(req.chaos.DelayMS) * time.Millisecond)
		}
		if req.chaos.Panic != "" {
			panic("chaos: " + req.chaos.Panic)
		}
	}
	t.stMu.Lock()
	defer t.stMu.Unlock()
	idx := len(t.log)
	res, err := t.mgr.StepCtx(req.ctx, req.decisions)
	if err != nil {
		// The step committed nothing: the manager, its store and the
		// event stream are as the last committed step left them.
		if isCtxErr(err) {
			t.srv.metrics.deadlineCancels.Inc()
			return StepReply{}, err
		}
		return StepReply{}, clientErrorf("step: %v", err)
	}
	t.log = append(t.log, append([]int(nil), req.decisions...))
	t.publishShedLocked()
	t.steps++
	if t.eventsErr == nil {
		t.status = "ok"
	}
	t.consecPanics = 0
	t.srv.metrics.steps.Inc()
	rep := StepReply{
		Tenant:       t.name,
		Instance:     idx,
		Scenario:     res.Instance.Scenario,
		Met:          res.Instance.DeadlineMet,
		Energy:       res.Instance.Energy,
		Makespan:     res.Instance.Makespan,
		Lateness:     res.Instance.Lateness,
		Rescheduled:  res.Rescheduled,
		FallbackUsed: res.FallbackUsed,
		GuardLevel:   res.GuardLevel,
		Degraded:     res.Degraded,
	}
	if every := t.srv.opts.CheckpointEvery; every > 0 && len(t.log)%every == 0 {
		t.checkpointLocked()
	}
	return rep, nil
}

// containPanic is the isolation boundary: the panicking request fails, the
// tenant is marked degraded and its breaker opens with an escalating backoff
// — the daemon and every sibling tenant never notice. A panic inside the
// manager unwound through its step's abort, so the engine state is the last
// committed step's and nothing is rebuilt. The tenant_panic event carries
// the backoff in Value (milliseconds) and names the last committed event as
// its Cause.
func (t *tenant) containPanic(r any) error {
	val := fmt.Sprint(r)
	t.srv.metrics.panics.Inc()
	t.stMu.Lock()
	defer t.stMu.Unlock()
	t.consecPanics++
	t.panics++
	t.status = "degraded"
	t.admMu.Lock()
	backoff := t.brk.open(t.srv.now(), t.srv.opts.BaseBackoff, t.srv.opts.MaxBackoff, t.rng)
	t.admMu.Unlock()
	t.emitLocked(telemetry.Event{
		Kind:     telemetry.KindTenantPanic,
		Seq:      t.seq.Next(),
		Cause:    t.tail.lastSeq(),
		Instance: len(t.log),
		Name:     t.name,
		Reason:   val,
		Level:    t.consecPanics,
		Value:    float64(backoff.Milliseconds()),
	})
	return &PanicError{Tenant: t.name, Value: val}
}

// rebuildLocked replaces the manager with a fresh one fast-forwarded through
// log; checkpoint restore is its one caller. The gate stays off from the fresh manager's initial schedule to the
// end of the replay, so already-recorded events are not re-delivered; the
// shared sequencer keeps advancing, so post-replay events never collide with
// pre-rebuild seqs.
func (t *tenant) rebuildLocked(log [][]int) error {
	t.gate.off = true
	defer func() { t.gate.off = false }()
	m, st, err := t.buildManager()
	if err != nil {
		return err
	}
	for i, v := range log {
		if _, err := m.Step(v); err != nil {
			return fmt.Errorf("replay instance %d: %w", i, err)
		}
	}
	// The replayed store reaches the rule state of the last committed step,
	// so the published shedding flag stays valid.
	t.mgr, t.store = m, st
	return nil
}

// checkpointLocked writes one atomic snapshot of the tenant.
func (t *tenant) checkpointLocked() error {
	dir := t.srv.opts.CheckpointDir
	if dir == "" {
		return nil
	}
	pay := &snapshotPayload{
		Name:       t.name,
		Spec:       t.spec,
		Vectors:    t.log,
		Instances:  len(t.log),
		Calls:      t.mgr.Calls(),
		GuardLevel: t.mgr.GuardLevel(),
		Digest:     digestHex(scheduleDigest(t.mgr)),
	}
	if err := writeSnapshot(snapshotPath(dir, t.name), pay); err != nil {
		return err
	}
	t.checkpoints++
	t.srv.metrics.checkpoints.Inc()
	t.emitLocked(telemetry.Event{
		Kind:     telemetry.KindCheckpoint,
		Seq:      t.seq.Next(),
		Instance: pay.Instances,
		Name:     t.name,
		Calls:    pay.Calls,
		Key:      pay.Digest,
	})
	return nil
}

// emitLocked records one serve-layer event directly to the post-gate sinks,
// so daemon lifecycle events are captured even while a replay is gated.
func (t *tenant) emitLocked(e telemetry.Event) {
	t.sinks.Record(e)
}

// admit runs the tenant's admission chain: circuit breaker, then token
// bucket, then rule shedding. Returns nil when the request may be enqueued.
func (t *tenant) admit() error {
	now := t.srv.now()
	t.admMu.Lock()
	if ok, retry := t.brk.admit(now); !ok {
		t.rejBreaker++
		t.admMu.Unlock()
		t.srv.metrics.rejBreaker.Inc()
		return &RejectionError{Tenant: t.name, Code: "breaker_open", Status: 503, RetryAfter: retry}
	}
	if ok, retry := t.bucket.admit(now); !ok {
		t.rejRate++
		t.releaseProbeLocked()
		t.admMu.Unlock()
		t.srv.metrics.rejRate.Inc()
		return &RejectionError{Tenant: t.name, Code: "rate_limited", Status: 429, RetryAfter: retry}
	}
	// While a shed rule fires, one probe step per BaseBackoff still runs so
	// the rule sees new samples and can resolve.
	base := t.srv.opts.BaseBackoff
	if t.shedding.Load() && now.Before(t.lastAdmit.Add(base)) {
		t.rejShed++
		t.releaseProbeLocked()
		t.admMu.Unlock()
		t.srv.metrics.rejShed.Inc()
		return &RejectionError{Tenant: t.name, Code: "slo_shed", Status: 503, RetryAfter: base}
	}
	t.lastAdmit = now
	t.admMu.Unlock()
	return nil
}

// releaseProbeLocked frees a half-open probe slot the breaker granted to a
// request that was then refused or never reached the worker: without this,
// the breaker would stay in probing state forever. Called with admMu held.
func (t *tenant) releaseProbeLocked() {
	if t.brk.state == brkHalfOpen {
		t.brk.probing = false
	}
}

// probeFailed releases a half-open probe slot that never reached the worker
// (enqueue failed).
func (t *tenant) probeFailed() {
	t.admMu.Lock()
	t.releaseProbeLocked()
	t.admMu.Unlock()
}

// TenantStatus is the externally visible state of one tenant.
type TenantStatus struct {
	Name         string `json:"name"`
	Status       string `json:"status"` // "ok", "degraded"
	Breaker      string `json:"breaker"`
	Instances    int    `json:"instances"`
	Calls        int    `json:"calls"`
	GuardLevel   int    `json:"guard_level"`
	Steps        int    `json:"steps"`
	Panics       int    `json:"panics"`
	Checkpoints  int    `json:"checkpoints"`
	Restored     bool   `json:"restored,omitempty"`
	RestoredFrom string `json:"restored_from,omitempty"`
	// EventsError is the first write error of the tenant's event stream; a
	// tenant with one stays "degraded".
	EventsError string `json:"events_error,omitempty"`
	QueueDepth  int    `json:"queue_depth"`
	QueueLen    int    `json:"queue_len"`

	RejectedRate    int `json:"rejected_rate,omitempty"`
	RejectedQueue   int `json:"rejected_queue,omitempty"`
	RejectedBreaker int `json:"rejected_breaker,omitempty"`
	RejectedShed    int `json:"rejected_shed,omitempty"`

	Digest string `json:"digest"`
}

// statusSnapshot assembles the tenant's externally visible state.
func (t *tenant) statusSnapshot() TenantStatus {
	t.stMu.Lock()
	st := TenantStatus{
		Name:         t.name,
		Status:       t.status,
		Instances:    len(t.log),
		Calls:        t.mgr.Calls(),
		GuardLevel:   t.mgr.GuardLevel(),
		Steps:        t.steps,
		Panics:       t.panics,
		Checkpoints:  t.checkpoints,
		Restored:     t.restored,
		RestoredFrom: t.restoredFrom,
		QueueDepth:   cap(t.queue),
		QueueLen:     len(t.queue),
		Digest:       digestHex(scheduleDigest(t.mgr)),
	}
	if t.eventsErr != nil {
		st.EventsError = t.eventsErr.Error()
	}
	t.stMu.Unlock()
	t.admMu.Lock()
	st.Breaker = breakerStateName(t.brk.state)
	st.RejectedRate = t.rejRate
	st.RejectedQueue = t.rejQueue
	st.RejectedBreaker = t.rejBreaker
	st.RejectedShed = t.rejShed
	t.admMu.Unlock()
	return st
}

// isPanicErr reports whether err is a contained-panic error.
func isPanicErr(err error) bool {
	_, ok := err.(*PanicError)
	return ok
}

// fnvString is a tiny FNV-1a over a string for seed derivation.
func fnvString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

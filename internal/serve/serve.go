// Package serve hosts many per-tenant adaptive scheduling managers
// (core.Manager) behind an HTTP/JSON API — the resilient multi-tenant
// daemon layer of the framework.
//
// Each tenant owns a single worker goroutine (core.Manager is single-caller
// by contract), a bounded request queue, private admission state (token
// bucket + circuit breaker), a private telemetry chain, and an append-only
// decision log. A manager step is a transaction: a contained panic or a
// deadline-cancelled step commits nothing, so the tenant simply goes on. The
// log serves checkpoint/restore: because the engine is deterministic,
// replaying it rebuilds the exact manager state after a daemon kill-restart.
// Admission control rejects with typed, retryable errors before any engine
// state is touched, so an overloaded or failing tenant degrades alone — the
// daemon and its siblings keep their schedules and their latency.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// Sentinel errors of the daemon API.
var (
	// ErrUnknownTenant reports a request naming a tenant the daemon does not
	// host (HTTP 404).
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrClosed reports a request arriving during/after shutdown (HTTP 503).
	ErrClosed = errors.New("serve: server closed")
	// ErrDuplicateTenant reports a submit for a name already hosted.
	ErrDuplicateTenant = errors.New("serve: tenant already exists")
)

// isCtxErr reports whether err is a context cancellation or deadline expiry.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Options configures a Server. The zero value is a working in-memory daemon:
// no checkpointing, no rate limits, no default deadline.
type Options struct {
	// CheckpointDir, when non-empty, enables checkpoint/restore: tenants
	// snapshot atomically into <dir>/<name>.ckpt and New resumes every
	// tenant found there.
	CheckpointDir string
	// CheckpointEvery snapshots a tenant after every N successful steps
	// (plus once at creation). 0 disables periodic snapshots (explicit
	// POST /checkpoint still works when CheckpointDir is set).
	CheckpointEvery int

	// QueueDepth bounds each tenant's request queue; a full queue rejects
	// with queue_full (503). 0 selects 16.
	QueueDepth int
	// Rate is the per-tenant steady request rate (requests/second) enforced
	// by a token bucket; 0 disables rate limiting. Burst is the bucket
	// capacity (0 selects max(1, Rate)).
	Rate  float64
	Burst float64

	// DefaultTimeout is the deadline applied to step requests that arrive
	// without one; 0 leaves them unbounded. MaxTimeout, when > 0, clamps
	// every step deadline (caller-supplied or default) to at most this.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxFailures consecutive non-client step failures open a tenant's
	// circuit breaker (0 selects 5); the open period starts at BaseBackoff
	// (0 selects 50ms), doubles per re-trip, and is capped at MaxBackoff
	// (0 selects 5s). A worker panic opens the breaker immediately.
	MaxFailures int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// ShedRules, when non-empty, gives every tenant's manager its own
	// series store (over a private registry) that evaluates these rules
	// after each step. While any rule fires, the tenant sheds new work
	// (503 slo_shed) but admits one probe step per BaseBackoff, so the
	// rules see fresh samples and can resolve. Firings land in the
	// tenant's event stream.
	ShedRules []series.Rule

	// FlightWindow is each tenant's flight-recorder capacity (≤ 0 selects
	// the recorder's default, 256).
	FlightWindow int
	// EventsDir, when non-empty, streams each tenant's telemetry to
	// <dir>/<name>.events.jsonl (truncated at creation/restore so a prior
	// run's torn tail never becomes mid-stream corruption).
	EventsDir string

	// Chaos enables per-request fault injection (ChaosSpec); production
	// daemons leave it off and the fields are ignored.
	Chaos bool
	// Seed derives per-tenant jitter RNGs, keeping chaos runs reproducible.
	Seed int64

	// Metrics, when non-nil, is the registry the daemon publishes "serve.*"
	// metrics to; nil gives the server a private registry.
	Metrics *telemetry.Registry

	// Now and Sleep override the clock for tests (nil selects the real one).
	Now   func() time.Time
	Sleep func(time.Duration)
}

func (o *Options) applyDefaults() {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.Burst <= 0 {
		o.Burst = o.Rate
		if o.Burst < 1 {
			o.Burst = 1
		}
	}
	if o.MaxFailures <= 0 {
		o.MaxFailures = 5
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
}

// serverMetrics holds the daemon's registry handles.
type serverMetrics struct {
	requests        *telemetry.Counter
	steps           *telemetry.Counter
	rejRate         *telemetry.Counter
	rejQueue        *telemetry.Counter
	rejBreaker      *telemetry.Counter
	rejShed         *telemetry.Counter
	deadlineCancels *telemetry.Counter
	panics          *telemetry.Counter
	checkpoints     *telemetry.Counter
	restores        *telemetry.Counter
	tenantsGauge    *telemetry.Gauge
	stepUS          *telemetry.HistogramMetric
}

func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	return serverMetrics{
		requests:        reg.Counter("serve.requests"),
		steps:           reg.Counter("serve.steps"),
		rejRate:         reg.Counter("serve.rejected_rate"),
		rejQueue:        reg.Counter("serve.rejected_queue"),
		rejBreaker:      reg.Counter("serve.rejected_breaker"),
		rejShed:         reg.Counter("serve.rejected_slo"),
		deadlineCancels: reg.Counter("serve.deadline_cancels"),
		panics:          reg.Counter("serve.panics"),
		checkpoints:     reg.Counter("serve.checkpoints"),
		restores:        reg.Counter("serve.restores"),
		tenantsGauge:    reg.Gauge("serve.tenants"),
		stepUS:          reg.Histogram("serve.step_us", 0, 1e6, 64),
	}
}

// Server is the multi-tenant daemon.
type Server struct {
	opts    Options
	reg     *telemetry.Registry
	metrics serverMetrics
	now     func() time.Time
	sleep   func(time.Duration)

	mu      sync.RWMutex
	tenants map[string]*tenant
	// createMu serializes CreateTenant, so the duplicate-name check and the
	// new tenant's side effects (truncating its event stream) cannot
	// interleave with another submit of the same name.
	createMu sync.Mutex

	closed atomic.Bool
}

// New builds a Server and, when CheckpointDir holds snapshots, restores every
// tenant found there (replaying each decision log with telemetry gated off
// and verifying the rebuilt state bit-for-bit against the snapshot's digest)
// before any request can be admitted.
func New(opts Options) (*Server, error) {
	opts.applyDefaults()
	if err := (series.RuleSet{Rules: opts.ShedRules}).Validate(); err != nil {
		return nil, fmt.Errorf("serve: shed rules: %w", err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		opts:    opts,
		reg:     reg,
		metrics: newServerMetrics(reg),
		now:     opts.Now,
		sleep:   opts.Sleep,
		tenants: make(map[string]*tenant),
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
		if err := s.restoreAll(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// restoreAll resumes every tenant snapshotted in CheckpointDir. A tenant is
// found by either generation: a kill between rotating <name>.ckpt to
// <name>.ckpt.prev and renaming the new snapshot into place leaves only the
// .prev file.
func (s *Server) restoreAll() error {
	entries, err := os.ReadDir(s.opts.CheckpointDir)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	var names []string
	for _, e := range entries {
		n, ok := strings.CutSuffix(e.Name(), snapshotPrevExt)
		if !ok {
			n, ok = strings.CutSuffix(e.Name(), snapshotExt)
		}
		if ok && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		t, _, err := s.restoreTenant(snapshotPath(s.opts.CheckpointDir, n))
		if err != nil {
			return err
		}
		s.tenants[t.name] = t
		s.metrics.restores.Inc()
		t.start()
	}
	s.metrics.tenantsGauge.Set(float64(len(s.tenants)))
	return nil
}

// restoreTenant resumes one tenant from its snapshot file, falling back to
// the previous generation when the primary is torn, corrupt, or diverges on
// replay.
func (s *Server) restoreTenant(path string) (*tenant, string, error) {
	pay, usedPrev, primaryErr := loadSnapshotWithFallback(path)
	if pay == nil {
		return nil, "", primaryErr
	}
	from := "ok"
	if usedPrev {
		from = "fallback"
	}
	t, err := s.buildFromPayload(pay, from)
	if err != nil && !usedPrev {
		// The primary loaded cleanly but diverged on replay — try the
		// previous generation before giving up.
		if prev, perr := loadSnapshot(path + ".prev"); perr == nil {
			if t2, err2 := s.buildFromPayload(prev, "fallback"); err2 == nil {
				return t2, "fallback", nil
			}
		}
		return nil, "", err
	}
	if err != nil {
		return nil, "", err
	}
	return t, from, nil
}

// buildFromPayload rebuilds one tenant from a verified snapshot payload: a
// fresh manager fast-forwarded through the snapshot's decision log with
// telemetry gated off, then checked instance-count, call-count, guard-level
// and schedule-digest against the values captured at snapshot time.
func (s *Server) buildFromPayload(pay *snapshotPayload, from string) (*tenant, error) {
	t, err := newTenant(s, pay.Spec)
	if err != nil {
		return nil, err
	}
	if err := t.rebuildLocked(pay.Vectors); err != nil {
		t.closeSinks()
		return nil, &SnapshotError{Path: pay.Name, Reason: "rebuild failed", Err: err}
	}
	t.log = append(t.log, pay.Vectors...)
	t.publishShedLocked()
	if got := t.mgr.Instances(); got != pay.Instances {
		t.closeSinks()
		return nil, &SnapshotError{Path: pay.Name,
			Reason: fmt.Sprintf("replay divergence: %d instances, snapshot says %d", got, pay.Instances)}
	}
	if got := t.mgr.Calls(); got != pay.Calls {
		t.closeSinks()
		return nil, &SnapshotError{Path: pay.Name,
			Reason: fmt.Sprintf("replay divergence: %d calls, snapshot says %d", got, pay.Calls)}
	}
	if got := t.mgr.GuardLevel(); got != pay.GuardLevel {
		t.closeSinks()
		return nil, &SnapshotError{Path: pay.Name,
			Reason: fmt.Sprintf("replay divergence: guard level %d, snapshot says %d", got, pay.GuardLevel)}
	}
	if got := digestHex(scheduleDigest(t.mgr)); got != pay.Digest {
		t.closeSinks()
		return nil, &SnapshotError{Path: pay.Name,
			Reason: fmt.Sprintf("replay divergence: schedule digest %s, snapshot says %s", got, pay.Digest)}
	}
	t.restored = true
	t.restoredFrom = from
	t.emitLocked(telemetry.Event{
		Kind:     telemetry.KindRestore,
		Seq:      t.seq.Next(),
		Instance: pay.Instances,
		Name:     t.name,
		Key:      pay.Digest,
		Reason:   from,
	})
	return t, nil
}

// CreateTenant admits a new tenant and starts its worker. When checkpointing
// is enabled an initial snapshot is written immediately, so a daemon killed
// before the first periodic checkpoint still restores the tenant.
func (s *Server) CreateTenant(spec TenantSpec) (TenantStatus, error) {
	if s.closed.Load() {
		return TenantStatus{}, ErrClosed
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	// Reject a duplicate before newTenant opens (and truncates) the live
	// tenant's event stream.
	s.mu.RLock()
	_, dup := s.tenants[spec.Name]
	s.mu.RUnlock()
	if dup {
		return TenantStatus{}, fmt.Errorf("%w: %s", ErrDuplicateTenant, spec.Name)
	}
	t, err := newTenant(s, spec)
	if err != nil {
		return TenantStatus{}, err
	}
	if t.mgr, t.store, err = t.buildManager(); err != nil {
		t.closeSinks()
		return TenantStatus{}, err
	}
	s.mu.Lock()
	s.tenants[spec.Name] = t
	s.metrics.tenantsGauge.Set(float64(len(s.tenants)))
	s.mu.Unlock()
	t.stMu.Lock()
	t.checkpointLocked()
	t.stMu.Unlock()
	t.start()
	return t.statusSnapshot(), nil
}

// RemoveTenant stops and forgets a tenant, deleting its snapshots so it does
// not resurrect at the next daemon start.
func (s *Server) RemoveTenant(name string) error {
	s.mu.Lock()
	t, ok := s.tenants[name]
	if ok {
		delete(s.tenants, name)
		s.metrics.tenantsGauge.Set(float64(len(s.tenants)))
	}
	s.mu.Unlock()
	if !ok {
		return ErrUnknownTenant
	}
	t.halt()
	t.closeSinks()
	if dir := s.opts.CheckpointDir; dir != "" {
		p := snapshotPath(dir, name)
		os.Remove(p)
		os.Remove(p + ".prev")
	}
	return nil
}

// tenant looks one tenant up.
func (s *Server) tenant(name string) (*tenant, error) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrUnknownTenant
	}
	return t, nil
}

// Tenants lists every hosted tenant's status, sorted by name.
func (s *Server) Tenants() []TenantStatus {
	s.mu.RLock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	out := make([]TenantStatus, len(ts))
	for i, t := range ts {
		out[i] = t.statusSnapshot()
	}
	return out
}

// wrapCtx applies the daemon's default/maximum step deadline.
func (s *Server) wrapCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	d, has := ctx.Deadline()
	switch {
	case !has && s.opts.DefaultTimeout > 0:
		return context.WithTimeout(ctx, s.opts.DefaultTimeout)
	case s.opts.MaxTimeout > 0 && (!has || time.Until(d) > s.opts.MaxTimeout):
		return context.WithTimeout(ctx, s.opts.MaxTimeout)
	}
	return ctx, func() {}
}

// Step submits one decision vector to a tenant and waits for the outcome (or
// the context). The full resilience chain runs in order: closed check, tenant
// lookup, breaker, rate limit, rule shed, bounded enqueue — every rejection is
// typed and happens before any engine state is touched.
func (s *Server) Step(ctx context.Context, name string, decisions []int, chaos ChaosSpec) (StepReply, error) {
	if s.closed.Load() {
		return StepReply{}, ErrClosed
	}
	t, err := s.tenant(name)
	if err != nil {
		return StepReply{}, err
	}
	s.metrics.requests.Inc()
	if err := t.admit(); err != nil {
		return StepReply{}, err
	}
	ctx, cancel := s.wrapCtx(ctx)
	defer cancel()
	req := &stepReq{ctx: ctx, decisions: decisions, chaos: chaos, done: make(chan stepDone, 1)}
	select {
	case t.queue <- req:
	default:
		t.probeFailed()
		t.admMu.Lock()
		t.rejQueue++
		t.admMu.Unlock()
		s.metrics.rejQueue.Inc()
		return StepReply{}, &RejectionError{Tenant: name, Code: "queue_full", Status: 503,
			RetryAfter: s.opts.BaseBackoff}
	}
	start := s.now()
	select {
	case d := <-req.done:
		s.metrics.stepUS.Observe(float64(s.now().Sub(start).Microseconds()))
		return d.reply, d.err
	case <-ctx.Done():
		// The worker observes the same context: if it already started the
		// step it cancels at the next pipeline checkpoint, committing
		// nothing; if the request is still queued it refuses it on dequeue.
		// Either way the buffered done channel never blocks it.
		return StepReply{}, ctx.Err()
	case <-t.stop:
		// The tenant halted between enqueue and service (daemon shutdown or
		// removal); halt fails the drained queue, but the stop select keeps
		// this caller from waiting on a reply that will never come.
		return StepReply{}, ErrClosed
	}
}

// Checkpoint forces a snapshot of one tenant now.
func (s *Server) Checkpoint(name string) (TenantStatus, error) {
	t, err := s.tenant(name)
	if err != nil {
		return TenantStatus{}, err
	}
	if s.opts.CheckpointDir == "" {
		return TenantStatus{}, clientErrorf("checkpointing is disabled (no -checkpoint-dir)")
	}
	t.stMu.Lock()
	err = t.checkpointLocked()
	t.stMu.Unlock()
	if err != nil {
		return TenantStatus{}, err
	}
	return t.statusSnapshot(), nil
}

// ScheduleReply is the externally visible incumbent schedule of a tenant.
type ScheduleReply struct {
	Tenant    string    `json:"tenant"`
	Instances int       `json:"instances"`
	Calls     int       `json:"calls"`
	Makespan  float64   `json:"makespan"`
	PE        []int     `json:"pe"`
	Start     []float64 `json:"start"`
	Speed     []float64 `json:"speed"`
	Digest    string    `json:"digest"`
}

// Schedule returns a tenant's incumbent schedule.
func (s *Server) Schedule(name string) (ScheduleReply, error) {
	t, err := s.tenant(name)
	if err != nil {
		return ScheduleReply{}, err
	}
	t.stMu.Lock()
	defer t.stMu.Unlock()
	sch := t.mgr.Schedule()
	rep := ScheduleReply{
		Tenant:    name,
		Instances: len(t.log),
		Calls:     t.mgr.Calls(),
		Digest:    digestHex(scheduleDigest(t.mgr)),
	}
	if sch != nil {
		rep.Makespan = sch.Makespan
		rep.PE = append([]int(nil), sch.PE...)
		rep.Start = append([]float64(nil), sch.Start...)
		rep.Speed = append([]float64(nil), sch.Speed...)
	}
	return rep, nil
}

// DumpEvents writes a tenant's flight-recorder window (most recent telemetry)
// as JSONL.
func (s *Server) DumpEvents(name string, w interface{ Write([]byte) (int, error) }) error {
	t, err := s.tenant(name)
	if err != nil {
		return err
	}
	return t.flight.DumpTo(w)
}

// DaemonHealth is the daemon-level health report: per-tenant status plus the
// serving totals.
type DaemonHealth struct {
	Status  string         `json:"status"` // "ok", or "degraded" when any tenant is
	Tenants []TenantStatus `json:"tenants"`

	Requests        int64 `json:"requests"`
	Steps           int64 `json:"steps"`
	Rejected        int64 `json:"rejected"`
	DeadlineCancels int64 `json:"deadline_cancels"`
	Panics          int64 `json:"panics"`
	Checkpoints     int64 `json:"checkpoints"`
	Restores        int64 `json:"restores"`
}

// Health assembles the daemon health report.
func (s *Server) Health() DaemonHealth {
	h := DaemonHealth{
		Status:          "ok",
		Tenants:         s.Tenants(),
		Requests:        s.metrics.requests.Value(),
		Steps:           s.metrics.steps.Value(),
		DeadlineCancels: s.metrics.deadlineCancels.Value(),
		Panics:          s.metrics.panics.Value(),
		Checkpoints:     s.metrics.checkpoints.Value(),
		Restores:        s.metrics.restores.Value(),
	}
	h.Rejected = s.metrics.rejRate.Value() + s.metrics.rejQueue.Value() +
		s.metrics.rejBreaker.Value() + s.metrics.rejShed.Value()
	for _, t := range h.Tenants {
		if t.Status != "ok" {
			h.Status = "degraded"
			break
		}
	}
	return h
}

// Close shuts the daemon down gracefully: no new admissions, workers drained
// and stopped, a final checkpoint per tenant, telemetry flushed.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	var first error
	for _, t := range ts {
		t.halt()
		t.stMu.Lock()
		if err := t.checkpointLocked(); err != nil && first == nil {
			first = err
		}
		t.stMu.Unlock()
		t.closeSinks()
	}
	return first
}

// Abandon simulates a crash for the chaos harness: workers stop so goroutines
// do not leak into the test, but nothing is checkpointed or flushed — exactly
// the state a kill -9 leaves behind. Restore must cope using only what was
// already durably on disk.
func (s *Server) Abandon() {
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.halt()
	}
}

// Handler returns the daemon's HTTP API.
//
//	POST   /v1/tenants                    submit a TenantSpec
//	GET    /v1/tenants                    list tenant statuses
//	GET    /v1/tenants/{name}             one tenant's status
//	DELETE /v1/tenants/{name}             remove a tenant
//	POST   /v1/tenants/{name}/step        {"decisions":[...],"chaos":{...}}
//	GET    /v1/tenants/{name}/schedule    incumbent schedule + digest
//	GET    /v1/tenants/{name}/events      flight-recorder window (JSONL)
//	POST   /v1/tenants/{name}/checkpoint  force a snapshot
//	GET    /v1/healthz                    daemon health report
//	GET    /v1/metrics                    metrics registry (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		var spec TenantSpec
		if err := decodeBody(w, r, maxSubmitBody, "spec", &spec); err != nil {
			writeError(w, err)
			return
		}
		st, err := s.CreateTenant(spec)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, s.Tenants())
	})
	mux.HandleFunc("GET /v1/tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		t, err := s.tenant(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, t.statusSnapshot())
	})
	mux.HandleFunc("DELETE /v1/tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.RemoveTenant(r.PathValue("name")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/tenants/{name}/step", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Decisions []int     `json:"decisions"`
			Chaos     ChaosSpec `json:"chaos"`
		}
		if err := decodeBody(w, r, maxStepBody, "step", &body); err != nil {
			writeError(w, err)
			return
		}
		rep, err := s.Step(r.Context(), r.PathValue("name"), body.Decisions, body.Chaos)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, rep)
	})
	mux.HandleFunc("GET /v1/tenants/{name}/schedule", func(w http.ResponseWriter, r *http.Request) {
		rep, err := s.Schedule(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, rep)
	})
	mux.HandleFunc("GET /v1/tenants/{name}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := s.DumpEvents(r.PathValue("name"), w); err != nil {
			writeError(w, err)
		}
	})
	mux.HandleFunc("POST /v1/tenants/{name}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Checkpoint(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, s.Health())
	})
	mux.Handle("GET /v1/metrics", s.reg)
	return mux
}

// Request body caps. A step body is one decision vector; a submit body may
// carry an inline CTG, and the largest one the repository generates (the
// 10^4-task, 64-PE scale workload) renders to about 25 MB of ctgio text.
const (
	maxStepBody   = 1 << 20
	maxSubmitBody = 64 << 20
)

// decodeBody decodes a JSON request body of at most limit bytes. A body over
// the limit returns the *http.MaxBytesError itself (413 body_too_large); any
// other decode failure is a client error (400).
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooLarge *http.MaxBytesError
	if err == nil || errors.As(err, &tooLarge) {
		return err
	}
	return clientErrorf("decode %s: %v", what, err)
}

// NewHTTPServer wraps a handler in an http.Server with hardened limits: a
// client that trickles headers, never reads its response, or ships unbounded
// header blocks cannot pin a connection (or its goroutine) forever.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
}

// writeJSON encodes v to w (headers/status must already be written).
func writeJSON(w interface{ Write([]byte) (int, error) }, v any) {
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

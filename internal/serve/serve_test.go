package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/ctgio"
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// testVectors generates n deterministic decision vectors for the mpeg CTG.
func testVectors(t testing.TB, n int) [][]int {
	t.Helper()
	g, _, err := mpeg.Build()
	if err != nil {
		t.Fatalf("mpeg.Build: %v", err)
	}
	return trace.Fluctuating(g, 7, n, 0.4)
}

// mpegSpec is the standard test tenant: tight deadline, near-zero drift
// threshold so almost every step reschedules (exercising the full pipeline).
func mpegSpec(name string) TenantSpec {
	return TenantSpec{Name: name, Workload: "mpeg", DeadlineFactor: 1.6, Threshold: 1e-9}
}

func mustServer(t testing.TB, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustCreate(t testing.TB, s *Server, spec TenantSpec) {
	t.Helper()
	if _, err := s.CreateTenant(spec); err != nil {
		t.Fatalf("CreateTenant(%s): %v", spec.Name, err)
	}
}

func TestAPIRoundTrip(t *testing.T) {
	s := mustServer(t, Options{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	cl := &Client{BaseURL: hs.URL}
	ctx := context.Background()

	st, err := cl.Submit(ctx, mpegSpec("vid0"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Name != "vid0" || st.Status != "ok" {
		t.Fatalf("unexpected status after submit: %+v", st)
	}
	vecs := testVectors(t, 20)
	for i, v := range vecs {
		rep, err := cl.Step(ctx, "vid0", v, ChaosSpec{})
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		if rep.Instance != i {
			t.Fatalf("Step %d: instance %d", i, rep.Instance)
		}
		if rep.Makespan <= 0 {
			t.Fatalf("Step %d: non-positive makespan %v", i, rep.Makespan)
		}
	}
	sch, err := cl.Schedule(ctx, "vid0")
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(sch.PE) == 0 || sch.Digest == "" || sch.Instances != len(vecs) {
		t.Fatalf("unexpected schedule reply: %+v", sch)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || h.Steps != int64(len(vecs)) {
		t.Fatalf("unexpected health: %+v", h)
	}

	// Typed 404 for an unknown tenant, 400 for a malformed vector.
	if _, err := cl.StepOnce(ctx, "nope", vecs[0], ChaosSpec{}); err == nil {
		t.Fatal("expected 404 for unknown tenant")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != 404 {
		t.Fatalf("want 404 APIError, got %v", err)
	}
	if _, err := cl.StepOnce(ctx, "vid0", []int{1}, ChaosSpec{}); err == nil {
		t.Fatal("expected 400 for short vector")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != 400 {
		t.Fatalf("want 400 APIError, got %v", err)
	}
}

func TestRateLimitRejectsWithRetryAfter(t *testing.T) {
	s := mustServer(t, Options{Rate: 1, Burst: 1})
	mustCreate(t, s, mpegSpec("a"))
	vecs := testVectors(t, 2)
	ctx := context.Background()
	if _, err := s.Step(ctx, "a", vecs[0], ChaosSpec{}); err != nil {
		t.Fatalf("first step should pass the bucket: %v", err)
	}
	_, err := s.Step(ctx, "a", vecs[1], ChaosSpec{})
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Code != "rate_limited" || rej.Status != 429 {
		t.Fatalf("want rate_limited 429, got %v", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("want positive RetryAfter, got %v", rej.RetryAfter)
	}
}

// TestRefusedProbeFreesBreaker checks a half-open breaker's probe slot is
// freed when a later admission stage refuses the probe request: the next
// request may probe, instead of the breaker refusing everything forever.
func TestRefusedProbeFreesBreaker(t *testing.T) {
	now := time.Unix(1000, 0)
	s := mustServer(t, Options{Chaos: true, Rate: 1, Burst: 1, Now: func() time.Time { return now }})
	mustCreate(t, s, mpegSpec("a"))
	v := testVectors(t, 1)[0]
	ctx := context.Background()
	if _, err := s.Step(ctx, "a", v, ChaosSpec{Panic: "boom"}); !isPanicErr(err) {
		t.Fatalf("want PanicError, got %v", err)
	}
	now = now.Add(100 * time.Millisecond) // breaker half-open, bucket still empty
	var rej *RejectionError
	if _, err := s.Step(ctx, "a", v, ChaosSpec{}); !errors.As(err, &rej) || rej.Code != "rate_limited" {
		t.Fatalf("want rate_limited, got %v", err)
	}
	now = now.Add(2 * time.Second) // bucket refilled
	if _, err := s.Step(ctx, "a", v, ChaosSpec{}); err != nil {
		t.Fatalf("probe after the refill: %v", err)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := mustServer(t, Options{QueueDepth: 1, Chaos: true})
	mustCreate(t, s, mpegSpec("a"))
	vecs := testVectors(t, 1)
	ctx := context.Background()

	// Occupy the worker with a slow chaos step, then flood concurrently: the
	// depth-1 queue takes one request and the rest must be rejected with the
	// typed queue_full error (not blocked, not dropped silently).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Step(ctx, "a", vecs[0], ChaosSpec{DelayMS: 500})
	}()
	time.Sleep(100 * time.Millisecond) // let the slow step reach the worker
	const flood = 8
	errs := make(chan error, flood)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Step(ctx, "a", vecs[0], ChaosSpec{})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	full := 0
	for err := range errs {
		var rej *RejectionError
		if errors.As(err, &rej) && rej.Code == "queue_full" {
			if rej.Status != 503 {
				t.Fatalf("queue_full status %d, want 503", rej.Status)
			}
			full++
		}
	}
	if full == 0 {
		t.Fatal("flood against a busy depth-1 queue produced no queue_full rejections")
	}
}

func TestPanicIsContainedAndBreakerOpens(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := mustServer(t, Options{Chaos: true, BaseBackoff: 100 * time.Millisecond, Now: clock})
	mustCreate(t, s, mpegSpec("a"))
	vecs := testVectors(t, 4)
	ctx := context.Background()

	_, err := s.Step(ctx, "a", vecs[0], ChaosSpec{Panic: "boom"})
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(pe.Value, "boom") {
		t.Fatalf("want contained PanicError, got %v", err)
	}

	// The breaker is now open: immediate retry is rejected with a hint.
	_, err = s.Step(ctx, "a", vecs[0], ChaosSpec{})
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Code != "breaker_open" {
		t.Fatalf("want breaker_open, got %v", err)
	}

	// After the backoff expires the half-open probe is admitted and, on
	// success, the breaker closes.
	now = now.Add(time.Second)
	if _, err := s.Step(ctx, "a", vecs[0], ChaosSpec{}); err != nil {
		t.Fatalf("post-backoff probe: %v", err)
	}
	if _, err := s.Step(ctx, "a", vecs[1], ChaosSpec{}); err != nil {
		t.Fatalf("post-probe step: %v", err)
	}

	st := s.Tenants()[0]
	if st.Panics != 1 || st.Instances != 2 {
		t.Fatalf("want 1 panic and 2 instances, got %+v", st)
	}

	// The panic is on the telemetry stream with provenance: a tenant_panic
	// event carrying the panic value and the served backoff, caused by the
	// last committed event (the initial reschedule: no step had run).
	var buf bytes.Buffer
	if err := s.DumpEvents("a", &buf); err != nil {
		t.Fatalf("DumpEvents: %v", err)
	}
	evs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	var panics []telemetry.Event
	for i, e := range evs {
		if e.Kind != telemetry.KindTenantPanic {
			continue
		}
		panics = append(panics, e)
		if i == 0 || e.Cause != evs[i-1].Seq || evs[i-1].Kind != telemetry.KindReschedule {
			t.Fatalf("tenant_panic does not name the last committed event: %+v", e)
		}
	}
	if len(panics) != 1 {
		t.Fatalf("%d tenant_panic events, want 1", len(panics))
	}
	if e := panics[0]; !strings.Contains(e.Reason, "boom") || e.Seq == 0 || e.Value <= 0 {
		t.Fatalf("bad tenant_panic event: %+v", e)
	}
}

// TestClientErrorProbeReleasesBreaker pins the half-open probe bookkeeping:
// a probe that ends in a client error (a malformed step, 400) must hand its
// slot back, so the next well-formed step is served instead of being
// rejected breaker_open for good.
func TestClientErrorProbeReleasesBreaker(t *testing.T) {
	now := time.Unix(1000, 0)
	s := mustServer(t, Options{Chaos: true, BaseBackoff: 100 * time.Millisecond,
		Now: func() time.Time { return now }})
	mustCreate(t, s, mpegSpec("a"))
	vecs := testVectors(t, 2)
	ctx := context.Background()

	if _, err := s.Step(ctx, "a", vecs[0], ChaosSpec{Panic: "boom"}); !isPanicErr(err) {
		t.Fatalf("want PanicError, got %v", err)
	}
	now = now.Add(time.Second) // the backoff expires: the next step is the probe
	if _, err := s.Step(ctx, "a", []int{}, ChaosSpec{}); !isClientErr(err) {
		t.Fatalf("probe with no decisions: want a client error, got %v", err)
	}
	for i, v := range vecs {
		if _, err := s.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("well-formed step %d after the failed probe: %v", i, err)
		}
	}
	if st := s.Tenants()[0]; st.Instances != 2 || st.Breaker != "closed" {
		t.Fatalf("want 2 instances and a closed breaker, got %+v", st)
	}
}

// TestPanicIsolationAcrossTenants drives a victim tenant to repeated panics
// while a sibling processes the same workload as an undisturbed baseline; the
// sibling's replies must be bit-for-bit identical and the victim's state must
// be rebuilt deterministically (its final digest matches a never-panicked
// run of the same committed steps).
func TestPanicIsolationAcrossTenants(t *testing.T) {
	now := time.Unix(1000, 0)
	s := mustServer(t, Options{Chaos: true, Now: func() time.Time { return now }})
	mustCreate(t, s, mpegSpec("victim"))
	mustCreate(t, s, mpegSpec("sibling"))

	base := mustServer(t, Options{})
	mustCreate(t, base, mpegSpec("victim"))
	mustCreate(t, base, mpegSpec("sibling"))

	vecs := testVectors(t, 30)
	ctx := context.Background()
	for i, v := range vecs {
		if i%7 == 3 {
			if _, err := s.Step(ctx, "victim", v, ChaosSpec{Panic: "chaos"}); !isPanicErr(err) {
				t.Fatalf("step %d: want PanicError, got %v", i, err)
			}
			now = now.Add(10 * time.Second) // let the backoff expire
		}
		got, err := s.Step(ctx, "victim", v, ChaosSpec{})
		if err != nil {
			t.Fatalf("victim step %d: %v", i, err)
		}
		want, err := base.Step(ctx, "victim", v, ChaosSpec{})
		if err != nil {
			t.Fatalf("baseline victim step %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("victim step %d diverged after panics:\n got %+v\nwant %+v", i, got, want)
		}

		got, err = s.Step(ctx, "sibling", v, ChaosSpec{})
		if err != nil {
			t.Fatalf("sibling step %d: %v", i, err)
		}
		want, err = base.Step(ctx, "sibling", v, ChaosSpec{})
		if err != nil {
			t.Fatalf("baseline sibling step %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("sibling step %d diverged (cross-tenant interference):\n got %+v\nwant %+v", i, got, want)
		}
	}
	// Final state digests agree with the baseline daemon's.
	for _, name := range []string{"victim", "sibling"} {
		gs, _ := s.Schedule(name)
		ws, _ := base.Schedule(name)
		if gs.Digest != ws.Digest {
			t.Fatalf("%s: digest %s != baseline %s", name, gs.Digest, ws.Digest)
		}
	}
}

// fakeCtx is a context whose Err flips to context.DeadlineExceeded after a
// fixed number of polls — deterministic mid-pipeline cancellation.
type fakeCtx struct {
	mu    sync.Mutex
	polls int
	fuse  int
}

func (c *fakeCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.polls > c.fuse {
		return context.DeadlineExceeded
	}
	return nil
}
func (c *fakeCtx) Done() <-chan struct{}       { return nil }
func (c *fakeCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *fakeCtx) Value(any) any               { return nil }

// TestDeadlineCancelLeavesNoTrace cancels a step mid-pipeline and retries
// it: the cancelled attempt commits nothing, so the live stream holds exactly
// one instance_start and one instance_finish per instance, and the replies
// and digest match an undisturbed daemon's.
func TestDeadlineCancelLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s := mustServer(t, Options{EventsDir: dir})
	base := mustServer(t, Options{})
	mustCreate(t, s, mpegSpec("a"))
	mustCreate(t, base, mpegSpec("a"))
	vecs := testVectors(t, 20)
	ctx := context.Background()
	for i, v := range vecs[:10] {
		if _, err := s.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("warmup step %d: %v", i, err)
		}
		if _, err := base.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("baseline step %d: %v", i, err)
		}
	}
	// Cancel mid-pipeline: the fuse admits the pre-Step checks, then trips
	// inside the reschedule pipeline (threshold 1e-9 makes every step
	// reschedule).
	fc := &fakeCtx{fuse: 4}
	_, err := s.Step(fc, "a", vecs[10], ChaosSpec{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from cancelled step, got %v", err)
	}
	if fc.polls <= fc.fuse {
		t.Fatalf("context was never polled past the fuse (%d polls)", fc.polls)
	}

	// Retrying the same vector and continuing yields bit-for-bit the
	// baseline's replies and final digest.
	for i, v := range vecs[10:] {
		got, err := s.Step(ctx, "a", v, ChaosSpec{})
		if err != nil {
			t.Fatalf("post-cancel step %d: %v", i, err)
		}
		want, err := base.Step(ctx, "a", v, ChaosSpec{})
		if err != nil {
			t.Fatalf("baseline step %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("post-cancel step %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
	gs, _ := s.Schedule("a")
	ws, _ := base.Schedule("a")
	if gs.Digest != ws.Digest {
		t.Fatalf("digest after the cancelled step %s != baseline %s", gs.Digest, ws.Digest)
	}

	s.Close()
	starts, finishes := map[int]int{}, map[int]int{}
	for _, e := range readStream(t, filepath.Join(dir, "a.events.jsonl")) {
		switch e.Kind {
		case telemetry.KindInstanceStart:
			starts[e.Instance]++
		case telemetry.KindInstanceFinish:
			finishes[e.Instance]++
		}
	}
	for i := range vecs {
		if starts[i] != 1 || finishes[i] != 1 {
			t.Fatalf("instance %d: %d instance_start and %d instance_finish events, want 1 each",
				i, starts[i], finishes[i])
		}
	}
	if len(starts) != len(vecs) || len(finishes) != len(vecs) {
		t.Fatalf("stream covers %d/%d instances, want %d", len(starts), len(finishes), len(vecs))
	}
}

func TestExpiredContextRefusedCleanly(t *testing.T) {
	s := mustServer(t, Options{})
	mustCreate(t, s, mpegSpec("a"))
	vecs := testVectors(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Step(ctx, "a", vecs[0], ChaosSpec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st := s.Tenants()[0]; st.Instances != 0 || st.Steps != 0 {
		t.Fatalf("clean refusal must not touch state: %+v", st)
	}
}

func TestCheckpointRestoreResumesBitForBit(t *testing.T) {
	dir := t.TempDir()
	vecs := testVectors(t, 40)
	ctx := context.Background()

	// Uninterrupted baseline.
	base := mustServer(t, Options{})
	mustCreate(t, base, mpegSpec("a"))
	baseline := make([]StepReply, len(vecs))
	for i, v := range vecs {
		rep, err := base.Step(ctx, "a", v, ChaosSpec{})
		if err != nil {
			t.Fatalf("baseline step %d: %v", i, err)
		}
		baseline[i] = rep
	}

	// Daemon 1: checkpoint every 8 steps, killed after 27 (last checkpoint
	// at 24).
	s1 := mustServer(t, Options{CheckpointDir: dir, CheckpointEvery: 8})
	mustCreate(t, s1, mpegSpec("a"))
	for i, v := range vecs[:27] {
		if _, err := s1.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("s1 step %d: %v", i, err)
		}
	}
	s1.Abandon() // kill -9: no final checkpoint, no flush

	// Daemon 2 resumes from the last durable snapshot.
	s2 := mustServer(t, Options{CheckpointDir: dir, CheckpointEvery: 8})
	sts := s2.Tenants()
	if len(sts) != 1 || !sts[0].Restored || sts[0].RestoredFrom != "ok" {
		t.Fatalf("tenant not restored: %+v", sts)
	}
	resumed := sts[0].Instances
	if resumed != 24 {
		t.Fatalf("restored to instance %d, want 24 (last checkpoint)", resumed)
	}
	// Re-submit the suffix; every reply must match the uninterrupted run.
	for i := resumed; i < len(vecs); i++ {
		rep, err := s2.Step(ctx, "a", vecs[i], ChaosSpec{})
		if err != nil {
			t.Fatalf("s2 step %d: %v", i, err)
		}
		if rep != baseline[i] {
			t.Fatalf("step %d after restore diverged:\n got %+v\nwant %+v", i, rep, baseline[i])
		}
	}
	gs, _ := s2.Schedule("a")
	ws, _ := base.Schedule("a")
	if gs.Digest != ws.Digest {
		t.Fatalf("final digest %s != baseline %s", gs.Digest, ws.Digest)
	}
}

func TestRestoreFallsBackOnTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	vecs := testVectors(t, 20)
	ctx := context.Background()

	s1 := mustServer(t, Options{CheckpointDir: dir, CheckpointEvery: 8})
	mustCreate(t, s1, mpegSpec("a"))
	for i, v := range vecs {
		if _, err := s1.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("s1 step %d: %v", i, err)
		}
	}
	s1.Abandon()

	// Tear the primary snapshot mid-payload (simulated crash mid-write that
	// somehow bypassed the atomic rename — e.g. disk corruption).
	p := snapshotPath(dir, "a")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustServer(t, Options{CheckpointDir: dir})
	st := s2.Tenants()[0]
	if !st.Restored || st.RestoredFrom != "fallback" {
		t.Fatalf("want fallback restore, got %+v", st)
	}
	if st.Instances != 8 {
		t.Fatalf("fallback restored to %d, want 8 (previous generation)", st.Instances)
	}

	// With both generations corrupt, restore reports a typed SnapshotError
	// instead of silently serving bad state.
	if err := os.WriteFile(p+".prev", []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(Options{CheckpointDir: dir})
	var se *SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("want SnapshotError for doubly-corrupt snapshot, got %v", err)
	}
}

func TestSnapshotRoundTripAndChecksum(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x.ckpt")
	pay := &snapshotPayload{Name: "x", Spec: mpegSpec("x"),
		Vectors: [][]int{{1, 0, 1, 0, 1, 0, 1, 0, 1}}, Instances: 1, Calls: 1, Digest: "00"}
	if err := writeSnapshot(p, pay); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	got, err := loadSnapshot(p)
	if err != nil {
		t.Fatalf("loadSnapshot: %v", err)
	}
	if got.Name != "x" || got.Instances != 1 || len(got.Vectors) != 1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	// Flip one payload byte: the checksum must catch it.
	raw, _ := os.ReadFile(p)
	raw[len(raw)-2] ^= 0x20
	os.WriteFile(p, raw, 0o644)
	if _, err := loadSnapshot(p); err == nil {
		t.Fatal("corrupted snapshot loaded without error")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum diagnosis, got %v", err)
	}
}

func TestRemoveTenantDeletesSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := mustServer(t, Options{CheckpointDir: dir})
	mustCreate(t, s, mpegSpec("a"))
	if _, err := os.Stat(snapshotPath(dir, "a")); err != nil {
		t.Fatalf("initial checkpoint missing: %v", err)
	}
	if err := s.RemoveTenant("a"); err != nil {
		t.Fatalf("RemoveTenant: %v", err)
	}
	if _, err := os.Stat(snapshotPath(dir, "a")); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived removal: %v", err)
	}
	if err := s.RemoveTenant("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("want ErrUnknownTenant, got %v", err)
	}
}

func TestInlineCTGSubmit(t *testing.T) {
	// Round-trip an app graph through the ctgio text format and submit it as
	// an inline CTG.
	g, p, err := mpeg.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ctgio.Write(&buf, g, p); err != nil {
		t.Fatalf("write ctg: %v", err)
	}
	s := mustServer(t, Options{})
	if _, err := s.CreateTenant(TenantSpec{Name: "inline", CTG: buf.String(), Threshold: 1e-9}); err != nil {
		t.Fatalf("inline submit: %v", err)
	}
	vecs := testVectors(t, 3)
	for i, v := range vecs {
		if _, err := s.Step(context.Background(), "inline", v, ChaosSpec{}); err != nil {
			t.Fatalf("inline step %d: %v", i, err)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	s := mustServer(t, Options{})
	bad := []TenantSpec{
		{},                                      // no name
		{Name: "x/y", Workload: "mpeg"},         // bad charset
		{Name: "a"},                             // neither workload nor ctg
		{Name: "a", Workload: "nope"},           // unknown workload
		{Name: "a", Workload: "mpeg", CTG: "x"}, // both
		{Name: "a", Workload: "mpeg", GuardBand: 1.5}, // core.New: guard band out of range
		{Name: "a", Workload: "mpeg", Threshold: 2},   // core.New: threshold out of range
	}
	for i, spec := range bad {
		if _, err := s.CreateTenant(spec); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, spec)
		} else if !isClientErr(err) {
			t.Fatalf("spec %d: want client error, got %v", i, err)
		}
	}
	mustCreate(t, s, mpegSpec("dup"))
	if _, err := s.CreateTenant(mpegSpec("dup")); !errors.Is(err, ErrDuplicateTenant) {
		t.Fatalf("want ErrDuplicateTenant, got %v", err)
	}
}

// TestDuplicateSubmitKeepsLiveStream submits a tenant name that is already
// live over HTTP: the reply is 409 duplicate_tenant and the live tenant's
// event stream is byte-identical afterwards (the duplicate must be rejected
// before its event file is opened). An out-of-range knob is a 400.
func TestDuplicateSubmitKeepsLiveStream(t *testing.T) {
	dir := t.TempDir()
	s := mustServer(t, Options{EventsDir: dir})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	cl := &Client{BaseURL: hs.URL}
	ctx := context.Background()

	if _, err := cl.Submit(ctx, mpegSpec("live")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i, v := range testVectors(t, 10) {
		if _, err := cl.Step(ctx, "live", v, ChaosSpec{}); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	path := filepath.Join(dir, "live.events.jsonl")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("live tenant wrote no events")
	}

	_, err = cl.Submit(ctx, mpegSpec("live"))
	if ae, ok := err.(*APIError); !ok || ae.Status != 409 || ae.Code != "duplicate_tenant" {
		t.Fatalf("duplicate submit: want 409 duplicate_tenant, got %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("duplicate submit changed the live stream: %d bytes -> %d bytes", len(before), len(after))
	}

	for _, spec := range []TenantSpec{
		{Name: "g", Workload: "mpeg", GuardBand: 1.5},
		{Name: "th", Workload: "mpeg", Threshold: 2},
	} {
		_, err := cl.Submit(ctx, spec)
		if ae, ok := err.(*APIError); !ok || ae.Status != 400 || ae.Code != "bad_request" {
			t.Fatalf("spec %+v: want 400 bad_request, got %v", spec, err)
		}
	}
}

// TestConcurrentDuplicateSubmits races several submits of one name: exactly
// one is admitted and every other gets ErrDuplicateTenant.
func TestConcurrentDuplicateSubmits(t *testing.T) {
	s := mustServer(t, Options{EventsDir: t.TempDir()})
	const n = 4
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.CreateTenant(mpegSpec("race"))
		}(i)
	}
	wg.Wait()
	admitted := 0
	for i, err := range errs {
		switch {
		case err == nil:
			admitted++
		case !errors.Is(err, ErrDuplicateTenant):
			t.Fatalf("submit %d: want nil or ErrDuplicateTenant, got %v", i, err)
		}
	}
	if admitted != 1 {
		t.Fatalf("%d of %d concurrent submits admitted, want 1", admitted, n)
	}
}

func TestCloseRejectsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, mpegSpec("a"))
	vecs := testVectors(t, 5)
	for _, v := range vecs {
		if _, err := s.Step(context.Background(), "a", v, ChaosSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Step(context.Background(), "a", vecs[0], ChaosSpec{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after Close, got %v", err)
	}
	// The graceful final checkpoint captured all 5 instances.
	pay, err := loadSnapshot(snapshotPath(dir, "a"))
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if pay.Instances != 5 {
		t.Fatalf("final snapshot has %d instances, want 5", pay.Instances)
	}
}

// TestRestoreFromPrevOnly covers a kill between the rotation of <name>.ckpt
// to <name>.ckpt.prev and the rename of the new snapshot into place: only
// the previous generation is on disk, and restore must still find the tenant.
func TestRestoreFromPrevOnly(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1 := mustServer(t, Options{CheckpointDir: dir, CheckpointEvery: 8})
	mustCreate(t, s1, mpegSpec("a"))
	for i, v := range testVectors(t, 10) {
		if _, err := s1.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("s1 step %d: %v", i, err)
		}
	}
	s1.Abandon()

	p := snapshotPath(dir, "a")
	if err := os.Rename(p, p+".prev"); err != nil {
		t.Fatal(err)
	}
	pay, err := loadSnapshot(p + ".prev")
	if err != nil {
		t.Fatal(err)
	}

	s2 := mustServer(t, Options{CheckpointDir: dir})
	sts := s2.Tenants()
	if len(sts) != 1 {
		t.Fatalf("restored %d tenants from a .prev-only directory, want 1", len(sts))
	}
	if st := sts[0]; !st.Restored || st.RestoredFrom != "fallback" || st.Instances != pay.Instances {
		t.Fatalf("want fallback restore at instance %d, got %+v", pay.Instances, st)
	}
}

// TestStepBodyTooLarge posts a step body over the 1 MiB cap: the reply is
// 413 body_too_large, the tenant does not advance, and its breaker (which
// one counted failure would open here) stays closed.
func TestStepBodyTooLarge(t *testing.T) {
	s := mustServer(t, Options{MaxFailures: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	cl := &Client{BaseURL: hs.URL}
	ctx := context.Background()
	if _, err := cl.Submit(ctx, mpegSpec("a")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i, v := range testVectors(t, 3) {
		if _, err := cl.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}

	body := `{"decisions":[` + strings.Repeat("0,", 1<<20) + `0]}`
	resp, err := http.Post(hs.URL+"/v1/tenants/a/step", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Code != "body_too_large" {
		t.Fatalf("2 MiB step body: got %d %q, want 413 body_too_large", resp.StatusCode, env.Code)
	}

	st, err := cl.Status(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances != 3 || st.Breaker != "closed" {
		t.Fatalf("oversized body changed the tenant: %+v", st)
	}
}

// TestServeStepAllocsBounded pins the serve loop's per-request overhead: one
// in-process Step round trip (admission, queue hand-off, worker step, reply)
// on a tenant that does not reschedule makes at most 20 allocations.
func TestServeStepAllocsBounded(t *testing.T) {
	s := mustServer(t, Options{})
	mustCreate(t, s, TenantSpec{Name: "a", Workload: "mpeg", DeadlineFactor: 1.6, Threshold: 1})
	vecs := testVectors(t, 256)
	ctx := context.Background()
	i := 0
	step := func() {
		if _, err := s.Step(ctx, "a", vecs[i%len(vecs)], ChaosSpec{}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		i++
	}
	for i < 300 {
		step()
	}
	if allocs := meanAllocs(200, step); allocs > 20 {
		t.Fatalf("serve loop: %.2f allocs per Step, want <= 20", allocs)
	}
}

// meanAllocs is testing.AllocsPerRun without its rounding down. The serve
// loop's count is fractional (about 19.5), so a rounded 19 would let one
// more allocation per step still pass a bound of 20.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestShedRulesProbeAndResume drives a tenant under a shed rule the test
// controls: adaptive.instances < 5 fires from the first step until the
// fifth. While it fires, steps get 503 slo_shed except one probe per
// BaseBackoff; once the probes carry the rule to resolution, normal admission
// resumes. A contained panic changes neither the tenant's digest nor its
// shedding state, and the rule's firing and resolution each land in the
// tenant's event stream once.
func TestShedRulesProbeAndResume(t *testing.T) {
	now := time.Unix(1000, 0)
	const base = 100 * time.Millisecond
	reg := telemetry.NewRegistry()
	s := mustServer(t, Options{Chaos: true, BaseBackoff: base, Now: func() time.Time { return now },
		Metrics: reg, FlightWindow: 1 << 14,
		ShedRules: []series.Rule{{Name: "warming-up", Metric: "adaptive.instances", Op: "<", Value: 5}}})
	mustCreate(t, s, mpegSpec("a"))
	vecs := testVectors(t, 8)
	ctx := context.Background()
	next := 0
	admitted := func() {
		t.Helper()
		if _, err := s.Step(ctx, "a", vecs[next], ChaosSpec{}); err != nil {
			t.Fatalf("step %d at +%v: %v", next, now.Sub(time.Unix(1000, 0)), err)
		}
		next++
	}
	shed := func() {
		t.Helper()
		_, err := s.Step(ctx, "a", vecs[next], ChaosSpec{})
		var rej *RejectionError
		if !errors.As(err, &rej) || rej.Code != "slo_shed" || rej.Status != 503 || rej.RetryAfter != base {
			t.Fatalf("step %d at +%v: want 503 slo_shed, got %v", next, now.Sub(time.Unix(1000, 0)), err)
		}
	}

	admitted() // instance 0: the rule fires
	shed()
	now = now.Add(base / 2)
	shed()
	now = now.Add(base / 2)
	admitted() // the probe: instance 1
	shed()

	before, _ := s.Schedule("a")
	now = now.Add(base)
	if _, err := s.Step(ctx, "a", vecs[next], ChaosSpec{Panic: "boom"}); !isPanicErr(err) {
		t.Fatalf("want PanicError, got %v", err)
	}
	after, _ := s.Schedule("a")
	if after.Digest != before.Digest {
		t.Fatalf("contained panic changed the digest: %s -> %s", before.Digest, after.Digest)
	}
	if !s.tenants["a"].shedding.Load() {
		t.Fatal("contained panic cleared the shedding state")
	}
	now = now.Add(2 * base) // past the breaker's backoff
	admitted()              // instance 2: breaker and shed probe in one
	shed()
	now = now.Add(base)
	admitted() // instance 3
	now = now.Add(base)
	admitted() // instance 4: five instances, the rule resolves
	for next < len(vecs) {
		admitted() // normal admission, no pacing
	}

	st := s.Tenants()[0]
	if st.Instances != 8 || st.RejectedShed != 4 || st.Panics != 1 {
		t.Fatalf("status %+v, want 8 instances, 4 shed, 1 panic", st)
	}
	if got := reg.Snapshot().Counters["serve.rejected_slo"]; got != 4 {
		t.Fatalf("serve.rejected_slo = %d, want 4", got)
	}
	var buf bytes.Buffer
	if err := s.DumpEvents("a", &buf); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var alerts []string
	for _, e := range evs {
		if e.Kind == telemetry.KindAlertFiring || e.Kind == telemetry.KindAlertResolved {
			alerts = append(alerts, fmt.Sprintf("%s@%d", e.Kind, e.Instance))
		}
	}
	if want := []string{"alert_firing@0", "alert_resolved@4"}; !reflect.DeepEqual(alerts, want) {
		t.Fatalf("alert events %v, want %v", alerts, want)
	}
}

// TestShedRulesSurviveRestore checks a restored tenant replays its shed
// rules with its decision log: a rule firing at the checkpoint is firing
// again after the restart, and one that resolved stays resolved.
func TestShedRulesSurviveRestore(t *testing.T) {
	vecs := testVectors(t, 6)
	ctx := context.Background()
	for _, c := range []struct {
		steps  int
		firing bool
	}{{2, true}, {6, false}} {
		// A 1ns backoff paces nothing: each step takes far longer.
		opts := Options{CheckpointDir: t.TempDir(), CheckpointEvery: 1, BaseBackoff: time.Nanosecond,
			ShedRules: []series.Rule{{Name: "warming-up", Metric: "adaptive.instances", Op: "<", Value: 5}}}
		s1 := mustServer(t, opts)
		mustCreate(t, s1, mpegSpec("a"))
		for i, v := range vecs[:c.steps] {
			if _, err := s1.Step(ctx, "a", v, ChaosSpec{}); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if got := s1.tenants["a"].shedding.Load(); got != c.firing {
			t.Fatalf("after %d steps: shedding %v, want %v", c.steps, got, c.firing)
		}
		s1.Abandon()
		s2 := mustServer(t, opts)
		if sts := s2.Tenants(); len(sts) != 1 || !sts[0].Restored || sts[0].Instances != c.steps {
			t.Fatalf("tenant not restored at %d: %+v", c.steps, sts)
		}
		if got := s2.tenants["a"].shedding.Load(); got != c.firing {
			t.Fatalf("restored at %d: shedding %v, want %v", c.steps, got, c.firing)
		}
	}
}

// TestHealthRulesShedTenant arms the shipped health alerts,
// examples/watch/health.json, as shed rules on an MPEG tenant whose deadline
// is half its full-speed makespan, so every instance misses. The rules read
// the manager's own gauges: the miss budget fires on the first step and the
// miss streak on the third, and while they fire every step but one probe per
// BaseBackoff is shed. A restore from the checkpoints resumes shedding.
func TestHealthRulesShedTenant(t *testing.T) {
	rs, err := series.LoadRules(filepath.Join("..", "..", "examples", "watch", "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	const base = 100 * time.Millisecond
	opts := Options{CheckpointDir: t.TempDir(), CheckpointEvery: 1, BaseBackoff: base,
		Now: func() time.Time { return now }, ShedRules: rs.Rules}
	s1 := mustServer(t, opts)
	mustCreate(t, s1, TenantSpec{Name: "a", Workload: "mpeg", DeadlineFactor: 0.5})
	vecs := testVectors(t, 10)
	ctx := context.Background()
	shed := 0
	for i, v := range vecs {
		if i == 2 || i == 3 {
			now = now.Add(base) // the probes carrying instances 1 and 2
		}
		_, err := s1.Step(ctx, "a", v, ChaosSpec{})
		var rej *RejectionError
		switch {
		case err == nil:
		case errors.As(err, &rej) && rej.Code == "slo_shed" && rej.Status == 503:
			shed++
		default:
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	st := s1.Tenants()[0]
	if st.Instances != 3 || shed != 7 || st.RejectedShed != 7 {
		t.Fatalf("%d instances, %d shed (status %+v), want 3 and 7", st.Instances, shed, st)
	}
	var buf bytes.Buffer
	if err := s1.DumpEvents("a", &buf); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var firings []string
	for _, e := range evs {
		if e.Kind == telemetry.KindAlertFiring {
			firings = append(firings, fmt.Sprintf("%s@%d", e.Name, e.Instance))
		}
	}
	if want := []string{"miss-budget@0", "miss-streak@2"}; !reflect.DeepEqual(firings, want) {
		t.Fatalf("firings %v, want %v", firings, want)
	}

	s1.Abandon()
	s2 := mustServer(t, opts)
	if sts := s2.Tenants(); len(sts) != 1 || !sts[0].Restored || sts[0].Instances != 3 {
		t.Fatalf("tenant not restored: %+v", sts)
	}
	if !s2.tenants["a"].shedding.Load() {
		t.Fatal("restored tenant stopped shedding")
	}
	if _, err := s2.Step(ctx, "a", vecs[3], ChaosSpec{}); err != nil {
		t.Fatalf("restored tenant's first probe: %v", err)
	}
	var rej *RejectionError
	if _, err := s2.Step(ctx, "a", vecs[4], ChaosSpec{}); !errors.As(err, &rej) || rej.Code != "slo_shed" {
		t.Fatalf("restored tenant admitted a step between probes: %v", err)
	}
}

// TestShedRulesRefuseDeadMetrics checks New refuses a threshold rule on a
// metric no manager registers (adaptive.health.budget_burn) but
// accepts an absence rule on one, whose signal is the missing series.
func TestShedRulesRefuseDeadMetrics(t *testing.T) {
	_, err := New(Options{ShedRules: []series.Rule{{Name: "burn", Metric: "adaptive.health.budget_burn", Value: 1}}})
	if err == nil || !strings.Contains(err.Error(), "adaptive.health.budget_burn") {
		t.Fatalf("rule on an unregistered metric: err %v, want a refusal naming it", err)
	}
	mustServer(t, Options{ShedRules: []series.Rule{{Name: "gone", Metric: "no.such.metric", Kind: series.RuleAbsence}}})
}

// readStream reads a tenant's events file through the one event reader.
func readStream(t *testing.T, path string) []telemetry.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return evs
}

// initialReschedules counts the stream's reschedule{reason: initial} events.
func initialReschedules(evs []telemetry.Event) int {
	n := 0
	for _, e := range evs {
		if e.Kind == telemetry.KindReschedule && e.Reason == "initial" {
			n++
		}
	}
	return n
}

// TestReplayGateCoversRebuiltManager pins the replay gate: a restore builds
// a fresh manager whose initial schedule is not news, so the gate is off
// from the build on. The live stream holds exactly one initial reschedule, a
// restored stream none (its restore event comes first), and the digests
// match an undisturbed run.
func TestReplayGateCoversRebuiltManager(t *testing.T) {
	evDir, ckDir := t.TempDir(), t.TempDir()
	s := mustServer(t, Options{EventsDir: evDir, CheckpointDir: ckDir})
	base := mustServer(t, Options{})
	mustCreate(t, s, mpegSpec("a"))
	mustCreate(t, base, mpegSpec("a"))
	vecs := testVectors(t, 12)
	ctx := context.Background()
	stepBoth := func(srv *Server, vs [][]int) {
		t.Helper()
		for i, v := range vs {
			for _, d := range []*Server{srv, base} {
				if _, err := d.Step(ctx, "a", v, ChaosSpec{}); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		}
	}
	sameDigest := func(srv *Server) {
		t.Helper()
		gs, _ := srv.Schedule("a")
		ws, _ := base.Schedule("a")
		if gs.Digest != ws.Digest {
			t.Fatalf("digest %s != undisturbed %s", gs.Digest, ws.Digest)
		}
	}

	stepBoth(s, vecs[:8])
	path := filepath.Join(evDir, "a.events.jsonl")
	s.Close() // final checkpoint at instance 8
	if n := initialReschedules(readStream(t, path)); n != 1 {
		t.Fatalf("live stream holds %d initial reschedules, want 1", n)
	}
	s2 := mustServer(t, Options{EventsDir: evDir, CheckpointDir: ckDir})
	stepBoth(s2, vecs[8:])
	sameDigest(s2)
	evs := readStream(t, path)
	if len(evs) == 0 || evs[0].Kind != telemetry.KindRestore || evs[0].Instance != 8 {
		t.Fatalf("restored stream does not open with its restore event: %+v", evs[:min(len(evs), 3)])
	}
	if n := initialReschedules(evs); n != 0 {
		t.Fatalf("restored stream holds %d initial reschedules, want 0", n)
	}
}

// TestAlertProvenanceAcrossPanic arms a shed rule that fires from the first
// step until the fifth and panics the tenant at step 3: the panic rebuilds
// nothing, so the rule's state is the live one and every alert_resolved
// names as its Cause an alert_firing that is on the live stream.
func TestAlertProvenanceAcrossPanic(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	// A 1ns backoff paces nothing: each step takes far longer.
	s := mustServer(t, Options{Chaos: true, EventsDir: dir, BaseBackoff: time.Nanosecond,
		Now:       func() time.Time { return now },
		ShedRules: []series.Rule{{Name: "warming-up", Metric: "adaptive.instances", Op: "<", Value: 5}}})
	mustCreate(t, s, mpegSpec("a"))
	ctx := context.Background()
	for i, v := range testVectors(t, 8) {
		now = now.Add(time.Second) // past any breaker backoff
		if i == 3 {
			if _, err := s.Step(ctx, "a", v, ChaosSpec{Panic: "alert"}); !isPanicErr(err) {
				t.Fatalf("want PanicError, got %v", err)
			}
			now = now.Add(time.Minute)
		}
		if _, err := s.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	s.Close()
	evs := readStream(t, filepath.Join(dir, "a.events.jsonl"))
	kinds := map[uint64]telemetry.Kind{}
	resolved := 0
	for _, e := range evs {
		kinds[e.Seq] = e.Kind
		if e.Kind != telemetry.KindAlertResolved {
			continue
		}
		resolved++
		if kinds[e.Cause] != telemetry.KindAlertFiring {
			t.Fatalf("alert_resolved seq %d names cause %d, not an alert_firing on the live stream", e.Seq, e.Cause)
		}
	}
	if resolved != 1 {
		t.Fatalf("%d alert_resolved events, want 1", resolved)
	}
}

// TestExplainFlightWindow explains a drift reschedule from the daemon's own
// output: the flight-recorder window served at GET /v1/tenants/{name}/events,
// read with telemetry.ReadJSONL. After a contained panic, the last
// reschedule in the window is still the last drift decision, and its chain
// resolves through its window_estimate to its instance_start.
func TestExplainFlightWindow(t *testing.T) {
	now := time.Unix(1000, 0)
	s := mustServer(t, Options{Chaos: true, Now: func() time.Time { return now }})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	mustCreate(t, s, mpegSpec("a"))
	ctx := context.Background()
	vecs := testVectors(t, 7)
	for i, v := range vecs[:6] {
		if _, err := s.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if _, err := s.Step(ctx, "a", vecs[6], ChaosSpec{Panic: "window"}); !isPanicErr(err) {
		t.Fatalf("want PanicError, got %v", err)
	}

	resp, err := http.Get(hs.URL + "/v1/tenants/a/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs, err := telemetry.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatalf("ReadJSONL(window): %v", err)
	}
	x, err := health.Explain(evs, health.ExplainQuery{Kind: string(telemetry.KindReschedule), Instance: -1})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if x.Decision.Reason != "drift" || x.Decision.Instance != 5 {
		t.Fatalf("last reschedule is %q at instance %d, want drift at 5", x.Decision.Reason, x.Decision.Instance)
	}
	var kinds []telemetry.Kind
	for _, e := range x.Chain {
		kinds = append(kinds, e.Kind)
	}
	want := []telemetry.Kind{telemetry.KindInstanceStart, telemetry.KindEstimate, telemetry.KindReschedule}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("chain %v, want %v", kinds, want)
	}
}

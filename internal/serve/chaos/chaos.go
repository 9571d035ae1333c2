// Package chaos is the seeded fault-injection harness for the scheduling
// daemon (DESIGN.md §14). A campaign runs the same tenants with the same
// seeded decision vectors against two in-process daemons driven over real
// HTTP: a quiet baseline and a chaos daemon whose "gremlin" tenant is
// subjected to injected panics, slow steps and request floods, and which is
// killed without warning (no final checkpoint) mid-campaign and restarted
// from its snapshots.
//
// The harness asserts the daemon's robustness invariants rather than its
// scheduling quality:
//
//   - zero cross-tenant interference — every victim reply is bit-for-bit
//     identical to the baseline's and no victim ever saw a rejection or a
//     panic;
//   - panic accountability — every injected panic surfaces as exactly one
//     tenant_panic event carrying a causal Seq/Cause link;
//   - bounded recovery — the kill-restart cycle resumes each tenant at most
//     CheckpointEvery instances behind the kill point and replays back to
//     a final schedule digest equal to the baseline's.
//
// Violations are collected in Report.Violations, not returned as errors:
// a campaign that runs to completion with violations is a red result, one
// that cannot run at all is an error.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/serve"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// Config parameterizes one campaign. The zero value is invalid; use
// DefaultConfig for the reference campaign.
type Config struct {
	// Seed drives every stochastic choice (decision vectors, per-tenant
	// vector streams). Two campaigns with equal configs are identical.
	Seed int64
	// Victims is the number of well-behaved tenants running next to the
	// gremlin (alternating mpeg and cruise workloads).
	Victims int
	// Steps is the per-tenant decision-vector count.
	Steps int
	// KillAt is the step index after which the chaos daemon is abandoned
	// (simulated kill -9: no final checkpoint, no sink flush) and rebuilt
	// from its checkpoint directory. Must satisfy 0 < KillAt < Steps.
	KillAt int
	// CheckpointEvery is the chaos daemon's snapshot period in instances;
	// it bounds how far behind KillAt the restart may resume.
	CheckpointEvery int
	// PanicEvery injects a worker panic into the gremlin before every
	// PanicEvery-th step (0 disables).
	PanicEvery int
	// DelayEvery/DelayMS make every DelayEvery-th gremlin step hold its
	// worker for DelayMS milliseconds (0 disables), so floods meet a busy
	// queue.
	DelayEvery, DelayMS int
	// FloodEvery/FloodSize fire FloodSize concurrent malformed requests at
	// the gremlin every FloodEvery-th step (0 disables). Malformed bodies
	// (empty decision vectors) are rejected before any state change, so
	// floods pressure admission and the queue without advancing the
	// gremlin's instance count.
	FloodEvery, FloodSize int
	// Rate/Burst are the chaos daemon's per-tenant admission limits
	// (requests/second and bucket capacity).
	Rate, Burst float64
	// Dir is the campaign scratch directory (checkpoints + event streams);
	// empty selects a fresh temporary directory, removed on return.
	Dir string
}

// DefaultConfig is the reference campaign: three tenants, forty steps, a
// panic every seventh step, floods of six against a periodically slowed
// worker, and a kill at step 25 with checkpoints every eight instances.
func DefaultConfig() Config {
	return Config{
		Seed:            42,
		Victims:         2,
		Steps:           40,
		KillAt:          25,
		CheckpointEvery: 8,
		PanicEvery:      7,
		DelayEvery:      5,
		DelayMS:         25,
		FloodEvery:      9,
		FloodSize:       6,
		Rate:            200,
		Burst:           80,
	}
}

// GremlinName is the tenant receiving every injection.
const GremlinName = "gremlin"

// TenantReport is one tenant's outcome across the full campaign.
type TenantReport struct {
	Name     string
	Workload string
	// Steps counts committed steps; Divergences counts replies that
	// differed from the baseline's reply for the same index.
	Steps, Divergences int
	// Panics and the rejections sum both daemon generations (before and
	// after the kill).
	Panics                        int
	RejectedRate, RejectedBreaker int
	RejectedQueue, RejectedShed   int
	// ResumedAt is the instance count right after the kill-restart
	// (committed log length restored from the latest snapshot).
	ResumedAt int
	// Digest and BaselineDigest are the final schedule digests of the two
	// daemons; DigestMatch is their equality.
	Digest, BaselineDigest string
	DigestMatch            bool
}

// Report is a finished campaign.
type Report struct {
	Cfg Config
	// Tenants is gremlin-first, then victims in creation order.
	Tenants []TenantReport
	// PanicsInjected counts harness-initiated panics; PanicEvents counts
	// tenant_panic telemetry events observed across both generations, and
	// PanicEventsCaused how many of those carried a non-zero causal link.
	PanicsInjected, PanicEvents, PanicEventsCaused int
	// Flood outcome histogram by HTTP status.
	FloodSent     int
	FloodByStatus map[int]int
	// RestoredTenants counts tenants rebuilt from snapshots at restart.
	RestoredTenants int
	// Health is the chaos daemon's final health report.
	Health serve.DaemonHealth
	// Violations lists every broken invariant; empty means green.
	Violations []string
	// Elapsed is the campaign wall-clock time.
	Elapsed time.Duration
}

// Green reports whether the campaign upheld every invariant.
func (r *Report) Green() bool { return len(r.Violations) == 0 }

func (r *Report) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// campaignTenant is one tenant's static plan: its spec and vector stream.
type campaignTenant struct {
	spec serve.TenantSpec
	vecs trace.Vectors
}

// plan builds the seeded tenant set: the gremlin plus cfg.Victims victims
// alternating between the two application workloads of the paper.
func plan(cfg Config) ([]campaignTenant, error) {
	gm, _, err := mpeg.Build()
	if err != nil {
		return nil, err
	}
	gc, _, err := cruise.Build()
	if err != nil {
		return nil, err
	}
	mk := func(name, workload string, factor float64, seed int64) campaignTenant {
		g := gm
		if workload == "cruise" {
			g = gc
		}
		return campaignTenant{
			spec: serve.TenantSpec{
				Name:           name,
				Workload:       workload,
				DeadlineFactor: factor,
				Threshold:      1e-9,
			},
			vecs: trace.Fluctuating(g, seed, cfg.Steps, 0.4),
		}
	}
	ts := []campaignTenant{mk(GremlinName, "mpeg", 1.6, cfg.Seed)}
	for i := 0; i < cfg.Victims; i++ {
		if i%2 == 0 {
			ts = append(ts, mk(fmt.Sprintf("victim-%d", i), "mpeg", 1.6, cfg.Seed+int64(i)+1))
		} else {
			ts = append(ts, mk(fmt.Sprintf("victim-%d", i), "cruise", 2.0, cfg.Seed+int64(i)+1))
		}
	}
	return ts, nil
}

// Run executes the campaign.
func Run(cfg Config) (*Report, error) {
	start := time.Now()
	if cfg.Steps <= 0 || cfg.KillAt <= 0 || cfg.KillAt >= cfg.Steps {
		return nil, fmt.Errorf("chaos: need 0 < KillAt < Steps, got kill %d steps %d", cfg.KillAt, cfg.Steps)
	}
	if cfg.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("chaos: CheckpointEvery must be positive")
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ctgsched-chaos-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	tenants, err := plan(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Cfg: cfg, FloodByStatus: map[int]int{}}

	// ---- Baseline generation: quiet daemon, full run, recorded replies.
	baseReplies, baseDigests, err := runBaseline(cfg, tenants)
	if err != nil {
		return nil, fmt.Errorf("chaos: baseline run: %w", err)
	}

	// ---- Chaos generation 1: injections until the kill point.
	opts := serve.Options{
		CheckpointDir:   filepath.Join(dir, "ckpt"),
		CheckpointEvery: cfg.CheckpointEvery,
		EventsDir:       filepath.Join(dir, "events"),
		Rate:            cfg.Rate,
		Burst:           cfg.Burst,
		Chaos:           true,
		Seed:            cfg.Seed,
	}
	if err := os.MkdirAll(opts.EventsDir, 0o755); err != nil {
		return nil, err
	}
	srv, err := serve.New(opts)
	if err != nil {
		return nil, fmt.Errorf("chaos: start daemon: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	for _, ct := range tenants {
		if _, err := srv.CreateTenant(ct.spec); err != nil {
			ts.Close()
			srv.Abandon()
			return nil, fmt.Errorf("chaos: create %s: %w", ct.spec.Name, err)
		}
	}
	phase1 := drivePhase(rep, ts.URL, tenants, baseReplies, cfg, nil, cfg.KillAt, true)

	// Pre-kill bookkeeping: per-tenant counters and the gremlin's event
	// stream die with this generation (restart truncates both), so fold
	// them into the report now.
	preKill := map[string]serve.TenantStatus{}
	for _, st := range srv.Tenants() {
		preKill[st.Name] = st
	}
	srv.Abandon() // simulated kill -9: no final checkpoint, no sink flush
	ts.Close()
	countPanicEvents(rep, opts.EventsDir)

	// ---- Chaos generation 2: restart from snapshots, finish the run.
	srv2, err := serve.New(opts)
	if err != nil {
		rep.violatef("restart from snapshots failed: %v", err)
		rep.Elapsed = time.Since(start)
		finalize(rep, tenants, phase1, nil, preKill, nil, nil, baseDigests, nil)
		return rep, nil
	}
	ts2 := httptest.NewServer(srv2.Handler())
	resumedAt := map[string]int{}
	for _, st := range srv2.Tenants() {
		resumedAt[st.Name] = st.Instances
		rep.RestoredTenants++
		if st.Instances > cfg.KillAt || st.Instances < cfg.KillAt-cfg.CheckpointEvery {
			rep.violatef("%s resumed at instance %d, outside (%d, %d] recovery bound",
				st.Name, st.Instances, cfg.KillAt-cfg.CheckpointEvery, cfg.KillAt)
		}
	}
	if rep.RestoredTenants != len(tenants) {
		rep.violatef("restart restored %d of %d tenants", rep.RestoredTenants, len(tenants))
	}
	phase2 := drivePhase(rep, ts2.URL, tenants, baseReplies, cfg, resumedAt, cfg.Steps, true)
	rep.Health = srv2.Health()
	postKill := map[string]serve.TenantStatus{}
	for _, st := range srv2.Tenants() {
		postKill[st.Name] = st
	}
	digests := map[string]string{}
	for _, ct := range tenants {
		sr, err := srv2.Schedule(ct.spec.Name)
		if err != nil {
			rep.violatef("%s: final schedule fetch: %v", ct.spec.Name, err)
			continue
		}
		digests[ct.spec.Name] = sr.Digest
	}
	if err := srv2.Close(); err != nil {
		rep.violatef("daemon close: %v", err)
	}
	ts2.Close()
	countPanicEvents(rep, opts.EventsDir)

	finalize(rep, tenants, phase1, phase2, preKill, postKill, resumedAt, baseDigests, digests)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// runBaseline drives the quiet daemon over HTTP and records every reply and
// final digest.
func runBaseline(cfg Config, tenants []campaignTenant) (map[string][]serve.StepReply, map[string]string, error) {
	srv, err := serve.New(serve.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, ct := range tenants {
		if _, err := srv.CreateTenant(ct.spec); err != nil {
			return nil, nil, fmt.Errorf("create %s: %w", ct.spec.Name, err)
		}
	}
	replies := make(map[string][]serve.StepReply, len(tenants))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errc := make(chan error, len(tenants))
	for _, ct := range tenants {
		wg.Add(1)
		go func(ct campaignTenant) {
			defer wg.Done()
			cl := &serve.Client{BaseURL: ts.URL}
			out := make([]serve.StepReply, 0, cfg.Steps)
			for i, v := range ct.vecs {
				rep, err := cl.Step(context.Background(), ct.spec.Name, v, serve.ChaosSpec{})
				if err != nil {
					errc <- fmt.Errorf("%s step %d: %w", ct.spec.Name, i, err)
					return
				}
				out = append(out, rep)
			}
			mu.Lock()
			replies[ct.spec.Name] = out
			mu.Unlock()
		}(ct)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return nil, nil, err
	default:
	}
	digests := map[string]string{}
	for _, ct := range tenants {
		sr, err := srv.Schedule(ct.spec.Name)
		if err != nil {
			return nil, nil, err
		}
		digests[ct.spec.Name] = sr.Digest
	}
	return replies, digests, nil
}

// phaseStats is one tenant's outcome over one drive phase.
type phaseStats struct {
	steps, divergences, injected int
}

// drivePhase steps every tenant over [from[name], to), injecting chaos into
// the gremlin when inject is set, and compares each reply to the baseline's
// reply at the same index (a nil from map starts every tenant at 0). One
// goroutine (and one Client — it is not concurrency-safe) per tenant.
func drivePhase(rep *Report, baseURL string, tenants []campaignTenant,
	base map[string][]serve.StepReply, cfg Config, from map[string]int, to int, inject bool) map[string]*phaseStats {
	stats := make(map[string]*phaseStats, len(tenants))
	for _, ct := range tenants {
		stats[ct.spec.Name] = &phaseStats{}
	}
	var mu sync.Mutex // guards rep counters written by tenant goroutines
	var wg sync.WaitGroup
	for _, ct := range tenants {
		start, ok := 0, true
		if from != nil {
			start, ok = from[ct.spec.Name]
			if !ok {
				continue // restore violation already recorded
			}
		}
		wg.Add(1)
		go func(ct campaignTenant, start int) {
			defer wg.Done()
			name := ct.spec.Name
			st := stats[name]
			cl := &serve.Client{BaseURL: baseURL}
			gremlin := inject && name == GremlinName
			for i := start; i < to; i++ {
				if gremlin && cfg.PanicEvery > 0 && i%cfg.PanicEvery == cfg.PanicEvery-1 {
					if injectPanic(cl, name, ct.vecs[i]) {
						st.injected++
					} else {
						mu.Lock()
						rep.violatef("%s: panic injection at step %d never landed", name, i)
						mu.Unlock()
					}
				}
				if gremlin && cfg.FloodEvery > 0 && i%cfg.FloodEvery == cfg.FloodEvery-1 {
					sent, byStatus := flood(baseURL, name, cfg.FloodSize)
					mu.Lock()
					rep.FloodSent += sent
					for code, n := range byStatus {
						rep.FloodByStatus[code] += n
					}
					mu.Unlock()
				}
				var chaos serve.ChaosSpec
				if gremlin && cfg.DelayEvery > 0 && i%cfg.DelayEvery == cfg.DelayEvery-1 {
					chaos.DelayMS = cfg.DelayMS
				}
				got, err := cl.Step(context.Background(), name, ct.vecs[i], chaos)
				if err != nil {
					mu.Lock()
					rep.violatef("%s step %d failed after retries: %v", name, i, err)
					mu.Unlock()
					return
				}
				st.steps++
				if want := base[name][i]; got != want {
					st.divergences++
					mu.Lock()
					rep.violatef("%s step %d diverged from baseline:\n got %+v\nwant %+v", name, i, got, want)
					mu.Unlock()
				}
			}
		}(ct, start)
	}
	wg.Wait()
	return stats
}

// injectPanic fires a panic-chaos step and confirms containment: the reply
// must be the typed panic error, never a success. Admission rejections
// (the breaker from a previous panic, rate limiting under flood) are
// retried briefly.
func injectPanic(cl *serve.Client, name string, vec []int) bool {
	for attempt := 0; attempt < 200; attempt++ {
		_, err := cl.StepOnce(context.Background(), name, vec, serve.ChaosSpec{Panic: "chaos-campaign"})
		ae, ok := err.(*serve.APIError)
		if !ok {
			return false // success or transport error: injection did not land as a contained panic
		}
		if ae.Status == http.StatusInternalServerError && ae.Code == "panic" {
			return true
		}
		if !ae.Retryable() {
			return false
		}
		wait := ae.RetryAfter
		if wait <= 0 || wait > 100*time.Millisecond {
			wait = 10 * time.Millisecond
		}
		time.Sleep(wait)
	}
	return false
}

// flood fires n concurrent malformed step requests (empty decision vector)
// at a tenant and histograms the response statuses. Every outcome is a
// rejection of some kind — 400 once a worker looks at the body, 429/503
// when admission or the queue sheds it first — and none advances state.
func flood(baseURL, name string, n int) (sent int, byStatus map[int]int) {
	byStatus = map[int]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(
				baseURL+"/v1/tenants/"+name+"/step", "application/json",
				strings.NewReader(`{"decisions":[]}`))
			if err != nil {
				return
			}
			resp.Body.Close()
			mu.Lock()
			byStatus[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	return n, byStatus
}

// countPanicEvents scans every tenant event stream in dir for tenant_panic
// events and their causal links. Called once per daemon generation (the
// restart truncates the streams).
func countPanicEvents(rep *Report, dir string) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.events.jsonl"))
	for _, p := range paths {
		evs, err := readEvents(p)
		if err != nil {
			rep.violatef("event stream %s unreadable: %v", filepath.Base(p), err)
			continue
		}
		for _, e := range evs {
			if e.Kind != telemetry.KindTenantPanic {
				continue
			}
			rep.PanicEvents++
			if e.Cause != 0 && e.Seq != 0 {
				rep.PanicEventsCaused++
			}
			if !strings.HasPrefix(filepath.Base(p), GremlinName+".") {
				rep.violatef("tenant_panic event in non-gremlin stream %s", filepath.Base(p))
			}
		}
	}
}

// readEvents reads a daemon event stream that may end in a torn line (a
// daemon killed without warning loses its write buffer mid-record): the torn
// tail is dropped, corruption anywhere before it is still an error.
func readEvents(path string) ([]telemetry.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := telemetry.ReadJSONL(f)
	var tail *telemetry.TruncatedTailError
	if errors.As(err, &tail) {
		err = nil
	}
	return evs, err
}

// finalize folds phase stats, status counters and digests into per-tenant
// reports and checks the campaign-wide invariants.
func finalize(rep *Report, tenants []campaignTenant, p1, p2 map[string]*phaseStats,
	pre, post map[string]serve.TenantStatus, resumedAt map[string]int,
	baseDigests, digests map[string]string) {
	for _, ct := range tenants {
		name := ct.spec.Name
		tr := TenantReport{Name: name, Workload: ct.spec.Workload}
		for _, ph := range []map[string]*phaseStats{p1, p2} {
			if ph == nil {
				continue
			}
			if st := ph[name]; st != nil {
				tr.Steps += st.steps
				tr.Divergences += st.divergences
				rep.PanicsInjected += st.injected
			}
		}
		for _, sts := range []map[string]serve.TenantStatus{pre, post} {
			if sts == nil {
				continue
			}
			st, ok := sts[name]
			if !ok {
				continue
			}
			tr.Panics += st.Panics
			tr.RejectedRate += st.RejectedRate
			tr.RejectedBreaker += st.RejectedBreaker
			tr.RejectedQueue += st.RejectedQueue
			tr.RejectedShed += st.RejectedShed
		}
		if resumedAt != nil {
			tr.ResumedAt = resumedAt[name]
		}
		tr.BaselineDigest = baseDigests[name]
		if digests != nil {
			tr.Digest = digests[name]
		}
		tr.DigestMatch = tr.Digest != "" && tr.Digest == tr.BaselineDigest
		if !tr.DigestMatch {
			rep.violatef("%s: final digest %q != baseline %q", name, tr.Digest, tr.BaselineDigest)
		}
		if name != GremlinName {
			if tr.Panics != 0 {
				rep.violatef("victim %s saw %d panics", name, tr.Panics)
			}
			if n := tr.RejectedRate + tr.RejectedBreaker + tr.RejectedQueue + tr.RejectedShed; n != 0 {
				rep.violatef("victim %s saw %d rejections (cross-tenant interference)", name, n)
			}
			if tr.Divergences != 0 {
				rep.violatef("victim %s diverged from baseline on %d steps", name, tr.Divergences)
			}
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	sort.Slice(rep.Tenants, func(i, j int) bool {
		a, b := rep.Tenants[i], rep.Tenants[j]
		if (a.Name == GremlinName) != (b.Name == GremlinName) {
			return a.Name == GremlinName
		}
		return a.Name < b.Name
	})
	// Panic accountability: every injection surfaced as exactly one causal
	// tenant_panic event, and the status counters agree.
	if rep.PanicEvents != rep.PanicsInjected {
		rep.violatef("injected %d panics but observed %d tenant_panic events",
			rep.PanicsInjected, rep.PanicEvents)
	}
	if rep.PanicEventsCaused != rep.PanicEvents {
		rep.violatef("%d of %d tenant_panic events missing a Seq/Cause link",
			rep.PanicEvents-rep.PanicEventsCaused, rep.PanicEvents)
	}
	for _, tr := range rep.Tenants {
		if tr.Name == GremlinName && tr.Panics != rep.PanicsInjected {
			rep.violatef("gremlin status counted %d panics, harness injected %d",
				tr.Panics, rep.PanicsInjected)
		}
	}
}

// Render formats the campaign report. The rejection counts, the daemon's
// request count and the elapsed time depend on wall-clock timing (the
// gremlin retries rejections), so they are left to Timing.
func (r *Report) Render() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Chaos campaign (seed %d): %d tenants x %d steps, kill at %d, checkpoint every %d\n",
		r.Cfg.Seed, len(r.Tenants), r.Cfg.Steps, r.Cfg.KillAt, r.Cfg.CheckpointEvery)
	fmt.Fprintf(&b, "%-12s %-8s %6s %5s %5s %7s  %s\n",
		"tenant", "workload", "steps", "div", "panic", "resume", "digest")
	for _, t := range r.Tenants {
		match := "MATCH"
		if !t.DigestMatch {
			match = "DIVERGED"
		}
		fmt.Fprintf(&b, "%-12s %-8s %6d %5d %5d %7d  %s %s\n",
			t.Name, t.Workload, t.Steps, t.Divergences, t.Panics, t.ResumedAt, t.Digest, match)
	}
	fmt.Fprintf(&b, "panics: %d injected, %d tenant_panic events (%d causal)\n",
		r.PanicsInjected, r.PanicEvents, r.PanicEventsCaused)
	var codes []int
	for c := range r.FloodByStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	fmt.Fprintf(&b, "floods: %d sent", r.FloodSent)
	for _, c := range codes {
		fmt.Fprintf(&b, ", %d x HTTP %d", r.FloodByStatus[c], c)
	}
	fmt.Fprintf(&b, "\nrestart: %d tenants restored from snapshots; daemon health %s (%d steps, %d restores)\n",
		r.RestoredTenants, r.Health.Status, r.Health.Steps, r.Health.Restores)
	if r.Green() {
		b.WriteString("verdict: GREEN — zero cross-tenant interference, every panic accounted, recovery bounded\n")
	} else {
		fmt.Fprintf(&b, "verdict: RED — %d violations\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}

// Timing formats the timing-dependent part of the report: each tenant's
// rejections, the daemon's request count and the campaign's elapsed time.
func (r *Report) Timing() string {
	var b bytes.Buffer
	b.WriteString("rejections:")
	for i, t := range r.Tenants {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %s %d", t.Name, t.RejectedRate+t.RejectedBreaker+t.RejectedQueue+t.RejectedShed)
	}
	fmt.Fprintf(&b, "\ndaemon requests: %d\n", r.Health.Requests)
	fmt.Fprintf(&b, "elapsed: %s\n", r.Elapsed.Round(time.Millisecond))
	return b.String()
}

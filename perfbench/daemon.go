package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/serve"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// Daemon workload: ctgschedd over loopback HTTP with two tenants, the
// paper's mpeg decoder and the per-scenario wlan receiver, under an open loop.
//
// The mpeg period is about twice the cost of one full reschedule on the host
// the benchmark was tuned on, so a burst of reschedules hardly queues and the
// latency tail is the reschedule itself. At half busy (4ms) the bursts built
// backlogs of 100ms and more, and the p95 moved by half between seeds. wlan,
// whose steps are cheap, sends at half the rate, so mpeg reschedules stay a
// large enough share of all requests for the p95 to fall inside them.
//
// Before the open loop each tenant steps closed loop, untimed, through the
// start of its inputs, so the restore replays a fixed history (mpegHistory
// and wlanHistory vectors): long enough that its reschedule count varies
// little between seeds, and that the restore takes several seconds, which
// evens out the host's speed swings.
const (
	mpegPeriod      = 20 * time.Millisecond
	wlanPeriod      = 40 * time.Millisecond
	mpegHistory     = 5000
	wlanHistory     = 1250
	checkpointEvery = 500
	daemonSetupReps = 7
	ckptRounds      = 3
	// daemonCheckSteps replies per tenant are checked against an in-process
	// manager.
	daemonCheckSteps = 500
	requestTimeout   = 30 * time.Second
)

// tenantLoad is one tenant's spec, inputs and observed requests: vecs holds
// the prefill vectors, then one per open-loop request.
type tenantLoad struct {
	spec        serve.TenantSpec
	period      time.Duration
	prefill     int
	vecs        [][]int
	perScenario bool
	g           *ctg.Graph
	p           *platform.Platform
	opts        core.Options // the manager the spec describes, for the in-process reference

	replies []serve.StepReply // one per vector
	reqs    []request         // one per open-loop request
	rejects map[string]int
}

// ok reports whether vector i was served.
func (t *tenantLoad) ok(i int) bool { return i < t.prefill || t.reqs[i-t.prefill].ok }

func daemonTenants(cfg config) ([]*tenantLoad, error) {
	n := func(period time.Duration) int { return int(cfg.seconds / period) }
	if n(mpegPeriod) > mpegHistory || n(wlanPeriod) > wlanHistory {
		return nil, fmt.Errorf("%v is too long for a %d/%d-vector history", cfg.seconds, mpegHistory, wlanHistory)
	}

	g0, mp, err := mpeg.Build()
	if err != nil {
		return nil, err
	}
	mg, err := core.TightenDeadline(g0, mp, mpegDeadlineFactor)
	if err != nil {
		return nil, err
	}
	m := &tenantLoad{
		spec: serve.TenantSpec{Name: "mpeg", Workload: "mpeg", DeadlineFactor: mpegDeadlineFactor,
			Window: 20, Threshold: 0.1},
		period: mpegPeriod, prefill: mpegHistory - n(mpegPeriod), g: mg, p: mp,
		opts: core.Options{Window: 20, Threshold: 0.1},
	}
	// The movie clips in order, as mpeg-paper steps through them.
	clips := trace.MovieClips()
	for i := 0; len(m.vecs) < mpegHistory; i++ {
		c := clips[i%len(clips)]
		c.Seed = derive(cfg.seed, streamClip, i)
		m.vecs = append(m.vecs, c.Generate(mg, mpegClipSteps)...)
	}
	m.vecs = m.vecs[:mpegHistory]

	g1, wp, err := wlan.Build()
	if err != nil {
		return nil, err
	}
	wg, err := core.TightenDeadline(g1, wp, mpegDeadlineFactor)
	if err != nil {
		return nil, err
	}
	w := &tenantLoad{
		spec: serve.TenantSpec{Name: "wlan", Workload: "wlan", DeadlineFactor: mpegDeadlineFactor,
			PerScenario: true},
		period: wlanPeriod, prefill: wlanHistory - n(wlanPeriod), g: wg, p: wp, perScenario: true,
		opts: core.Options{PerScenario: true},
		vecs: wlan.ChannelTrace(wg, derive(cfg.seed, streamWLAN, 0), wlanHistory),
	}
	return []*tenantLoad{m, w}, nil
}

// daemon is one running ctgschedd: the server and its loopback listener.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	served chan error
}

func startDaemon(opts serve.Options) (*daemon, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Abandon()
		return nil, err
	}
	d := &daemon{srv: srv, http: serve.NewHTTPServer(srv.Handler()),
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// kill stops the daemon the way kill -9 would: nothing is checkpointed or
// flushed. It returns once the HTTP server has stopped.
func (d *daemon) kill() {
	d.srv.Abandon()
	d.http.Close()
	<-d.served
}

// client returns a client with its own single keep-alive connection and no
// retries, so every rejection is observed.
func (d *daemon) client() (*serve.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &serve.Client{BaseURL: d.url, HTTP: &http.Client{Transport: tr}, MaxRetries: -1}, tr
}

func runDaemon(cfg config) (*outcome, error) {
	out := &outcome{metrics: metrics{}}
	tenants, err := daemonTenants(cfg)
	if err != nil {
		return nil, err
	}
	out.notef("inputs: mpeg clips seeded from %d, wlan channel seed %d; %d and %d prefill steps, then %d and %d requests at periods %v and %v",
		derive(cfg.seed, streamClip, 0), derive(cfg.seed, streamWLAN, 0),
		tenants[0].prefill, tenants[1].prefill, len(tenants[0].vecs)-tenants[0].prefill, len(tenants[1].vecs)-tenants[1].prefill,
		tenants[0].period, tenants[1].period)

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.workdir, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	ckptDir := filepath.Join(root, "ckpt")
	opts := serve.Options{CheckpointDir: ckptDir, CheckpointEvery: checkpointEvery}
	if cfg.traced {
		opts.EventsDir = filepath.Join(root, "events")
		if err := os.MkdirAll(opts.EventsDir, 0o755); err != nil {
			return nil, err
		}
	}

	// Set-up, several times: daemon start on an empty checkpoint directory
	// plus both submits.
	var setupS []float64
	var d *daemon
	for i := 0; i < daemonSetupReps; i++ {
		if d != nil {
			d.kill()
			if err := os.RemoveAll(ckptDir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if d, err = startDaemon(opts); err != nil {
			return nil, err
		}
		c, tr := d.client()
		for _, t := range tenants {
			if _, err := c.Submit(context.Background(), t.spec); err != nil {
				d.kill()
				return nil, fmt.Errorf("submit %s: %w", t.spec.Name, err)
			}
		}
		tr.CloseIdleConnections()
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	killed := false
	defer func() {
		if !killed {
			d.kill()
		}
	}()

	// Prefill, closed loop, then the measured open loop: one generator
	// goroutine and one connection per tenant.
	clients := make([]*serve.Client, len(tenants))
	for ti, t := range tenants {
		c, tr := d.client()
		defer tr.CloseIdleConnections()
		clients[ti] = c
		t.replies = make([]serve.StepReply, len(t.vecs))
		t.rejects = map[string]int{}
	}
	errs := make([]error, len(tenants))
	var wg sync.WaitGroup
	for ti, t := range tenants {
		wg.Add(1)
		go func(ti int, t *tenantLoad) {
			defer wg.Done()
			for i := 0; i < t.prefill; i++ {
				rep, err := clients[ti].Step(context.Background(), t.spec.Name, t.vecs[i], serve.ChaosSpec{})
				if err != nil {
					errs[ti] = fmt.Errorf("prefill %s step %d: %w", t.spec.Name, i, err)
					return
				}
				t.replies[i] = rep
			}
		}(ti, t)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	start := time.Now().Add(10 * time.Millisecond)
	for ti, t := range tenants {
		wg.Add(1)
		go func(c *serve.Client, t *tenantLoad) {
			defer wg.Done()
			t.reqs = openLoop(realClock{}, start, t.period, len(t.vecs)-t.prefill, func(i int) bool {
				ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
				defer cancel()
				rep, err := c.Step(ctx, t.spec.Name, t.vecs[t.prefill+i], serve.ChaosSpec{})
				if err != nil {
					var ae *serve.APIError
					code := "transport"
					if errors.As(err, &ae) {
						code = ae.Code
					}
					t.rejects[code]++
					return false
				}
				t.replies[t.prefill+i] = rep
				return true
			})
		}(clients[ti], t)
	}
	wg.Wait()
	loadWall := time.Since(start)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	var serverSteps struct {
		count float64
		mean  float64
	}
	var pl pipelineLayers
	events := 0
	if cfg.traced {
		if serverSteps.count, serverSteps.mean, err = stepHistogram(d.url); err != nil {
			return nil, err
		}
		for _, t := range tenants {
			evs, err := readEvents(filepath.Join(opts.EventsDir, t.spec.Name+".events.jsonl"))
			if err != nil {
				return nil, err
			}
			events += len(evs)
			pl.add(evs, t.perScenario)
		}
	}

	// Checkpoint every tenant now, so the snapshot on disk is the live state
	// the restore must reproduce.
	var ckptUS []float64
	var ckptBytes []float64
	for r := 0; r < ckptRounds; r++ {
		for _, t := range tenants {
			t0 := time.Now()
			if _, err := d.srv.Checkpoint(t.spec.Name); err != nil {
				return nil, fmt.Errorf("checkpoint %s: %w", t.spec.Name, err)
			}
			ckptUS = append(ckptUS, us(time.Since(t0)))
		}
	}
	c, tr := d.client()
	pre := map[string]serve.ScheduleReply{}
	for _, t := range tenants {
		fi, err := os.Stat(filepath.Join(ckptDir, t.spec.Name+".ckpt"))
		if err != nil {
			return nil, err
		}
		ckptBytes = append(ckptBytes, float64(fi.Size()))
		if pre[t.spec.Name], err = c.Schedule(context.Background(), t.spec.Name); err != nil {
			return nil, err
		}
	}
	tr.CloseIdleConnections()

	// Kill, restart on the same directory, and verify that every tenant came
	// back with all its instances and its pre-kill digest.
	d.kill()
	killed = true
	ropts := opts
	ropts.EventsDir = ""
	t0 := time.Now()
	restored := 0
	if d2, err := startDaemon(ropts); err != nil {
		out.mismatch("restore: %v", err)
	} else {
		defer d2.kill()
		c2, tr2 := d2.client()
		defer tr2.CloseIdleConnections()
		for _, t := range tenants {
			rep, err := c2.Schedule(context.Background(), t.spec.Name)
			if err != nil {
				out.mismatch("restored %s: %v", t.spec.Name, err)
				continue
			}
			served := 0
			for i := range t.vecs {
				if t.ok(i) {
					served++
				}
			}
			if rep.Digest != pre[t.spec.Name].Digest || rep.Instances != served {
				out.mismatch("%s: restored %d instances with digest %s, served %d with digest %s",
					t.spec.Name, rep.Instances, rep.Digest, served, pre[t.spec.Name].Digest)
			}
			restored += rep.Instances
		}
	}
	recovery := time.Since(t0).Seconds()

	// The first replies of each tenant must equal what the same manager
	// gives in process; the restore digest above covers the final state.
	var newMs, analyzeMs, staticEnergy float64
	for _, t := range tenants {
		a0 := time.Now()
		if _, err := ctg.Analyze(t.g); err != nil {
			return nil, err
		}
		analyzeMs += ms(time.Since(a0))
		n0 := time.Now()
		m, err := core.New(t.g, t.p, t.opts)
		if err != nil {
			return nil, err
		}
		newMs += ms(time.Since(n0))
		bad, checked := 0, 0
		var stepTime time.Duration
		for i, v := range t.vecs {
			if checked == daemonCheckSteps {
				break
			}
			if !t.ok(i) {
				continue
			}
			checked++
			s0 := time.Now()
			res, err := m.Step(v)
			stepTime += time.Since(s0)
			rep := t.replies[i]
			if err != nil || rep.Energy != res.Instance.Energy || rep.Met != res.Instance.DeadlineMet ||
				rep.Makespan != res.Instance.Makespan || rep.Rescheduled != res.Rescheduled {
				if bad == 0 {
					out.mismatch("%s vector %d: daemon replied %+v, in-process step gave %+v (err %v)", t.spec.Name, i, rep, res.Instance, err)
				}
				bad++
			}
		}
		out.failed += bad
		static, err := core.BuildOnline(t.g, t.p, core.Options{})
		if err != nil {
			return nil, err
		}
		for i, r := range t.reqs {
			if !r.ok {
				continue
			}
			inst, err := sim.ReplayDecisions(static, t.vecs[t.prefill+i])
			if err != nil {
				return nil, fmt.Errorf("static replay %s: %w", t.spec.Name, err)
			}
			staticEnergy += inst.Energy
		}
		out.notef("%s: %d replies match the in-process manager, which took %.1f us per step", t.spec.Name, checked, us(stepTime)/float64(checked))
	}

	// Aggregate the requests of both tenants.
	var lat, rtt, late []float64
	var energy float64
	var onTime float64
	steps, met, requests, served, resched := 0, 0, 0, 0, 0
	rejects := map[string]int{}
	for _, t := range tenants {
		requests += len(t.reqs)
		onTime += onTimeRatio(t.reqs, t.period) * float64(len(t.reqs))
		for i, r := range t.reqs {
			late = append(late, us(r.lateness()))
			if !r.ok {
				continue
			}
			steps++
			lat = append(lat, us(r.latency()))
			rtt = append(rtt, us(r.done.Sub(r.sent)))
			rep := t.replies[t.prefill+i]
			energy += rep.Energy
			if rep.Met {
				met++
			}
		}
		// Every step the tenant executed, prefill included, is the base of
		// the per-layer ratios: the event streams cover them all.
		for i, rep := range t.replies {
			if t.ok(i) {
				served++
				if rep.Rescheduled {
					resched++
				}
			}
		}
		for code, k := range t.rejects {
			rejects[code] += k
		}
	}
	out.attempted = requests
	out.failed += requests - steps
	if out.failed > out.attempted {
		out.failed = out.attempted
	}
	nrej := 0
	for _, k := range rejects {
		nrej += k
	}

	m := out.metrics
	if !cfg.traced {
		m["setup_s"] = median(setupS)
		m["step_p50_us"] = quantile(lat, 0.5)
		m["step_p95_us"] = quantile(lat, 0.95)
		m["steps_per_s"] = float64(steps) / loadWall.Seconds()
		m["on_time_ratio"] = onTime / float64(requests)
		m["ok_ratio"] = 1 - ratio(out.failed, out.attempted)
		m["energy_vs_static"] = energy / staticEnergy
		m["met_ratio"] = ratio(met, steps)
		m["heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	} else {
		m["recovery_s"] = recovery
		m["core.steps"] = float64(served)
		m["core.resched_ratio"] = ratio(resched, served)
		m["core.cache_lookups"] = float64(pl.reschedules)
		m["core.cache_hit_ratio"] = ratio(pl.cacheHits, pl.reschedules)
		m["core.initial_schedule_ms"] = newMs
		m["ctg.analyze_ms"] = analyzeMs
		pl.report(m)
		serverTotal := serverSteps.count * serverSteps.mean
		m["stretch.share"] = 100 * pl.stretchTotal() / serverTotal
		m["serve.requests"] = float64(requests)
		m["serve.http_rtt_us"] = quantile(rtt, 0.5)
		m["serve.queue_step_us"] = serverSteps.mean
		m["serve.http_overhead_us"] = mean(rtt) - serverSteps.mean
		m["serve.rejections"] = float64(nrej)
		m["serve.ckpt_us"] = median(ckptUS)
		m["serve.ckpt_bytes"] = mean(ckptBytes)
		m["serve.restored_instances"] = float64(restored)
		m["serve.restore_us_per_instance"] = 1e6 * recovery / float64(restored)
		m["load.lateness_p95_us"] = quantile(late, 0.95)
		m["telemetry.events_per_step"] = ratio(events, served)
		m["trace.unaccounted_pct"] = unaccountedPct(serverTotal, sum(pl.dls)+sum(pl.diff)+sum(pl.validate)+pl.stretchTotal())
	}

	out.notef("open loop: requests %d, ok %d, rejected %d %v; on time %.4f; energy %.6f per instance, static %.6f",
		requests, steps, nrej, sortedCounts(rejects), onTime/float64(requests), energy/float64(steps), staticEnergy/float64(steps))
	out.notef("all steps: %d served, %d rescheduled", served, resched)
	if q, ok := tailQuantile(len(lat)); ok {
		out.notef("latency from due: tail p%g = %.1f us (n=%d)", 100*q, quantile(lat, q), len(lat))
	}
	out.notef("generator lateness: p50 %.1f us, p95 %.1f us, max %.1f us (n=%d)", quantile(late, 0.5), quantile(late, 0.95), quantile(late, 1), len(late))
	out.notef("checkpoint %.1f us p50 (n=%d), snapshot %.0f bytes mean", median(ckptUS), len(ckptUS), mean(ckptBytes))
	out.notef("recovery %.3fs for %d restored instances", recovery, restored)
	if cfg.traced {
		out.notef("server step %.1f us mean over %.0f; cache hits %d of %d lookups; %d events", serverSteps.mean, serverSteps.count, pl.cacheHits, pl.reschedules, events)
	}
	out.notef("setup %d reps, median %.4fs", len(setupS), median(setupS))
	return out, nil
}

// stepHistogram reads the daemon's serve.step_us histogram (enqueue to
// reply, per request) from GET /v1/metrics. Its buckets are too wide for a
// median at these latencies, so the harness uses the exact mean.
func stepHistogram(url string) (count, mean float64, err error) {
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var snap struct {
		Histograms map[string]struct {
			Count float64 `json:"count"`
			Mean  float64 `json:"mean"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, 0, fmt.Errorf("decode /v1/metrics: %w", err)
	}
	h, ok := snap.Histograms["serve.step_us"]
	if !ok {
		return 0, 0, errors.New("/v1/metrics has no serve.step_us histogram")
	}
	return h.Count, h.Mean, nil
}

func readEvents(path string) ([]telemetry.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadJSONL(f)
}

func sortedCounts(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(out)
	return out
}

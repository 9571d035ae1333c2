package main

import (
	"fmt"
	"runtime"
	"time"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// stepObs is one step's simulated outcome, kept for the output checks.
type stepObs struct {
	err          bool
	energy       float64
	met, resched bool
}

// segment is one manager's share of an in-process run: its inputs, how to
// build it fresh, and what the measured run observed.
type segment struct {
	label string
	vecs  [][]int
	build func(rec telemetry.Recorder) (*core.Manager, error)
	mgr   *core.Manager // built during set-up, or when the run reaches it

	obs []stepObs
	// unitSteps of obs belong to the workload's unit; unitDigest is the
	// manager's digest right after the last of them.
	unitSteps  int
	unitDigest uint64
}

// inproc is one in-process workload.
type inproc struct {
	setupReps int
	// unit is the number of steps every run completes, however long they
	// take. Energy and deadline misses are reported over them, so a
	// performance-only change leaves both bit-identical, and the output
	// check and the rebuild replay them.
	unit int
	// setup builds the graph and platform, tightens the deadline, generates
	// the inputs and computes the first segments' initial schedules, timing
	// each core.New.
	setup func(rec telemetry.Recorder) (segs []*segment, g *ctg.Graph, newMs []float64, err error)
	// more returns segment i once the set-up ones are used up; nil when the
	// workload has no more input.
	more func(i int) (*segment, error)
}

// MPEG decoder workload: the paper's Table 2 runtime on the decoder's own
// 3-PE platform, a fresh manager per movie clip.
const (
	mpegDeadlineFactor = 1.6
	mpegClipSteps      = 500
)

func runMPEG(cfg config) (*outcome, error) {
	var g *ctg.Graph
	var p *platform.Platform
	// clip is segment i: movie clip i mod 8 with a seed derived from the run
	// seed.
	clip := func(i int) (*segment, error) {
		clips := trace.MovieClips()
		c := clips[i%len(clips)]
		c.Seed = derive(cfg.seed, streamClip, i)
		return &segment{
			label: fmt.Sprintf("%s/%d", c.Name, c.Seed),
			vecs:  c.Generate(g, mpegClipSteps),
			build: func(rec telemetry.Recorder) (*core.Manager, error) {
				return core.New(g, p, core.Options{Window: 20, Threshold: 0.1, Recorder: rec})
			},
		}, nil
	}
	// The unit is two rounds of the eight clips: enough steps for their
	// untraced rebuild to time steadily.
	nclips := 2 * len(trace.MovieClips())
	w := &inproc{
		setupReps: 5,
		unit:      nclips * mpegClipSteps,
		setup: func(rec telemetry.Recorder) ([]*segment, *ctg.Graph, []float64, error) {
			g0, p0, err := mpeg.Build()
			if err != nil {
				return nil, nil, nil, err
			}
			if g, err = core.TightenDeadline(g0, p0, mpegDeadlineFactor); err != nil {
				return nil, nil, nil, err
			}
			p = p0
			segs := make([]*segment, nclips)
			newMs := make([]float64, nclips)
			for i := range segs {
				if segs[i], err = clip(i); err != nil {
					return nil, nil, nil, err
				}
				t0 := time.Now()
				if segs[i].mgr, err = segs[i].build(rec); err != nil {
					return nil, nil, nil, err
				}
				newMs[i] = ms(time.Since(t0))
			}
			return segs, g, newMs, nil
		},
		more: clip,
	}
	return runInproc(cfg, w)
}

// Scale workload: a 10³-task graph on 16 PEs where every step reschedules
// (T=0, cache off) and warm start is on. The initial profile is the drift
// vectors' own frequencies, so the estimator starts in its steady state: the
// first step falls back to a full DLS and stretch, every later one takes the
// warm partial path. Without the profile the windows' fill-up causes two to
// six full fallbacks, depending on the graph, which swamps the warm path.
// The 1200-step unit gives the untraced rebuild several seconds of work.
const (
	scaleDeadlineFactor = 2.0
	scaleProfileSteps   = 60
	scaleUnit           = 1200
	scaleVectors        = 20000
)

func runScale(cfg config) (*outcome, error) {
	sc := exp.ScaleConfig{Tasks: 1000, PEs: 16, Forks: 5, Seed: derive(cfg.seed, streamScale, 0)}
	w := &inproc{
		setupReps: 3,
		unit:      scaleUnit,
		setup: func(rec telemetry.Recorder) ([]*segment, *ctg.Graph, []float64, error) {
			g0, p, err := exp.ScaleWorkload(sc)
			if err != nil {
				return nil, nil, nil, err
			}
			g, err := core.TightenDeadline(g0, p, scaleDeadlineFactor)
			if err != nil {
				return nil, nil, nil, err
			}
			vecs := exp.ScaleDriftVectors(g, scaleVectors)
			if err := trace.ApplyProfile(g, trace.AverageProbs(g, vecs[:scaleProfileSteps])); err != nil {
				return nil, nil, nil, err
			}
			seg := &segment{
				label: fmt.Sprintf("scale/%d", sc.Seed),
				vecs:  vecs,
				build: func(rec telemetry.Recorder) (*core.Manager, error) {
					var o core.Options
					o.SetThreshold(0)
					o.CacheSize = -1
					o.WarmStart = true
					o.Recorder = rec
					return core.New(g, p, o)
				},
			}
			t0 := time.Now()
			if seg.mgr, err = seg.build(rec); err != nil {
				return nil, nil, nil, err
			}
			return []*segment{seg}, g, []float64{ms(time.Since(t0))}, nil
		},
		more: func(int) (*segment, error) { return nil, nil },
	}
	return runInproc(cfg, w)
}

// runInproc sets the workload up several times, steps through its inputs
// for the configured time and at least its unit, then rebuilds the unit's
// managers by replaying their inputs untraced: the rebuild must reproduce
// every step's outcome and the schedule digest the run reached.
func runInproc(cfg config, w *inproc) (*outcome, error) {
	out := &outcome{metrics: metrics{}}
	var rec *spanRecorder
	var recorder telemetry.Recorder // stays a nil interface when untraced
	if cfg.traced {
		rec = &spanRecorder{}
		recorder = rec
	}

	var (
		segs   []*segment
		g      *ctg.Graph
		setupS []float64
		newMs  []float64
	)
	for i := 0; i < w.setupReps; i++ {
		segs = nil // let the previous set-up's managers go before timing the next
		runtime.GC()
		t0 := time.Now()
		s, gg, nm, err := w.setup(recorder)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		segs, g, newMs = s, gg, append(newMs, nm...)
	}
	t0 := time.Now()
	if _, err := ctg.Analyze(g); err != nil {
		return nil, err
	}
	analyzeMs := ms(time.Since(t0))
	// The static baseline: the unit's inputs replayed on each manager's
	// initial schedule, which never adapts (the paper's online algorithm).
	var staticEnergy float64
	left := w.unit
	for _, s := range segs {
		out.notef("input %s", s.label)
		for _, v := range s.vecs[:min(left, len(s.vecs))] {
			inst, err := sim.ReplayDecisions(s.mgr.Schedule(), v)
			if err != nil {
				return nil, fmt.Errorf("static replay %s: %w", s.label, err)
			}
			staticEnergy += inst.Energy
		}
		left -= min(left, len(s.vecs))
	}

	// The measured run.
	var (
		lat, replayUS, selfUS       []float64
		stepTot, replayTot, spanTot float64
		unitStepTot                 float64 // traced step time of the unit's steps
		events                      int
		pl                          pipelineLayers
		loopWall                    time.Duration
		steps                       int
		used                        []*segment
		mem                         runtime.MemStats
		paused                      time.Duration
		lookups, hits, warm, warmFB int
	)
	start := time.Now()
	done := false
	for si := 0; !done; si++ {
		seg, err := nextSegment(w, segs, si)
		if err != nil {
			return nil, err
		}
		if seg == nil {
			break
		}
		m := seg.mgr
		if m == nil {
			if m, err = seg.build(recorder); err != nil {
				return nil, err
			}
		}
		used = append(used, seg)
		ls := time.Now()
		for _, v := range seg.vecs {
			if out.attempted >= w.unit && time.Since(start) >= cfg.seconds {
				done = true
				break
			}
			out.attempted++
			var (
				res        core.StepResult
				err        error
				d, replayD time.Duration
				evBefore   int
				replayInst sim.Instance
				replayErr  error
			)
			if rec != nil {
				rec.kept = rec.kept[:0]
				evBefore = rec.total
				r0 := time.Now()
				replayInst, replayErr = sim.ReplayDecisions(m.Schedule(), v)
				r1 := time.Now()
				res, err = m.Step(v)
				d = time.Since(r1)
				replayD = r1.Sub(r0)
			} else {
				s0 := time.Now()
				res, err = m.Step(v)
				d = time.Since(s0)
			}
			o := stepObs{err: err != nil}
			if err == nil {
				o = stepObs{energy: res.Instance.Energy, met: res.Instance.DeadlineMet, resched: res.Rescheduled}
			}
			seg.obs = append(seg.obs, o)
			if out.attempted <= w.unit {
				seg.unitSteps++
				if out.attempted == w.unit {
					// The unit's end is the same program state in every run of
					// this seed: digest it, and take the live heap there.
					p0 := time.Now()
					seg.unitDigest = digest(m)
					runtime.GC()
					runtime.ReadMemStats(&mem)
					paused += time.Since(p0)
				}
			}
			if err != nil {
				out.failed++
				continue
			}
			steps++
			lat = append(lat, us(d))
			if rec != nil {
				if replayErr != nil || replayInst.Energy != res.Instance.Energy || replayInst.Makespan != res.Instance.Makespan {
					out.failed++
					out.mismatch("%s step %d: sim.ReplayDecisions on the incumbent gives energy %v makespan %v, Step gave %v %v (err %v)",
						seg.label, len(seg.obs)-1, replayInst.Energy, replayInst.Makespan, res.Instance.Energy, res.Instance.Makespan, replayErr)
				}
				spans := pl.add(rec.kept, false)
				events += rec.total - evBefore
				stepTot += us(d)
				replayTot += us(replayD)
				spanTot += spans
				replayUS = append(replayUS, us(replayD))
				selfUS = append(selfUS, us(d)-us(replayD)-spans)
				if out.attempted <= w.unit {
					unitStepTot += us(d)
				}
			}
		}
		loopWall += time.Since(ls) - paused
		paused = 0
		if seg.unitSteps == len(seg.obs) && seg.unitSteps > 0 && out.attempted < w.unit {
			seg.unitDigest = digest(m)
		}
		cs := m.CacheStats()
		lookups += cs.Hits + cs.Misses
		hits += cs.Hits
		ws, wfb := m.WarmStats()
		warm += ws
		warmFB += wfb
		seg.mgr = nil
	}

	// Rebuild the unit by replay, untraced: the reference every output is
	// checked against, and the in-process counterpart of the daemon's
	// restore.
	rs := time.Now()
	var refWall time.Duration
	for _, seg := range used {
		if seg.unitSteps == 0 {
			continue
		}
		m, err := seg.build(nil)
		if err != nil {
			return nil, fmt.Errorf("rebuild %s: %w", seg.label, err)
		}
		ls := time.Now()
		bad := 0
		for i, o := range seg.obs[:seg.unitSteps] {
			res, err := m.Step(seg.vecs[i])
			got := stepObs{err: err != nil}
			if err == nil {
				got = stepObs{energy: res.Instance.Energy, met: res.Instance.DeadlineMet, resched: res.Rescheduled}
			}
			if got != o {
				if bad == 0 {
					out.mismatch("%s step %d: run gave %+v, untraced rebuild gave %+v", seg.label, i, o, got)
				}
				bad++
			}
		}
		refWall += time.Since(ls)
		if d := digest(m); d != seg.unitDigest {
			out.mismatch("%s: schedule digest %016x after %d steps, untraced rebuild %016x", seg.label, seg.unitDigest, seg.unitSteps, d)
			bad++
		}
		out.failed += bad
	}
	recovery := time.Since(rs)
	if out.failed > out.attempted {
		out.failed = out.attempted
	}

	// Outcome of the unit, in run order.
	var energy float64
	inst, met, resched := 0, 0, 0
	for _, seg := range used {
		for i, o := range seg.obs {
			if o.resched {
				resched++
			}
			if i < seg.unitSteps && !o.err {
				inst++
				energy += o.energy
				if o.met {
					met++
				}
			}
		}
	}

	m := out.metrics
	if !cfg.traced {
		m["setup_s"] = median(setupS)
		m["step_p50_us"] = quantile(lat, 0.5)
		m["step_p95_us"] = quantile(lat, 0.95)
		m["steps_per_s"] = float64(steps) / loopWall.Seconds()
		// A closed loop has no due times: a step is on time when it succeeds.
		m["on_time_ratio"] = 1 - ratio(out.failed, out.attempted)
		m["ok_ratio"] = 1 - ratio(out.failed, out.attempted)
		m["energy_vs_static"] = energy / staticEnergy
		m["met_ratio"] = ratio(met, inst)
		m["heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	} else {
		m["recovery_s"] = recovery.Seconds()
		m["sim.replay_us"] = median(replayUS)
		m["core.step_self_us"] = median(selfUS)
		m["core.steps"] = float64(steps)
		m["core.resched_ratio"] = ratio(resched, steps)
		m["core.cache_lookups"] = float64(lookups)
		m["core.cache_hit_ratio"] = ratio(hits, lookups)
		m["core.warm_attempts"] = float64(warm + warmFB)
		m["core.warm_ratio"] = ratio(warm, warm+warmFB)
		m["core.initial_schedule_ms"] = median(newMs)
		m["ctg.analyze_ms"] = analyzeMs
		pl.report(m)
		m["stretch.share"] = 100 * pl.stretchTotal() / stepTot
		m["telemetry.events_per_step"] = ratio(events, steps)
		m["trace.unaccounted_pct"] = unaccountedPct(stepTot, replayTot, spanTot)
		m["trace.overhead_pct"] = 100 * (unitStepTot - us(refWall)) / us(refWall)
	}

	out.notef("steps %d over %d managers in %.2fs of stepping; unit %d steps: %d met, energy %.6f per instance, static %.6f",
		steps, len(used), loopWall.Seconds(), w.unit, met, energy/float64(inst), staticEnergy/float64(inst))
	if q, ok := tailQuantile(len(lat)); ok {
		out.notef("step tail p%g = %.1f us (n=%d)", 100*q, quantile(lat, q), len(lat))
	}
	out.notef("reschedules %d of %d steps; cache hits %d of %d lookups; warm starts %d of %d attempts (%d full fallbacks)",
		resched, steps, hits, lookups, warm, warm+warmFB, warmFB)
	out.notef("setup %d reps, median %.4fs; rebuild of the unit by replay %.3fs", len(setupS), median(setupS), recovery.Seconds())
	return out, nil
}

func nextSegment(w *inproc, segs []*segment, i int) (*segment, error) {
	if i < len(segs) {
		return segs[i], nil
	}
	return w.more(i)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

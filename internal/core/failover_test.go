package core

import (
	"reflect"
	"testing"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// TestNilFailureTimelineBitForBit pins the availability layer's passivity: a
// manager driven by a timeline that never fails anything produces the exact
// same RunStats AND the exact same telemetry stream as a manager with no
// timeline at all. (Failures requires Recovery, so the baseline enables
// Recovery too.)
func TestNilFailureTimelineBitForBit(t *testing.T) {
	run := func(tl *faults.Timeline) (RunStats, []telemetry.Event) {
		g, p := telemetryWorkload(t, 12)
		rec := telemetry.NewMemoryRecorder()
		m, err := New(g, p, Options{
			Window: 10, Threshold: 0.1, GuardBand: 0.2,
			Recovery: true, Failures: tl, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(trace.Fluctuating(g, 3, 60, 0.45))
		if err != nil {
			t.Fatal(err)
		}
		return st, rec.Events()
	}
	_, p := telemetryWorkload(t, 12)
	never, err := faults.NewTimeline(faults.FailureSpec{Seed: 9}, p.NumPEs())
	if err != nil {
		t.Fatal(err)
	}
	plainStats, plainEvents := run(nil)
	tlStats, tlEvents := run(never)
	if plainStats != tlStats {
		t.Fatalf("never-failing timeline changed RunStats:\nnil      %+v\ntimeline %+v",
			plainStats, tlStats)
	}
	// pipeline_span values are wall-clock durations — nondeterministic even
	// between two identical runs. The passivity property covers everything
	// else about the stream (kinds, order, seq/cause ids, payloads).
	for _, evs := range [][]telemetry.Event{plainEvents, tlEvents} {
		for i := range evs {
			if evs[i].Kind == telemetry.KindSpan {
				evs[i].Value = 0
			}
		}
	}
	if !reflect.DeepEqual(plainEvents, tlEvents) {
		t.Fatalf("never-failing timeline changed the telemetry stream (%d vs %d events)",
			len(plainEvents), len(tlEvents))
	}
	if tlStats.Remaps != 0 || tlStats.DegradedInstances != 0 || tlStats.TopologyMisses != 0 {
		t.Fatalf("healthy run reports availability activity: %+v", tlStats)
	}
}

// TestPermanentPEFailureRemapsAndCompletes is the acceptance scenario: a
// permanent single-PE death on the MPEG decoder mid-run. The manager must
// detect the loss at the instance boundary, re-map onto the survivors, and
// complete every remaining instance with no deadlock.
func TestPermanentPEFailureRemapsAndCompletes(t *testing.T) {
	g0, p, err := mpeg.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := TightenDeadline(g0, p, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	vec := trace.MovieClips()[0].Generate(g, 80)

	const deadPE, failAt = 1, 20
	tl, err := faults.NewTimeline(faults.FailureSpec{
		Events: []faults.FailureEvent{{Kind: faults.EventPE, PE: deadPE, Instance: failAt}},
	}, p.NumPEs())
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewMemoryRecorder()
	m, err := New(g, p, Options{Window: 20, Threshold: 0.1, Recovery: true, Failures: tl, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(vec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances != len(vec) {
		t.Fatalf("completed %d/%d instances", st.Instances, len(vec))
	}
	if st.Remaps < 1 {
		t.Fatalf("Remaps = %d, want ≥ 1", st.Remaps)
	}
	if want := len(vec) - failAt; st.DegradedInstances != want {
		t.Fatalf("DegradedInstances = %d, want %d", st.DegradedInstances, want)
	}
	// The degraded schedule must avoid the dead PE entirely.
	if !m.Degraded() {
		t.Fatal("manager not degraded after permanent death")
	}
	for task, pe := range m.Schedule().PE {
		if pe == deadPE {
			t.Fatalf("task %d still mapped to dead PE %d", task, deadPE)
		}
	}
	if m.Fallback() != nil {
		for task, pe := range m.Fallback().PE {
			if pe == deadPE {
				t.Fatalf("fallback maps task %d to dead PE %d", task, deadPE)
			}
		}
	}
	// Telemetry narrates the loss: one permanent pe_down, one degraded remap.
	byKind := rec.CountByKind()
	if byKind[telemetry.KindPEDown] != 1 || byKind[telemetry.KindRemap] != 1 {
		t.Fatalf("pe_down=%d remap=%d, want 1/1",
			byKind[telemetry.KindPEDown], byKind[telemetry.KindRemap])
	}
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.KindPEDown {
			if ev.PE != deadPE || ev.Instance != failAt || ev.Reason != "permanent" {
				t.Fatalf("pe_down event %+v, want PE %d at %d (permanent)", ev, deadPE, failAt)
			}
		}
	}
}

// TestTransientOutageRestoresFromCache pins the recovery economics: when a
// transient outage heals, the healthy mask keys back to the pre-failure
// cache entries, so the restore reschedule is a cache hit, and the runtime
// reports one degraded and one restored remap.
func TestTransientOutageRestoresFromCache(t *testing.T) {
	g, p := telemetryWorkload(t, 7)
	const failAt, repair = 5, 4
	tl, err := faults.NewTimeline(faults.FailureSpec{
		Events: []faults.FailureEvent{
			{Kind: faults.EventPE, PE: 0, Instance: failAt, Duration: repair},
		},
	}, p.NumPEs())
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewMemoryRecorder()
	m, err := New(g, p, Options{Window: 10, Threshold: 0.9, Recovery: true, Failures: tl, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Constant vectors: no drift, so every reschedule is topology-driven.
	vectors := trace.Fluctuating(g, 1, 20, 0)
	st, err := m.Run(vectors)
	if err != nil {
		t.Fatal(err)
	}
	if st.Remaps != 2 {
		t.Fatalf("Remaps = %d, want 2 (degrade + restore)", st.Remaps)
	}
	if st.DegradedInstances != repair {
		t.Fatalf("DegradedInstances = %d, want %d", st.DegradedInstances, repair)
	}
	if m.Degraded() {
		t.Fatal("manager still degraded after repair")
	}
	if cs := m.CacheStats(); cs.Hits < 1 {
		t.Fatalf("restore reschedule missed the cache: %+v", cs)
	}
	var reasons []string
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.KindRemap {
			reasons = append(reasons, ev.Reason)
		}
	}
	if !reflect.DeepEqual(reasons, []string{"degraded", "restored"}) {
		t.Fatalf("remap reasons = %v, want [degraded restored]", reasons)
	}
	if byKind := rec.CountByKind(); byKind[telemetry.KindPEUp] != 1 {
		t.Fatalf("pe_up events = %d, want 1", byKind[telemetry.KindPEUp])
	}
}

// TestRunStaticFailoverDeadlocks pins the static baseline's accounting: a
// fixed schedule that keeps dispatching onto a dead PE deadlocks on every
// instance that activates a task there, charged as a miss with one full
// deadline of lateness.
func TestRunStaticFailoverDeadlocks(t *testing.T) {
	g, p := telemetryWorkload(t, 5)
	s, err := BuildOnline(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vectors := trace.Fluctuating(g, 2, 12, 0.3)

	// Kill the PE hosting task 0 (the entry task, active in every scenario)
	// from instance 4 on: everything after that deadlocks.
	const failAt = 4
	tl, err := faults.NewTimeline(faults.FailureSpec{
		Events: []faults.FailureEvent{{Kind: faults.EventPE, PE: s.PE[0], Instance: failAt}},
	}, p.NumPEs())
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunStatic(s, vectors, sim.Config{}, tl)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(vectors) - failAt; st.DegradedInstances != want || st.TopologyMisses != want {
		t.Fatalf("degraded/topo = %d/%d, want %d/%d",
			st.DegradedInstances, st.TopologyMisses, want, want)
	}
	if st.Misses < st.TopologyMisses {
		t.Fatalf("Misses %d < TopologyMisses %d", st.Misses, st.TopologyMisses)
	}
	if st.TotalLateness < float64(st.TopologyMisses)*g.Deadline() {
		t.Fatalf("TotalLateness %v below the one-deadline-per-deadlock floor %v",
			st.TotalLateness, float64(st.TopologyMisses)*g.Deadline())
	}
	// A timeline that never fails anything is exactly the nil-timeline run.
	never, err := faults.NewTimeline(faults.FailureSpec{Seed: 9}, p.NumPEs())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunStatic(s, vectors, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaNever, err := RunStatic(s, vectors, sim.Config{}, never)
	if err != nil {
		t.Fatal(err)
	}
	if plain != viaNever {
		t.Fatalf("never-failing timeline diverged from the nil-timeline run")
	}
}

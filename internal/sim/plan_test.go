package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/tgff"
)

// oracleDispatches is the activity builder the dispatch plan replaced: it
// collects the scenario's active tasks and cross-PE transfers straight from
// Start and CommStart and sorts them on every call (nominal start, transfers
// first on ties, then ID), checking every task before any edge for masked
// hardware.
func oracleDispatches(s *sched.Schedule, scenario int) ([]sched.Dispatch, error) {
	active := s.A.Scenario(scenario).Active
	var acts []sched.Dispatch
	for t := 0; t < s.G.NumTasks(); t++ {
		if active.Get(t) {
			if !s.P.PEAlive(s.PE[t]) {
				return nil, fmt.Errorf("sim: scenario %d dispatches task %d on dead PE %d",
					scenario, t, s.PE[t])
			}
			acts = append(acts, sched.Dispatch{Start: s.Start[t], ID: int32(t)})
		}
	}
	for ei, e := range s.G.Edges() {
		if s.CommStart[ei] == sched.LocalComm {
			continue
		}
		if active.Get(int(e.From)) && active.Get(int(e.To)) {
			if !s.P.LinkUp(s.PE[e.From], s.PE[e.To]) {
				return nil, fmt.Errorf("sim: scenario %d routes edge %d->%d over down link %d->%d",
					scenario, e.From, e.To, s.PE[e.From], s.PE[e.To])
			}
			acts = append(acts, sched.Dispatch{Start: s.CommStart[ei], ID: int32(ei), Comm: true})
		}
	}
	sort.Slice(acts, func(i, j int) bool {
		if acts[i].Start != acts[j].Start {
			return acts[i].Start < acts[j].Start
		}
		if acts[i].Comm != acts[j].Comm {
			return acts[i].Comm
		}
		return acts[i].ID < acts[j].ID
	})
	return acts, nil
}

// oracleReplay is Replay over the oracle's sorted activity list.
func oracleReplay(s *sched.Schedule, scenario int, cfg Config) (Instance, error) {
	acts, err := oracleDispatches(s, scenario)
	if err != nil {
		return Instance{}, err
	}
	return replayOrder(s, scenario, cfg, acts), nil
}

// TestReplayFromPlanMatchesSortOracle pins the dispatch plan against the
// sort-per-call builder it replaced: over random fork-join and flat CTGs,
// every scenario under every runtime configuration must dispatch the same
// activities in the same order, produce the same Instance bit for bit and
// record the same event stream (kinds, order, Seq and every field). The
// exhaustive sweep runs on four workers, so under -race it also replays one
// shared plan concurrently.
func TestReplayFromPlanMatchesSortOracle(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	for _, cat := range []tgff.Category{tgff.ForkJoin, tgff.Flat} {
		for seed := int64(0); seed < seeds; seed++ {
			s, speeds := oracleWorkload(t, cat, 5200+seed)
			plan, err := faults.New(faults.Spec{
				Seed: 7 + seed, OverrunProb: 0.3, OverrunFactor: 1.4, HotTasks: 2, HotFactor: 1.2,
			}, s.G.NumTasks(), s.P.NumPEs())
			if err != nil {
				t.Fatal(err)
			}
			configs := map[string]func() Config{
				"zero":   func() Config { return Config{} },
				"faults": func() Config { return Config{Faults: plan, FaultInstance: 5} },
				"strict": func() Config { return Config{StrictOrDeps: true} },
				"speeds": func() Config { return Config{ScenarioSpeeds: speeds} },
				"switch": func() Config {
					return Config{SwitchTime: 0.7, SwitchEnergy: 0.3, InstanceID: 9,
						Recorder: telemetry.NewMemoryRecorder(), Seq: telemetry.NewSequencer()}
				},
			}
			for name, mk := range configs {
				where := fmt.Sprintf("cat %v seed %d %s", cat, seed, name)
				for si := 0; si < s.A.NumScenarios(); si++ {
					wantActs, wantErr := oracleDispatches(s, si)
					gotActs, gotErr := activeDispatches(s, si)
					if wantErr != nil || gotErr != nil {
						t.Fatalf("%s scenario %d: errors %v (plan) vs %v (oracle)", where, si, gotErr, wantErr)
					}
					if !reflect.DeepEqual(gotActs, wantActs) {
						t.Fatalf("%s scenario %d: plan dispatches %v, oracle %v", where, si, gotActs, wantActs)
					}
					gotCfg, wantCfg := withMemoryRecorder(mk()), withMemoryRecorder(mk())
					got, err := Replay(s, si, gotCfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := oracleReplay(s, si, wantCfg)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s scenario %d: plan replay %+v, oracle %+v", where, si, got, want)
					}
					gotEv := gotCfg.Recorder.(*telemetry.MemoryRecorder).Events()
					wantEv := wantCfg.Recorder.(*telemetry.MemoryRecorder).Events()
					if len(gotEv) == 0 || !reflect.DeepEqual(gotEv, wantEv) {
						t.Fatalf("%s scenario %d: event streams differ (%d vs %d events)",
							where, si, len(gotEv), len(wantEv))
					}
				}

				// The exhaustive sweep replays the shared plan from four
				// workers and must equal the oracle's serial aggregate.
				cfg := mk()
				cfg.Recorder, cfg.Seq = nil, nil
				insts := make([]Instance, s.A.NumScenarios())
				for si := range insts {
					ci := cfg
					if ci.Faults != nil {
						ci.FaultInstance = si
					}
					if insts[si], err = oracleReplay(s, si, ci); err != nil {
						t.Fatal(err)
					}
				}
				prev := par.SetLimit(4)
				sum, err := Exhaustive(s, cfg)
				par.SetLimit(prev)
				if err != nil {
					t.Fatal(err)
				}
				if want := summarize(s, insts); sum != want {
					t.Fatalf("%s: exhaustive %+v, oracle %+v", where, sum, want)
				}
			}
		}
	}
}

// withMemoryRecorder gives cfg a fresh in-memory recorder unless it already
// has one, so every replay's event stream can be compared.
func withMemoryRecorder(cfg Config) Config {
	if cfg.Recorder == nil {
		cfg.Recorder = telemetry.NewMemoryRecorder()
	}
	return cfg
}

// oracleWorkload schedules and stretches a random CTG against a deadline
// with slack, and returns it with its per-scenario speed table.
func oracleWorkload(t *testing.T, cat tgff.Category, seed int64) (*sched.Schedule, [][]float64) {
	t.Helper()
	g, p, err := tgff.Generate(tgff.Config{
		Seed: seed, Nodes: 20 + int(seed%7), PEs: 3, Branches: 2, Category: cat,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := g.WithDeadline(1.5 * s.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ctg.Analyze(g2)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = sched.DLS(a2, p, sched.Modified()); err != nil {
		t.Fatal(err)
	}
	sp, err := stretch.PerScenario(s, platform.Continuous(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stretch.Heuristic(s, platform.Continuous(), stretch.Options{}); err != nil {
		t.Fatal(err)
	}
	return s, sp.Speeds
}

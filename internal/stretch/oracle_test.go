package stretch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/tgff"
)

// oracleSlack is calculateSlack computed the direct way: one whole-graph DP,
// plus one more per minterm of Γ(τ). calculateSlack must match it bit for
// bit.
func oracleSlack(dag *dagModel, t ctg.TaskID, locked []bool, literalRatio bool, full, minterm *dpResult, seen *pathSet) float64 {
	s := dag.s
	a := s.A
	deadline := s.G.Deadline()
	wcet := s.WCET(t)
	probT := a.ActivationProb(t)

	dag.runInto(full, nil)

	slk1 := 0.0
	slk1Valid := false
	seen.reset()
	var seq []int32
	a.ActivationSet(t).ForEach(func(si int) {
		r := dag.runInto(minterm, a.Scenario(si).Assign)
		if r.downC[t] == negInf {
			return
		}
		slk1Valid = true
		seq = seq[:0]
		r.walkCritical(dag, t, 'C', func(u ctg.TaskID) { seq = append(seq, int32(u)) }, func(int) {})
		if !seen.add(seq) {
			return
		}
		delay := r.up[t] + dag.exec[t] + r.downC[t]
		denom := delay
		if !literalRatio {
			denom = r.criticalDenominator(dag, t, 'C', locked)
		}
		if ratio := (deadline - delay) / denom; ratio > 0 {
			slk1 += r.probC[t] * wcet * ratio * probT
		}
	})

	slk2 := math.Inf(1)
	slk2Valid := false
	if full.downU[t] > negInf {
		slk2Valid = true
		delay := full.up[t] + dag.exec[t] + full.downU[t]
		denom := delay
		if !literalRatio {
			denom = full.criticalDenominator(dag, t, 'U', locked)
		}
		slk2 = wcet * (deadline - delay) / denom * probT
	}

	var slk float64
	switch {
	case slk1Valid && slk2Valid:
		slk = math.Min(slk1, slk2)
	case slk1Valid:
		slk = slk1
	case slk2Valid:
		slk = slk2
	default:
		return 0
	}
	if m := deadline - dag.throughAny(full, t); slk > m {
		slk = m
	}
	if slk < 0 || math.IsInf(slk, 1) {
		return 0
	}
	return slk
}

// walkCritical traverses, for the oracle, the argmax chain through v whose suffix has the
// given class ('U', 'C' or 'A' for either), invoking node for every task on
// the chain and edge for every edge: v, then the prefix from v back to the
// chain start, then the suffix.
func (r *dpResult) walkCritical(d *dagModel, v ctg.TaskID, class byte,
	node func(ctg.TaskID), edge func(ei int)) {
	// Upward walk (prefix, visited from v back to the chain start).
	for u := v; ; {
		node(u)
		ei := r.ubp[u]
		if ei < 0 {
			break
		}
		edge(ei)
		u = d.edges[ei].From
	}
	// Downward walk in the requested class.
	for u := v; ; {
		ei, next := r.downStep(d, int(u), class)
		if ei < 0 {
			break
		}
		edge(ei)
		u, class = d.edges[ei].To, next
		node(u)
	}
}

// pathSet deduplicates critical-path node sequences so that a chain found
// critical for several minterms is counted once by the oracle: sequences
// are kept in an int32 arena and looked up by FNV-1a hash with exact
// sequence verification on hash hits.
type pathSet struct {
	arena []int32 // all interned sequences, concatenated
	// entries hold the interned [start, end) spans as hash-chained nodes:
	// heads maps a hash to the 1-based index of its newest entry and each
	// entry links to the previous one with the same hash. Chaining through a
	// flat slice (instead of map[hash][]span) keeps the steady state
	// allocation-free: reset truncates the slice and clears the map, and
	// re-populating an already-sized map and slice allocates nothing.
	entries []pathSpan
	heads   map[uint64]int32 // hash -> 1-based index into entries (0 = none)
}

// pathSpan is one interned sequence: [start, end) in the arena plus the
// 1-based index of the previous entry with the same hash.
type pathSpan struct {
	start, end int32
	prev       int32
}

// reset clears the set, retaining capacity.
func (p *pathSet) reset() {
	p.arena = p.arena[:0]
	p.entries = p.entries[:0]
	if p.heads == nil {
		p.heads = make(map[uint64]int32)
	} else {
		clear(p.heads)
	}
}

// fnv1a hashes an int32 sequence (FNV-1a over the little-endian bytes).
func fnv1a(seq []int32) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range seq {
		u := uint32(v)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= prime
		}
	}
	return h
}

// add adds a node sequence to the set, reporting whether it was new.
func (p *pathSet) add(seq []int32) bool {
	h := fnv1a(seq)
	for idx := p.heads[h]; idx != 0; {
		span := p.entries[idx-1]
		idx = span.prev
		if slices.Equal(p.arena[span.start:span.end], seq) {
			return false
		}
	}
	start := int32(len(p.arena))
	p.arena = append(p.arena, seq...)
	p.entries = append(p.entries, pathSpan{start: start, end: int32(len(p.arena)), prev: p.heads[h]})
	p.heads[h] = int32(len(p.entries))
	return true
}

// oracleHeuristic is Heuristic over oracleSlack.
func oracleHeuristic(s *sched.Schedule, d platform.DVFS, o Options) Result {
	n := s.G.NumTasks()
	dag := newDAG(s)
	locked := make([]bool, n)
	for t := 0; t < n; t++ {
		switch {
		case o.Affected == nil:
		case o.Affected[t]:
			if s.Speed[t] != 1 {
				s.Speed[t] = 1
				dag.refreshExec(ctg.TaskID(t))
			}
		default:
			locked[t] = true
		}
	}
	full, minterm := newDPResult(n), newDPResult(n)
	var seen pathSet
	var res Result
	for _, t := range s.Order {
		if o.Affected != nil && !o.Affected[t] {
			continue
		}
		if slk := oracleSlack(dag, t, locked, o.LiteralRatio, full, minterm, &seen); slk > 0 {
			wcet := s.WCET(t)
			res.SlackFound += slk
			speed := d.GuardedSpeedForTime(wcet, wcet+slk, o.Guard)
			if speed < 1 {
				s.Speed[t] = speed
				dag.refreshExec(t)
				res.Stretched++
				res.SlackUsed += wcet/speed - wcet
			}
		}
		locked[t] = true
	}
	if o.Affected == nil {
		res.ExpectedEnergy = s.ExpectedEnergy()
	}
	res.WorstDelay = dag.longest(dag.run(nil))
	return res
}

// oracleWorkload schedules a random CTG of the given tgff category.
func oracleWorkload(t *testing.T, seed int64, cat tgff.Category, factor float64) *sched.Schedule {
	t.Helper()
	branches := int(seed % 6)
	g, p, err := tgff.Generate(tgff.Config{
		Seed: seed, Nodes: 2 + 3*branches + int(seed%53), PEs: 2 + int(seed%4),
		Branches: branches, Category: cat,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := g.WithDeadline(factor * s0.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ctg.Analyze(g2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a2, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// orderCrossesPseudoEdge reports whether the DLS order lists some pseudo
// edge's head before its tail.
func orderCrossesPseudoEdge(s *sched.Schedule) bool {
	pos := make([]int, s.G.NumTasks())
	for i, t := range s.Order {
		pos[t] = i
	}
	for _, e := range s.Pseudo {
		if pos[e.To] < pos[e.From] {
			return true
		}
	}
	return false
}

// sharesClasses reports whether some task's minterms share a scenario class
// in one half of the DP, so the grouping is exercised.
func sharesClasses(s *sched.Schedule) bool {
	dag := newDAG(s)
	dag.classes()
	for t := range dag.exec {
		gamma := s.A.ActivationSet(ctg.TaskID(t))
		for _, rows := range []*classRows{&dag.up, &dag.down} {
			classes := map[int]bool{}
			gamma.ForEach(func(si int) { classes[rows.at(ctg.TaskID(t), si)] = true })
			if len(classes) < gamma.Count() {
				return true
			}
		}
	}
	return false
}

func sameResult(a, b Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Stretched == b.Stretched && eq(a.ExpectedEnergy, b.ExpectedEnergy) &&
		eq(a.WorstDelay, b.WorstDelay) && eq(a.SlackFound, b.SlackFound) && eq(a.SlackUsed, b.SlackUsed)
}

func sameSpeeds(t *testing.T, what string, want, got []float64) {
	t.Helper()
	for task := range want {
		if math.Float64bits(want[task]) != math.Float64bits(got[task]) {
			t.Fatalf("%s: task %d speed %v (oracle) != %v", what, task, want[task], got[task])
		}
	}
}

// TestHeuristicMatchesWholeGraphOracle pins the cone and scenario-class DP
// to the direct computation: Heuristic's speeds and Result equal the
// whole-graph oracle's bit for bit over ForkJoin and Flat graphs (Flat's DLS
// orders cross pseudo edges), both ratio readings, guard 0 and 0.3, and
// masked passes over a bound workspace. PerScenario's per-scenario stretch
// is checked the same way.
func TestHeuristicMatchesWholeGraphOracle(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	crossed, shared := false, false
	for _, cat := range []tgff.Category{tgff.ForkJoin, tgff.Flat} {
		for seed := int64(0); seed < seeds; seed++ {
			factor := []float64{1.2, 1.6, 2.5}[seed%3]
			base := oracleWorkload(t, seed, cat, factor)
			crossed = crossed || orderCrossesPseudoEdge(base)
			shared = shared || sharesClasses(base)
			rng := rand.New(rand.NewSource(seed))
			for _, literal := range []bool{false, true} {
				for _, guard := range []float64{0, 0.3} {
					o := Options{Guard: guard, LiteralRatio: literal}
					want, got := base.Clone(), base.Clone()
					wantRes := oracleHeuristic(want, platform.Continuous(), o)
					gotRes, err := Heuristic(got, platform.Continuous(), o)
					if err != nil {
						t.Fatal(err)
					}
					what := func(pass string) string {
						return fmt.Sprintf("%s pass, category %d seed %d literal %v guard %v", pass, cat, seed, literal, guard)
					}
					sameSpeeds(t, what("full"), want.Speed, got.Speed)
					if !sameResult(wantRes, gotRes) {
						t.Fatalf("%s: result %+v (oracle) != %+v", what("full"), wantRes, gotRes)
					}

					// A masked pass over the stretched schedule.
					affected := make([]bool, base.G.NumTasks())
					for i := range affected {
						affected[i] = rng.Intn(2) == 0
					}
					o.Affected = affected
					ws := NewWorkspace()
					ws.Rebind(got)
					o.Workspace = ws
					wantRes = oracleHeuristic(want, platform.Continuous(), o)
					if gotRes, err = Heuristic(got, platform.Continuous(), o); err != nil {
						t.Fatal(err)
					}
					sameSpeeds(t, what("masked"), want.Speed, got.Speed)
					if !sameResult(wantRes, gotRes) {
						t.Fatalf("%s: result %+v (oracle) != %+v", what("masked"), wantRes, gotRes)
					}
				}
			}
			for _, guard := range []float64{0, 0.3} {
				scr := newScenarioScratch(newDAG(base))
				for si := 0; si < base.A.NumScenarios(); si++ {
					want := oracleScenarioStretch(base, platform.Continuous(), si, guard)
					sameSpeeds(t, "per-scenario", want, scenarioStretch(base, platform.Continuous(), si, scr, guard))
				}
			}
		}
	}
	if !crossed {
		t.Error("no workload's DLS order crosses a pseudo edge; the Flat cases lost their point")
	}
	if !shared {
		t.Error("no task's minterms share a scenario class; the grouping went unexercised")
	}
}

// oracleScenarioStretch is scenarioStretch with a whole-graph DP per task.
func oracleScenarioStretch(s *sched.Schedule, d platform.DVFS, si int, guard float64) []float64 {
	sc := s.A.Scenario(si)
	scr := newScenarioScratch(newDAG(s))
	scr.load(sc.Active)
	dag := &scr.view
	deadline := s.G.Deadline()
	speeds := make([]float64, len(dag.exec))
	for t := range speeds {
		speeds[t] = 1
	}
	for _, t := range s.Order {
		if sc.Active.Get(int(t)) {
			r := dag.runInto(scr.dp, sc.Assign)
			if slack := deadline - dag.throughAny(r, t); slack > 0 {
				wcet := s.WCET(t)
				slk := wcet * slack / r.criticalDenominator(dag, t, 'A', scr.locked)
				if slk > slack {
					slk = slack
				}
				if slk > 0 {
					if speed := d.GuardedSpeedForTime(wcet, wcet+slk, guard); speed < 1 {
						speeds[t] = speed
						dag.exec[t] = wcet / speed
					}
				}
			}
		}
		scr.locked[t] = true
	}
	return speeds
}

// TestClassRowsMatchForkOutcomes pins the class rows to their definition:
// at every task, in each half, two scenarios share a class exactly when
// they agree on every fork of the task's set (found by a graph search), the
// ids run densely from 0, and a task with an empty set has no row. It runs
// on a chain of three binary diamonds, where the entry sees all eight
// scenarios apart below it and the last join sees them apart above it, and
// on the oracle workloads.
func TestClassRowsMatchForkOutcomes(t *testing.T) {
	b := ctg.NewBuilder()
	entry := b.AddTask("entry", ctg.AndNode)
	last := entry
	for k := 0; k < 3; k++ {
		fork := b.AddTask("", ctg.AndNode)
		b.AddEdge(last, fork, 0)
		join := b.AddTask("", ctg.OrNode)
		for outcome := 0; outcome < 2; outcome++ {
			arm := b.AddTask("", ctg.AndNode)
			b.AddCondEdge(fork, arm, 0, outcome)
			b.AddEdge(arm, join, 0)
		}
		b.SetBranchProbs(fork, []float64{0.5, 0.5})
		last = join
	}
	g, err := b.Build(1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	diamonds, err := sched.DLS(a, uniformPlatform(t, g.NumTasks(), 2, 1, 1), sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumScenarios() != 8 {
		t.Fatalf("%d scenarios, want 8", a.NumScenarios())
	}
	dag := newDAG(diamonds)
	dag.classes()
	if got := dag.down.count(entry); got != 8 {
		t.Fatalf("entry: %d down classes, want 8", got)
	}
	if got := dag.up.count(last); got != 8 {
		t.Fatalf("last join: %d up classes, want 8", got)
	}
	if dag.up.row[entry] >= 0 {
		t.Fatal("entry has no fork above it, yet an up row")
	}

	schedules := []*sched.Schedule{diamonds}
	for _, cat := range []tgff.Category{tgff.ForkJoin, tgff.Flat} {
		for seed := int64(0); seed < 20; seed++ {
			schedules = append(schedules, oracleWorkload(t, seed, cat, 1.6))
		}
	}
	for i, s := range schedules {
		dag := newDAG(s)
		dag.classes()
		ns := s.A.NumScenarios()
		for half, sets := range [][]forkSet{reachForks(s, true), reachForks(s, false)} {
			rows := []*classRows{&dag.up, &dag.down}[half]
			for v, set := range sets {
				task := ctg.TaskID(v)
				if set.empty() != (rows.row[v] < 0) {
					t.Fatalf("schedule %d half %d task %d: fork set %v, row %d", i, half, v, set, rows.row[v])
				}
				used := make([]bool, rows.count(task))
				for si := 0; si < ns; si++ {
					used[rows.at(task, si)] = true
					for sj := 0; sj < si; sj++ {
						agree := ancestorKey(s.A.Scenario(si).Assign, set) == ancestorKey(s.A.Scenario(sj).Assign, set)
						if same := rows.at(task, si) == rows.at(task, sj); same != agree {
							t.Fatalf("schedule %d half %d task %d: scenarios %d and %d share a class %v, agree on %v %v",
								i, half, v, si, sj, same, set, agree)
						}
					}
				}
				if slices.Contains(used, false) {
					t.Fatalf("schedule %d half %d task %d: class ids %v not dense", i, half, v, used)
				}
			}
		}
	}
}

// oracleWorstCase is WorstCase with a whole-graph DP per task.
func oracleWorstCase(s *sched.Schedule, d platform.DVFS) Result {
	dag := newDAG(s)
	deadline := s.G.Deadline()
	var res Result
	for _, t := range s.Order {
		r := dag.run(nil)
		delay := dag.throughAny(r, t)
		slack := deadline - delay
		if slack <= 0 {
			continue
		}
		wcet := s.WCET(t)
		slk := wcet * slack / delay
		if slk > slack {
			slk = slack
		}
		if speed := d.SpeedForTime(wcet, wcet+slk); speed < 1 {
			s.Speed[t] = speed
			dag.refreshExec(t)
			res.Stretched++
		}
	}
	res.ExpectedEnergy = s.ExpectedEnergy()
	res.WorstDelay = dag.longest(dag.run(nil))
	return res
}

// TestWorstCaseMatchesWholeGraphOracle pins WorstCase's carried
// decomposition to a whole-graph DP per task: speeds and Result equal bit
// for bit over ForkJoin and Flat graphs, continuous and discrete DVFS.
func TestWorstCaseMatchesWholeGraphOracle(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	for _, cat := range []tgff.Category{tgff.ForkJoin, tgff.Flat} {
		for seed := int64(0); seed < seeds; seed++ {
			base := oracleWorkload(t, seed, cat, []float64{1.2, 1.6, 2.5}[seed%3])
			for _, d := range []platform.DVFS{platform.Continuous(), platform.Discrete(0.3, 0.5, 0.7, 1)} {
				if err := d.Validate(); err != nil {
					t.Fatal(err)
				}
				want, got := base.Clone(), base.Clone()
				wantRes := oracleWorstCase(want, d)
				gotRes, err := WorstCase(got, d)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("category %d seed %d %v", cat, seed, d)
				sameSpeeds(t, what, want.Speed, got.Speed)
				if !sameResult(wantRes, *gotRes) {
					t.Fatalf("%s: result %+v (oracle) != %+v", what, wantRes, *gotRes)
				}
			}
		}
	}
}

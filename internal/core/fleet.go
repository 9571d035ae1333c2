package core

import (
	"fmt"
	"sort"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/power"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/stretch"
	"ctgdvfs/internal/telemetry"
)

// Tenant describes one application consolidated onto the shared fabric.
type Tenant struct {
	// Name identifies the tenant in telemetry and results; must be unique
	// and non-empty within a fleet.
	Name string
	// Criticality orders the degradation ladder: when the power budget
	// binds, lower-criticality tenants lose PEs and are shed first. Higher
	// is more critical; ties break toward the earlier tenant being more
	// critical.
	Criticality int
	// G is the tenant's conditional task graph.
	G *ctg.Graph
	// P carries the tenant's WCET/energy tables over the *shared* fabric:
	// every tenant's platform must be unrestricted and sized to the same
	// PE count. The fleet partitions that fabric and hands each tenant a
	// partition-restricted view.
	P *platform.Platform
	// Opts configures the tenant's adaptive manager. Failures is forbidden
	// (the fleet owns the availability state); Recorder/Metrics here feed
	// the tenant's own manager, typically shared with FleetOptions.
	Opts Options
}

// FleetOptions configures a consolidation fleet.
type FleetOptions struct {
	// Budget, when non-nil, turns on chip-power measurement. With
	// Ungoverned false the fleet runs the full budget governor
	// (degradation ladder, revocation, shedding); with Ungoverned true it
	// only meters what the cap would have seen — the campaign's baseline
	// arm. Nil disables power accounting entirely (pure hosting).
	Budget     *power.Budget
	Ungoverned bool
	// MinPEs floors how many PEs revocation may leave a tenant (default 1).
	MinPEs int
	// DeadlineFactor, when positive, resets every tenant's deadline to
	// factor × the makespan of a full-speed DLS schedule on its partition —
	// the consolidation analogue of TightenDeadline, guaranteeing each
	// tenant starts feasible on the hardware it was actually granted.
	DeadlineFactor float64
	// Recorder receives the fleet's budget events (budget_exceeded,
	// pe_revoked, tenant_degraded, tenant_restored); nil disables them.
	Recorder telemetry.Recorder
	// Metrics is the registry for the fleet's gauges and counters: the
	// fleet-state gauges ("adaptive.fleet_rung", "adaptive.fleet_tenants_live",
	// per-tenant "adaptive.tenant_guard_level.<name>") and — with a Budget —
	// the power metrics (names prefixed "adaptive.power_"). Nil gives the
	// fleet a private registry. Share one registry across the fleet and its
	// tenants for the consolidated view.
	Metrics *telemetry.Registry
	// Series, when non-nil, is ticked once per fleet round after the power
	// observation, sampling the fleet's registry (rung, power, per-tenant
	// miss rate / guard level / round energy) on the deterministic round
	// axis. A round whose measurement window breached the cap ticks with the
	// budget_exceeded seq as cause, so alert firings chain to the breach.
	// Point the store at the same registry as Metrics. Nil disables sampling.
	Series *series.Store
}

// rungKind enumerates what one degradation-ladder rung does.
type rungKind int

const (
	// rungGuard scales every tenant's guard band (fleet-wide): released
	// slack margin buys lower speeds, hence lower power.
	rungGuard rungKind = iota
	// rungRevoke power-gates one PE of one tenant.
	rungRevoke
	// rungShed stops scheduling one tenant entirely; its remaining PEs are
	// power-gated until restore.
	rungShed
)

// rung is one step of the degradation ladder. Ladder level L means rungs
// [0, L) are in force; escalating to L applies rung L−1, restoring from L
// releases it.
type rung struct {
	kind   rungKind
	tenant int     // tenants index (rungRevoke, rungShed)
	pe     int     // revoked PE (rungRevoke)
	scale  float64 // guard-band scale (rungGuard)
}

// fleetTenant is a Tenant plus its runtime state.
type fleetTenant struct {
	Tenant
	mgr *Manager
	agg runAgg

	// partition is the granted PE set, best-first (ascending total WCET), so
	// revocation takes the least useful PE first: partition[:held] is what
	// the tenant currently runs on.
	partition []int
	partMask  platform.Mask
	revoked   int
	shed      bool
	shedRound int // rounds skipped while shed

	baseGuard  float64
	guardScale float64

	// guardGauge mirrors the tenant manager's circuit-breaker guard level
	// ("adaptive.tenant_guard_level.<name>"), updated every fleet round.
	// missGauge/energyGauge publish the tenant's running miss rate
	// ("adaptive.tenant_miss_rate.<name>") and last round energy
	// ("adaptive.tenant_round_energy.<name>") — the per-tenant rows of the
	// watch view. misses/insts back the rate (registry handles aggregate and
	// cannot be read back).
	guardGauge  *telemetry.Gauge
	missGauge   *telemetry.Gauge
	energyGauge *telemetry.Gauge
	misses      int
	insts       int
}

func (t *fleetTenant) held() int { return len(t.partition) - t.revoked }

// heldMask composes the tenant's partition with its current revocations —
// the mask its manager must run under. Mask.Intersect is the composition
// law here: ApplyAvailability replaces the manager's availability state
// wholesale, so the layers have to be merged before the call.
func (t *fleetTenant) heldMask(numPEs int) platform.Mask {
	rev := platform.FullMask(numPEs)
	for _, pe := range t.partition[t.held():] {
		rev.PEs[pe] = false
	}
	return t.partMask.Intersect(rev, numPEs)
}

// fleetMetrics holds the fleet's resolved registry handles. The power
// handles ("adaptive.power_*") resolve only with a Budget; the fleet-state
// gauges (rung, tenantsLive) resolve always.
type fleetMetrics struct {
	window, cap, heat, level     *telemetry.Gauge
	exceeded, revocations, sheds *telemetry.Counter
	escalations, restores        *telemetry.Counter

	// rung is the degradation-ladder level currently in force
	// ("adaptive.fleet_rung"); tenantsLive counts tenants not shed
	// ("adaptive.fleet_tenants_live"); roundPower is the last round's chip
	// power ("adaptive.power_round") — instantaneous, where window is the
	// budget's sliding mean.
	rung, tenantsLive, roundPower *telemetry.Gauge
}

// Fleet hosts N per-tenant adaptive managers on one shared fabric,
// partitioning the PEs by demand-weighted shares and — when a power budget
// is configured — governing chip power with a criticality-ordered graceful
// degradation ladder: first every tenant's guard band is released (lower
// speeds), then the least-critical tenants lose PEs one at a time, then they
// are shed entirely; restoration walks the same ladder in reverse. The most
// critical tenant never loses hardware and is never shed.
type Fleet struct {
	opts    FleetOptions
	numPEs  int
	tenants []*fleetTenant
	// degradeOrder lists tenant indices least-critical first; the last entry
	// (most critical) contributes no revoke/shed rungs.
	degradeOrder []int

	rungs       []rung
	gov         *power.Governor
	meter       *power.Meter // ungoverned measurement (nil when governed)
	capValue    float64
	window      int
	roundDur    float64
	primed      int
	rounds      int
	revocations int
	sheds       int
	prevOver    int

	rec telemetry.Recorder
	reg *telemetry.Registry
	fm  fleetMetrics

	// Provenance state: one sequencer shared with every tenant manager (so
	// fleet decisions and tenant reactions interleave on one id space), the
	// seq of the latest budget_exceeded event (escalations chain to it), and
	// per-rung escalation seqs (restores chain to the escalation they
	// reverse).
	seq           *telemetry.Sequencer
	lastBreachSeq uint64
	rungSeq       []uint64
}

// NewFleet partitions the shared fabric across the tenants and builds their
// managers. With a governed budget it also predicts the chip power of every
// ladder level (re-running DLS + stretching per candidate configuration) and
// primes the governor, so a cap the undegraded fleet cannot satisfy is
// respected from round zero.
func NewFleet(tenants []Tenant, opts FleetOptions) (*Fleet, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("core: fleet needs at least one tenant")
	}
	if opts.MinPEs == 0 {
		opts.MinPEs = 1
	}
	if opts.MinPEs < 1 {
		return nil, fmt.Errorf("core: fleet MinPEs must be ≥ 1, got %d", opts.MinPEs)
	}
	numPEs := tenants[0].P.NumPEs()
	seen := make(map[string]bool, len(tenants))
	for i := range tenants {
		t := &tenants[i]
		if t.Name == "" || seen[t.Name] {
			return nil, fmt.Errorf("core: tenant %d needs a unique non-empty name", i)
		}
		seen[t.Name] = true
		if t.P.NumPEs() != numPEs {
			return nil, fmt.Errorf("core: tenant %q platform has %d PEs, fleet fabric has %d",
				t.Name, t.P.NumPEs(), numPEs)
		}
		if t.P.Restricted() {
			return nil, fmt.Errorf("core: tenant %q platform is pre-restricted; the fleet owns the partition", t.Name)
		}
		if t.Opts.Failures != nil {
			return nil, fmt.Errorf("core: tenant %q sets Failures; the fleet owns the availability state", t.Name)
		}
	}
	if len(tenants) > numPEs {
		return nil, fmt.Errorf("core: %d tenants cannot share %d PEs", len(tenants), numPEs)
	}

	f := &Fleet{opts: opts, numPEs: numPEs, rec: opts.Recorder}
	f.seq = telemetry.NewSequencer()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	f.reg = reg
	f.fm.rung = reg.Gauge("adaptive.fleet_rung")
	f.fm.tenantsLive = reg.Gauge("adaptive.fleet_tenants_live")
	f.fm.roundPower = reg.Gauge("adaptive.power_round")
	for i := range tenants {
		f.tenants = append(f.tenants, &fleetTenant{
			Tenant:     tenants[i],
			baseGuard:  tenants[i].Opts.GuardBand,
			guardScale: 1,
		})
	}
	f.partition()
	f.degradeOrder = make([]int, len(f.tenants))
	for i := range f.degradeOrder {
		f.degradeOrder[i] = i
	}
	// Least critical first; ties degrade the later tenant first (the earlier
	// tenant is the more critical of a tied pair).
	sort.SliceStable(f.degradeOrder, func(a, b int) bool {
		ta, tb := f.tenants[f.degradeOrder[a]], f.tenants[f.degradeOrder[b]]
		if ta.Criticality != tb.Criticality {
			return ta.Criticality < tb.Criticality
		}
		return f.degradeOrder[a] > f.degradeOrder[b]
	})

	for _, t := range f.tenants {
		mask := platform.FullMask(numPEs)
		for pe := range mask.PEs {
			mask.PEs[pe] = false
		}
		for _, pe := range t.partition {
			mask.PEs[pe] = true
		}
		t.partMask = mask
		rp, err := t.P.Restrict(mask)
		if err != nil {
			return nil, fmt.Errorf("core: tenant %q partition: %w", t.Name, err)
		}
		if opts.DeadlineFactor > 0 {
			g, err := TightenDeadline(t.G, rp, opts.DeadlineFactor)
			if err != nil {
				return nil, fmt.Errorf("core: tenant %q deadline: %w", t.Name, err)
			}
			t.G = g
		}
		// Tenants stamp their events from the fleet's sequencer: decision
		// provenance crosses the fleet/tenant boundary on one id space.
		t.Opts.Sequencer = f.seq
		t.guardGauge = reg.Gauge("adaptive.tenant_guard_level." + t.Name)
		t.missGauge = reg.Gauge("adaptive.tenant_miss_rate." + t.Name)
		t.energyGauge = reg.Gauge("adaptive.tenant_round_energy." + t.Name)
		t.mgr, err = New(t.G, rp, t.Opts)
		if err != nil {
			return nil, fmt.Errorf("core: tenant %q: %w", t.Name, err)
		}
	}
	for _, t := range f.tenants {
		if d := t.G.Deadline(); d > f.roundDur {
			f.roundDur = d
		}
	}
	f.fm.tenantsLive.Set(float64(len(f.tenants)))

	if opts.Budget != nil {
		b := *opts.Budget
		f.capValue = b.Cap
		f.window = b.Window
		if f.window == 0 {
			f.window = power.DefaultWindow
		}
		f.fm.window = reg.Gauge("adaptive.power_window")
		f.fm.cap = reg.Gauge("adaptive.power_cap")
		f.fm.heat = reg.Gauge("adaptive.power_heat")
		f.fm.level = reg.Gauge("adaptive.power_level")
		f.fm.exceeded = reg.Counter("adaptive.power_budget_exceeded")
		f.fm.revocations = reg.Counter("adaptive.power_revocations")
		f.fm.sheds = reg.Counter("adaptive.power_sheds")
		f.fm.escalations = reg.Counter("adaptive.power_escalations")
		f.fm.restores = reg.Counter("adaptive.power_restores")
		f.fm.cap.Set(b.Cap)
		if opts.Ungoverned {
			m, err := power.NewMeter(b.Cap, f.window)
			if err != nil {
				return nil, err
			}
			f.meter = m
		} else {
			predicted, err := f.buildLadder()
			if err != nil {
				return nil, err
			}
			f.rungSeq = make([]uint64, len(f.rungs))
			gov, err := power.NewGovernor(b, predicted)
			if err != nil {
				return nil, err
			}
			f.gov = gov
			f.primed = gov.Prime()
			for k := 0; k < f.primed; k++ {
				if err := f.applyRung(k, 0, true); err != nil {
					return nil, err
				}
			}
			f.fm.level.Set(float64(gov.Level()))
		}
	}
	return f, nil
}

// partition grants the fabric's PEs to the tenants: demand-weighted shares
// (one PE guaranteed each, remainder to the highest per-PE demand), then
// concrete picks in descending criticality, each tenant taking the available
// PEs with the lowest total WCET over its task set.
func (f *Fleet) partition() {
	n := len(f.tenants)
	demand := make([]float64, n)
	for i, t := range f.tenants {
		work := 0.0
		for task := 0; task < t.G.NumTasks(); task++ {
			work += t.P.AvgWCET(task)
		}
		demand[i] = work
		// Without a deadline reset the deadline normalizes demand into a
		// utilization; with one, the deadline is derived from the grant, so
		// raw work is the meaningful weight.
		if f.opts.DeadlineFactor <= 0 && t.G.Deadline() > 0 {
			demand[i] = work / t.G.Deadline()
		}
	}
	shares := make([]int, n)
	for i := range shares {
		shares[i] = 1
	}
	for granted := n; granted < f.numPEs; granted++ {
		best := 0
		for i := 1; i < n; i++ {
			if demand[i]/float64(shares[i]) > demand[best]/float64(shares[best]) {
				best = i
			}
		}
		shares[best]++
	}

	// Concrete picks: most critical tenant chooses first.
	pickOrder := make([]int, n)
	for i := range pickOrder {
		pickOrder[i] = i
	}
	sort.SliceStable(pickOrder, func(a, b int) bool {
		return f.tenants[pickOrder[a]].Criticality > f.tenants[pickOrder[b]].Criticality
	})
	taken := make([]bool, f.numPEs)
	for _, ti := range pickOrder {
		t := f.tenants[ti]
		type cand struct {
			pe   int
			cost float64
		}
		var cands []cand
		for pe := 0; pe < f.numPEs; pe++ {
			if taken[pe] {
				continue
			}
			cost := 0.0
			for task := 0; task < t.G.NumTasks(); task++ {
				cost += t.P.WCET(task, pe)
			}
			cands = append(cands, cand{pe, cost})
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].cost < cands[b].cost })
		for _, c := range cands[:shares[ti]] {
			t.partition = append(t.partition, c.pe)
			taken[c.pe] = true
		}
	}
}

// predictTenant estimates one tenant's expected per-instance energy in a
// candidate ladder configuration (held-PE count, guard scale) by re-running
// the planning pipeline: DLS on the held set, then guarded stretching. An
// error means the configuration is infeasible (e.g. the workload cannot
// route on that few PEs) — the ladder skips such rungs.
func (f *Fleet) predictTenant(t *fleetTenant, heldPEs []int, guardScale float64) (float64, error) {
	mask := platform.FullMask(f.numPEs)
	for pe := range mask.PEs {
		mask.PEs[pe] = false
	}
	for _, pe := range heldPEs {
		mask.PEs[pe] = true
	}
	rp, err := t.P.Restrict(mask)
	if err != nil {
		return 0, err
	}
	a, err := ctg.Analyze(t.G)
	if err != nil {
		return 0, err
	}
	s, err := sched.DLS(a, rp, sched.Modified())
	if err != nil {
		return 0, err
	}
	r, err := stretch.Heuristic(s, t.Opts.DVFS, stretch.Options{Guard: t.baseGuard * guardScale})
	if err != nil {
		return 0, err
	}
	return r.ExpectedEnergy, nil
}

// buildLadder constructs the degradation rungs and the predicted chip power
// of every ladder level: guard-release rungs first (fleet-wide, cheapest in
// harm), then — per tenant, least critical first, the most critical tenant
// exempt — PE revocations down to MinPEs followed by a shed rung. Each
// level's prediction walks the configuration incrementally, recomputing only
// the tenants the rung touches.
func (f *Fleet) buildLadder() ([]float64, error) {
	n := len(f.tenants)
	ee := make([]float64, n)  // expected energy per tenant at the sim state
	held := make([]int, n)    // held-PE count per tenant
	active := make([]bool, n) // not shed
	anyGuard := false
	for i, t := range f.tenants {
		e, err := f.predictTenant(t, t.partition, 1)
		if err != nil {
			return nil, fmt.Errorf("core: tenant %q baseline prediction: %w", t.Name, err)
		}
		ee[i] = e
		held[i] = len(t.partition)
		active[i] = true
		if t.baseGuard > 0 {
			anyGuard = true
		}
	}
	chip := func() float64 {
		dyn, pes := 0.0, 0
		for i := range f.tenants {
			if active[i] {
				dyn += ee[i]
				pes += held[i]
			}
		}
		return dyn/f.roundDur + f.opts.Budget.Model.Idle(pes, pes*(pes-1))
	}
	predicted := []float64{chip()}

	if anyGuard {
		for _, scale := range []float64{0.5, 0} {
			ok := true
			for i, t := range f.tenants {
				if t.baseGuard == 0 {
					continue
				}
				e, err := f.predictTenant(t, t.partition[:held[i]], scale)
				if err != nil {
					ok = false
					break
				}
				ee[i] = e
			}
			if !ok {
				break
			}
			f.rungs = append(f.rungs, rung{kind: rungGuard, scale: scale})
			predicted = append(predicted, chip())
		}
	}
	for _, ti := range f.degradeOrder[:n-1] {
		t := f.tenants[ti]
		for held[ti] > f.opts.MinPEs {
			e, err := f.predictTenant(t, t.partition[:held[ti]-1], f.lastGuardScale())
			if err != nil {
				break // cannot run on fewer PEs; stop revoking, shed instead
			}
			held[ti]--
			ee[ti] = e
			f.rungs = append(f.rungs, rung{kind: rungRevoke, tenant: ti, pe: t.partition[held[ti]]})
			predicted = append(predicted, chip())
		}
		active[ti] = false
		f.rungs = append(f.rungs, rung{kind: rungShed, tenant: ti})
		predicted = append(predicted, chip())
	}
	return predicted, nil
}

// lastGuardScale returns the guard scale of the deepest guard rung built so
// far (revocation predictions assume the guard rungs below them are in
// force, which is exactly the runtime's ladder ordering).
func (f *Fleet) lastGuardScale() float64 {
	scale := 1.0
	for _, r := range f.rungs {
		if r.kind == rungGuard {
			scale = r.scale
		}
	}
	return scale
}

// applyRung applies (escalate) or releases (restore) ladder rung k at the
// given fleet round, driving the tenant managers and emitting the budget
// telemetry. The decision event is emitted before the managers are driven so
// every tenant reaction (mask diff, remap, reschedule) chains back to the
// decision's seq: escalations chain to the window breach that forced them
// (0 while priming — the cap itself is the cause), restores to the
// escalation they reverse.
func (f *Fleet) applyRung(k, round int, escalate bool) error {
	ru := f.rungs[k]
	level := k // the level a restore lands on
	cause := f.lastBreachSeq
	if escalate {
		level = k + 1
	} else {
		cause = f.rungSeq[k]
	}
	switch ru.kind {
	case rungGuard:
		scale := ru.scale
		if !escalate {
			scale = 1
			if k > 0 && f.rungs[k-1].kind == rungGuard {
				scale = f.rungs[k-1].scale
			}
		}
		seq := f.emit(telemetry.Event{
			Kind: f.degradeKind(escalate), Instance: round,
			Reason: "guard", Level: level, Value: scale, Threshold: f.capValue,
			Cause: cause,
		})
		if escalate {
			f.rungSeq[k] = seq
		}
		for _, t := range f.tenants {
			if t.shed {
				continue // cannot happen: guard rungs sit below every shed rung
			}
			t.mgr.extCause = seq
			err := t.mgr.SetGuardBand(t.baseGuard * scale)
			t.mgr.extCause = 0
			if err != nil {
				return err
			}
			t.guardScale = scale
		}
	case rungRevoke:
		t := f.tenants[ru.tenant]
		var seq uint64
		if escalate {
			t.revoked++
			f.revocations++
			f.fm.revocations.Inc()
			seq = f.emit(telemetry.Event{
				Kind: telemetry.KindPERevoked, Instance: round,
				PE: ru.pe, Name: t.Name, Level: level, Alive: t.held(),
				Threshold: f.capValue, Cause: cause,
			})
			f.rungSeq[k] = seq
		} else {
			t.revoked--
			seq = f.emit(telemetry.Event{
				Kind: telemetry.KindTenantRestored, Instance: round,
				Name: t.Name, Reason: "revoke", Level: level, PE: ru.pe, Alive: t.held(),
				Threshold: f.capValue, Cause: cause,
			})
		}
		t.mgr.extCause = seq
		err := t.mgr.ApplyAvailability(t.heldMask(f.numPEs))
		t.mgr.extCause = 0
		if err != nil {
			return err
		}
	case rungShed:
		t := f.tenants[ru.tenant]
		t.shed = escalate
		if escalate {
			f.sheds++
			f.fm.sheds.Inc()
		}
		seq := f.emit(telemetry.Event{
			Kind: f.degradeKind(escalate), Instance: round,
			Name: t.Name, Reason: "shed", Level: level, Threshold: f.capValue,
			Cause: cause,
		})
		if escalate {
			f.rungSeq[k] = seq
		}
		live := 0
		for _, ft := range f.tenants {
			if !ft.shed {
				live++
			}
		}
		f.fm.tenantsLive.Set(float64(live))
	}
	f.fm.level.Set(float64(level))
	f.fm.rung.Set(float64(level))
	return nil
}

func (f *Fleet) degradeKind(escalate bool) telemetry.Kind {
	if escalate {
		return telemetry.KindTenantDegraded
	}
	return telemetry.KindTenantRestored
}

// emit stamps a fleet decision event from the shared sequencer and records
// it, returning the seq (0 with no recorder) so effects can chain to it.
func (f *Fleet) emit(ev telemetry.Event) uint64 {
	if f.rec == nil {
		return 0
	}
	ev.Seq = f.seq.Next()
	f.rec.Record(ev)
	return ev.Seq
}

// idlePower returns the static chip power of the current configuration:
// every held PE of every active tenant is powered (revoked PEs and shed
// tenants' PEs are power-gated), and all links among powered PEs are up.
func (f *Fleet) idlePower() float64 {
	if f.opts.Budget == nil {
		return 0
	}
	pes := 0
	for _, t := range f.tenants {
		if !t.shed {
			pes += t.held()
		}
	}
	return f.opts.Budget.Model.Idle(pes, pes*(pes-1))
}

// observePower accounts one fleet round's chip power and applies whatever
// ladder move the governor decides.
func (f *Fleet) observePower(p float64, round int) error {
	switch {
	case f.gov != nil:
		d := f.gov.Observe(p, f.roundDur)
		f.fm.window.Set(f.gov.LastMean())
		f.fm.heat.Set(f.gov.Heat())
		if over := f.gov.Meter().WindowsOverCap(); over > f.prevOver {
			f.prevOver = over
			f.fm.exceeded.Inc()
			// Ladder escalations chain to the latest window breach.
			f.lastBreachSeq = f.emit(telemetry.Event{
				Kind: telemetry.KindBudgetExceeded, Instance: round,
				Value: f.gov.LastMean(), Threshold: f.capValue, Level: f.gov.Level(),
			})
		}
		switch d {
		case power.Escalate:
			f.fm.escalations.Inc()
			return f.applyRung(f.gov.Level()-1, round, true)
		case power.Restore:
			f.fm.restores.Inc()
			return f.applyRung(f.gov.Level(), round, false)
		}
	case f.meter != nil:
		mean, _ := f.meter.Observe(p)
		f.fm.window.Set(mean)
		if over := f.meter.WindowsOverCap(); over > f.prevOver {
			f.prevOver = over
			f.fm.exceeded.Inc()
			f.emit(telemetry.Event{
				Kind: telemetry.KindBudgetExceeded, Instance: round,
				Value: mean, Threshold: f.capValue,
			})
		}
	}
	return nil
}

// Step executes one fleet round: one CTG instance per active tenant
// (vectors[i] is tenant i's decision vector; a shed tenant skips the round),
// then one chip-power observation driving the governor.
func (f *Fleet) Step(vectors [][]int) error {
	if len(vectors) != len(f.tenants) {
		return fmt.Errorf("core: fleet step needs %d decision vectors, got %d", len(f.tenants), len(vectors))
	}
	round := f.rounds
	energy := 0.0
	for i, t := range f.tenants {
		if t.shed {
			t.shedRound++
			continue
		}
		res, err := t.mgr.Step(vectors[i])
		if err != nil {
			return fmt.Errorf("core: tenant %q round %d: %w", t.Name, round, err)
		}
		t.agg.add(res.Instance)
		t.guardGauge.Set(float64(res.GuardLevel))
		t.insts++
		if !res.Instance.DeadlineMet {
			t.misses++
		}
		t.missGauge.Set(float64(t.misses) / float64(t.insts))
		t.energyGauge.Set(res.Instance.Energy)
		energy += res.Instance.Energy
	}
	f.rounds++
	p := energy/f.roundDur + f.idlePower()
	f.fm.roundPower.Set(p)
	prevBreach := f.lastBreachSeq
	err := f.observePower(p, round)
	// Sample the time-series store at this round boundary; a fresh window
	// breach becomes the tick's cause so rule firings chain to it.
	if f.opts.Series != nil {
		var cause uint64
		if f.lastBreachSeq != prevBreach {
			cause = f.lastBreachSeq
		}
		f.opts.Series.Tick(round, f.rec, f.seq, cause)
	}
	return err
}

// TenantResult reports one tenant's end-of-run aggregate.
type TenantResult struct {
	Name        string
	Criticality int
	// PEs is the tenant's held-PE count at the end of the run (granted
	// partition minus outstanding revocations).
	PEs int
	// GrantedPEs is the partition size the tenant was originally granted.
	GrantedPEs int
	// ShedRounds counts fleet rounds the tenant skipped while shed.
	ShedRounds int
	Stats      RunStats
}

// PowerStats reports the fleet's power accounting (nil without a Budget).
type PowerStats struct {
	Cap    float64
	Window int
	// MaxRoundPower / MaxWindowPower are the highest single-round power and
	// full-window mean observed; WindowsOverCap counts full windows whose
	// mean exceeded the cap.
	MaxRoundPower, MaxWindowPower float64
	WindowsOverCap                int
	// Governor state (zero for an ungoverned meter).
	Levels, PrimedLevel, FinalLevel, MaxLevel int
	Escalations, Restores                     int
	Revocations, Sheds                        int
	Heat                                      float64
}

// FleetResult aggregates a consolidation run.
type FleetResult struct {
	Rounds        int
	RoundDuration float64
	Tenants       []TenantResult
	Power         *PowerStats
}

// Run executes rounds until the shortest tenant vector sequence is
// exhausted (vectors[i][r] is tenant i's decision vector for round r) and
// aggregates the per-tenant statistics.
func (f *Fleet) Run(vectors [][][]int) (*FleetResult, error) {
	if len(vectors) != len(f.tenants) {
		return nil, fmt.Errorf("core: fleet run needs %d vector sequences, got %d", len(f.tenants), len(vectors))
	}
	rounds := -1
	for _, vs := range vectors {
		if rounds < 0 || len(vs) < rounds {
			rounds = len(vs)
		}
	}
	step := make([][]int, len(f.tenants))
	for r := 0; r < rounds; r++ {
		for i := range vectors {
			step[i] = vectors[i][r]
		}
		if err := f.Step(step); err != nil {
			return nil, err
		}
	}
	return f.Result(), nil
}

// Result assembles the run's aggregate (also usable mid-run).
func (f *Fleet) Result() *FleetResult {
	res := &FleetResult{Rounds: f.rounds, RoundDuration: f.roundDur}
	for _, t := range f.tenants {
		st := t.agg.finish()
		st.Calls = t.mgr.Calls()
		cs := t.mgr.CacheStats()
		st.CacheHits, st.CacheMisses = cs.Hits, cs.Misses
		st.WarmStarts, st.WarmFallbacks = t.mgr.warm.starts, t.mgr.warm.fallbacks
		st.FallbackActivations = t.mgr.activations
		st.MissesAvoided = t.mgr.missesAvoided
		st.MaxGuardLevel = t.mgr.maxLevelSeen
		st.DegradedInstances = t.mgr.degradedInsts
		st.Remaps = t.mgr.remaps
		st.TopologyMisses = t.mgr.topoMisses
		res.Tenants = append(res.Tenants, TenantResult{
			Name:        t.Name,
			Criticality: t.Criticality,
			PEs:         t.held(),
			GrantedPEs:  len(t.partition),
			ShedRounds:  t.shedRound,
			Stats:       st,
		})
	}
	switch {
	case f.gov != nil:
		m := f.gov.Meter()
		res.Power = &PowerStats{
			Cap: f.capValue, Window: f.window,
			MaxRoundPower: m.MaxRoundPower(), MaxWindowPower: m.MaxWindowPower(),
			WindowsOverCap: m.WindowsOverCap(),
			Levels:         f.gov.Levels(), PrimedLevel: f.primed,
			FinalLevel: f.gov.Level(), MaxLevel: f.gov.MaxLevel(),
			Escalations: f.gov.Escalations(), Restores: f.gov.Restores(),
			Revocations: f.revocations, Sheds: f.sheds,
			Heat: f.gov.Heat(),
		}
	case f.meter != nil:
		res.Power = &PowerStats{
			Cap: f.capValue, Window: f.window,
			MaxRoundPower: f.meter.MaxRoundPower(), MaxWindowPower: f.meter.MaxWindowPower(),
			WindowsOverCap: f.meter.WindowsOverCap(),
		}
	}
	return res
}

// Governor exposes the fleet's budget governor (nil when ungoverned or
// unbudgeted).
func (f *Fleet) Governor() *power.Governor { return f.gov }

// Partition returns a copy of tenant i's granted PE set, best-first.
func (f *Fleet) Partition(i int) []int {
	return append([]int(nil), f.tenants[i].partition...)
}

// Manager exposes tenant i's adaptive manager (tests and diagnostics).
func (f *Fleet) Manager(i int) *Manager { return f.tenants[i].mgr }

// LadderLen returns the degradation ladder's rung count (governed fleets).
func (f *Fleet) LadderLen() int { return len(f.rungs) }

// Metrics returns the registry the fleet publishes to — the one passed via
// FleetOptions.Metrics, or the private default. Never nil. The fleet-state
// gauges ("adaptive.fleet_rung", "adaptive.fleet_tenants_live", per-tenant
// "adaptive.tenant_guard_level.<name>") are always live; the power handles
// ("adaptive.power_*") additionally require a Budget.
func (f *Fleet) Metrics() *telemetry.Registry { return f.reg }

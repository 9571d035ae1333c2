package exp

import (
	"fmt"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/power"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// ConsolidationPEs is the shared fabric size the consolidation campaign
// hosts its tenants on: every application's native platform (3–5 PEs) is
// tiled out to this many PEs so multiple tenants can hold disjoint
// partitions.
const ConsolidationPEs = 8

// DefaultConsolidationRounds bounds the replayed rounds per fleet run. Each
// cell runs a governed and an ungoverned fleet end to end, so the sweep is
// |mixes| × |cap fractions| × 2 full runs.
const DefaultConsolidationRounds = 300

// ConsolidationWindow is the power-measurement window (rounds) used by both
// arms of every cell.
const ConsolidationWindow = 8

// ConsolidationGuard is every tenant's base guard band: the first ladder
// rungs release this reserved slack back to DVFS before any hardware is
// taken away.
const ConsolidationGuard = 0.3

// ConsolidationCapFractions are the swept chip-power caps, as fractions of
// each mix's measured ungoverned peak P0: one cap the undegraded fleet
// already satisfies, and two the governor can only meet by degrading.
var ConsolidationCapFractions = []float64{1.10, 0.85, 0.70}

// Idle-power model, relative to the mix's measured peak dynamic power: idle
// PEs together draw 30% of peak dynamic, the interconnect 2%. Power-gating a
// revoked PE recovers its idle share — what makes revocation a real rung and
// not just a capacity cut.
const (
	consolidationIdlePEFrac   = 0.30
	consolidationIdleLinkFrac = 0.02
)

// consolidationMix is one tenant line-up, most-critical first.
type consolidationMix struct {
	label   string
	tenants []int // workload indices, descending criticality
}

// consolidationMixes sweeps tenant count (2 vs 3 apps sharing the fabric)
// and criticality order (which tenant the ladder must protect).
func consolidationMixes() []consolidationMix {
	return []consolidationMix{
		{label: "mpeg>cruise", tenants: []int{0, 1}},
		{label: "cruise>mpeg", tenants: []int{1, 0}},
		{label: "mpeg>cruise>wlan", tenants: []int{0, 1, 2}},
		{label: "wlan>cruise>mpeg", tenants: []int{2, 1, 0}},
	}
}

// extendPlatform tiles a native platform out to numPEs: PE k of the extended
// fabric behaves like native PE k mod native (WCET and energy tables), and
// the interconnect is uniform at the native fabric's average bandwidth and
// transfer energy. This keeps each application's heterogeneity while giving
// every tenant mix one common fabric to partition.
func extendPlatform(p *platform.Platform, numPEs int) (*platform.Platform, error) {
	native := p.NumPEs()
	if native > numPEs {
		return nil, fmt.Errorf("exp: cannot shrink %d-PE platform to %d PEs", native, numPEs)
	}
	b := platform.NewBuilder(p.NumTasks(), numPEs)
	for t := 0; t < p.NumTasks(); t++ {
		wcet := make([]float64, numPEs)
		energy := make([]float64, numPEs)
		for pe := 0; pe < numPEs; pe++ {
			wcet[pe] = p.WCET(t, pe%native)
			energy[pe] = p.Energy(t, pe%native)
		}
		b.SetTask(t, wcet, energy)
	}
	var bw, en float64
	links := 0
	for i := 0; i < native; i++ {
		for j := 0; j < native; j++ {
			if i == j {
				continue
			}
			bw += p.Bandwidth(i, j)
			en += p.CommEnergy(1, i, j)
			links++
		}
	}
	b.SetAllLinks(bw/float64(links), en/float64(links))
	return b.Build()
}

// consolidationWorkloads prepares the three applications for consolidation:
// profiled graphs as in the fault campaign (training prefix applied,
// disjoint measured sequence), but over the ConsolidationPEs-wide shared
// fabric. Deadlines are left to the fleet's DeadlineFactor, which tightens
// each tenant against the partition it is actually granted.
func consolidationWorkloads() ([]campaignWorkload, error) {
	ws, err := failoverWorkloads()
	if err != nil {
		return nil, err
	}
	for i := range ws {
		ws[i].p, err = extendPlatform(ws[i].p, ConsolidationPEs)
		if err != nil {
			return nil, fmt.Errorf("exp: extend %s platform: %w", ws[i].name, err)
		}
	}
	return ws, nil
}

// ConsolidationArm is one runtime's end-of-run aggregate in a cell.
type ConsolidationArm struct {
	// HiMisses / HiInstances cover the most-critical tenant only — the
	// tenant the degradation ladder must keep whole.
	HiMisses    int
	HiInstances int
	// Misses / Instances / ShedRounds aggregate every tenant.
	Misses     int
	Instances  int
	ShedRounds int
	Energy     float64

	MaxWindowPower float64
	WindowsOverCap int

	// Governor state (zero for the ungoverned arm).
	PrimedLevel, MaxLevel, FinalLevel int
	Revocations, Sheds                int
}

// HiMissRate is the most-critical tenant's deadline-miss fraction.
func (a ConsolidationArm) HiMissRate() float64 {
	if a.HiInstances == 0 {
		return 0
	}
	return float64(a.HiMisses) / float64(a.HiInstances)
}

// MissRate is the fleet-wide miss fraction over executed instances.
func (a ConsolidationArm) MissRate() float64 {
	if a.Instances == 0 {
		return 0
	}
	return float64(a.Misses) / float64(a.Instances)
}

// ConsolidationCell is one point of the sweep: one tenant mix under one
// chip-power cap, run governed and ungoverned.
type ConsolidationCell struct {
	Mix      string
	Tenants  int
	CapFrac  float64
	Cap      float64
	Baseline float64 // P0: the mix's ungoverned peak window power

	Governed   ConsolidationArm
	Ungoverned ConsolidationArm
}

// ConsolidationResult is the consolidation campaign (DESIGN.md §12): N
// applications share one fabric under a chip power cap; the governed fleet
// degrades gracefully in criticality order while the ungoverned baseline
// runs everything and busts the budget.
type ConsolidationResult struct {
	Rounds int
	PEs    int
	Cells  []ConsolidationCell
}

// consolidationCellKey names a cell's telemetry stream. Under an absolute
// budget override there is one cell per mix and the mix label alone is the
// key (the cap fraction depends on the measured P0, which is not known when
// the streams are pre-allocated).
func consolidationCellKey(mix string, frac float64, override bool) string {
	if override {
		return mix
	}
	return fmt.Sprintf("%s@%.2f", mix, frac)
}

// ConsolidationCampaign runs the full sweep. rounds ≤ 0 selects
// DefaultConsolidationRounds.
//
// A non-nil override replays every mix under that one absolute budget
// instead of the P0-relative sweep: the cap and window come from the
// override (CLI flags or a -faults-spec power section, already validated),
// the idle model from the override when set, otherwise derived from the
// mix's measured peak as in the default sweep.
//
// A non-nil obs observes the campaign: each cell's governed arm streams its
// fleet and tenant events into a per-cell recorder, health analyzer and
// series store (keyed "mix@capfrac", or the mix label under an override),
// and every arm publishes into the observed registry. The returned
// telemetry is nil when obs is nil.
func ConsolidationCampaign(rounds int, override *power.Budget, obs *Observe) (*ConsolidationResult, *CampaignTelemetry, error) {
	if rounds <= 0 {
		rounds = DefaultConsolidationRounds
	}
	ws, err := consolidationWorkloads()
	if err != nil {
		return nil, nil, err
	}
	mixes := consolidationMixes()
	fracs := ConsolidationCapFractions
	if override != nil {
		fracs = []float64{0} // placeholder: the real fraction is cap/P0 per mix
	}

	// Pre-allocate every cell's streams so the parallel sweep only reads the
	// maps. Each cell gets one stream for the fleet's budget events plus one
	// recorder per tenant (two tenants replaying the same rounds into one
	// stream would collide in the Chrome trace), and one health analyzer fed
	// by all of them.
	tel := obs.newTelemetry()
	if tel != nil {
		for _, m := range mixes {
			for _, frac := range fracs {
				key := consolidationCellKey(m.label, frac, override != nil)
				tel.addStream(key, obs.Rules)
				tel.Health[key] = health.New(health.Options{})
				for _, wi := range m.tenants {
					tel.Recorders[key+"/"+ws[wi].name] = telemetry.NewMemoryRecorder()
				}
			}
		}
	}

	// Phase 1: measure each mix's ungoverned peak dynamic power (zero idle
	// model), then anchor the idle model and P0 to it. The probe uses a
	// throwaway cap — an ungoverned fleet only meters.
	type baseline struct {
		model power.Model
		p0    float64
	}
	bases, err := par.MapErr(len(mixes), func(i int) (baseline, error) {
		probe := power.Budget{Cap: 1, Window: ConsolidationWindow}
		res, err := runConsolidationFleet(ws, mixes[i], rounds, probe, true, nil, nil, nil, nil)
		if err != nil {
			return baseline{}, fmt.Errorf("exp: %s baseline: %w", mixes[i].label, err)
		}
		dyn := res.Power.MaxWindowPower
		m := power.Model{
			IdlePEPower:   consolidationIdlePEFrac * dyn / ConsolidationPEs,
			IdleLinkPower: consolidationIdleLinkFrac * dyn / (ConsolidationPEs * (ConsolidationPEs - 1)),
		}
		return baseline{model: m, p0: dyn + m.Idle(ConsolidationPEs, ConsolidationPEs*(ConsolidationPEs-1))}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: the sweep proper — every mix × cap fraction, both arms.
	type cellIdx struct {
		mix  int
		frac float64
	}
	var idx []cellIdx
	for mi := range mixes {
		for _, frac := range fracs {
			idx = append(idx, cellIdx{mix: mi, frac: frac})
		}
	}
	cells, err := par.MapErr(len(idx), func(i int) (ConsolidationCell, error) {
		m, b := mixes[idx[i].mix], bases[idx[i].mix]
		key := consolidationCellKey(m.label, idx[i].frac, override != nil)
		budget := power.Budget{Cap: idx[i].frac * b.p0, Window: ConsolidationWindow, Model: b.model}
		if override != nil {
			budget = *override
			if budget.Window == 0 {
				budget.Window = ConsolidationWindow
			}
			if budget.Model == (power.Model{}) {
				budget.Model = b.model
			}
		}
		frac := idx[i].frac
		if override != nil {
			frac = budget.Cap / b.p0
		}
		cell := ConsolidationCell{
			Mix:      m.label,
			Tenants:  len(m.tenants),
			CapFrac:  frac,
			Cap:      budget.Cap,
			Baseline: b.p0,
		}
		var fleetRec telemetry.Recorder
		var tenantRec func(name string) telemetry.Recorder
		var cellReg *telemetry.Registry
		var cellSeries *series.Store
		if tel != nil {
			h := tel.Health[key]
			fleetRec = telemetry.MultiRecorder{tel.Recorders[key], h}
			tenantRec = func(name string) telemetry.Recorder {
				return telemetry.MultiRecorder{tel.Recorders[key+"/"+name], h}
			}
			// The governed arm publishes into the cell's mirror registry
			// (which forwards to the shared one) so its store samples only
			// this cell's fleet.
			cellSeries = tel.Series[key]
			cellReg = cellSeries.Registry()
		}
		gov, err := runConsolidationFleet(ws, m, rounds, budget, false, fleetRec, tenantRec, cellReg, cellSeries)
		if err != nil {
			return cell, fmt.Errorf("exp: %s governed cap %.2f: %w", m.label, budget.Cap, err)
		}
		var ungovReg *telemetry.Registry
		if tel != nil {
			ungovReg = tel.Metrics
		}
		ungov, err := runConsolidationFleet(ws, m, rounds, budget, true, nil, nil, ungovReg, nil)
		if err != nil {
			return cell, fmt.Errorf("exp: %s ungoverned cap %.2f: %w", m.label, budget.Cap, err)
		}
		cell.Governed = consolidationArm(gov)
		cell.Ungoverned = consolidationArm(ungov)
		return cell, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &ConsolidationResult{Rounds: rounds, PEs: ConsolidationPEs, Cells: cells}, tel, nil
}

// runConsolidationFleet builds and runs one fleet arm for a mix. tenantRec,
// when non-nil, yields each tenant's own event recorder (tenant streams must
// stay separate; they replay the same round numbering). A non-nil series
// store attaches round-boundary sampling to the fleet; pass
// reg = st.Registry() alongside so the sampled rings see the fleet's writes.
func runConsolidationFleet(ws []campaignWorkload, m consolidationMix, rounds int,
	budget power.Budget, ungoverned bool, fleetRec telemetry.Recorder,
	tenantRec func(name string) telemetry.Recorder, reg *telemetry.Registry,
	st *series.Store) (*core.FleetResult, error) {
	tenants := make([]core.Tenant, len(m.tenants))
	vectors := make([][][]int, len(m.tenants))
	for i, wi := range m.tenants {
		w := ws[wi]
		var rec telemetry.Recorder
		if tenantRec != nil {
			rec = tenantRec(w.name)
		}
		tenants[i] = core.Tenant{
			Name:        w.name,
			Criticality: len(m.tenants) - i,
			G:           w.g,
			P:           w.p,
			Opts:        core.Options{GuardBand: ConsolidationGuard, Recorder: rec, Metrics: reg},
		}
		vec := w.vec
		if rounds < len(vec) {
			vec = vec[:rounds]
		}
		vectors[i] = vec
	}
	f, err := core.NewFleet(tenants, core.FleetOptions{
		Budget:         &budget,
		Ungoverned:     ungoverned,
		DeadlineFactor: DeadlineFactor,
		Recorder:       fleetRec,
		Metrics:        reg,
		Series:         st,
	})
	if err != nil {
		return nil, err
	}
	return f.Run(vectors)
}

// consolidationArm condenses a fleet result into the campaign's aggregate.
// The most-critical tenant is the one with the highest Criticality.
func consolidationArm(r *core.FleetResult) ConsolidationArm {
	a := ConsolidationArm{
		MaxWindowPower: r.Power.MaxWindowPower,
		WindowsOverCap: r.Power.WindowsOverCap,
		PrimedLevel:    r.Power.PrimedLevel,
		MaxLevel:       r.Power.MaxLevel,
		FinalLevel:     r.Power.FinalLevel,
		Revocations:    r.Power.Revocations,
		Sheds:          r.Power.Sheds,
	}
	hi := 0
	for i, t := range r.Tenants {
		if t.Criticality > r.Tenants[hi].Criticality {
			hi = i
		}
		a.Misses += t.Stats.Misses
		a.Instances += t.Stats.Instances
		a.ShedRounds += t.ShedRounds
		a.Energy += t.Stats.TotalEnergy
	}
	a.HiMisses = r.Tenants[hi].Stats.Misses
	a.HiInstances = r.Tenants[hi].Stats.Instances
	return a
}

// NewConsolidationBenchFleet builds the benchmark fleet: the two-tenant
// mpeg>cruise mix on the shared fabric, with a cap at 85% of the mix's
// measured ungoverned peak — tight enough that the governed arm's ladder
// engages. It returns the fleet and the per-tenant round vectors
// (vectors[tenant][round]); the root-package benchmarks step through them
// cyclically.
func NewConsolidationBenchFleet(ungoverned bool) (*core.Fleet, [][][]int, error) {
	ws, err := consolidationWorkloads()
	if err != nil {
		return nil, nil, err
	}
	m := consolidationMixes()[0] // mpeg>cruise
	probe := power.Budget{Cap: 1, Window: ConsolidationWindow}
	res, err := runConsolidationFleet(ws, m, 64, probe, true, nil, nil, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	dyn := res.Power.MaxWindowPower
	model := power.Model{
		IdlePEPower:   consolidationIdlePEFrac * dyn / ConsolidationPEs,
		IdleLinkPower: consolidationIdleLinkFrac * dyn / (ConsolidationPEs * (ConsolidationPEs - 1)),
	}
	p0 := dyn + model.Idle(ConsolidationPEs, ConsolidationPEs*(ConsolidationPEs-1))
	budget := power.Budget{Cap: 0.85 * p0, Window: ConsolidationWindow, Model: model}

	tenants := make([]core.Tenant, len(m.tenants))
	vectors := make([][][]int, len(m.tenants))
	for i, wi := range m.tenants {
		w := ws[wi]
		tenants[i] = core.Tenant{
			Name:        w.name,
			Criticality: len(m.tenants) - i,
			G:           w.g,
			P:           w.p,
			Opts:        core.Options{GuardBand: ConsolidationGuard},
		}
		vectors[i] = w.vec
	}
	f, err := core.NewFleet(tenants, core.FleetOptions{
		Budget:         &budget,
		Ungoverned:     ungoverned,
		DeadlineFactor: DeadlineFactor,
	})
	if err != nil {
		return nil, nil, err
	}
	return f, vectors, nil
}

// Render formats the campaign as the experiments CLI prints it.
func (r *ConsolidationResult) Render() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		g, u := c.Governed, c.Ungoverned
		rows = append(rows, []string{
			c.Mix,
			fmt.Sprintf("%.2f×P0=%.1f", c.CapFrac, c.Cap),
			fmt.Sprintf("%.1f%%", 100*g.HiMissRate()),
			fmt.Sprintf("%.1f%%", 100*g.MissRate()),
			f1(g.MaxWindowPower),
			fmt.Sprintf("%d", g.WindowsOverCap),
			fmt.Sprintf("%d/%d/%d", g.PrimedLevel, g.MaxLevel, g.FinalLevel),
			fmt.Sprintf("%d", g.Revocations),
			fmt.Sprintf("%d", g.ShedRounds),
			fmt.Sprintf("%.1f%%", 100*u.HiMissRate()),
			fmt.Sprintf("%.1f%%", 100*u.MissRate()),
			f1(u.MaxWindowPower),
			fmt.Sprintf("%d", u.WindowsOverCap),
		})
	}
	s := fmt.Sprintf("Consolidation campaign: %d tenant mixes on a shared %d-PE fabric, %d rounds, window %d\n",
		len(consolidationMixes()), r.PEs, r.Rounds, ConsolidationWindow)
	s += "(mix lists tenants most-critical first; cap swept as a fraction of the mix's ungoverned peak P0;\n" +
		" lvl: primed/max/final degradation-ladder level; shed: tenant-rounds skipped while shed)\n"
	s += table(
		[]string{"mix", "cap", "gov hi-miss", "gov miss", "gov peakW", "gov over", "lvl", "revoked", "shed",
			"ungov hi-miss", "ungov miss", "ungov peakW", "ungov over"},
		rows)
	return s
}

package exp

import (
	"fmt"
	"math/rand"
	"time"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
)

// Large-scale performance tier: a synthetic CTG generator producing
// 10³–10⁴-task graphs on 16–64-PE platforms, plus a scaling campaign that
// measures the adaptive runtime's rescheduling cost — full recompute versus
// incremental warm start — as the graph grows. The paper's own workloads top
// out near 100 tasks; this tier is where the warm-start path earns its keep,
// since a full DLS + stretch pipeline at 10³ tasks costs hundreds of
// milliseconds while a small-drift warm start touches only one fork's
// conditional arms.

// ScaleConfig parameterizes one synthetic large-scale workload. The shape is
// deliberately regular — W parallel chains between a common entry and sink,
// with conditional fork/join diamonds embedded mid-chain — so task count,
// parallelism and scenario count can be scaled independently.
type ScaleConfig struct {
	// Tasks is the approximate total task count (the generator rounds to
	// fill whole chains). Default 1000.
	Tasks int
	// PEs is the platform size; also the number of parallel chains. Default
	// 16.
	PEs int
	// Forks is the number of conditional fork/join diamonds (one per chain,
	// at most PEs); scenarios grow as 2^Forks. Default 5.
	Forks int
	// ArmLen is the task count of each conditional arm. Default 3.
	ArmLen int
	// Seed drives all randomized parameters (WCETs, energies, comm volumes,
	// branch probabilities). Default 1.
	Seed int64
}

func (c *ScaleConfig) applyDefaults() {
	if c.Tasks == 0 {
		c.Tasks = 1000
	}
	if c.PEs == 0 {
		c.PEs = 16
	}
	if c.Forks == 0 {
		c.Forks = 5
	}
	if c.ArmLen == 0 {
		c.ArmLen = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *ScaleConfig) validate() error {
	if c.Forks > c.PEs {
		return fmt.Errorf("exp: scale config wants %d forks but only %d chains (PEs)", c.Forks, c.PEs)
	}
	min := 2 + c.PEs*2 + c.Forks*(2*c.ArmLen+1)
	if c.Tasks < min {
		return fmt.Errorf("exp: scale config wants %d tasks, shape needs ≥ %d", c.Tasks, min)
	}
	return nil
}

// ScaleWorkload generates a large-scale CTG and matching heterogeneous
// platform. The graph is one entry task fanning out to PEs parallel chains
// that re-converge on a sink; the first Forks chains embed, mid-chain, a
// conditional diamond (fork task → two ArmLen-task arms under outcomes 0/1 →
// or-node join). The arms are the only tasks whose activation is split
// across a fork's outcomes, so a drift confined to one fork yields a small,
// well-separated affected set — the structure the warm-start path exploits.
//
// The returned graph carries a generous provisional deadline; tighten it
// against an actual schedule with core.TightenDeadline before measuring.
func ScaleWorkload(cfg ScaleConfig) (*ctg.Graph, *platform.Platform, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := ctg.NewBuilder()

	const (
		wcetMin, wcetMax = 5.0, 40.0
		hetero           = 0.3
		commMin, commMax = 2.0, 16.0
		bandMin, bandMax = 4.0, 12.0
		txEnergyPerKB    = 0.02
	)
	comm := func() float64 { return commMin + rng.Float64()*(commMax-commMin) }

	chainLen := (cfg.Tasks - 2 - cfg.Forks*(2*cfg.ArmLen+1)) / cfg.PEs
	if chainLen < 2 {
		chainLen = 2
	}

	entry := b.AddTask("", ctg.AndNode)
	chainEnds := make([]ctg.TaskID, cfg.PEs)
	for w := 0; w < cfg.PEs; w++ {
		last := entry
		mid := chainLen / 2
		for i := 0; i < chainLen; i++ {
			t := b.AddTask("", ctg.AndNode)
			b.AddEdge(last, t, comm())
			last = t
			if w < cfg.Forks && i == mid {
				// Conditional diamond: `last` becomes fork w.
				fork := last
				join := b.AddTask("", ctg.OrNode)
				for outcome := 0; outcome < 2; outcome++ {
					armLast := fork
					for j := 0; j < cfg.ArmLen; j++ {
						at := b.AddTask("", ctg.AndNode)
						if j == 0 {
							b.AddCondEdge(fork, at, comm(), outcome)
						} else {
							b.AddEdge(armLast, at, comm())
						}
						armLast = at
					}
					b.AddEdge(armLast, join, comm())
				}
				p := 0.2 + 0.6*rng.Float64()
				b.SetBranchProbs(fork, []float64{p, 1 - p})
				last = join
			}
		}
		chainEnds[w] = last
	}
	sink := b.AddTask("", ctg.AndNode)
	for _, end := range chainEnds {
		b.AddEdge(end, sink, comm())
	}

	numTasks := 2 + cfg.PEs*chainLen + cfg.Forks*(2*cfg.ArmLen+1)
	// Provisional deadline: serial worst case, far beyond any schedule.
	g, err := b.Build(float64(numTasks) * wcetMax)
	if err != nil {
		return nil, nil, err
	}

	pb := platform.NewBuilder(numTasks, cfg.PEs)
	for t := 0; t < numTasks; t++ {
		mean := wcetMin + rng.Float64()*(wcetMax-wcetMin)
		w := make([]float64, cfg.PEs)
		e := make([]float64, cfg.PEs)
		for pe := 0; pe < cfg.PEs; pe++ {
			w[pe] = mean * (1 - hetero + 2*hetero*rng.Float64())
			e[pe] = w[pe] * (0.8 + 0.4*rng.Float64())
		}
		pb.SetTask(t, w, e)
	}
	for i := 0; i < cfg.PEs; i++ {
		for j := 0; j < cfg.PEs; j++ {
			if i != j {
				pb.SetLink(i, j, bandMin+rng.Float64()*(bandMax-bandMin), txEnergyPerKB)
			}
		}
	}
	p, err := pb.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, p, nil
}

// ScaleDriftVectors builds a decision-vector sequence whose drift is
// confined to fork 0: its outcome cycles with period 3 (so a window-20
// estimate keeps moving), while every other fork always selects outcome 0.
// This is the small-drift regime the warm-start path targets.
func ScaleDriftVectors(g *ctg.Graph, n int) [][]int {
	vecs := make([][]int, n)
	for i := range vecs {
		v := make([]int, g.NumForks())
		if i%3 == 0 {
			v[0] = 1
		}
		vecs[i] = v
	}
	return vecs
}

// ScaleCell is one measured point of the scaling campaign.
type ScaleCell struct {
	Tasks, PEs, Forks int
	Instances         int

	// FullMs is one cold full reschedule (DLS + stretch) in milliseconds.
	FullMs float64
	// StepFullMs / StepWarmMs are the mean per-instance adaptive step times
	// under the drift workload with warm-starting off / on.
	StepFullMs float64
	StepWarmMs float64
	// Speedup is StepFullMs / StepWarmMs.
	Speedup float64

	WarmStarts    int
	WarmFallbacks int
	// MissesFull / MissesWarm pin the behavioral envelope: warm-starting
	// must not trade deadline misses for speed.
	MissesFull int
	MissesWarm int
	// EnergyDeltaPct is the relative expected-energy difference of the two
	// runs (warm vs full), in percent.
	EnergyDeltaPct float64
}

// ScaleResult is the scaling campaign's output.
type ScaleResult struct {
	Cells []ScaleCell
}

// ScaleCampaign measures, for each configuration, the cost of full
// rescheduling versus warm-started rescheduling under a small-drift
// workload: two adaptive managers (warm off / warm on, threshold 0 so every
// estimate movement triggers a reschedule) replay the same fork-0 drift
// vectors.
func ScaleCampaign(cfgs []ScaleConfig, instances int) (*ScaleResult, error) {
	res := &ScaleResult{}
	for _, cfg := range cfgs {
		cfg.applyDefaults()
		g0, p, err := ScaleWorkload(cfg)
		if err != nil {
			return nil, err
		}
		g, err := core.TightenDeadline(g0, p, 2.0)
		if err != nil {
			return nil, err
		}
		vec := ScaleDriftVectors(g, instances)

		start := time.Now()
		if _, err := core.BuildOnline(g, p, core.Options{}); err != nil {
			return nil, err
		}
		fullMs := float64(time.Since(start).Microseconds()) / 1e3

		run := func(warm bool) (core.RunStats, float64, float64, error) {
			var opts core.Options
			opts.SetThreshold(0)
			opts.WarmStart = warm
			m, err := core.New(g, p, opts)
			if err != nil {
				return core.RunStats{}, 0, 0, err
			}
			t0 := time.Now()
			st, err := m.Run(vec)
			if err != nil {
				return core.RunStats{}, 0, 0, err
			}
			ms := float64(time.Since(t0).Microseconds()) / 1e3 / float64(instances)
			return st, ms, m.Schedule().ExpectedEnergy(), nil
		}
		stFull, stepFull, _, err := run(false)
		if err != nil {
			return nil, err
		}
		stWarm, stepWarm, _, err := run(true)
		if err != nil {
			return nil, err
		}

		cell := ScaleCell{
			Tasks: g.NumTasks(), PEs: cfg.PEs, Forks: cfg.Forks,
			Instances:  instances,
			FullMs:     fullMs,
			StepFullMs: stepFull,
			StepWarmMs: stepWarm,
			WarmStarts: stWarm.WarmStarts, WarmFallbacks: stWarm.WarmFallbacks,
			MissesFull: stFull.Misses, MissesWarm: stWarm.Misses,
		}
		if stepWarm > 0 {
			cell.Speedup = stepFull / stepWarm
		}
		if stFull.AvgEnergy > 0 {
			cell.EnergyDeltaPct = 100 * (stWarm.AvgEnergy - stFull.AvgEnergy) / stFull.AvgEnergy
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// Render formats the scaling curve's deterministic columns: warm starts,
// misses and the energy difference of the two runs.
func (r *ScaleResult) Render() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, append(c.shape(),
			fmt.Sprintf("%d/%d", c.WarmStarts, c.WarmFallbacks),
			fmt.Sprintf("%d/%d", c.MissesFull, c.MissesWarm),
			fmt.Sprintf("%+.1f%%", c.EnergyDeltaPct),
		))
	}
	s := "Scaling tier: full vs warm-started rescheduling under fork-0 drift\n"
	s += table([]string{"tasks", "PEs", "forks", "warm/fb", "miss f/w", "Δenergy"}, rows)
	return s
}

// Timing formats the scaling curve's wall-clock columns, which vary run to
// run and so stay out of Render.
func (r *ScaleResult) Timing() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, append(c.shape(),
			fmt.Sprintf("%.1f", c.FullMs),
			fmt.Sprintf("%.2f", c.StepFullMs), fmt.Sprintf("%.2f", c.StepWarmMs),
			fmt.Sprintf("%.1fx", c.Speedup),
		))
	}
	s := "\n" + table([]string{"tasks", "PEs", "forks", "full-resched ms", "step-full ms", "step-warm ms", "speedup"}, rows)
	s += "\nstep-full: mean adaptive step, every drift paying a full DLS+stretch (T=0)\n"
	s += "step-warm: same workload with incremental warm-start rescheduling enabled\n"
	return s
}

// shape is the cell's leading tasks/PEs/forks columns.
func (c ScaleCell) shape() []string {
	return []string{fmt.Sprintf("%d", c.Tasks), fmt.Sprintf("%d", c.PEs), fmt.Sprintf("%d", c.Forks)}
}

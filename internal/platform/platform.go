// Package platform models the MPSoC hardware of the paper: a set of
// heterogeneous processing elements (PEs) with per-task worst-case execution
// times and energies at nominal supply voltage, a point-to-point
// interconnect with per-link bandwidth and transmission energy, and a
// dynamic voltage/frequency scaling (DVFS) model.
//
// Units are deliberately abstract, matching the paper's normalized
// evaluation: time is in generic "time units" (the same unit as the CTG
// deadline), energy in generic "energy units", and communication volume in
// kilobytes. The DVFS model follows the paper's §IV simplification — unit
// load capacitance, voltage proportional to frequency — so a task running at
// normalized speed s ∈ (0, 1] takes WCET/s time and consumes E·s² energy,
// while communication is never scaled.
package platform

import (
	"errors"
	"fmt"
	"math"
)

// Platform is an immutable description of an MPSoC: n tasks × m PEs of
// execution costs, plus an m × m interconnect. Build one with NewBuilder.
type Platform struct {
	numTasks int
	numPEs   int

	wcet   [][]float64 // [task][pe] worst-case execution time at full speed
	energy [][]float64 // [task][pe] energy at nominal VDD (full speed)

	bandwidth [][]float64 // [pe][pe] KB per time unit
	txEnergy  [][]float64 // [pe][pe] energy per KB

	avgWCET []float64 // [task] mean WCET across PEs (cached for DLS)

	// alive and linkUp carry an availability restriction (see Restrict);
	// both nil on a healthy platform, in which case every accessor reports
	// full availability. avgWCET is recomputed over survivors on restricted
	// views.
	alive  []bool
	linkUp [][]bool
}

// Builder assembles a Platform. A Builder is created for a fixed task and PE
// count; all entries default to unusable (zero) and must be filled in.
type Builder struct {
	p   *Platform
	err error
}

// NewBuilder returns a Builder for the given number of tasks and PEs.
// Link entries default to bandwidth 1 KB/time-unit and zero transmission
// energy; execution entries must be set explicitly.
func NewBuilder(numTasks, numPEs int) *Builder {
	b := &Builder{}
	if numTasks <= 0 || numPEs <= 0 {
		b.err = fmt.Errorf("platform: need positive task and PE counts, got %d, %d", numTasks, numPEs)
		return b
	}
	p := &Platform{numTasks: numTasks, numPEs: numPEs}
	p.wcet = make([][]float64, numTasks)
	p.energy = make([][]float64, numTasks)
	for t := range p.wcet {
		p.wcet[t] = make([]float64, numPEs)
		p.energy[t] = make([]float64, numPEs)
	}
	p.bandwidth = make([][]float64, numPEs)
	p.txEnergy = make([][]float64, numPEs)
	for i := range p.bandwidth {
		p.bandwidth[i] = make([]float64, numPEs)
		p.txEnergy[i] = make([]float64, numPEs)
		for j := range p.bandwidth[i] {
			if i != j {
				p.bandwidth[i][j] = 1
			}
		}
	}
	b.p = p
	return b
}

// SetTask sets the per-PE WCET and energy of one task. Both slices must have
// one entry per PE; WCETs must be positive, energies non-negative.
func (b *Builder) SetTask(task int, wcet, energy []float64) *Builder {
	if b.err != nil {
		return b
	}
	if task < 0 || task >= b.p.numTasks {
		b.err = fmt.Errorf("platform: task %d out of range", task)
		return b
	}
	if len(wcet) != b.p.numPEs || len(energy) != b.p.numPEs {
		b.err = fmt.Errorf("platform: task %d: want %d entries, got %d/%d",
			task, b.p.numPEs, len(wcet), len(energy))
		return b
	}
	for pe := 0; pe < b.p.numPEs; pe++ {
		if !(wcet[pe] > 0) || math.IsInf(wcet[pe], 0) || math.IsNaN(wcet[pe]) {
			b.err = fmt.Errorf("platform: task %d pe %d: invalid WCET %v", task, pe, wcet[pe])
			return b
		}
		if energy[pe] < 0 || math.IsInf(energy[pe], 0) || math.IsNaN(energy[pe]) {
			b.err = fmt.Errorf("platform: task %d pe %d: invalid energy %v", task, pe, energy[pe])
			return b
		}
	}
	copy(b.p.wcet[task], wcet)
	copy(b.p.energy[task], energy)
	return b
}

// SetUniformTask sets the same WCET/energy on every PE (a homogeneous
// system).
func (b *Builder) SetUniformTask(task int, wcet, energy float64) *Builder {
	if b.err != nil {
		return b
	}
	w := make([]float64, b.p.numPEs)
	e := make([]float64, b.p.numPEs)
	for i := range w {
		w[i], e[i] = wcet, energy
	}
	return b.SetTask(task, w, e)
}

// SetLink sets the bandwidth (KB per time unit) and transmission energy
// (energy per KB) of the directed link from pe i to pe j. The paper models
// dedicated point-to-point links; i == j is invalid (local communication is
// free by definition).
func (b *Builder) SetLink(i, j int, bandwidthKBPerTU, energyPerKB float64) *Builder {
	if b.err != nil {
		return b
	}
	if i < 0 || i >= b.p.numPEs || j < 0 || j >= b.p.numPEs || i == j {
		b.err = fmt.Errorf("platform: invalid link %d->%d", i, j)
		return b
	}
	if !(bandwidthKBPerTU > 0) || math.IsInf(bandwidthKBPerTU, 0) ||
		energyPerKB < 0 || math.IsInf(energyPerKB, 0) || math.IsNaN(energyPerKB) {
		b.err = fmt.Errorf("platform: link %d->%d: invalid bandwidth %v or energy %v",
			i, j, bandwidthKBPerTU, energyPerKB)
		return b
	}
	b.p.bandwidth[i][j] = bandwidthKBPerTU
	b.p.txEnergy[i][j] = energyPerKB
	return b
}

// SetAllLinks sets every directed link to the same bandwidth and energy.
func (b *Builder) SetAllLinks(bandwidthKBPerTU, energyPerKB float64) *Builder {
	if b.err != nil {
		return b
	}
	for i := 0; i < b.p.numPEs; i++ {
		for j := 0; j < b.p.numPEs; j++ {
			if i != j {
				b.SetLink(i, j, bandwidthKBPerTU, energyPerKB)
			}
		}
	}
	return b
}

// Build validates the platform and returns it.
func (b *Builder) Build() (*Platform, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := b.p
	if p == nil {
		return nil, errors.New("platform: builder already consumed")
	}
	for t := 0; t < p.numTasks; t++ {
		for pe := 0; pe < p.numPEs; pe++ {
			if p.wcet[t][pe] == 0 {
				return nil, fmt.Errorf("platform: task %d has no WCET on pe %d (SetTask not called?)", t, pe)
			}
		}
	}
	p.avgWCET = make([]float64, p.numTasks)
	for t := 0; t < p.numTasks; t++ {
		sum := 0.0
		for pe := 0; pe < p.numPEs; pe++ {
			sum += p.wcet[t][pe]
		}
		p.avgWCET[t] = sum / float64(p.numPEs)
	}
	b.p = nil
	return p, nil
}

// NumTasks returns the number of tasks the platform was sized for.
func (p *Platform) NumTasks() int { return p.numTasks }

// NumPEs returns the number of processing elements.
func (p *Platform) NumPEs() int { return p.numPEs }

// WCET returns the worst-case execution time of the task on the PE at full
// speed.
func (p *Platform) WCET(task, pe int) float64 { return p.wcet[task][pe] }

// Energy returns the energy of the task on the PE at nominal VDD (full
// speed).
func (p *Platform) Energy(task, pe int) float64 { return p.energy[task][pe] }

// AvgWCET returns the mean WCET of the task across all PEs at full speed —
// the *WCET(τ) of the paper's static-level formula.
func (p *Platform) AvgWCET(task int) float64 { return p.avgWCET[task] }

// CommTime returns the time to move kb kilobytes from PE i to PE j; zero
// when i == j (local buffers are free, per the paper's model).
func (p *Platform) CommTime(kb float64, i, j int) float64 {
	if i == j || kb == 0 {
		return 0
	}
	return kb / p.bandwidth[i][j]
}

// CommEnergy returns the transmission energy for kb kilobytes from PE i to
// PE j; zero when i == j. Communication is not voltage-scaled.
func (p *Platform) CommEnergy(kb float64, i, j int) float64 {
	if i == j {
		return 0
	}
	return kb * p.txEnergy[i][j]
}

// Bandwidth returns the link bandwidth from PE i to PE j in KB per time
// unit.
func (p *Platform) Bandwidth(i, j int) float64 { return p.bandwidth[i][j] }

// Package core implements the paper's contribution: the adaptive scheduling
// and DVFS framework. A sliding window per branch fork node tracks the most
// recent L branch decisions; when the windowed probability estimate drifts
// more than a threshold T away from the probabilities the current schedule
// was built for, the online algorithm (modified DLS + stretching heuristic,
// cheap enough to run at runtime) is re-invoked with the new estimates. The
// update rule acts like a low-pass filter on the branch probability
// ("filtered Prob" in the paper's Figure 4); window size and threshold trade
// re-scheduling overhead against adaptation fidelity.
package core

import (
	"fmt"
	"math"

	"ctgdvfs/internal/ctg"
)

// DefaultWindow is the sliding-window length the paper uses in its adaptive
// experiments (§IV uses 20; Figure 4's illustration uses 50).
const DefaultWindow = 20

// DefaultThreshold is the drift threshold; the paper evaluates 0.1 and 0.5.
const DefaultThreshold = 0.1

// Profiler maintains, for every branch fork node of a CTG, a fixed-length
// window of the most recent branch decisions and the resulting probability
// estimate.
//
// Windows are pre-seeded to match the initial (profiled) probabilities, so
// the estimate starts at the profile and drifts only as real decisions
// displace the synthetic ones.
type Profiler struct {
	g      *ctg.Graph
	window int

	buf    [][]int // per fork: ring buffer of outcomes
	pos    []int   // per fork: next write position
	counts [][]int // per fork: outcome counts within the window
}

// NewProfiler builds a profiler seeded with the graph's current branch
// probabilities. Window must be positive.
func NewProfiler(g *ctg.Graph, window int) (*Profiler, error) {
	if window <= 0 {
		return nil, fmt.Errorf("core: window must be positive, got %d", window)
	}
	p := &Profiler{
		g:      g,
		window: window,
		buf:    make([][]int, g.NumForks()),
		pos:    make([]int, g.NumForks()),
		counts: make([][]int, g.NumForks()),
	}
	for fi, fork := range g.Forks() {
		probs := g.BranchProbs(fork)
		p.buf[fi] = seedWindow(probs, window)
		p.counts[fi] = make([]int, len(probs))
		for _, k := range p.buf[fi] {
			p.counts[fi][k]++
		}
	}
	return p, nil
}

// seedWindow fills a window with outcomes whose frequencies approximate the
// given distribution, interleaved (largest-remainder style) so evictions
// stay representative.
func seedWindow(probs []float64, window int) []int {
	buf := make([]int, window)
	acc := make([]float64, len(probs))
	for i := 0; i < window; i++ {
		best, bestV := 0, -1.0
		for k := range probs {
			acc[k] += probs[k]
			if acc[k] > bestV {
				best, bestV = k, acc[k]
			}
		}
		acc[best]--
		buf[i] = best
	}
	return buf
}

// shift moves outcome into the window of fork fi (dense fork index),
// evicting the oldest decision. The caller has range-checked both.
func (p *Profiler) shift(fi, outcome int) {
	old := p.buf[fi][p.pos[fi]]
	p.counts[fi][old]--
	p.buf[fi][p.pos[fi]] = outcome
	p.counts[fi][outcome]++
	p.pos[fi] = (p.pos[fi] + 1) % p.window
}

// count is the window count of outcome k of fork fi once the staged
// outcome o has been shifted in (o < 0: nothing staged). A step reads its
// estimates through it before commit shifts the decisions in for real.
func (p *Profiler) count(fi, k, o int) int {
	c := p.counts[fi][k]
	if o >= 0 {
		if p.buf[fi][p.pos[fi]] == k {
			c--
		}
		if o == k {
			c++
		}
	}
	return c
}

// estimate returns the windowed probability estimate of fork fi (dense fork
// index), the raw outcome frequencies within the window, with outcome o
// staged (see count; -1 stages nothing).
func (p *Profiler) estimate(fi, o int) []float64 {
	out := make([]float64, len(p.counts[fi]))
	for k := range out {
		out[k] = p.estimateAt(fi, k, o)
	}
	return out
}

// NumOutcomes returns the number of outcomes tracked for the fork (dense
// fork index).
func (p *Profiler) NumOutcomes(forkIdx int) int { return len(p.counts[forkIdx]) }

// estimateAt is one outcome's windowed probability estimate, with outcome o
// staged (see count): the allocation-free counterpart of estimate for the
// step's drift checks.
func (p *Profiler) estimateAt(fi, k, o int) float64 {
	return float64(p.count(fi, k, o)) / float64(p.window)
}

// EstimateInto appends the windowed estimate of the fork to out and returns
// the extended slice; pass out[:0] of a retained buffer to avoid
// allocations.
func (p *Profiler) EstimateInto(forkIdx int, out []float64) []float64 {
	for _, c := range p.counts[forkIdx] {
		out = append(out, float64(c)/float64(p.window))
	}
	return out
}

// smoothedInto appends the Laplace-smoothed (add-one) windowed estimate of
// fork fi, (count+1)/(window+outcomes), to out and returns the extended
// slice, with outcome o staged (see count; -1 stages nothing). A raw window
// easily reports an outcome probability of exactly 0 or 1, and a scheduler
// fed certainty allocates *no* slack to the "impossible" branch — which then
// runs at full speed whenever it does occur. Smoothing keeps every outcome
// minimally provisioned.
func (p *Profiler) smoothedInto(fi, o int, out []float64) []float64 {
	k := len(p.counts[fi])
	for j := 0; j < k; j++ {
		out = append(out, (float64(p.count(fi, j, o))+1)/(float64(p.window)+float64(k)))
	}
	return out
}

// maxDrift returns the largest absolute difference between the windowed
// estimates and the graph's current (schedule-time) branch probabilities,
// over all forks and outcomes, with staged[fi] staged for every fork (nil:
// nothing staged; see count).
func (p *Profiler) maxDrift(staged []int) float64 {
	maxD := 0.0
	for fi, fork := range p.g.Forks() {
		o := -1
		if staged != nil {
			o = staged[fi]
		}
		for k := range p.counts[fi] {
			d := p.estimateAt(fi, k, o) - p.g.BranchProb(fork, k)
			if d < 0 {
				d = -d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// SeriesPoint is one instant of the Figure 4 illustration: the raw branch
// selection, the sliding-window probability, and the threshold-filtered
// probability the scheduler would use.
type SeriesPoint struct {
	Selection  int
	WindowProb float64
	Filtered   float64
	Updated    bool
}

// FilteredSeries reproduces the mechanics of the paper's Figure 4 for one
// two-outcome branch: a window of the given length slides over the 0/1
// selection stream; whenever the windowed probability of outcome 1 departs
// from the last adopted value by more than threshold, the adopted
// ("filtered") value snaps to the window estimate.
func FilteredSeries(selections []int, initProb float64, window int, threshold float64) []SeriesPoint {
	buf := seedWindow([]float64{1 - initProb, initProb}, window)
	count1 := 0
	for _, v := range buf {
		count1 += v
	}
	pos := 0
	filtered := initProb
	out := make([]SeriesPoint, len(selections))
	for i, sel := range selections {
		count1 += sel - buf[pos]
		buf[pos] = sel
		pos = (pos + 1) % window
		wp := float64(count1) / float64(window)
		updated := false
		// "Crosses the threshold" is inclusive: with a balanced 0.5
		// estimate, a drift strictly above 0.5 is unreachable, yet the
		// paper reports T = 0.5 runs that do adapt.
		if d := math.Abs(wp - filtered); d >= threshold-1e-12 {
			filtered = wp
			updated = true
		}
		out[i] = SeriesPoint{Selection: sel, WindowProb: wp, Filtered: filtered, Updated: updated}
	}
	return out
}

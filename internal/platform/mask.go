package platform

import (
	"fmt"
	"strings"
)

// Mask is a hardware-availability view over a Platform: which processing
// elements are alive and which directed links are up. The zero value (nil
// slices) means "everything available" — the healthy platform. Masks are the
// currency of the degraded-mode story: a failure timeline (internal/faults)
// produces one per CTG instance, Platform.Restrict applies it, the schedulers
// plan around it, and the adaptive manager keys its memoized schedules by it
// so degraded and healthy schedules never collide.
type Mask struct {
	// PEs marks each processing element alive (true) or dead (false).
	// Nil means all PEs are alive.
	PEs []bool
	// Links marks each directed link [from][to] up (true) or down (false).
	// Nil means all links are up; diagonal entries are ignored (local
	// communication never uses a link).
	Links [][]bool
}

// FullMask returns a mask with every PE alive and every link up, sized for
// numPEs processing elements. Mutating the result never affects the platform.
func FullMask(numPEs int) Mask {
	m := Mask{PEs: make([]bool, numPEs), Links: make([][]bool, numPEs)}
	for i := range m.PEs {
		m.PEs[i] = true
		m.Links[i] = make([]bool, numPEs)
		for j := range m.Links[i] {
			m.Links[i][j] = true
		}
	}
	return m
}

// IsFull reports whether the mask hides nothing: every listed PE alive and
// every listed link up (nil slices count as full).
func (m Mask) IsFull() bool {
	for _, alive := range m.PEs {
		if !alive {
			return false
		}
	}
	for i, row := range m.Links {
		for j, up := range row {
			if i != j && !up {
				return false
			}
		}
	}
	return true
}

// NumAlive returns the number of alive PEs under the mask, given the
// platform's PE count (needed because a nil PEs slice means "all alive").
func (m Mask) NumAlive(numPEs int) int {
	if m.PEs == nil {
		return numPEs
	}
	n := 0
	for _, alive := range m.PEs {
		if alive {
			n++
		}
	}
	return n
}

// PEAlive reports whether the PE is alive under the mask (out-of-range
// indices and nil masks are alive).
func (m Mask) PEAlive(pe int) bool {
	if m.PEs == nil || pe < 0 || pe >= len(m.PEs) {
		return true
	}
	return m.PEs[pe]
}

// LinkUp reports whether the directed link is up under the mask. A link
// touching a dead PE is down regardless of the link entry.
func (m Mask) LinkUp(i, j int) bool {
	if i == j {
		return true
	}
	if !m.PEAlive(i) || !m.PEAlive(j) {
		return false
	}
	if m.Links == nil || i < 0 || i >= len(m.Links) || j < 0 || j >= len(m.Links[i]) {
		return true
	}
	return m.Links[i][j]
}

// Equal reports whether two masks describe the same availability state for a
// platform with numPEs processing elements (nil and explicit all-true
// representations compare equal).
func (m Mask) Equal(o Mask, numPEs int) bool {
	for pe := 0; pe < numPEs; pe++ {
		if m.PEAlive(pe) != o.PEAlive(pe) {
			return false
		}
	}
	for i := 0; i < numPEs; i++ {
		for j := 0; j < numPEs; j++ {
			if i != j && m.LinkUp(i, j) != o.LinkUp(i, j) {
				return false
			}
		}
	}
	return true
}

// String renders the mask for error messages and logs.
func (m Mask) String() string {
	var dead, down []string
	for pe, alive := range m.PEs {
		if !alive {
			dead = append(dead, fmt.Sprintf("%d", pe))
		}
	}
	for i, row := range m.Links {
		for j, up := range row {
			if i != j && !up {
				down = append(down, fmt.Sprintf("%d->%d", i, j))
			}
		}
	}
	if len(dead) == 0 && len(down) == 0 {
		return "mask{healthy}"
	}
	return fmt.Sprintf("mask{dead PEs [%s], down links [%s]}",
		strings.Join(dead, " "), strings.Join(down, " "))
}

// InfeasibleMaskError is the typed rejection of an availability mask no
// schedule can satisfy — most importantly a mask with no surviving PE.
// Callers detect it with errors.As to distinguish "this topology cannot host
// the workload" from programming errors.
type InfeasibleMaskError struct {
	// Reason describes what makes the mask infeasible.
	Reason string
}

func (e *InfeasibleMaskError) Error() string {
	return "platform: infeasible availability mask: " + e.Reason
}

// Restrict returns a view of the platform with the mask applied: dead PEs and
// down links are remembered and reported via PEAlive/LinkUp, and the cached
// per-task average WCET is recomputed over the surviving PEs (so static
// levels and the DLS delta term reflect the hardware that can actually run
// the task). A full mask returns the receiver unchanged. A mask with no
// surviving PE is rejected with *InfeasibleMaskError. The receiver is never
// mutated; the returned platform shares the immutable cost tables.
func (p *Platform) Restrict(m Mask) (*Platform, error) {
	if m.PEs != nil && len(m.PEs) != p.numPEs {
		return nil, fmt.Errorf("platform: mask sized for %d PEs, platform has %d", len(m.PEs), p.numPEs)
	}
	if m.Links != nil && len(m.Links) != p.numPEs {
		return nil, fmt.Errorf("platform: link mask sized for %d PEs, platform has %d", len(m.Links), p.numPEs)
	}
	if m.IsFull() {
		return p, nil
	}
	if m.NumAlive(p.numPEs) == 0 {
		return nil, &InfeasibleMaskError{Reason: "no surviving PE"}
	}
	cp := *p
	cp.alive = make([]bool, p.numPEs)
	for pe := range cp.alive {
		cp.alive[pe] = m.PEAlive(pe)
	}
	cp.linkUp = make([][]bool, p.numPEs)
	for i := range cp.linkUp {
		cp.linkUp[i] = make([]bool, p.numPEs)
		for j := range cp.linkUp[i] {
			cp.linkUp[i][j] = m.LinkUp(i, j)
		}
	}
	// Average WCET over the survivors: the degraded scheduler's levels and
	// delta terms should rank PEs against the hardware that remains.
	alive := m.NumAlive(p.numPEs)
	cp.avgWCET = make([]float64, p.numTasks)
	for t := 0; t < p.numTasks; t++ {
		sum := 0.0
		for pe := 0; pe < p.numPEs; pe++ {
			if cp.alive[pe] {
				sum += p.wcet[t][pe]
			}
		}
		cp.avgWCET[t] = sum / float64(alive)
	}
	return &cp, nil
}

// PEAlive reports whether the PE is available on this (possibly restricted)
// platform. Unrestricted platforms report every PE alive.
func (p *Platform) PEAlive(pe int) bool {
	if p.alive == nil {
		return true
	}
	return p.alive[pe]
}

// LinkUp reports whether the directed link from PE i to PE j is available.
// Local "links" (i == j) are always up; links touching a dead PE are down.
func (p *Platform) LinkUp(i, j int) bool {
	if i == j {
		return true
	}
	if p.alive != nil && (!p.alive[i] || !p.alive[j]) {
		return false
	}
	if p.linkUp == nil {
		return true
	}
	return p.linkUp[i][j]
}

// NumAlivePEs returns the number of available PEs (all of them on an
// unrestricted platform).
func (p *Platform) NumAlivePEs() int {
	if p.alive == nil {
		return p.numPEs
	}
	n := 0
	for _, a := range p.alive {
		if a {
			n++
		}
	}
	return n
}

// Restricted reports whether the platform carries an availability mask.
func (p *Platform) Restricted() bool { return p.alive != nil || p.linkUp != nil }

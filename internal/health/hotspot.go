package health

import (
	"sort"

	"ctgdvfs/internal/telemetry"
)

// hotState is the hotspot attributor: it folds every task and communication
// slice into per-task, per-PE and per-link accumulators and, at each
// instance boundary, credits the instance's critical-path terminal — the
// task slice that finished last — so the snapshot can rank what actually
// ends the schedule, not just what runs longest.
type hotState struct {
	instances int

	tasks map[int]*taskAcc
	pes   map[int]*peAcc
	links map[linkKey]*linkAcc

	// pending is the per-instance critical-path candidate: the latest-ending
	// task slice seen since the last commit, tracked separately for the
	// primary and fallback phases (a fallback replay supersedes the primary
	// timeline it replaced).
	pending map[int]*pendingInst
}

type taskAcc struct {
	name     string
	busy     float64
	energy   float64
	slices   int
	critical int
}

type peAcc struct {
	busy   float64
	energy float64
	slices int
}

type linkKey struct{ from, to int }

type linkAcc struct {
	busy      float64
	energy    float64
	transfers int
}

type pendingInst struct {
	primTask, fbTask bool
	primEnd, fbEnd   float64
	primID, fbID     int
}

func (h *hotState) init() {
	h.tasks = make(map[int]*taskAcc)
	h.pes = make(map[int]*peAcc)
	h.links = make(map[linkKey]*linkAcc)
	h.pending = make(map[int]*pendingInst)
}

func (h *hotState) task(id int) *taskAcc {
	t := h.tasks[id]
	if t == nil {
		t = &taskAcc{}
		h.tasks[id] = t
	}
	return t
}

func (h *hotState) observeTask(e telemetry.Event) {
	dur := e.End - e.Start
	t := h.task(e.Task)
	if e.Name != "" {
		t.name = e.Name
	}
	t.busy += dur
	t.energy += e.Energy
	t.slices++

	p := h.pes[e.PE]
	if p == nil {
		p = &peAcc{}
		h.pes[e.PE] = p
	}
	p.busy += dur
	p.energy += e.Energy
	p.slices++

	pi := h.pending[e.Instance]
	if pi == nil {
		pi = &pendingInst{}
		h.pending[e.Instance] = pi
	}
	if e.Phase == telemetry.PhaseFallback {
		if !pi.fbTask || e.End > pi.fbEnd {
			pi.fbTask, pi.fbEnd, pi.fbID = true, e.End, e.Task
		}
	} else {
		if !pi.primTask || e.End > pi.primEnd {
			pi.primTask, pi.primEnd, pi.primID = true, e.End, e.Task
		}
	}
}

func (h *hotState) observeComm(e telemetry.Event) {
	k := linkKey{from: e.PE, to: e.PE2}
	l := h.links[k]
	if l == nil {
		l = &linkAcc{}
		h.links[k] = l
	}
	l.busy += e.End - e.Start
	l.energy += e.Energy
	l.transfers++
}

// commit closes one instance: credits its critical-path terminal task and
// advances the instance count. When the instance ran a fallback replay, the
// fallback timeline's terminal is the one that mattered.
func (h *hotState) commit(instance int) {
	h.instances++
	pi := h.pending[instance]
	if pi == nil {
		return
	}
	delete(h.pending, instance)
	switch {
	case pi.fbTask:
		h.task(pi.fbID).critical++
	case pi.primTask:
		h.task(pi.primID).critical++
	}
}

// instanceCount is the number of instances seen: committed ones plus those
// still pending a finish event (a stream without instance summaries never
// commits its instances).
func (h *hotState) instanceCount() int { return h.instances + len(h.pending) }

// TaskHotspot is one ranked task.
type TaskHotspot struct {
	Task   int     `json:"task"`
	Name   string  `json:"name,omitempty"`
	Busy   float64 `json:"busy"`
	Energy float64 `json:"energy"`
	Slices int     `json:"slices"`
	// Critical counts the instances this task ended last in — its
	// critical-path terminal count.
	Critical int `json:"critical"`
}

// PEHotspot is one ranked processing element.
type PEHotspot struct {
	PE     int     `json:"pe"`
	Busy   float64 `json:"busy"`
	Energy float64 `json:"energy"`
	Slices int     `json:"slices"`
}

// LinkHotspot is one ranked interconnect link (directed PE pair).
type LinkHotspot struct {
	From      int     `json:"from"`
	To        int     `json:"to"`
	Busy      float64 `json:"busy"`
	Energy    float64 `json:"energy"`
	Transfers int     `json:"transfers"`
}

// Hotspots is the exported attribution summary: the top-N rankings.
type Hotspots struct {
	Tasks []TaskHotspot `json:"tasks,omitempty"`
	PEs   []PEHotspot   `json:"pes,omitempty"`
	Links []LinkHotspot `json:"links,omitempty"`
}

func (h *hotState) snapshot(topN int) Hotspots {
	var out Hotspots
	for id, t := range h.tasks {
		out.Tasks = append(out.Tasks, TaskHotspot{
			Task: id, Name: t.name, Busy: t.busy, Energy: t.energy,
			Slices: t.slices, Critical: t.critical,
		})
	}
	sort.Slice(out.Tasks, func(i, j int) bool {
		a, b := out.Tasks[i], out.Tasks[j]
		if a.Critical != b.Critical {
			return a.Critical > b.Critical
		}
		if a.Busy != b.Busy {
			return a.Busy > b.Busy
		}
		return a.Task < b.Task
	})
	for id, p := range h.pes {
		out.PEs = append(out.PEs, PEHotspot{
			PE: id, Busy: p.busy, Energy: p.energy, Slices: p.slices,
		})
	}
	sort.Slice(out.PEs, func(i, j int) bool {
		a, b := out.PEs[i], out.PEs[j]
		if a.Busy != b.Busy {
			return a.Busy > b.Busy
		}
		return a.PE < b.PE
	})
	for k, l := range h.links {
		out.Links = append(out.Links, LinkHotspot{
			From: k.from, To: k.to, Busy: l.busy, Energy: l.energy,
			Transfers: l.transfers,
		})
	}
	sort.Slice(out.Links, func(i, j int) bool {
		a, b := out.Links[i], out.Links[j]
		if a.Busy != b.Busy {
			return a.Busy > b.Busy
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	if topN > 0 {
		if len(out.Tasks) > topN {
			out.Tasks = out.Tasks[:topN]
		}
		if len(out.PEs) > topN {
			out.PEs = out.PEs[:topN]
		}
		if len(out.Links) > topN {
			out.Links = out.Links[:topN]
		}
	}
	return out
}

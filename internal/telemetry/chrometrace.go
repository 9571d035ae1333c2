package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeTrace converts recorded event streams into the Chrome trace-event
// JSON format, loadable in chrome://tracing and https://ui.perfetto.dev: one
// process per run, one thread row per PE (plus one per interconnect link),
// task executions as duration slices with speed/energy/overrun args, comm
// transfers as slices on their link row with flow arrows from producer to
// consumer task, re-schedules / breaker trips / fallback activations as
// process-scoped instant events, and drift / guard level / energy as counter
// tracks. Consecutive CTG instances are laid out back to back on a shared
// timeline (one abstract schedule time unit = 1 µs in the trace).
//
// The export is deterministic: events are grouped by instance id and sorted
// with explicit tie-breakers, and all JSON is rendered from ordered structs —
// no map iteration — so identical inputs produce byte-identical files (the
// golden-file test depends on this).
type ChromeTrace struct {
	events []chromeEvent
}

// NewChromeTrace returns an empty exporter.
func NewChromeTrace() *ChromeTrace { return &ChromeTrace{} }

// chromeEvent is one trace-event record. Field order is the serialization
// order (encoding/json preserves struct order), keeping output stable.
type chromeEvent struct {
	Name  string      `json:"name,omitempty"`
	Cat   string      `json:"cat,omitempty"`
	Ph    string      `json:"ph"`
	Ts    float64     `json:"ts"`
	Dur   float64     `json:"dur,omitempty"`
	Pid   int         `json:"pid"`
	Tid   int         `json:"tid"`
	ID    string      `json:"id,omitempty"`
	Scope string      `json:"s,omitempty"`
	BP    string      `json:"bp,omitempty"`
	Args  *chromeArgs `json:"args,omitempty"`
}

// chromeArgs is the ordered argument payload of a trace event.
type chromeArgs struct {
	Label    string   `json:"name,omitempty"` // metadata events: row name
	Task     int      `json:"task,omitempty"`
	Scenario int      `json:"scenario,omitempty"`
	Speed    float64  `json:"speed,omitempty"`
	Overrun  float64  `json:"overrun,omitempty"`
	Energy   *float64 `json:"energy,omitempty"`
	Makespan float64  `json:"makespan,omitempty"`
	Lateness float64  `json:"lateness,omitempty"`
	Met      *bool    `json:"met,omitempty"`
	Reason   string   `json:"reason,omitempty"`
	CacheHit *bool    `json:"cache_hit,omitempty"`
	Calls    int      `json:"calls,omitempty"`
	Level    *int     `json:"level,omitempty"`
	Drift    *float64 `json:"drift,omitempty"`
	Value    *float64 `json:"value,omitempty"`
}

func fptr(v float64) *float64 { return &v }
func bptr(v bool) *bool       { return &v }
func iptr(v int) *int         { return &v }

// instanceGroup is the per-instance slice of a recorded stream.
type instanceGroup struct {
	id     int
	events []Event
}

// groupByInstance buckets a stream by instance id, ascending. Within a
// group the original stream order is preserved (it is deterministic for
// single-manager runs; parallel replays are serialized per instance by id).
func groupByInstance(evs []Event) []instanceGroup {
	byID := make(map[int][]Event)
	var ids []int
	for _, e := range evs {
		if _, ok := byID[e.Instance]; !ok {
			ids = append(ids, e.Instance)
		}
		byID[e.Instance] = append(byID[e.Instance], e)
	}
	sort.Ints(ids)
	groups := make([]instanceGroup, 0, len(ids))
	for _, id := range ids {
		groups = append(groups, instanceGroup{id: id, events: byID[id]})
	}
	return groups
}

// AddRun lays one recorded run (one runtime's event stream) onto the trace
// as process pid. Instances are placed back to back; a fallback re-run is
// placed after the failed primary replay of its instance, mirroring the
// sequential re-execution it models.
func (ct *ChromeTrace) AddRun(name string, pid int, evs []Event) {
	ct.events = append(ct.events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid, Args: &chromeArgs{Label: name},
	})

	// Rows: one thread per PE seen in any slice, then one per link pair.
	maxPE := -1
	linkSet := make(map[[2]int]bool)
	for _, e := range evs {
		switch e.Kind {
		case KindTaskSlice:
			if e.PE > maxPE {
				maxPE = e.PE
			}
		case KindCommSlice:
			if e.PE > maxPE {
				maxPE = e.PE
			}
			if e.PE2 > maxPE {
				maxPE = e.PE2
			}
			linkSet[[2]int{e.PE, e.PE2}] = true
		}
	}
	links := make([][2]int, 0, len(linkSet))
	for l := range linkSet {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	linkTid := make(map[[2]int]int, len(links))
	for i, l := range links {
		linkTid[l] = maxPE + 1 + i
	}
	for pe := 0; pe <= maxPE; pe++ {
		ct.events = append(ct.events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: pe,
			Args: &chromeArgs{Label: fmt.Sprintf("PE %d", pe)},
		})
	}
	for _, l := range links {
		ct.events = append(ct.events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: linkTid[l],
			Args: &chromeArgs{Label: fmt.Sprintf("link %d→%d", l[0], l[1])},
		})
	}

	base := 0.0
	for _, grp := range groupByInstance(evs) {
		// Span of the primary replay and of an (optional) fallback re-run.
		primaryEnd, fallbackEnd := 0.0, 0.0
		for _, e := range grp.events {
			if e.Kind != KindTaskSlice && e.Kind != KindCommSlice {
				continue
			}
			if e.Phase == PhaseFallback {
				if e.End > fallbackEnd {
					fallbackEnd = e.End
				}
			} else if e.End > primaryEnd {
				primaryEnd = e.End
			}
		}
		span := primaryEnd + fallbackEnd
		instEnd := base + span

		for _, e := range grp.events {
			off := base
			cat := "task"
			if e.Phase == PhaseFallback {
				off = base + primaryEnd
				cat = "fallback"
			}
			switch e.Kind {
			case KindTaskSlice:
				args := &chromeArgs{Task: e.Task, Scenario: e.Scenario, Speed: e.Speed}
				if e.Factor > 1 {
					args.Overrun = e.Factor
				}
				if e.Energy != 0 {
					args.Energy = fptr(e.Energy)
				}
				ct.events = append(ct.events, chromeEvent{
					Name: e.Name, Cat: cat, Ph: "X",
					Ts: off + e.Start, Dur: e.End - e.Start, Pid: pid, Tid: e.PE,
					Args: args,
				})
			case KindCommSlice:
				if cat == "task" {
					cat = "comm"
				}
				// The phase is part of the id: a fallback re-run replays the
				// same edges as its failed primary, and flow endpoints must
				// pair within one replay.
				flowID := fmt.Sprintf("%s-i%d-e%d-%s", name, grp.id, e.Edge, cat)
				label := fmt.Sprintf("%d→%d", e.Task, e.Task2)
				ct.events = append(ct.events,
					chromeEvent{
						Name: label, Cat: cat, Ph: "X",
						Ts: off + e.Start, Dur: e.End - e.Start,
						Pid: pid, Tid: linkTid[[2]int{e.PE, e.PE2}],
					},
					// Flow arrow: producer task row → consumer task row.
					chromeEvent{
						Name: label, Cat: "flow", Ph: "s", ID: flowID,
						Ts: off + e.Start, Pid: pid, Tid: e.PE,
					},
					chromeEvent{
						Name: label, Cat: "flow", Ph: "f", BP: "e", ID: flowID,
						Ts: off + e.End, Pid: pid, Tid: e.PE2,
					},
				)
			case KindReschedule:
				ct.events = append(ct.events, chromeEvent{
					Name: "reschedule (" + e.Reason + ")", Cat: "decision",
					Ph: "i", Scope: "p", Ts: instEnd, Pid: pid, Tid: 0,
					Args: &chromeArgs{Reason: e.Reason, CacheHit: bptr(e.CacheHit), Calls: e.Calls},
				})
			case KindFallback:
				ct.events = append(ct.events, chromeEvent{
					Name: "fallback", Cat: "decision",
					Ph: "i", Scope: "p", Ts: base + primaryEnd, Pid: pid, Tid: 0,
					Args: &chromeArgs{Makespan: e.Makespan2, Met: bptr(e.Met)},
				})
			case KindGuardLevel:
				ct.events = append(ct.events,
					chromeEvent{
						Name: fmt.Sprintf("guard level %d→%d", e.Level2, e.Level),
						Cat:  "decision",
						Ph:   "i", Scope: "p", Ts: instEnd, Pid: pid, Tid: 0,
						Args: &chromeArgs{Level: iptr(e.Level)},
					},
					chromeEvent{
						Name: "guard_level", Ph: "C", Ts: instEnd, Pid: pid, Tid: 0,
						Args: &chromeArgs{Level: iptr(e.Level)},
					},
				)
			case KindInstanceFinish:
				ct.events = append(ct.events,
					chromeEvent{
						Name: "drift", Ph: "C", Ts: instEnd, Pid: pid, Tid: 0,
						Args: &chromeArgs{Drift: fptr(e.Drift)},
					},
					chromeEvent{
						Name: "energy", Ph: "C", Ts: instEnd, Pid: pid, Tid: 0,
						Args: &chromeArgs{Value: fptr(e.Energy)},
					},
				)
			}
		}
		// One-unit gap keeps instance boundaries visible when zoomed out.
		base = instEnd + 1
	}
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Write renders the trace as Chrome trace-event JSON.
func (ct *ChromeTrace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{TraceEvents: ct.events, DisplayTimeUnit: "ms"})
}

// Len returns the number of trace events staged so far.
func (ct *ChromeTrace) Len() int { return len(ct.events) }

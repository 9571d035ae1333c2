// Command perfbench is the repository's benchmark: it runs one workload of
// the adaptive scheduling loop or of the ctgschedd daemon for a fixed time,
// checks the simulated outputs, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 they are the per-layer ones, from a traced run. The
// harness drives the program only through its public entry points
// (core.New / Manager.Step, serve.New / Handler / Client) and times the
// layers from outside, under the span names the program already emits.
//
//	go run . -workload mpeg-paper -seed 1 -seconds 30 -trace 0
//
// It exits 1 when an output check fails and 2 on a usage or set-up error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured untraced.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"step_p50_us", "us"},
	{"step_p95_us", "us"},
	{"steps_per_s", "1/s"},
	{"on_time_ratio", "ratio"},
	{"ok_ratio", "ratio"},
	{"energy_vs_static", "ratio"},
	{"met_ratio", "ratio"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of single layers, from the traced run. A layer a
// workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	{"sim.replay_us", "us"},
	{"core.step_self_us", "us"},
	{"core.steps", "count"},
	{"core.resched_ratio", "ratio"},
	{"core.cache_lookups", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.warm_attempts", "count"},
	{"core.warm_ratio", "ratio"},
	{"core.warm_diff_us", "us"},
	{"core.warm_validate_us", "us"},
	{"core.initial_schedule_ms", "ms"},
	{"ctg.analyze_ms", "ms"},
	{"sched.dls_us", "us"},
	{"sched.dls_count", "count"},
	{"stretch.full_us", "us"},
	{"stretch.full_total_ms", "ms"},
	{"stretch.partial_us", "us"},
	{"stretch.partial_total_ms", "ms"},
	{"stretch.per_scenario_us", "us"},
	{"stretch.per_scenario_total_ms", "ms"},
	{"stretch.share", "%"},
	{"serve.requests", "count"},
	{"serve.http_rtt_us", "us"},
	{"serve.queue_step_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.rejections", "count"},
	{"serve.ckpt_us", "us"},
	{"serve.ckpt_bytes", "bytes"},
	{"recovery_s", "s"},
	{"serve.restored_instances", "count"},
	{"serve.restore_us_per_instance", "us"},
	{"load.lateness_p95_us", "us"},
	{"telemetry.events_per_step", "count"},
	{"trace.unaccounted_pct", "%"},
	{"trace.overhead_pct", "%"},
}

type metrics map[string]float64

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workdir  string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	// mismatches lists every failed output check; any entry fails the run.
	mismatches []string
	metrics    metrics
	// notes are the detail lines printed above the result: seeds, ratio
	// bases, tail percentiles with their sample counts.
	notes []string
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"mpeg-paper":   runMPEG,
	"scale1k-warm": runScale,
	"daemon-http":  runDaemon,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: mpeg-paper, scale1k-warm or daemon-http")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 30, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the daemon's checkpoints and event streams")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {%s}, -seconds ≥ 1, -trace 0|1\n", strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1

	printMeta(cfg)
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(2)
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	// Every failed check counts as at least one failed step.
	correct := len(out.mismatches) == 0
	out.failed = min(max(out.failed, len(out.mismatches)), max(out.attempted, 1))
	out.attempted = max(out.attempted, 1)
	emit(os.Stdout, out, specs, correct)
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMeta prints the run's metadata line: the seed, the host's cores and
// CPU model, GOMAXPROCS and the Go version.
func printMeta(cfg config) {
	meta := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", b)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, where the host
// exposes one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the notes, a metric table and, last, the JSON result.
func emit(w *os.File, out *outcome, specs []metricSpec, correct bool) {
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range out.mismatches {
		fmt.Fprintf(w, "# MISMATCH %s\n", m)
	}
	res := result{Correct: correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]jsonMetric, len(specs))}
	for _, s := range specs {
		v := out.metrics[s.name]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", s.name, v, s.unit)
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// derive maps the run seed to the seed of one input stream (a movie clip,
// the wlan channel, the scale graph) by a splitmix64 step, so the streams of
// one run are independent and each is fixed by the run seed.
func derive(seed int64, stream uint64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ stream<<40 ^ uint64(i)
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if s := int64(z >> 1); s != 0 {
		return s
	}
	return 1
}

// Input streams of derive.
const (
	streamClip uint64 = iota + 1
	streamWLAN
	streamScale
)

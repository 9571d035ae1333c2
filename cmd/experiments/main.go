// Command experiments regenerates every table and figure of the paper's
// evaluation section. With no flags it runs all of them in order; -exp
// selects one (table1, figure4, figure5, table2, table3, table4, table5,
// figure6). -cpuprofile and -memprofile write pprof profiles of the run
// (the usual way to inspect where the scenario engine spends its time).
// Each experiment prints its deterministic table first (the text its golden
// file under internal/exp/testdata pins) and then, where it measures wall
// clock, the timing lines, which vary run to run.
//
// The fault campaign (-exp faults) replays both application workloads under
// a deterministic execution-time overrun plan and prints the
// miss-rate-vs-energy tradeoff of guard-band stretching plus worst-case
// fallback recovery. -faults seeds the plan, -overrun sets the per-task
// overrun probability, -guard sets the base guard band.
//
// The failover campaign (-exp failover) sweeps transient PE-outage
// probability × repair time (-fail-rates, -repairs) over the mpeg/wlan/cruise
// workloads and prints miss rate and energy of the adaptive re-mapping
// runtime against a static schedule that deadlocks on dead hardware.
// -faults-spec FILE replays a JSON fault spec instead: its "perturb" section
// replaces the -exp faults plan, its "failures" section replaces the
// failover sweep with one scripted timeline.
//
// Telemetry: -trace-out FILE exports the fault campaign's guarded runtimes as
// a Chrome trace-event file (open in chrome://tracing or
// https://ui.perfetto.dev — one process per workload, one row per PE/link);
// -events-out PREFIX writes each stream as PREFIX-<name>.jsonl with full
// provenance (seq/cause ids) for `ctgsched analyze` and `ctgsched explain`;
// -series-out PREFIX writes each sampled series store for `ctgsched watch
// -dump`; -rules FILE arms alert rules on those stores. -health attaches the
// streaming health monitor to the fault campaign and prints one diagnosis
// report per stream after the tables. The batch harness serves nothing over
// HTTP: live metrics come from the daemon (`ctgschedd`, GET /v1/metrics).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// tracedExperiments names the experiment that publishes telemetry when the
// telemetry flags are set — the hint the telemetry flags' errors print.
const tracedExperiments = "-exp faults"

// Fault-campaign knobs, shared with the runner table.
var (
	faultSeed    = flag.Int64("faults", exp.DefaultCampaignSpec().Seed, "fault-plan seed for the fault campaign")
	faultOverrun = flag.Float64("overrun", exp.DefaultCampaignSpec().OverrunProb,
		"per-task execution-time overrun probability for the fault campaign")
	faultGuard = flag.Float64("guard", exp.DefaultCampaignGuard,
		"base guard band (fraction of slack reserved) for the fault campaign")
	faultsSpec = flag.String("faults-spec", "",
		"JSON spec file ({\"perturb\": {...}, \"failures\": {...}}) replacing the built-in fault plan and failover sweep")
	failRates = flag.String("fail-rates", "",
		"comma-separated per-PE per-instance outage probabilities for the failover campaign (default sweep when empty)")
	failRepairs = flag.String("repairs", "",
		"comma-separated outage repair times in instances for the failover campaign (default sweep when empty)")

	// Scale-campaign knobs (-exp scale): one cell of -scale-tasks tasks on
	// -scale-pes PEs (10³ tasks on 16 PEs by default), replaying
	// -scale-instances drift vectors; -scale-full sweeps the committed curve
	// up to 10⁴ tasks on 64 PEs instead (with -scale-instances, but refusing
	// -scale-tasks and -scale-pes, which the curve fixes per cell).
	scaleFull      = flag.Bool("scale-full", false, "run the full scaling curve (10³–10⁴ tasks, minutes) instead of one cell; excludes -scale-tasks and -scale-pes")
	scaleTasks     = flag.Int("scale-tasks", 0, "scale-campaign cell: task count (0 = 1000)")
	scalePEs       = flag.Int("scale-pes", 0, "scale-campaign cell: PE count (0 = 16)")
	scaleInstances = flag.Int("scale-instances", 45, "instances replayed in the scale-campaign cell")

	traceOut = flag.String("trace-out", "",
		"write a Chrome trace-event file of a traced experiment's event streams (traced: "+tracedExperiments+")")
	eventsOut = flag.String("events-out", "",
		"write each traced stream as PREFIX-<name>.jsonl — the format `ctgsched analyze` and `ctgsched explain` ingest (traced: "+tracedExperiments+")")
	healthFlag = flag.Bool("health", false,
		"attach the streaming health monitor to a traced experiment ("+tracedExperiments+") and print per-stream diagnosis reports")
	seriesOut = flag.String("series-out", "",
		"sample per-stream time series during a traced experiment and write each store as PREFIX-<name>.json — the format `ctgsched watch -dump` renders")
	rulesFile = flag.String("rules", "",
		"JSON alert-rule file (series.RuleSet) evaluated against the sampled series of a traced experiment; firings land in the event streams")

	// observe is nil unless a telemetry flag asks for observed mode; then it
	// hands the traced campaign the -rules alert rules. campaignTel is the
	// telemetry the traced campaign published when it finished.
	observe     *exp.Observe
	campaignTel *exp.CampaignTelemetry
)

// observedMode reports whether any telemetry flag asks the traced campaign
// to run in observed mode (recorders + analyzers attached).
func observedMode() bool {
	return *traceOut != "" || *eventsOut != "" || *healthFlag || *seriesOut != "" || *rulesFile != ""
}

// newObserve builds the traced campaign's observed-mode configuration: the
// -rules alert rules.
func newObserve() (*exp.Observe, error) {
	obs := &exp.Observe{}
	if *rulesFile != "" {
		rs, err := series.LoadRules(*rulesFile)
		if err != nil {
			return nil, fmt.Errorf("-rules: %w", err)
		}
		obs.Rules = rs.Rules
	}
	return obs, nil
}

// sortedNames returns a stream map's names in order.
func sortedNames[V any](streams map[string]V) []string {
	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeCampaignEvents writes each stream as its own JSONL file. The streams
// are kept separate because each carries its own seq-id space — concatenating
// them would corrupt the provenance graph `ctgsched explain` walks. Each file
// is written atomically (temp file + fsync + rename), so a crash mid-dump
// never leaves a torn stream where a previous good one stood.
func writeCampaignEvents(prefix string, tel *exp.CampaignTelemetry) error {
	for _, name := range sortedNames(tel.Recorders) {
		path := fmt.Sprintf("%s-%s.jsonl", prefix, name)
		events := tel.Recorders[name].Events()
		err := telemetry.WriteFileAtomic(path, func(w io.Writer) error {
			jr := telemetry.NewJSONLRecorder(w)
			for _, e := range events {
				jr.Record(e)
			}
			return jr.Flush()
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", len(events), path)
	}
	return nil
}

// writeCampaignSeries writes each sampled series store as its own JSON dump
// (PREFIX-<name>.json), the format `ctgsched watch -dump` renders and
// internal/series reads back.
func writeCampaignSeries(prefix string, tel *exp.CampaignTelemetry) error {
	if len(tel.Series) == 0 {
		return fmt.Errorf("campaign recorded no series stores")
	}
	for _, name := range sortedNames(tel.Series) {
		st := tel.Series[name]
		path := fmt.Sprintf("%s-%s.json", prefix, name)
		if err := telemetry.WriteFileAtomic(path, st.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %d series (%d ticks) to %s\n", st.Len(), st.Ticks(), path)
	}
	return nil
}

// writeCampaignTrace renders the traced campaign's event streams as one
// Chrome trace file, one process per stream in name order.
func writeCampaignTrace(path string, tel *exp.CampaignTelemetry) error {
	ct := telemetry.NewChromeTrace()
	for i, name := range sortedNames(tel.Recorders) {
		ct.AddRun(name, i+1, tel.Recorders[name].Events())
	}
	return telemetry.WriteFileAtomic(path, ct.Write)
}

func main() {
	exp := flag.String("exp", "all",
		"experiment to run: all, table1, figure4, figure5, table2, table3, table4, table5, figure6, faults, failover, scale, ...")
	workers := flag.Int("workers", 0,
		"parallel worker bound for the scenario engine (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *scaleFull && (*scaleTasks != 0 || *scalePEs != 0) {
		fmt.Fprintln(os.Stderr, "-scale-full runs the committed curve: it takes no -scale-tasks or -scale-pes")
		os.Exit(2)
	}
	if *workers > 0 {
		par.SetLimit(*workers)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if observedMode() {
		var err error
		if observe, err = newObserve(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	runners := orderedRunners()
	ran := 0
	for _, r := range runners {
		if *exp != "all" && !r.matches(*exp) {
			continue
		}
		start := time.Now()
		out, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	// fail reports a post-run writer's error and exits.
	fail := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
			os.Exit(1)
		}
	}
	tel := campaignTel
	if tel == nil && (*traceOut != "" || *eventsOut != "" || *seriesOut != "" || *healthFlag) {
		fmt.Fprintf(os.Stderr, "telemetry output requested, but no traced experiment ran (traced: %s)\n", tracedExperiments)
		os.Exit(1)
	}

	if *traceOut != "" {
		fail("trace-out", writeCampaignTrace(*traceOut, tel))
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}
	if *eventsOut != "" {
		fail("events-out", writeCampaignEvents(*eventsOut, tel))
	}
	if *seriesOut != "" {
		fail("series-out", writeCampaignSeries(*seriesOut, tel))
	}

	if *healthFlag {
		for _, name := range sortedNames(tel.Health) {
			fmt.Printf("=== health: %s ===\n%s\n", name, tel.Health[name].Health().Report())
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle live objects before the heap snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

// Command experiments regenerates every table and figure of the paper's
// evaluation section. With no flags it runs all of them in order; -exp
// selects one (table1, figure4, figure5, table2, table3, table4, table5,
// figure6). -cpuprofile and -memprofile write pprof profiles of the run
// (the usual way to inspect where the scenario engine spends its time).
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
// -flight-out PREFIX replays each stream through the flight recorder and
// writes its trigger-dump windows;
// -metrics-addr HOST:PORT serves the campaign's live metrics registry at
// /metrics (JSON), the standard expvar page at /debug/vars, and the
// per-workload health snapshots at /health for the duration of the run.
// -pprof additionally mounts the net/http/pprof handlers under /debug/pprof/
// on the same server, and -serve keeps the server running after the
// experiments finish (until interrupted) so the final /health snapshots and
// profiles can be scraped. -health attaches the streaming health monitor to
// the fault campaign and prints one diagnosis report per stream after the
// tables.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/serve"
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

	// Scale-campaign knobs (-exp scale): the quick tier is one 10³-task cell;
	// -scale-full sweeps the committed curve up to 10⁴ tasks on 64 PEs;
	// -scale-tasks/-scale-pes measure one custom cell instead.
	scaleFull      = flag.Bool("scale-full", false, "run the full scaling curve (10³–10⁴ tasks, minutes) instead of the quick tier")
	scaleTasks     = flag.Int("scale-tasks", 0, "custom scale-campaign cell: task count (with -scale-pes)")
	scalePEs       = flag.Int("scale-pes", 0, "custom scale-campaign cell: PE count (with -scale-tasks)")
	scaleInstances = flag.Int("scale-instances", 45, "instances replayed per custom scale-campaign cell")

	traceOut = flag.String("trace-out", "",
		"write a Chrome trace-event file of a traced experiment's event streams (traced: "+tracedExperiments+")")
	eventsOut = flag.String("events-out", "",
		"write each traced stream as PREFIX-<name>.jsonl — the format `ctgsched analyze` and `ctgsched explain` ingest (traced: "+tracedExperiments+")")
	flightOut = flag.String("flight-out", "",
		"replay each traced stream through a flight recorder: trigger dumps land in PREFIX-<name>-<n>.jsonl, the final window in PREFIX-<name>-final.jsonl")
	metricsAddr = flag.String("metrics-addr", "",
		"serve the live metrics registry over HTTP at this address (/metrics JSON, /debug/vars expvar, /health snapshots)")
	pprofFlag = flag.Bool("pprof", false,
		"also mount net/http/pprof under /debug/pprof/ on the -metrics-addr server")
	serveFlag = flag.Bool("serve", false,
		"keep the -metrics-addr server running after the experiments finish (until interrupted)")
	healthFlag = flag.Bool("health", false,
		"attach the streaming health monitor to a traced experiment ("+tracedExperiments+") and print per-stream diagnosis reports")
	seriesOut = flag.String("series-out", "",
		"sample per-stream time series during a traced experiment and write each store as PREFIX-<name>.json — the format `ctgsched watch -dump` renders")
	rulesFile = flag.String("rules", "",
		"JSON alert-rule file (series.RuleSet) evaluated against the sampled series of a traced experiment; firings land in the event streams")
	promOut = flag.String("prom-out", "",
		"write the final metrics registry in Prometheus text format to this file after the experiments finish")

	// metricsReg is the registry served at -metrics-addr. observe is nil
	// unless a telemetry flag asks for observed mode; then it hands the
	// traced campaign one registry (metricsReg when set) and the -rules
	// alert rules. campaignTel is the telemetry the traced campaign
	// published when it finished, swapped in atomically because the
	// -metrics-addr server goroutine (/health) reads it.
	metricsReg  *telemetry.Registry
	observe     *exp.Observe
	campaignTel atomic.Pointer[exp.CampaignTelemetry]
)

// observedMode reports whether any telemetry flag asks the traced campaign
// to run in observed mode (recorders + analyzers attached).
func observedMode() bool {
	return *traceOut != "" || *eventsOut != "" || *flightOut != "" ||
		*metricsAddr != "" || *healthFlag || *seriesOut != "" || *rulesFile != ""
}

// newObserve builds the traced campaign's observed-mode configuration:
// metricsReg (or a private registry) plus the -rules alert rules.
func newObserve() (*exp.Observe, error) {
	obs := &exp.Observe{Metrics: metricsReg}
	if obs.Metrics == nil {
		obs.Metrics = telemetry.NewRegistry()
	}
	if *rulesFile != "" {
		rs, err := series.LoadRules(*rulesFile)
		if err != nil {
			return nil, fmt.Errorf("-rules: %w", err)
		}
		obs.Rules = rs.Rules
	}
	return obs, nil
}

// serveHealth renders the traced campaign's per-stream health snapshots as
// one JSON object keyed by stream name (503 until the campaign has run).
func serveHealth(w http.ResponseWriter, _ *http.Request) {
	tel := campaignTel.Load()
	if tel == nil || len(tel.Health) == 0 {
		http.Error(w, "no traced campaign has run yet", http.StatusServiceUnavailable)
		return
	}
	snaps := make(map[string]any, len(tel.Health))
	for name, h := range tel.Health {
		snaps[name] = h.Health()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snaps); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
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

// writeCampaignFlight replays each stream through a flight recorder with a
// file sink, exercising the black-box path offline: every armed trigger in
// the stream (fallback, breaker trip, health alert, rule alert firing) dumps
// its ring window to PREFIX-<name>-<n>.jsonl, and the final window is always
// written to PREFIX-<name>-final.jsonl. Each dump is a self-contained JSONL
// stream `ctgsched explain` ingests directly.
func writeCampaignFlight(prefix string, tel *exp.CampaignTelemetry) error {
	for _, name := range sortedNames(tel.Recorders) {
		// Atomic trigger dumps: each ring window lands complete or not at
		// all (a crash mid-dump leaves no half-written evidence file).
		fr := telemetry.NewFlightRecorder(telemetry.FlightRecorderOptions{
			Sink: telemetry.AtomicSink(func(dump int) string {
				return fmt.Sprintf("%s-%s-%d.jsonl", prefix, name, dump)
			}),
		})
		for _, e := range tel.Recorders[name].Events() {
			fr.Record(e)
		}
		if err := fr.Err(); err != nil {
			return fmt.Errorf("stream %s: %w", name, err)
		}
		finalPath := fmt.Sprintf("%s-%s-final.jsonl", prefix, name)
		if err := telemetry.WriteFileAtomic(finalPath, fr.DumpTo); err != nil {
			return err
		}
		fmt.Printf("flight recorder %s: %d trigger dumps, final window %d/%d events -> %s\n",
			name, fr.Dumps(), fr.Len(), fr.Total(), finalPath)
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

// writePromFile renders the registry's final state in the Prometheus text
// exposition format.
func writePromFile(path string, reg *telemetry.Registry) error {
	return telemetry.WriteFileAtomic(path, reg.WriteProm)
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

	if *workers > 0 {
		par.SetLimit(*workers)
	}
	if *pprofFlag && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "-pprof requires -metrics-addr (it mounts on that server)")
		os.Exit(2)
	}
	if *serveFlag && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "-serve requires -metrics-addr (there is no server to keep alive)")
		os.Exit(2)
	}
	var srv *http.Server
	if *metricsAddr != "" {
		metricsReg = telemetry.NewRegistry()
		mux := http.NewServeMux()
		mux.Handle("/metrics", metricsReg)
		mux.HandleFunc("/metrics/prom", metricsReg.ServeProm)
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/health", serveHealth)
		if *pprofFlag {
			mux.HandleFunc("/debug/pprof/", httppprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		}
		if err := metricsReg.PublishExpvar("ctgdvfs"); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
		}
		// Listen synchronously so a bad address fails before the campaigns
		// start (a late listen error used to race with the campaign output);
		// serve in the background and shut down gracefully at exit.
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		// Hardened timeouts: a stalled or malicious scraper must not pin
		// goroutines or memory for the life of the campaign.
		srv = serve.NewHTTPServer(mux)
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			}
		}()
	}
	// shutdownServer drains in-flight scrapes before the process exits —
	// deferred-style teardown shared by the -serve and fall-through paths.
	shutdownServer := func() {
		if srv == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: shutdown: %v\n", err)
		}
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
	tel := campaignTel.Load()
	if tel == nil && (*traceOut != "" || *eventsOut != "" || *flightOut != "" || *seriesOut != "" || *healthFlag) {
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
	if *flightOut != "" {
		fail("flight-out", writeCampaignFlight(*flightOut, tel))
	}
	if *seriesOut != "" {
		fail("series-out", writeCampaignSeries(*seriesOut, tel))
	}

	if *promOut != "" {
		reg := metricsReg
		if reg == nil && tel != nil {
			reg = tel.Metrics
		}
		if reg == nil {
			fmt.Fprintf(os.Stderr, "-prom-out: no metrics registry (needs -metrics-addr or a traced experiment: %s)\n", tracedExperiments)
			os.Exit(1)
		}
		fail("prom-out", writePromFile(*promOut, reg))
		fmt.Printf("wrote Prometheus exposition to %s\n", *promOut)
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

	if *serveFlag {
		endpoints := "/metrics, /metrics/prom, /debug/vars, /health"
		if *pprofFlag {
			endpoints += ", /debug/pprof/"
		}
		fmt.Printf("serving on %s (%s) until interrupted\n", *metricsAddr, endpoints)
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt)
		<-stop
		fmt.Println("interrupted; shutting down")
	}
	shutdownServer()
}

package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"ctgdvfs"
)

// runAnalyze is the `ctgsched analyze` subcommand: replay a recorded JSONL
// event stream (a capture, a flight-recorder window or a daemon tenant's
// stream) through the health analyzers offline and print the diagnosis
// report — top hotspots, estimator drift per fork, SLO verdicts, the alerts
// the live series rules fired, and the reschedule/fallback/guard decision
// timeline.
// Rules are not evaluated again offline: the report lists what the capture
// recorded.
//
// Usage:
//
//	ctgsched analyze events.jsonl
//	ctgsched analyze -slo-miss-rate 0.01 -top 10 events.jsonl
//	ctgsched analyze -json events.jsonl
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	top := fs.Int("top", ctgdvfs.HealthOptions{}.Hotspots, "hotspot rankings: top N entries (0 = default)")
	missRate := fs.Float64("slo-miss-rate", 0, "SLO: allowed deadline-miss rate (0 = default, negative disables)")
	latenessP95 := fs.Float64("slo-lateness-p95", 0, "SLO: bound on rolling P95 lateness (0 disables)")
	makespanP95 := fs.Float64("slo-makespan-p95", 0, "SLO: bound on rolling P95 makespan (0 disables)")
	avgEnergy := fs.Float64("slo-avg-energy", 0, "SLO: bound on average per-instance energy (0 disables)")
	asJSON := fs.Bool("json", false, "print the snapshot as JSON instead of the text report")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ctgsched analyze [flags] <events.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	events := readCapture(fs.Arg(0))
	snap := ctgdvfs.AnalyzeTelemetry(events, ctgdvfs.HealthOptions{
		Hotspots: *top,
		SLO: ctgdvfs.HealthSLO{
			MaxMissRate:    *missRate,
			MaxLatenessP95: *latenessP95,
			MaxMakespanP95: *makespanP95,
			MaxAvgEnergy:   *avgEnergy,
		},
	})
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("%s: jsonl trace, %d events\n\n", fs.Arg(0), len(events))
	fmt.Print(snap.Report())
}

// readCapture reads a JSONL event stream through ReadTelemetryJSONL, the one
// event reader. A torn final line is a warning (the intact prefix is
// analyzed); any other read error, or a stream with no events, is fatal.
func readCapture(path string) []ctgdvfs.TelemetryEvent {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	events, err := ctgdvfs.ReadTelemetryJSONL(f)
	var tail *ctgdvfs.TruncatedTailError
	switch {
	case errors.As(err, &tail):
		fmt.Fprintf(os.Stderr, "warning: %v\n", err)
	case err != nil:
		log.Fatalf("%s: %v", path, err)
	}
	if len(events) == 0 {
		log.Fatalf("%s: no events in stream", path)
	}
	return events
}

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

// runAnalyze is the `ctgsched analyze` subcommand: replay a recorded
// telemetry capture (JSONL event stream or Chrome trace-event file) through
// the health analyzers offline and print the diagnosis report — top
// hotspots, estimator drift per fork, SLO verdicts, the alerts the live
// series rules fired, and the reschedule/fallback/guard decision timeline.
// Rules are not evaluated again offline: the report lists what the capture
// recorded.
//
// Usage:
//
//	ctgsched analyze events.jsonl
//	ctgsched analyze -slo-miss-rate 0.01 -top 10 events.jsonl
//	ctgsched analyze -run "mpeg adaptive" -json trace.json
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	top := fs.Int("top", ctgdvfs.HealthOptions{}.Hotspots, "hotspot rankings: top N entries (0 = default)")
	missRate := fs.Float64("slo-miss-rate", 0, "SLO: allowed deadline-miss rate (0 = default, negative disables)")
	latenessP95 := fs.Float64("slo-lateness-p95", 0, "SLO: bound on rolling P95 lateness (0 disables)")
	makespanP95 := fs.Float64("slo-makespan-p95", 0, "SLO: bound on rolling P95 makespan (0 disables)")
	avgEnergy := fs.Float64("slo-avg-energy", 0, "SLO: bound on average per-instance energy (0 disables)")
	run := fs.String("run", "", "Chrome traces: process (run name) to analyze; required when the trace holds several runs")
	asJSON := fs.Bool("json", false, "print the snapshot as JSON instead of the text report")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ctgsched analyze [flags] <events.jsonl | trace.json>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	events, format, err := ctgdvfs.LoadTelemetry(data, *run)
	if err != nil {
		var tail *ctgdvfs.TruncatedTailError
		if !errors.As(err, &tail) {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "warning: %v\n", err)
	}
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
	fmt.Printf("%s: %s trace, %d events\n\n", fs.Arg(0), format, len(events))
	fmt.Print(snap.Report())
	if format == "chrome" {
		fmt.Println("\nnote: Chrome traces carry no estimator or instance-summary events;")
		fmt.Println("analyze the JSONL event stream for drift and SLO verdicts.")
	}
}

package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"ctgdvfs"
)

// runExplain is the `ctgsched explain` subcommand: reconstruct the causal
// provenance of one runtime decision from a recorded telemetry capture — a
// JSONL event stream or a flight-recorder dump (which is the same format).
// It prints why the decision fired (the trigger chain back to its root,
// estimates and thresholds included) and what it caused downstream.
//
// Usage:
//
//	ctgsched explain -list events.jsonl           # menu of decisions
//	ctgsched explain -seq 1845 events.jsonl       # one decision by id
//	ctgsched explain -kind reschedule -instance 412 events.jsonl
//	ctgsched explain -kind alert_firing events.jsonl
//	ctgsched explain -kind tenant_restart -tenant video video.events.jsonl
//
// Without -seq, the kind/instance/tenant filters select the LAST matching
// decision — "why did the most recent fallback fire" is the common question.
func runExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	seq := fs.Uint64("seq", 0, "explain the decision with this exact seq id")
	instance := fs.Int("instance", -1, "filter decisions to this instance")
	kind := fs.String("kind", "", "filter decisions to this event kind (e.g. reschedule, fallback, alert_firing)")
	tenant := fs.String("tenant", "", "serve tenant streams: filter decisions to events naming this tenant (tenant_panic, tenant_restart, checkpoint, restore)")
	list := fs.Bool("list", false, "list the stream's explainable decisions and exit")
	run := fs.String("run", "", "Chrome traces: process (run name) to load; note traces carry no seq ids")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ctgsched explain [flags] <events.jsonl | flight-dump.jsonl>")
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
	fmt.Printf("%s: %s stream, %d events\n\n", fs.Arg(0), format, len(events))

	if *list {
		decisions := ctgdvfs.TelemetryDecisions(events)
		if len(decisions) == 0 {
			fmt.Println("no explainable decisions in stream")
			return
		}
		fmt.Printf("%d explainable decisions:\n", len(decisions))
		for _, e := range decisions {
			fmt.Printf("  [seq %4d] inst %-5d %-15s %s\n",
				e.Seq, e.Instance, e.Kind, ctgdvfs.DescribeTelemetryEvent(e))
		}
		return
	}

	x, err := ctgdvfs.ExplainTelemetry(events, ctgdvfs.ExplainQuery{
		Seq: *seq, Instance: *instance, Kind: *kind, Tenant: *tenant,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(x.Render())
}

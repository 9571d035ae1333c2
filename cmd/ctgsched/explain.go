package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ctgdvfs"
)

// runExplain is the `ctgsched explain` subcommand: reconstruct the causal
// provenance of one runtime decision from a recorded JSONL event stream — a
// capture, a flight-recorder window (GET /v1/tenants/{name}/events) or a
// daemon tenant's stream, all the same format.
// It prints why the decision fired (the trigger chain back to its root,
// estimates and thresholds included) and what it caused downstream.
//
// Usage:
//
//	ctgsched explain -list events.jsonl           # menu of decisions
//	ctgsched explain -seq 1845 events.jsonl       # one decision by id
//	ctgsched explain -kind reschedule -instance 412 events.jsonl
//	ctgsched explain -kind alert_firing events.jsonl
//	ctgsched explain -kind tenant_panic -tenant video video.events.jsonl
//
// Without -seq, the kind/instance/tenant filters select the LAST matching
// decision — "why did the most recent fallback fire" is the common question.
func runExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	seq := fs.Uint64("seq", 0, "explain the decision with this exact seq id")
	instance := fs.Int("instance", -1, "filter decisions to this instance")
	kind := fs.String("kind", "", "filter decisions to this event kind (e.g. reschedule, fallback, alert_firing)")
	tenant := fs.String("tenant", "", "serve tenant streams: filter decisions to events naming this tenant (tenant_panic, checkpoint, restore)")
	list := fs.Bool("list", false, "list the stream's explainable decisions and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ctgsched explain [flags] <events.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	events := readCapture(fs.Arg(0))
	fmt.Printf("%s: jsonl stream, %d events\n\n", fs.Arg(0), len(events))

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

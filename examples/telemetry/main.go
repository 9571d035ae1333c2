// Telemetry: attach the structured event stream and the metrics registry to
// an adaptive run of the MPEG decoder workload, then export the replayed
// instances as a Chrome trace-event file. Open the file in chrome://tracing
// or https://ui.perfetto.dev: one row per PE (plus interconnect links), task
// slices with speed/energy args, flow arrows along communication edges, and
// instant events marking every re-scheduling decision.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ctgdvfs"
)

func main() {
	traceOut := flag.String("trace-out", "telemetry_trace.json", "Chrome trace-event output file")
	jsonlOut := flag.String("events-out", "", "also dump the raw event stream as JSON lines")
	n := flag.Int("n", 50, "measured instances")
	flag.Parse()

	// The MPEG macroblock decoder, profiled on one clip and measured on the
	// next — the same setup as the paper's Figure 5 runs.
	g0, p, err := ctgdvfs.BuildMPEG()
	if err != nil {
		log.Fatal(err)
	}
	g, err := ctgdvfs.TightenDeadline(g0, p, 1.6)
	if err != nil {
		log.Fatal(err)
	}
	vec := ctgdvfs.MovieClips()[0].Generate(g, 1000+*n)
	if err := ctgdvfs.ApplyProfile(g, ctgdvfs.AverageProbs(g, vec[:1000])); err != nil {
		log.Fatal(err)
	}

	// One recorder buffers events for the trace export and the health
	// report; the registry mirrors the runtime's counters and health gauges
	// live. Both are optional and independent — a nil Recorder keeps the
	// runtime allocation-free and bit-for-bit identical to an uninstrumented
	// run.
	rec := ctgdvfs.NewMemoryRecorder()
	reg := ctgdvfs.NewMetricsRegistry()
	m, err := ctgdvfs.NewAdaptive(g, p, ctgdvfs.AdaptiveOptions{
		Window: 20, Threshold: 0.1,
		Recorder: rec,
		Metrics:  reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	st, err := m.Run(vec[1000:])
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replayed %d instances: avg energy %.2f, makespan P50/P95/P99 %.1f/%.1f/%.1f, %d reschedules\n",
		st.Instances, st.AvgEnergy, st.MakespanP50, st.MakespanP95, st.MakespanP99, st.Calls)

	// The event stream, by kind.
	fmt.Println("\nrecorded events:")
	byKind := rec.CountByKind()
	for _, k := range []ctgdvfs.TelemetryKind{
		ctgdvfs.KindInstanceStart, ctgdvfs.KindTaskSlice, ctgdvfs.KindCommSlice,
		ctgdvfs.KindEstimate, ctgdvfs.KindReschedule, ctgdvfs.KindStretch,
		ctgdvfs.KindInstanceFinish,
	} {
		fmt.Printf("  %-16s %6d\n", k, byKind[k])
	}

	// The registry snapshot — the same JSON ctgschedd serves at
	// GET /v1/metrics.
	fmt.Println("\nmetrics snapshot:")
	if err := reg.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The health diagnosis of the recorded stream — the same report
	// `ctgsched analyze` prints for the JSONL file written below.
	fmt.Println("\nhealth report:")
	fmt.Print(ctgdvfs.AnalyzeTelemetry(rec.Events(), ctgdvfs.HealthOptions{}).Report())

	// Chrome trace export.
	ct := ctgdvfs.NewChromeTrace()
	ct.AddRun("mpeg adaptive", 1, rec.Events())
	f, err := os.Create(*traceOut)
	if err != nil {
		log.Fatal(err)
	}
	if err := ct.Write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d trace events to %s (open in chrome://tracing or https://ui.perfetto.dev)\n",
		ct.Len(), *traceOut)

	if *jsonlOut != "" {
		f, err := os.Create(*jsonlOut)
		if err != nil {
			log.Fatal(err)
		}
		jr := ctgdvfs.NewJSONLRecorder(f)
		for _, ev := range rec.Events() {
			jr.Record(ev)
		}
		if err := jr.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote raw event stream to %s\n", *jsonlOut)
	}
}

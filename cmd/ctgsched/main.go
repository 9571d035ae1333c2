// Command ctgsched generates (or loads a built-in) conditional task graph,
// schedules it with the selected algorithm, and prints the schedule, its
// expected energy, and per-scenario replay results.
//
// Usage:
//
//	ctgsched -workload random -nodes 25 -pes 3 -branches 3 -algo online
//	ctgsched -workload mpeg -algo nlp -deadline 1.5
//	ctgsched -workload cruise -dot
//
// The analyze subcommand replays a recorded telemetry capture through the
// health analyzers offline and prints a diagnosis report:
//
//	ctgsched analyze events.jsonl
//	ctgsched analyze -run "mpeg adaptive" trace.json
//
// The explain subcommand reconstructs the causal provenance of one runtime
// decision from the same captures (or a flight-recorder dump):
//
//	ctgsched explain -list events.jsonl
//	ctgsched explain -kind reschedule -instance 412 events.jsonl
//
// The watch subcommand renders live (or replayed) manager telemetry as
// sparkline rows — windowed and run miss rate, guard level, drift — plus the
// alert-rule states, either polling a -metrics-addr server or reading a
// -series-out dump:
//
//	ctgsched watch -addr localhost:8080
//	ctgsched watch -dump series-mpeg.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ctgdvfs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		runAnalyze(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		runExplain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		runWatch(os.Args[2:])
		return
	}
	workload := flag.String("workload", "random", "workload: random, mpeg, cruise, wlan, or file")
	file := flag.String("file", "", "workload file to load (with -workload file)")
	save := flag.String("save", "", "write the (untightened) workload to this file and exit")
	seed := flag.Int64("seed", 1, "random workload seed")
	nodes := flag.Int("nodes", 25, "random workload task count")
	pes := flag.Int("pes", 3, "random workload PE count")
	branches := flag.Int("branches", 3, "random workload branch count")
	flat := flag.Bool("flat", false, "random workload: flat (Category 2) structure")
	deadline := flag.Float64("deadline", 1.6, "deadline as a factor of the nominal makespan")
	algo := flag.String("algo", "online", "algorithm: online, ref1, ref2/nlp, none (no DVFS)")
	dot := flag.Bool("dot", false, "print the CTG in Graphviz dot format and exit")
	gantt := flag.Bool("gantt", false, "also print a per-PE Gantt chart of the nominal schedule")
	traceOut := flag.String("trace-out", "",
		"write a Chrome trace-event file replaying every leaf scenario (open in chrome://tracing or https://ui.perfetto.dev)")
	flag.Parse()

	var g *ctgdvfs.Graph
	var p *ctgdvfs.Platform
	var err error
	switch *workload {
	case "random":
		cat := ctgdvfs.CategoryForkJoin
		if *flat {
			cat = ctgdvfs.CategoryFlat
		}
		g, p, err = ctgdvfs.GenerateRandom(ctgdvfs.RandomConfig{
			Seed: *seed, Nodes: *nodes, PEs: *pes, Branches: *branches, Category: cat,
		})
	case "mpeg":
		g, p, err = ctgdvfs.BuildMPEG()
	case "cruise":
		g, p, err = ctgdvfs.BuildCruise()
	case "wlan":
		g, p, err = ctgdvfs.BuildWLAN()
	case "file":
		if *file == "" {
			fmt.Fprintln(os.Stderr, "-workload file requires -file <path>")
			os.Exit(2)
		}
		g, p, err = ctgdvfs.LoadWorkload(*file)
		if err == nil && p == nil {
			err = fmt.Errorf("%s has no platform section", *file)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *save != "" {
		if err := ctgdvfs.SaveWorkload(*save, g, p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *save)
		return
	}
	if *dot {
		fmt.Print(g.Dot())
		return
	}
	g, err = ctgdvfs.TightenDeadline(g, p, *deadline)
	if err != nil {
		log.Fatal(err)
	}
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		log.Fatal(err)
	}

	var s *ctgdvfs.PlanResult
	switch *algo {
	case "online":
		s, err = ctgdvfs.Plan(g, p)
	case "ref1":
		s, err = ctgdvfs.Schedule(a, p, ctgdvfs.PlainDLS())
		if err == nil {
			_, err = ctgdvfs.StretchWorstCase(s, ctgdvfs.ContinuousDVFS())
		}
	case "ref2", "nlp":
		s, err = ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
		if err == nil {
			_, err = ctgdvfs.StretchNLP(s, ctgdvfs.ContinuousDVFS(), ctgdvfs.NLPOptions{})
		}
	case "none":
		s, err = ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s workload: %d tasks, %d forks, %d minterms on %d PEs, deadline %.1f\n\n",
		*workload, g.NumTasks(), g.NumForks(), a.NumScenarios(), p.NumPEs(), g.Deadline())
	fmt.Println("task             PE  start   wcet  speed  prob")
	for task := 0; task < g.NumTasks(); task++ {
		id := ctgdvfs.TaskID(task)
		fmt.Printf("%-16s %2d  %6.1f  %5.1f  %5.2f  %.2f\n",
			g.Task(id).Name, s.PE[task], s.Start[task], s.WCET(id), s.Speed[task],
			a.ActivationProb(id))
	}
	sum, err := ctgdvfs.Exhaustive(s, ctgdvfs.SimConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexpected energy %.2f, expected makespan %.1f, worst makespan %.1f, deadline misses %d/%d\n",
		sum.ExpectedEnergy, sum.ExpectedMakespan, sum.WorstMakespan, sum.Misses, a.NumScenarios())
	if *traceOut != "" {
		if err := writeScenarioTrace(*traceOut, s, a.NumScenarios()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote Chrome trace of %d scenarios to %s\n", a.NumScenarios(), *traceOut)
	}
	if *gantt {
		fmt.Println()
		fmt.Print(s.Gantt(100))
	}
	fmt.Println()
	fmt.Print(ctgdvfs.AnalyzeBreakdown(s).String())
}

// writeScenarioTrace replays every leaf scenario serially with a recorder
// attached (instance id = scenario index, so the trace lays the scenarios out
// back to back) and writes the Chrome trace-event file.
func writeScenarioTrace(path string, s *ctgdvfs.PlanResult, scenarios int) error {
	rec := ctgdvfs.NewMemoryRecorder()
	for si := 0; si < scenarios; si++ {
		inst, err := ctgdvfs.Replay(s, si, ctgdvfs.SimConfig{Recorder: rec, InstanceID: si})
		if err != nil {
			return err
		}
		rec.Record(ctgdvfs.TelemetryEvent{
			Kind:     ctgdvfs.KindInstanceFinish,
			Instance: si,
			Scenario: si,
			Energy:   inst.Energy,
			Makespan: inst.Makespan,
			Lateness: inst.Lateness,
			Met:      inst.DeadlineMet,
		})
	}
	ct := ctgdvfs.NewChromeTrace()
	ct.AddRun("scenarios", 1, rec.Events())
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ct.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

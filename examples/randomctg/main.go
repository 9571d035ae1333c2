// Random-CTG example: generate a TGFF-style conditional task graph and
// compare the three scheduling/DVFS pipelines of the paper's Table 1 on it —
// reference algorithm 1 (plain list scheduling + probability-blind
// stretching), reference algorithm 2 (modified DLS + NLP), and the online
// algorithm (modified DLS + stretching heuristic).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"ctgdvfs"
)

func main() {
	seed := flag.Int64("seed", 7, "generator seed")
	nodes := flag.Int("nodes", 25, "task count")
	pes := flag.Int("pes", 3, "PE count")
	branches := flag.Int("branches", 3, "branch fork count")
	flat := flag.Bool("flat", false, "generate a Category 2 (flat) graph instead of fork-join")
	flag.Parse()

	cat := ctgdvfs.CategoryForkJoin
	if *flat {
		cat = ctgdvfs.CategoryFlat
	}
	g, p, err := ctgdvfs.GenerateRandom(ctgdvfs.RandomConfig{
		Seed: *seed, Nodes: *nodes, PEs: *pes, Branches: *branches, Category: cat,
	})
	if err != nil {
		log.Fatal(err)
	}
	g, err = ctgdvfs.TightenDeadline(g, p, 1.6)
	if err != nil {
		log.Fatal(err)
	}
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random CTG %d/%d/%d (category %d): %d edges, %d minterms, deadline %.0f\n\n",
		*nodes, *pes, *branches, cat, g.NumEdges(), a.NumScenarios(), g.Deadline())

	run := func(name string, build func() (*ctgdvfs.PlanResult, error)) float64 {
		start := time.Now()
		s, err := build()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		sum, err := ctgdvfs.Exhaustive(s, ctgdvfs.SimConfig{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s energy %8.2f   worst makespan %7.1f   misses %d   runtime %v\n",
			name, sum.ExpectedEnergy, sum.WorstMakespan, sum.Misses, elapsed)
		return sum.ExpectedEnergy
	}

	ref1 := run("reference alg 1", func() (*ctgdvfs.PlanResult, error) {
		s, err := ctgdvfs.Schedule(a, p, ctgdvfs.PlainDLS())
		if err != nil {
			return nil, err
		}
		_, err = ctgdvfs.StretchWorstCase(s, ctgdvfs.ContinuousDVFS())
		return s, err
	})
	ref2 := run("reference alg 2 (NLP)", func() (*ctgdvfs.PlanResult, error) {
		s, err := ctgdvfs.Schedule(a, p, ctgdvfs.ModifiedDLS())
		if err != nil {
			return nil, err
		}
		_, err = ctgdvfs.StretchNLP(s, ctgdvfs.ContinuousDVFS(), ctgdvfs.NLPOptions{})
		return s, err
	})
	online := run("online algorithm", func() (*ctgdvfs.PlanResult, error) {
		return ctgdvfs.Plan(g, p)
	})

	fmt.Printf("\nnormalized (online = 100): ref1 %.0f, ref2 %.0f, online 100\n",
		100*ref1/online, 100*ref2/online)
}

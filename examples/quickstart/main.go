// Quickstart: build the paper's running example CTG (Figure 1), map it onto
// a small heterogeneous MPSoC, assign DVFS speeds with the online stretching
// heuristic, and replay every scenario to verify energy and deadline.
package main

import (
	"fmt"
	"log"

	"ctgdvfs"
)

func main() {
	// The CTG of the paper's Example 1: eight tasks, two nested branch
	// forks (a at τ3, b at τ5), and an or-node join τ8.
	b := ctgdvfs.NewGraph()
	t1 := b.AddTask("tau1", ctgdvfs.AndNode)
	t2 := b.AddTask("tau2", ctgdvfs.AndNode)
	t3 := b.AddTask("tau3", ctgdvfs.AndNode) // fork a
	t4 := b.AddTask("tau4", ctgdvfs.AndNode)
	t5 := b.AddTask("tau5", ctgdvfs.AndNode) // fork b
	t6 := b.AddTask("tau6", ctgdvfs.AndNode)
	t7 := b.AddTask("tau7", ctgdvfs.AndNode)
	t8 := b.AddTask("tau8", ctgdvfs.OrNode)
	b.AddEdge(t1, t2, 4)
	b.AddEdge(t1, t3, 2)
	b.AddCondEdge(t3, t4, 3, 0) // condition a1
	b.AddCondEdge(t3, t5, 3, 1) // condition a2
	b.AddCondEdge(t5, t6, 2, 0) // condition b1
	b.AddCondEdge(t5, t7, 2, 1) // condition b2
	b.AddEdge(t2, t8, 4)
	b.AddEdge(t4, t8, 3)
	b.SetBranchProbs(t3, []float64{0.4, 0.6})
	b.SetBranchProbs(t5, []float64{0.5, 0.5})
	g, err := b.Build(90)
	if err != nil {
		log.Fatal(err)
	}

	// A 2-PE platform: PE0 is fast, PE1 trades speed for energy.
	pb := ctgdvfs.NewPlatform(8, 2)
	wcets := []float64{8, 12, 6, 10, 6, 14, 9, 7}
	for task, w := range wcets {
		pb.SetTask(task, []float64{w, w * 1.3}, []float64{w, w * 0.7})
	}
	pb.SetAllLinks(2, 0.05)
	p, err := pb.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Scenario analysis: leaf minterms, activation probabilities, mutual
	// exclusion.
	a, err := ctgdvfs.Analyze(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d leaf minterms:\n", a.NumScenarios())
	for i := 0; i < a.NumScenarios(); i++ {
		fmt.Printf("  %-12s prob %.2f, %d active tasks\n",
			a.ScenarioLabel(i), a.Scenario(i).Prob, a.Scenario(i).Active.Count())
	}
	fmt.Printf("tau4/tau5 mutually exclusive: %v\n\n", a.MutuallyExclusive(t4, t5))

	// The online algorithm: modified DLS + stretching heuristic.
	s, err := ctgdvfs.Plan(g, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("schedule (task → PE @ nominal start, DVFS speed):")
	for task := 0; task < g.NumTasks(); task++ {
		fmt.Printf("  %-5s → PE%d @ %5.1f, speed %.2f\n",
			g.Task(ctgdvfs.TaskID(task)).Name, s.PE[task], s.Start[task], s.Speed[task])
	}
	fmt.Printf("expected energy: %.2f (full speed would be %.2f)\n\n",
		s.ExpectedEnergy(), fullSpeedEnergy(s, a))

	// Ground truth: replay every scenario.
	sum, err := ctgdvfs.Exhaustive(s, ctgdvfs.SimConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay: expected energy %.2f, worst makespan %.1f (deadline %.0f), misses %d\n",
		sum.ExpectedEnergy, sum.WorstMakespan, g.Deadline(), sum.Misses)
}

func fullSpeedEnergy(s *ctgdvfs.PlanResult, a *ctgdvfs.Analysis) float64 {
	total := 0.0
	for task := 0; task < s.G.NumTasks(); task++ {
		total += a.ActivationProb(ctgdvfs.TaskID(task)) * s.NominalEnergy(ctgdvfs.TaskID(task))
	}
	return total
}

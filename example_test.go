package ctgdvfs_test

import (
	"fmt"

	"ctgdvfs"
)

// Example builds a two-arm conditional task graph, plans it (mapping,
// ordering and DVFS speeds), and prints the expected energy and the
// per-scenario deadline check.
func Example() {
	b := ctgdvfs.NewGraph()
	fork := b.AddTask("decide", ctgdvfs.AndNode)
	fast := b.AddTask("fast", ctgdvfs.AndNode)
	slow := b.AddTask("slow", ctgdvfs.AndNode)
	join := b.AddTask("join", ctgdvfs.OrNode)
	b.AddCondEdge(fork, fast, 1, 0)
	b.AddCondEdge(fork, slow, 1, 1)
	b.AddEdge(fast, join, 1)
	b.AddEdge(slow, join, 1)
	b.SetBranchProbs(fork, []float64{0.8, 0.2})
	g, _ := b.Build(120)

	p, _ := ctgdvfs.NewPlatform(4, 2).
		SetUniformTask(0, 5, 5).
		SetUniformTask(1, 10, 10).
		SetUniformTask(2, 20, 20).
		SetUniformTask(3, 5, 5).
		SetAllLinks(4, 0.1).
		Build()

	s, _ := ctgdvfs.Plan(g, p)
	sum, _ := ctgdvfs.Exhaustive(s, ctgdvfs.SimConfig{})
	fmt.Printf("scenarios: %d\n", s.A.NumScenarios())
	fmt.Printf("deadline misses: %d\n", sum.Misses)
	fmt.Printf("energy saved vs full speed: %v\n",
		sum.ExpectedEnergy < 5+0.8*10+0.2*20+5)
	// Output:
	// scenarios: 2
	// deadline misses: 0
	// energy saved vs full speed: true
}

// ExampleAnalyze shows the scenario (minterm) decomposition of a graph with
// nested branches.
func ExampleAnalyze() {
	b := ctgdvfs.NewGraph()
	outer := b.AddTask("outer", ctgdvfs.AndNode)
	left := b.AddTask("left", ctgdvfs.AndNode) // nested fork
	right := b.AddTask("right", ctgdvfs.AndNode)
	ll := b.AddTask("ll", ctgdvfs.AndNode)
	lr := b.AddTask("lr", ctgdvfs.AndNode)
	b.AddCondEdge(outer, left, 0, 0)
	b.AddCondEdge(outer, right, 0, 1)
	b.AddCondEdge(left, ll, 0, 0)
	b.AddCondEdge(left, lr, 0, 1)
	b.SetBranchProbs(outer, []float64{0.6, 0.4})
	b.SetBranchProbs(left, []float64{0.5, 0.5})
	g, _ := b.Build(100)

	a, _ := ctgdvfs.Analyze(g)
	for i := 0; i < a.NumScenarios(); i++ {
		fmt.Printf("%s: %.2f\n", a.ScenarioLabel(i), a.Scenario(i).Prob)
	}
	// Output:
	// b0=0·b1=0: 0.30
	// b0=0·b1=1: 0.30
	// b0=1: 0.40
}

// ExampleNewAdaptive runs the adaptive loop over a drifting decision stream
// and reports how often it re-scheduled.
func ExampleNewAdaptive() {
	b := ctgdvfs.NewGraph()
	fork := b.AddTask("f", ctgdvfs.AndNode)
	x := b.AddTask("x", ctgdvfs.AndNode)
	y := b.AddTask("y", ctgdvfs.AndNode)
	b.AddCondEdge(fork, x, 0, 0)
	b.AddCondEdge(fork, y, 0, 1)
	b.SetBranchProbs(fork, []float64{0.9, 0.1})
	g, _ := b.Build(100)
	p, _ := ctgdvfs.NewPlatform(3, 1).
		SetUniformTask(0, 5, 5).
		SetUniformTask(1, 10, 10).
		SetUniformTask(2, 10, 10).
		SetAllLinks(1, 0).
		Build()

	mgr, _ := ctgdvfs.NewAdaptive(g, p, ctgdvfs.AdaptiveOptions{Window: 10, Threshold: 0.2})
	stream := make(ctgdvfs.Vectors, 100)
	for i := range stream {
		stream[i] = []int{1} // the profile said outcome 0; reality disagrees
	}
	st, _ := mgr.Run(stream)
	fmt.Printf("adapted: %v\n", st.Calls > 0)
	fmt.Printf("misses: %d\n", st.Misses)
	// Output:
	// adapted: true
	// misses: 0
}

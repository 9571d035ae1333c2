// Package ctgdvfs is a library for adaptive scheduling and dynamic
// voltage/frequency scaling (DVFS) of multiprocessor real-time applications
// with non-deterministic workload, reproducing Malani, Mukre, Qiu, Wu,
// "Adaptive Scheduling and Voltage Scaling for Multiprocessor Real-time
// Applications with Non-deterministic Workload" (DATE 2008).
//
// Applications are modeled as conditional task graphs (CTGs): acyclic task
// graphs in which branch fork nodes activate or deactivate whole subgraphs
// at runtime depending on input data. The library provides:
//
//   - the CTG model with scenario (minterm) analysis, mutual exclusion and
//     branch probabilities (see NewGraph / Analyze),
//   - an MPSoC platform model with per-PE execution costs, point-to-point
//     communication links, and continuous or discrete DVFS (NewPlatform),
//   - the paper's online algorithm (Plan): the modified dynamic-level
//     scheduler (Schedule) followed by the task-stretching heuristic, plus
//     the two reference DVFS algorithms it is evaluated against
//     (StretchWorstCase, StretchNLP),
//   - a scenario replay simulator (Replay, Exhaustive) that measures
//     per-instance energy, timing and deadline compliance, and
//   - the adaptive runtime (NewAdaptive): sliding-window branch-probability
//     profiling with threshold-triggered online re-scheduling.
//
// The workload generators behind the paper's evaluation — TGFF-style random
// CTGs, the MPEG macroblock decoder, the vehicle cruise controller, and the
// synthetic branch-decision traces — are exposed through GenerateRandom,
// BuildMPEG, BuildCruise and the trace helpers, and every table and figure
// of the paper can be regenerated with the cmd/experiments tool.
//
// A minimal end-to-end use:
//
//	b := ctgdvfs.NewGraph()
//	fork := b.AddTask("decide", ctgdvfs.AndNode)
//	a := b.AddTask("fast path", ctgdvfs.AndNode)
//	c := b.AddTask("slow path", ctgdvfs.AndNode)
//	b.AddCondEdge(fork, a, 1.0, 0)
//	b.AddCondEdge(fork, c, 1.0, 1)
//	b.SetBranchProbs(fork, []float64{0.8, 0.2})
//	g, _ := b.Build(100) // common deadline
//
//	p, _ := ctgdvfs.NewPlatform(3, 2).SetUniformTask(0, 5, 5).
//		SetUniformTask(1, 10, 10).SetUniformTask(2, 20, 20).
//		SetAllLinks(4, 0.1).Build()
//
//	s, _ := ctgdvfs.Plan(g, p) // map, order and stretch
//	fmt.Println(s.ExpectedEnergy())
package ctgdvfs

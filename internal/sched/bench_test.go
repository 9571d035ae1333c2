package sched_test

import (
	"testing"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/sched"
)

// BenchmarkDLSScale runs the modified DLS on the 997-task, 16-PE scale
// graph through one reused workspace: the mapping step of every full
// reschedule at that scale.
func BenchmarkDLSScale(b *testing.B) {
	g, p, err := exp.ScaleWorkload(exp.ScaleConfig{Tasks: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	ws := sched.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.DLSInto(a, p, sched.Modified(), ws); err != nil {
			b.Fatal(err)
		}
	}
}

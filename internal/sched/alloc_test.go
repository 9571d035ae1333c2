package sched_test

import (
	"testing"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sched"
)

// TestDLSIntoAllocsBounded pins the allocations of one MPEG DLS run on a
// warm workspace: the schedule it returns (its arrays, PE orders, dispatch
// plan and pseudo edges) and nothing per round, per candidate or per
// reservation. It measured 18.
func TestDLSIntoAllocsBounded(t *testing.T) {
	g, p, err := mpeg.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	ws := sched.NewWorkspace()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sched.DLSInto(a, p, sched.Modified(), ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("%.0f allocs per MPEG DLSInto on a reused workspace, want <= 20", allocs)
	}
}

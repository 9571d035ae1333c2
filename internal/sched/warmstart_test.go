package sched

import "testing"

// TestWarmStartKeepsPublished pins WarmState.Start's buffer choice: the copy
// never lands in the incumbent's buffer nor in a kept one, whichever buffer
// the previous calls left them in.
func TestWarmStartKeepsPublished(t *testing.T) {
	_, a := chainGraph(t, 1)
	s, err := DLS(a, uniformPlatform(t, 3, 2, 10, 1), Modified())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWarmState()
	b0 := w.Start(s)
	b1 := w.Start(b0)
	if b0 == s || b1 == b0 || b1 == s {
		t.Fatal("Start returned the incumbent's buffer")
	}
	for _, kept := range []*Schedule{b0, b1} {
		// A fresh incumbent (a full reschedule staged in the same step)
		// while kept is still the published one.
		if got := w.Start(s, kept); got == kept || got == s {
			t.Fatal("Start overwrote the kept schedule")
		}
	}
}

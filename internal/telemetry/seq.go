package telemetry

import "sync/atomic"

// Sequencer hands out the monotonic per-stream sequence numbers that give
// events an identity (Event.Seq) for causal back-references (Event.Cause).
// Ids are 1-based so that 0 stays the "unsequenced / no cause" sentinel.
//
// One Sequencer per event stream: a standalone Manager owns its own, and
// runtimes that share a recorder share one so ids stay unique in the merged
// stream. Next is a single atomic add — safe for concurrent producers and
// allocation-free.
type Sequencer struct {
	n atomic.Uint64
}

// NewSequencer returns a sequencer whose first id is 1.
func NewSequencer() *Sequencer { return &Sequencer{} }

// Next returns the next sequence id (1, 2, 3, ...).
func (s *Sequencer) Next() uint64 { return s.n.Add(1) }

package stretch

// CancelFunc is the cooperative-cancellation hook of the stretching passes: a
// non-nil return aborts the pass with that error at the next checkpoint. The
// intended value is a context's Err method. Cancellation must be monotone —
// once the func returns non-nil it must keep returning non-nil — which every
// context satisfies (Err is sticky).
//
// Checkpoint granularity:
//
//   - the single-speed heuristic polls once per task processed (each task
//     pays one CalculateSlack, the natural unit of work);
//   - the per-scenario pass polls once per scenario inside the parallel
//     fan-out and once after the barrier, so a cancelled run stops within
//     one scenario batch — in-flight scenarios finish, queued ones are
//     skipped — and the error surfaces before the folding stage.
//
// A nil CancelFunc is bit-for-bit an uncancellable pass.
type CancelFunc func() error

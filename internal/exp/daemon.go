package exp

import (
	"fmt"

	"ctgdvfs/internal/serve/chaos"
)

// DaemonResult is the chaos campaign against the multi-tenant scheduling
// daemon (DESIGN.md §14): the seeded fault-injection run of
// internal/serve/chaos, exposed as an experiment so `-exp daemon` gates the
// daemon's robustness invariants the same way the other campaigns gate
// scheduling quality.
type DaemonResult struct {
	Report *chaos.Report
}

// Daemon runs the reference chaos campaign.
func Daemon() (*DaemonResult, error) {
	rep, err := chaos.Run(chaos.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &DaemonResult{Report: rep}, nil
}

// Render formats the campaign report.
func (r *DaemonResult) Render() string { return r.Report.Render() }

// Timing formats the report's timing-dependent counts and elapsed time.
func (r *DaemonResult) Timing() string { return r.Report.Timing() }

// Err returns a non-nil error when the campaign broke an invariant, so the
// experiment driver exits non-zero on a red run.
func (r *DaemonResult) Err() error {
	if r.Report.Green() {
		return nil
	}
	return fmt.Errorf("daemon chaos campaign: %d invariant violations", len(r.Report.Violations))
}

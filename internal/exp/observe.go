package exp

import (
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// Observe switches the traced campaign (FaultCampaign) to observed mode; a
// nil *Observe runs it unobserved.
type Observe struct {
	// Rules are the alert rules every stream's series store evaluates per
	// sample; firings land in the stream with full Seq/Cause provenance.
	Rules []series.Rule
}

// CampaignTelemetry carries the observability side of an observed campaign:
// named event streams (separate recorders, so parallel runs never interleave
// their streams) and one series store per workload.
type CampaignTelemetry struct {
	// Recorders holds the event streams, keyed by stream name; health.Analyze
	// over one gives its diagnosis report.
	Recorders map[string]*telemetry.MemoryRecorder
	// Series holds one time-series store per workload. Each store samples
	// its own registry, which only that workload's manager publishes into,
	// so sampling is deterministic even though the runs are parallel.
	Series map[string]*series.Store
}

// newTelemetry returns an empty telemetry set, or nil when o is nil.
func (o *Observe) newTelemetry() *CampaignTelemetry {
	if o == nil {
		return nil
	}
	return &CampaignTelemetry{
		Recorders: make(map[string]*telemetry.MemoryRecorder),
		Series:    make(map[string]*series.Store),
	}
}

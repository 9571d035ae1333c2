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
// their streams) and one registry every observed runtime publishes into
// (counters aggregate campaign-wide).
type CampaignTelemetry struct {
	Metrics *telemetry.Registry
	// Recorders holds the event streams, keyed by stream name; health.Analyze
	// over one gives its diagnosis report.
	Recorders map[string]*telemetry.MemoryRecorder
	// Series holds one time-series store per workload. Each store samples a
	// private mirror of Metrics (telemetry.NewMirrorRegistry), so sampling is
	// deterministic even though the runs are parallel: every write still
	// forwards into the shared campaign-wide registry, but each ring sees
	// only its own producer.
	Series map[string]*series.Store
}

// newTelemetry returns an empty telemetry set publishing into a fresh
// registry, or nil when o is nil.
func (o *Observe) newTelemetry() *CampaignTelemetry {
	if o == nil {
		return nil
	}
	return &CampaignTelemetry{
		Metrics:   telemetry.NewRegistry(),
		Recorders: make(map[string]*telemetry.MemoryRecorder),
		Series:    make(map[string]*series.Store),
	}
}

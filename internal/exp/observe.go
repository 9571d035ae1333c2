package exp

import (
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// Observe switches the traced campaign (FaultCampaign) to observed mode; a
// nil *Observe runs it unobserved.
type Observe struct {
	// Metrics is the registry every observed runtime publishes into — pass
	// one already served over HTTP to watch the campaign live; nil allocates
	// a private one.
	Metrics *telemetry.Registry
	// Rules are the alert rules every stream's series store evaluates per
	// sample; firings land in the stream with full Seq/Cause provenance.
	Rules []series.Rule
}

// CampaignTelemetry carries the observability side of an observed campaign:
// named event streams (separate recorders, so parallel runs never interleave
// their streams) and one registry every observed runtime publishes into
// (counters aggregate campaign-wide).
type CampaignTelemetry struct {
	Metrics   *telemetry.Registry
	Recorders map[string]*telemetry.MemoryRecorder // keyed by stream name
	// Health holds one streaming analyzer per workload, fanned into the same
	// event stream as its recorder: drift detection, SLO tracking and
	// hotspot attribution run live alongside the campaign, and the snapshots
	// feed the harness's health summary.
	Health map[string]*health.AnalyzerRecorder
	// Series holds one time-series store per workload. Each store samples a
	// private mirror of Metrics (telemetry.NewMirrorRegistry), so sampling is
	// deterministic even though the runs are parallel: every write still
	// forwards into the shared registry for the live /metrics view, but each
	// ring sees only its own producer.
	Series map[string]*series.Store
}

// newTelemetry returns an empty telemetry set publishing into o's registry,
// or nil when o is nil.
func (o *Observe) newTelemetry() *CampaignTelemetry {
	if o == nil {
		return nil
	}
	reg := o.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &CampaignTelemetry{
		Metrics:   reg,
		Recorders: make(map[string]*telemetry.MemoryRecorder),
		Health:    make(map[string]*health.AnalyzerRecorder),
		Series:    make(map[string]*series.Store),
	}
}

package exp

import (
	"fmt"

	"ctgdvfs/internal/health"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// Observe switches a traced campaign (FaultCampaign, ConsolidationCampaign)
// to observed mode; a nil *Observe runs it unobserved.
type Observe struct {
	// Metrics is the registry every observed runtime publishes into — pass
	// one already served over HTTP to watch the campaign live, or share one
	// across campaigns; nil allocates a private one per campaign.
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
	// Health holds one streaming analyzer per workload (or consolidation
	// cell), fanned into the same event stream as its recorder: drift
	// detection, SLO tracking and hotspot attribution run live alongside the
	// campaign, and the snapshots feed the harness's health summary.
	Health map[string]*health.AnalyzerRecorder
	// Series holds one time-series store per workload (or consolidation
	// cell). Each store samples a private mirror of Metrics
	// (telemetry.NewMirrorRegistry), so sampling is deterministic even though
	// the runs are parallel: every write still forwards into the shared
	// registry for the live /metrics view, but each ring sees only its own
	// producer.
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

// addStream creates the named stream's recorder and its series store, which
// samples a private mirror of the shared registry and evaluates rules.
// Publish the stream's metrics into Series[name].Registry() so the store
// sees them.
func (t *CampaignTelemetry) addStream(name string, rules []series.Rule) *telemetry.MemoryRecorder {
	rec := telemetry.NewMemoryRecorder()
	t.Recorders[name] = rec
	t.Series[name] = series.NewStore(series.StoreOptions{
		Registry: telemetry.NewMirrorRegistry(t.Metrics),
		Rules:    rules,
	})
	return rec
}

// Merge returns a new set holding the streams of t and other (either may be
// nil); neither input is modified. Both must publish into the same registry,
// and a stream name present in both is an error: two campaigns writing one
// stream name would overwrite each other's output files.
func (t *CampaignTelemetry) Merge(other *CampaignTelemetry) (*CampaignTelemetry, error) {
	out := &CampaignTelemetry{
		Recorders: make(map[string]*telemetry.MemoryRecorder),
		Health:    make(map[string]*health.AnalyzerRecorder),
		Series:    make(map[string]*series.Store),
	}
	for _, src := range []*CampaignTelemetry{t, other} {
		if src == nil {
			continue
		}
		if out.Metrics == nil {
			out.Metrics = src.Metrics
		} else if src.Metrics != out.Metrics {
			return nil, fmt.Errorf("exp: telemetry sets publish into different registries")
		}
		if err := mergeStreams(out.Recorders, src.Recorders); err != nil {
			return nil, err
		}
		if err := mergeStreams(out.Health, src.Health); err != nil {
			return nil, err
		}
		if err := mergeStreams(out.Series, src.Series); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func mergeStreams[V any](dst, src map[string]V) error {
	for name, v := range src {
		if _, dup := dst[name]; dup {
			return fmt.Errorf("exp: duplicate telemetry stream %q", name)
		}
		dst[name] = v
	}
	return nil
}

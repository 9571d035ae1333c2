package serve

import (
	"fmt"
	"strings"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/ctgio"
	"ctgdvfs/internal/platform"
)

// TenantSpec is the submit-time description of one tenant: which CTG +
// platform it runs and how its adaptive manager is configured. The spec is
// pure data (JSON over the wire, persisted verbatim inside checkpoints), so a
// restored daemon rebuilds bit-for-bit the same manager the original submit
// created.
type TenantSpec struct {
	// Name identifies the tenant in every URL, event stream and checkpoint
	// file. Restricted to [A-Za-z0-9._-] (it becomes a file name).
	Name string `json:"name"`

	// Workload selects a built-in application ("mpeg", "cruise", "wlan");
	// empty means CTG carries an inline graph+platform in the ctgio text
	// format — the "submit a CTG + platform" path.
	Workload string `json:"workload,omitempty"`
	CTG      string `json:"ctg,omitempty"`
	// DeadlineFactor, when > 0, tightens the graph's deadline to factor ×
	// the nominal schedule's makespan (core.TightenDeadline) — the same
	// knob the experiment campaigns use.
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`

	// Adaptive-manager knobs (zero values select the core defaults).
	Window      int     `json:"window,omitempty"`
	Threshold   float64 `json:"threshold,omitempty"`
	GuardBand   float64 `json:"guard_band,omitempty"`
	PerScenario bool    `json:"per_scenario,omitempty"`
	WarmStart   bool    `json:"warm_start,omitempty"`
	Recovery    bool    `json:"recovery,omitempty"`
}

// validate checks the spec's invariants that do not require building it.
func (sp *TenantSpec) validate() error {
	if sp.Name == "" {
		return clientErrorf("tenant name is required")
	}
	for _, r := range sp.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return clientErrorf("tenant name %q: only [A-Za-z0-9._-] allowed", sp.Name)
		}
	}
	switch sp.Workload {
	case "mpeg", "cruise", "wlan":
		if sp.CTG != "" {
			return clientErrorf("workload %q and inline ctg are mutually exclusive", sp.Workload)
		}
	case "":
		if sp.CTG == "" {
			return clientErrorf("either workload or an inline ctg is required")
		}
	default:
		return clientErrorf("unknown workload %q (want mpeg, cruise, wlan or inline ctg)", sp.Workload)
	}
	return nil
}

// build materializes the spec's graph and platform.
func (sp *TenantSpec) build() (*ctg.Graph, *platform.Platform, error) {
	var (
		g   *ctg.Graph
		p   *platform.Platform
		err error
	)
	switch sp.Workload {
	case "mpeg":
		g, p, err = mpeg.Build()
	case "cruise":
		g, p, err = cruise.Build()
	case "wlan":
		g, p, err = wlan.Build()
	default:
		g, p, err = ctgio.Read(strings.NewReader(sp.CTG))
		if err != nil {
			err = clientErrorf("inline ctg: %v", err)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if sp.DeadlineFactor > 0 {
		g, err = core.TightenDeadline(g, p, sp.DeadlineFactor)
		if err != nil {
			return nil, nil, clientErrorf("deadline factor %v: %v", sp.DeadlineFactor, err)
		}
	}
	return g, p, nil
}

// coreOptions maps the spec's manager knobs onto core.Options (telemetry
// fields are filled in by the tenant builder).
func (sp *TenantSpec) coreOptions() core.Options {
	return core.Options{
		Window:      sp.Window,
		Threshold:   sp.Threshold,
		GuardBand:   sp.GuardBand,
		PerScenario: sp.PerScenario,
		WarmStart:   sp.WarmStart,
		Recovery:    sp.Recovery,
	}
}

// clientError marks malformed-request errors (HTTP 400, never the breaker's
// business).
type clientError struct{ msg string }

func (e *clientError) Error() string { return e.msg }

func clientErrorf(format string, args ...any) error {
	return &clientError{msg: fmt.Sprintf("serve: "+format, args...)}
}

func isClientErr(err error) bool {
	_, ok := err.(*clientError)
	return ok
}

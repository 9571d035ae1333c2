package main

import (
	"fmt"
	"strconv"
	"strings"

	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/faults"
)

// loadSpecFile loads -faults-spec once per runner that consumes it (nil when
// the flag is unset).
func loadSpecFile() (*faults.SpecFile, error) {
	if *faultsSpec == "" {
		return nil, nil
	}
	sf, err := faults.LoadSpecFile(*faultsSpec)
	if err != nil {
		return nil, fmt.Errorf("-faults-spec: %w", err)
	}
	return sf, nil
}

// parseFloats and parseInts decode the comma-separated sweep flags.
func parseFloats(flagName, s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not a number", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not an integer", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

type runner struct {
	name    string
	aliases []string
	run     func() (string, error)
}

func (r runner) matches(s string) bool {
	if s == r.name {
		return true
	}
	for _, a := range r.aliases {
		if s == a {
			return true
		}
	}
	return false
}

// rendered is the tail every runner shares: an experiment's result rendered
// as the table it prints, followed by its wall-clock part when it has one,
// or its error.
func rendered[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	out := r.Render()
	if t, ok := any(r).(interface{ Timing() string }); ok {
		out += t.Timing()
	}
	return out, nil
}

func orderedRunners() []runner {
	return []runner{
		{name: "table1", run: func() (string, error) { return rendered(exp.Table1()) }},
		{name: "figure4", run: func() (string, error) { return rendered(exp.Figure4()) }},
		// Figure 5 and Table 2 come from the same runs.
		{name: "figure5", aliases: []string{"table2", "mpeg"}, run: func() (string, error) { return rendered(exp.MPEG()) }},
		{name: "table3", aliases: []string{"cruise"}, run: func() (string, error) { return rendered(exp.Cruise()) }},
		{name: "table4", run: func() (string, error) { return rendered(exp.Table4()) }},
		{name: "table5", run: func() (string, error) { return rendered(exp.Table5()) }},
		{name: "figure6", run: func() (string, error) { return rendered(exp.Figure6()) }},
		// Extensions beyond the paper (DESIGN.md §6).
		{name: "daemon", aliases: []string{"chaos"}, run: func() (string, error) {
			r, err := exp.Daemon()
			if err != nil {
				return "", err
			}
			out, _ := rendered(r, nil)
			if err := r.Err(); err != nil {
				return "", fmt.Errorf("%w\n%s", err, out)
			}
			return out, nil
		}},
		{name: "sweep", run: func() (string, error) { return rendered(exp.Sweep(nil, nil)) }},
		{name: "overhead", run: func() (string, error) { return rendered(exp.Overhead()) }},
		{name: "ablation", run: func() (string, error) { return rendered(exp.AblationRatio()) }},
		{name: "ablation-design", run: func() (string, error) { return rendered(exp.AblationDesign()) }},
		{name: "perscenario", run: func() (string, error) { return rendered(exp.PerScenarioDVFS()) }},
		{name: "robustness", run: func() (string, error) { return rendered(exp.Robustness(5)) }},
		{name: "faults", aliases: []string{"faultcampaign"}, run: func() (string, error) {
			spec := exp.DefaultCampaignSpec()
			spec.Seed = *faultSeed
			spec.OverrunProb = *faultOverrun
			// A spec file's perturb section replaces the flag-built plan.
			if sf, err := loadSpecFile(); err != nil {
				return "", err
			} else if sf != nil && sf.Perturb != nil {
				spec = *sf.Perturb
			}
			r, tel, err := exp.FaultCampaign(spec, *faultGuard, observe)
			campaignTel = tel
			return rendered(r, err)
		}},
		{name: "scale", aliases: []string{"scaling"}, run: func() (string, error) {
			// Zero task and PE counts take the 10³-task, 16-PE defaults.
			cfgs := []exp.ScaleConfig{{Tasks: *scaleTasks, PEs: *scalePEs}}
			if *scaleFull {
				cfgs = scaleCurve
			}
			return rendered(exp.ScaleCampaign(cfgs, *scaleInstances))
		}},
		{name: "failover", aliases: []string{"failovercampaign"}, run: func() (string, error) {
			// A spec file's failures section replays that scripted timeline
			// on every workload instead of sweeping rates × repairs.
			if sf, err := loadSpecFile(); err != nil {
				return "", err
			} else if sf != nil && sf.Failures != nil {
				return rendered(exp.FailoverCampaignSpec(*sf.Failures))
			}
			probs, err := parseFloats("fail-rates", *failRates)
			if err != nil {
				return "", err
			}
			repairs, err := parseInts("repairs", *failRepairs)
			if err != nil {
				return "", err
			}
			return rendered(exp.FailoverCampaign(*faultSeed, probs, repairs))
		}},
	}
}

// scaleCurve is the committed scaling curve -scale-full runs, up to 10⁴
// tasks on 64 PEs. Budget minutes, not seconds: the largest cell's full
// reschedules are the very cost the curve exists to demonstrate.
var scaleCurve = []exp.ScaleConfig{
	{Tasks: 1000, PEs: 16, Forks: 5},
	{Tasks: 2000, PEs: 32, Forks: 4},
	{Tasks: 5000, PEs: 64, Forks: 3},
	{Tasks: 10000, PEs: 64, Forks: 3},
}

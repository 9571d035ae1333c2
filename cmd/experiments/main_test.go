package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRulesRefuseDeadMetrics checks -rules refuses, before any campaign
// runs, a threshold rule on a metric no manager registers
// (adaptive.health.budget_burn), and accepts an absence rule on one.
func TestRulesRefuseDeadMetrics(t *testing.T) {
	defer func(prev string) { *rulesFile = prev }(*rulesFile)
	for _, c := range []struct {
		rules   string
		refused bool
	}{
		{`{"rules": [{"name": "burn", "metric": "adaptive.health.budget_burn", "value": 1}]}`, true},
		{`{"rules": [{"name": "gone", "metric": "no.such.metric", "kind": "absence"}]}`, false},
	} {
		*rulesFile = filepath.Join(t.TempDir(), "rules.json")
		if err := os.WriteFile(*rulesFile, []byte(c.rules), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := newObserve()
		if refused := err != nil; refused != c.refused {
			t.Fatalf("%s: err %v, want refused=%v", c.rules, err, c.refused)
		}
		if c.refused && !strings.Contains(err.Error(), "adaptive.health.budget_burn") {
			t.Fatalf("refusal does not name the metric: %v", err)
		}
	}
}

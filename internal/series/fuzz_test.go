package series

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ctgdvfs/internal/telemetry"
)

// FuzzParseRules checks the rules-file boundary: any input either fails
// ParseRules, or yields rules that NewStore accepts and that survive a few
// ticks over a registry carrying every other rule's metric (the rest stay
// absent, so absence rules have something to watch). The corpus is seeded
// with the shipped rule files.
func FuzzParseRules(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "watch", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed rule files (%v)", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"rules":[{"name":"r","metric":"m","kind":"rate","window":2,"op":"<=","value":-1}]}`))
	f.Add([]byte(`{"rules":[{"name":"a","metric":"m","kind":"absence","stale":1},{"name":"b","metric":"m","for":3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := ParseRules(bytes.NewReader(data))
		if err != nil {
			return
		}
		reg := telemetry.NewRegistry()
		st := NewStore(StoreOptions{Registry: reg, Capacity: 8, Rules: rs.Rules})
		rec := telemetry.NewMemoryRecorder()
		seq := telemetry.NewSequencer()
		for tick := 0; tick < 12; tick++ {
			for i, r := range rs.Rules {
				if i%2 == 0 {
					reg.Gauge(r.Metric).Set(float64((tick*(i+3))%7 - 3))
				}
			}
			st.Tick(tick, rec, seq, 0)
		}
	})
}

package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/series"
	"ctgdvfs/internal/serve"
	"ctgdvfs/internal/trace"
)

// TestWatchLiveAgainstDaemon polls a live ctgschedd handler for two frames:
// `ctgsched watch -addr` reads the daemon's GET /v1/metrics and renders its
// serve.* rows.
func TestWatchLiveAgainstDaemon(t *testing.T) {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	if _, err := srv.CreateTenant(serve.TenantSpec{Name: "a", Workload: "mpeg", DeadlineFactor: 1.6}); err != nil {
		t.Fatal(err)
	}
	g, _, err := mpeg.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range trace.Fluctuating(g, 7, 3, 0.4) {
		if _, err := srv.Step(context.Background(), "a", v, serve.ChaosSpec{}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	var out strings.Builder
	addr := strings.TrimPrefix(hs.URL, "http://")
	if err := watchLive(&out, addr, time.Millisecond, 2, series.WatchOptions{Width: 8}); err != nil {
		t.Fatalf("watchLive: %v", err)
	}
	got := out.String()
	if n := strings.Count(got, "watching http://"+addr+"/v1/metrics"); n != 2 {
		t.Fatalf("rendered %d frames, want 2:\n%s", n, got)
	}
	for _, want := range []string{"ctgsched watch — 2 ticks", "daemon", "steps", "3  [3..3]"} {
		if !strings.Contains(got, want) {
			t.Fatalf("frame lacks %q:\n%s", want, got)
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"ctgdvfs/internal/telemetry"
)

// post sends body to path and returns the status and the error envelope.
func post(t *testing.T, h http.Handler, path, body string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	json.NewDecoder(rec.Body).Decode(&env)
	return rec.Code, env.Code, env.Error
}

// TestRequestBodiesRefuseUnknownFields pins the strict request decoding: a
// misspelt or retired knob in a tenant spec, an extra field in a step body,
// or data after the JSON value is a 400 that names the problem, and nothing
// is created or stepped.
func TestRequestBodiesRefuseUnknownFields(t *testing.T) {
	s := mustServer(t, Options{MaxFailures: 1})
	h := s.Handler()
	for _, c := range []struct{ body, want string }{
		{`{"name":"b","workload":"mpeg","treshold":0.5}`, `unknown field "treshold"`},
		{`{"name":"c","workload":"mpeg","cache_size":64}`, `unknown field "cache_size"`},
		{`{"name":"d","workload":"mpeg"} {"name":"e"}`, "unexpected data after the JSON value"},
	} {
		code, env, msg := post(t, h, "/v1/tenants", c.body)
		if code != http.StatusBadRequest || env != "bad_request" || !strings.Contains(msg, c.want) {
			t.Errorf("submit %s: got %d %s %q, want 400 bad_request naming %s", c.body, code, env, msg, c.want)
		}
	}
	if n := len(s.Tenants()); n != 0 {
		t.Fatalf("refused submits created %d tenants", n)
	}

	mustCreate(t, s, mpegSpec("a"))
	v, err := json.Marshal(testVectors(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ body, want string }{
		{fmt.Sprintf(`{"decisions":%s,"instance":3}`, v), `unknown field "instance"`},
		{fmt.Sprintf(`{"decisions":%s,"chaos":{"delay":5}}`, v), `unknown field "delay"`},
		{fmt.Sprintf(`{"decisions":%s} trailing`, v), "unexpected data after the JSON value"},
	} {
		code, env, msg := post(t, h, "/v1/tenants/a/step", c.body)
		if code != http.StatusBadRequest || env != "bad_request" || !strings.Contains(msg, c.want) {
			t.Errorf("step %s: got %d %s %q, want 400 bad_request naming %s", c.body, code, env, msg, c.want)
		}
	}
	if code, _, msg := post(t, h, "/v1/tenants/a/step", fmt.Sprintf(`{"decisions":%s}`+"\n", v)); code != http.StatusOK {
		t.Fatalf("well-formed step: got %d %q", code, msg)
	}
	st, err := s.tenant("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.statusSnapshot(); got.Instances != 1 || got.Breaker != "closed" {
		t.Fatalf("refused steps changed the tenant: %+v", got)
	}
}

// TestCheckpointWithRetiredSpecFieldRestores pins that checkpoint payloads
// stay lenient where request bodies are strict: a snapshot whose embedded
// spec still carries the retired cache_size knob restores.
func TestCheckpointWithRetiredSpecFieldRestores(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1 := mustServer(t, Options{CheckpointDir: dir})
	mustCreate(t, s1, mpegSpec("a"))
	for i, v := range testVectors(t, 5) {
		if _, err := s1.Step(ctx, "a", v, ChaosSpec{}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	p := snapshotPath(dir, "a")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var pay map[string]any
	if err := json.Unmarshal(raw[bytes.IndexByte(raw, '\n')+1:], &pay); err != nil {
		t.Fatal(err)
	}
	pay["spec"].(map[string]any)["cache_size"] = 64
	body, err := json.Marshal(pay)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	old := append([]byte(snapshotMagic+hex.EncodeToString(sum[:])+"\n"), body...)
	if err := os.WriteFile(p, old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustServer(t, Options{CheckpointDir: dir})
	sts := s2.Tenants()
	if len(sts) != 1 || !sts[0].Restored || sts[0].RestoredFrom != "ok" || sts[0].Instances != 5 {
		t.Fatalf("want the primary snapshot restored at instance 5, got %+v", sts)
	}
}

var errDiskFull = errors.New("disk full")

// fullWriter fails every write, like a file on a full disk.
type fullWriter struct{}

func (fullWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// failEvents points a tenant's event stream at a fullWriter.
func failEvents(t *testing.T, s *Server, name string) {
	t.Helper()
	tn, err := s.tenant(name)
	if err != nil {
		t.Fatal(err)
	}
	tn.stMu.Lock()
	defer tn.stMu.Unlock()
	if err := tn.events.Close(); err != nil {
		t.Fatal(err)
	}
	tn.events = telemetry.NewJSONLRecorder(fullWriter{})
	tn.sinks[len(tn.sinks)-1] = tn.events
}

// healthz returns the status /v1/healthz reports.
func healthz(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var health DaemonHealth
	if err := json.NewDecoder(rec.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	return health.Status
}

// TestEventStreamWriteErrorsAreReturned pins that a tenant whose event
// stream cannot be written (a full disk truncating <name>.events.jsonl)
// keeps the first write error: it stays degraded, later successful steps
// included, reports the error in its status and turns /v1/healthz
// degraded; and RemoveTenant and Close fail with that error instead of
// dropping it.
func TestEventStreamWriteErrorsAreReturned(t *testing.T) {
	s, err := New(Options{EventsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v := testVectors(t, 1)[0]
	for _, name := range []string{"a", "b", "c"} {
		mustCreate(t, s, mpegSpec(name))
	}
	failEvents(t, s, "a")
	failEvents(t, s, "b")
	for _, name := range []string{"c", "a", "b", "a"} {
		if _, err := s.Step(ctx, name, v, ChaosSpec{}); err != nil {
			t.Fatalf("step %s: %v", name, err)
		}
		if name == "c" && healthz(t, s.Handler()) != "ok" {
			t.Fatal("healthz not ok before any stream failed")
		}
	}
	for _, st := range s.Tenants() {
		failing := st.Name != "c"
		if got := st.Status == "degraded"; got != failing {
			t.Fatalf("tenant %s: status %q with a failing stream %v", st.Name, st.Status, failing)
		}
		if got := st.EventsError != ""; got != failing || failing && st.EventsError != errDiskFull.Error() {
			t.Fatalf("tenant %s: events_error %q with a failing stream %v", st.Name, st.EventsError, failing)
		}
	}
	if got := healthz(t, s.Handler()); got != "degraded" {
		t.Fatalf("healthz %q with two failing streams, want degraded", got)
	}

	if err := s.RemoveTenant("c"); err != nil {
		t.Fatalf("RemoveTenant of a healthy stream: %v", err)
	}
	if err := s.RemoveTenant("b"); !errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), "events stream for b") {
		t.Fatalf("RemoveTenant(b) = %v, want the stream's disk-full error", err)
	}
	if sts := s.Tenants(); len(sts) != 1 || sts[0].Name != "a" {
		t.Fatalf("after removals: %+v, want only a", sts)
	}
	if err := s.Close(); !errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), "events stream for a") {
		t.Fatalf("Close = %v, want a's disk-full error", err)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzStepBody posts arbitrary bytes as a step body to one mpeg tenant
// through the daemon's HTTP handler. Every reply is a 200 or a 4xx, the
// tenant never records a panic, and a 4xx never counts against the breaker:
// with MaxFailures 1, a rejected body that did would open it at once.
func FuzzStepBody(f *testing.F) {
	// The bodies Client.Step sends, as the serve tests drive it, then the
	// same vectors one decision too long and with an out-of-range outcome.
	encode := func(v []int, c ChaosSpec) []byte {
		b, err := json.Marshal(struct {
			Decisions []int     `json:"decisions"`
			Chaos     ChaosSpec `json:"chaos"`
		}{v, c})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, v := range testVectors(f, 3) {
		f.Add(encode(v, ChaosSpec{}))
		f.Add(encode(v, ChaosSpec{Panic: "boom", DelayMS: 5}))
		f.Add(encode(append(append([]int(nil), v...), 0), ChaosSpec{}))
		for _, o := range []int{9, -1} {
			bad := append([]int(nil), v...)
			bad[0] = o
			f.Add(encode(bad, ChaosSpec{}))
		}
	}
	for _, b := range []string{
		"",
		"{}",
		"null",
		`{"decisions":[]}`,
		`{"decisions":[1]}`,
		`{"decisions":null}`,
		`{"decisions":[1e99]}`,
		`{"decisions":"0"}`,
		`{"decisions":[0]} trailing`,
	} {
		f.Add([]byte(b))
	}

	s := mustServer(f, Options{MaxFailures: 1})
	mustCreate(f, s, mpegSpec("mpeg"))
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants/mpeg/step", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		code := rec.Code
		if code != http.StatusOK && (code < 400 || code > 499) {
			t.Fatalf("body %q: status %d, want 200 or 4xx (%s)", body, code, rec.Body.Bytes())
		}
		st := s.Tenants()[0]
		if st.Panics != 0 {
			t.Fatalf("body %q: the tenant recorded %d panics", body, st.Panics)
		}
		if code != http.StatusOK && st.Breaker != "closed" {
			t.Fatalf("body %q: a %d left the breaker %s", body, code, st.Breaker)
		}
	})
}

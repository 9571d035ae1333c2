package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"
)

// RejectionError is a typed admission-control rejection: the request was
// refused before any tenant state was touched. Status is the HTTP mapping
// (429 for rate limiting, 503 for queue/breaker/shed rejections) and
// RetryAfter, when positive, is the hint surfaced as a Retry-After header —
// the earliest moment a retry can possibly be admitted.
type RejectionError struct {
	Tenant     string
	Code       string // "rate_limited", "queue_full", "breaker_open", "slo_shed", "tenant_failed"
	Status     int
	RetryAfter time.Duration
}

func (e *RejectionError) Error() string {
	return fmt.Sprintf("serve: tenant %s rejected: %s", e.Tenant, e.Code)
}

// PanicError reports a contained tenant-worker panic: the panicking request
// failed, the tenant was marked degraded and restarted with backoff, and the
// daemon (and every sibling tenant) kept running. Maps to HTTP 500.
type PanicError struct {
	Tenant string
	Value  string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: tenant %s worker panicked (contained): %s", e.Tenant, e.Value)
}

// Breaker states. A tenant's circuit breaker opens on repeated consecutive
// failures (or immediately on a panic), rejects everything until the current
// backoff expires, then half-opens: exactly one probe request is admitted,
// and its outcome either closes the breaker or re-opens it with a doubled
// backoff.
const (
	brkClosed = iota
	brkOpen
	brkHalfOpen
)

func breakerStateName(s int) string {
	switch s {
	case brkOpen:
		return "open"
	case brkHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// breaker is one tenant's circuit breaker. Not self-locking: the owning
// tenant guards it with admMu.
type breaker struct {
	state   int
	until   time.Time     // open-state expiry
	backoff time.Duration // backoff served by the current/last open period
	fails   int           // consecutive failures since the last success
	probing bool          // a half-open probe is in flight
}

// admit decides whether one request passes the breaker at time now.
func (b *breaker) admit(now time.Time) (ok bool, retryAfter time.Duration) {
	switch b.state {
	case brkClosed:
		return true, 0
	case brkOpen:
		if now.Before(b.until) {
			return false, b.until.Sub(now)
		}
		b.state = brkHalfOpen
		b.probing = false
		fallthrough
	default: // brkHalfOpen
		if b.probing {
			return false, b.backoff
		}
		b.probing = true
		return true, 0
	}
}

// onSuccess closes the breaker (a half-open probe succeeded, or a closed
// breaker saw a normal success).
func (b *breaker) onSuccess() {
	b.state = brkClosed
	b.fails = 0
	b.backoff = 0
	b.probing = false
}

// onFailure records one failed request; after maxFails consecutive failures
// (or any failure while half-open) the breaker opens with a
// jittered-exponential backoff. Returns the backoff now in force (0 while
// still closed).
func (b *breaker) onFailure(now time.Time, maxFails int, base, max time.Duration, rng *rand.Rand) time.Duration {
	b.fails++
	if b.state == brkHalfOpen || b.fails >= maxFails {
		return b.open(now, base, max, rng)
	}
	return 0
}

// open trips the breaker: the backoff doubles from the last open period
// (starting at base, capped at max) and is jittered into [d/2, d) so a herd
// of tenants tripped together does not retry in lockstep.
func (b *breaker) open(now time.Time, base, max time.Duration, rng *rand.Rand) time.Duration {
	d := base
	if b.backoff > 0 {
		d = 2 * b.backoff
	}
	if d > max {
		d = max
	}
	b.backoff = d
	jittered := d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	b.state = brkOpen
	b.until = now.Add(jittered)
	b.probing = false
	return jittered
}

// tokenBucket is one tenant's request-rate limiter: rate tokens/second refill
// up to burst. Not self-locking (guarded by admMu). A zero rate admits
// everything.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func (b *tokenBucket) admit(now time.Time) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if b.last.IsZero() {
		b.tokens = b.burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// writeError renders err as the daemon's JSON error envelope, mapping typed
// errors to their HTTP status and attaching Retry-After hints.
func writeError(w http.ResponseWriter, err error) {
	type envelope struct {
		Error        string `json:"error"`
		Code         string `json:"code,omitempty"`
		RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	}
	env := envelope{Error: err.Error()}
	status := http.StatusInternalServerError
	switch e := err.(type) {
	case *RejectionError:
		status = e.Status
		env.Code = e.Code
		if e.RetryAfter > 0 {
			env.RetryAfterMS = e.RetryAfter.Milliseconds()
			secs := int64(e.RetryAfter.Seconds()) + 1
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		}
	case *PanicError:
		status = http.StatusInternalServerError
		env.Code = "panic"
	case *http.MaxBytesError:
		status = http.StatusRequestEntityTooLarge
		env.Code = "body_too_large"
	default:
		switch {
		case err == ErrUnknownTenant:
			status = http.StatusNotFound
			env.Code = "unknown_tenant"
		case err == ErrClosed:
			status = http.StatusServiceUnavailable
			env.Code = "closed"
		case errors.Is(err, ErrDuplicateTenant):
			status = http.StatusConflict
			env.Code = "duplicate_tenant"
		case isCtxErr(err):
			status = http.StatusGatewayTimeout
			env.Code = "deadline"
		case isClientErr(err):
			status = http.StatusBadRequest
			env.Code = "bad_request"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, env)
}

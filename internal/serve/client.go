package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Client is a small HTTP client for the daemon API with jittered-exponential
// retry on retryable failures (429/503 responses and transport errors). It
// honors Retry-After hints when the server supplies one and gives up when the
// context expires or MaxRetries is exhausted. A Client is not safe for
// concurrent use (it owns a mutable RNG and retry budget); give each
// goroutine its own.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (nil selects http.DefaultClient).
	HTTP *http.Client
	// MaxRetries bounds retry attempts per request (0 selects 5; negative
	// disables retries).
	MaxRetries int
	// BaseDelay is the first retry delay, doubled per attempt and jittered
	// into [d/2, d) (0 selects 25ms); MaxDelay caps it (0 selects 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Rand is the jitter source (nil selects a fixed-seed RNG, keeping
	// campaign retries reproducible).
	Rand *rand.Rand
	// Sleep overrides the inter-retry sleep for tests (nil selects a
	// context-aware real sleep).
	Sleep func(context.Context, time.Duration) error
}

// APIError is a non-2xx daemon response that was not retried to success.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: api error %d (%s): %s", e.Status, e.Code, e.Message)
}

// Retryable reports whether the error is worth retrying (throttling or
// transient unavailability, not a caller bug).
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 5
	}
	return c.MaxRetries
}

func (c *Client) delays() (base, max time.Duration) {
	base, max = c.BaseDelay, c.MaxDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	return base, max
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C:
		return nil
	}
}

func (c *Client) jitter(d time.Duration) time.Duration {
	rng := c.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
		c.Rand = rng
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// do runs one JSON request with retries; out, when non-nil, receives the
// decoded 2xx body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return err
		}
	}
	base, maxD := c.delays()
	delay := base
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http().Do(req)
		if err == nil {
			err = decodeResponse(resp, out)
			if err == nil {
				return nil
			}
			if ae, ok := err.(*APIError); !ok || !ae.Retryable() {
				return err
			}
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
		if attempt >= c.maxRetries() {
			return lastErr
		}
		wait := c.jitter(delay)
		if ae, ok := err.(*APIError); ok && ae.RetryAfter > wait {
			wait = ae.RetryAfter
		}
		if delay *= 2; delay > maxD {
			delay = maxD
		}
		if serr := c.sleep(ctx, wait); serr != nil {
			return lastErr
		}
	}
}

// decodeResponse maps a response to either out (2xx) or an *APIError.
func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var env struct {
		Error        string `json:"error"`
		Code         string `json:"code"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	json.Unmarshal(raw, &env)
	ae := &APIError{Status: resp.StatusCode, Code: env.Code, Message: env.Error}
	if ae.Message == "" {
		ae.Message = string(raw)
	}
	if env.RetryAfterMS > 0 {
		ae.RetryAfter = time.Duration(env.RetryAfterMS) * time.Millisecond
	} else if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// Submit creates a tenant.
func (c *Client) Submit(ctx context.Context, spec TenantSpec) (TenantStatus, error) {
	var st TenantStatus
	err := c.do(ctx, http.MethodPost, "/v1/tenants", spec, &st)
	return st, err
}

// Step submits one decision vector.
func (c *Client) Step(ctx context.Context, tenant string, decisions []int, chaos ChaosSpec) (StepReply, error) {
	body := struct {
		Decisions []int     `json:"decisions"`
		Chaos     ChaosSpec `json:"chaos"`
	}{decisions, chaos}
	var rep StepReply
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/step", body, &rep)
	return rep, err
}

// StepOnce is Step without any retries (the caller observes every rejection).
func (c *Client) StepOnce(ctx context.Context, tenant string, decisions []int, chaos ChaosSpec) (StepReply, error) {
	saved := c.MaxRetries
	c.MaxRetries = -1
	defer func() { c.MaxRetries = saved }()
	return c.Step(ctx, tenant, decisions, chaos)
}

// Schedule fetches a tenant's incumbent schedule.
func (c *Client) Schedule(ctx context.Context, tenant string) (ScheduleReply, error) {
	var rep ScheduleReply
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+tenant+"/schedule", nil, &rep)
	return rep, err
}

// Status fetches one tenant's status.
func (c *Client) Status(ctx context.Context, tenant string) (TenantStatus, error) {
	var st TenantStatus
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+tenant, nil, &st)
	return st, err
}

// Health fetches the daemon health report.
func (c *Client) Health(ctx context.Context) (DaemonHealth, error) {
	var h DaemonHealth
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// Command ctgschedd is the long-running multi-tenant scheduling daemon: it
// hosts one adaptive manager per tenant behind an HTTP/JSON API (submit a
// CTG + platform, stream branch outcomes in, fetch schedules, telemetry and
// health out) with per-tenant admission control, request deadlines, panic
// isolation and periodic atomic checkpoints. A killed daemon restarted with
// the same -checkpoint-dir resumes every tenant deterministically from its
// latest snapshot.
//
// Usage:
//
//	ctgschedd -addr :8080 -checkpoint-dir /var/lib/ctgschedd
//	ctgschedd -addr :8080 -rate 200 -burst 50 -timeout 2s -events-dir ./events
//	ctgschedd -addr :8080 -rules shed.json   # shed a tenant while a rule fires
//
// The API (see DESIGN.md §14):
//
//	POST   /v1/tenants                   submit a tenant spec
//	GET    /v1/tenants                   list tenant statuses
//	GET    /v1/tenants/{name}            one tenant's status
//	DELETE /v1/tenants/{name}            remove a tenant (and its snapshots)
//	POST   /v1/tenants/{name}/step       one decision vector -> one reply
//	GET    /v1/tenants/{name}/schedule   the incumbent schedule + digest
//	GET    /v1/tenants/{name}/events     flight-recorder dump (JSONL)
//	POST   /v1/tenants/{name}/checkpoint force a snapshot
//	GET    /v1/healthz                   daemon health report
//	GET    /v1/metrics                   Prometheus-style metrics
//
// SIGINT/SIGTERM shut down gracefully: in-flight steps finish, every tenant
// writes a final checkpoint, event sinks flush. SIGKILL loses at most the
// instances since the last checkpoint (bounded by -checkpoint-every).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ctgdvfs/internal/series"
	"ctgdvfs/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint directory (empty disables snapshots)")
	ckptEvery := flag.Int("checkpoint-every", 16, "snapshot period in committed instances")
	eventsDir := flag.String("events-dir", "", "stream per-tenant telemetry to <dir>/<tenant>.events.jsonl")
	rate := flag.Float64("rate", 0, "per-tenant admitted requests/second (0 = unlimited)")
	burst := flag.Float64("burst", 0, "per-tenant admission burst (0 = max(1, rate))")
	queueDepth := flag.Int("queue-depth", 0, "per-tenant request queue depth (0 = default)")
	timeout := flag.Duration("timeout", 0, "default per-step deadline when the caller sets none (0 = unbounded)")
	maxTimeout := flag.Duration("max-timeout", 0, "hard cap on caller-supplied deadlines (0 = no cap)")
	maxFailures := flag.Int("max-failures", 0, "consecutive failures before a tenant's breaker opens (0 = default)")
	baseBackoff := flag.Duration("base-backoff", 0, "initial breaker backoff (0 = default)")
	maxBackoff := flag.Duration("max-backoff", 0, "breaker backoff cap (0 = default)")
	flightWindow := flag.Int("flight-window", 0, "per-tenant flight-recorder capacity (0 = default)")
	rulesFile := flag.String("rules", "", "JSON alert-rule file (series.RuleSet) each tenant evaluates; a tenant sheds load (503 slo_shed) while one fires")
	chaos := flag.Bool("chaos", false, "honor fault-injection fields in step requests (testing only)")
	seed := flag.Int64("seed", 1, "seed for per-tenant backoff jitter")
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("ctgschedd: unexpected arguments %q", flag.Args())
	}

	opts := serve.Options{
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		EventsDir:       *eventsDir,
		Rate:            *rate,
		Burst:           *burst,
		QueueDepth:      *queueDepth,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxFailures:     *maxFailures,
		BaseBackoff:     *baseBackoff,
		MaxBackoff:      *maxBackoff,
		FlightWindow:    *flightWindow,
		Chaos:           *chaos,
		Seed:            *seed,
	}
	if *rulesFile != "" {
		rs, err := series.LoadRules(*rulesFile)
		if err != nil {
			log.Fatalf("ctgschedd: -rules: %v", err)
		}
		opts.ShedRules = rs.Rules
	}
	if *eventsDir != "" {
		if err := os.MkdirAll(*eventsDir, 0o755); err != nil {
			log.Fatalf("ctgschedd: %v", err)
		}
	}

	srv, err := serve.New(opts)
	if err != nil {
		log.Fatalf("ctgschedd: %v", err)
	}
	if n := len(srv.Tenants()); n > 0 {
		log.Printf("ctgschedd: restored %d tenants from %s", n, *ckptDir)
	}

	hs := serve.NewHTTPServer(srv.Handler())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("ctgschedd: %v", err)
	}
	log.Printf("ctgschedd: serving on http://%s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("ctgschedd: %s: shutting down", sig)
	case err := <-errc:
		log.Fatalf("ctgschedd: serve: %v", err)
	}

	// Stop accepting, finish in-flight requests, then checkpoint and flush
	// every tenant. A second signal aborts the wait.
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Close()
		if err := srv.Close(); err != nil {
			log.Printf("ctgschedd: close: %v", err)
		}
	}()
	select {
	case <-done:
		log.Printf("ctgschedd: bye")
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "ctgschedd: %s during shutdown, aborting\n", sig)
		os.Exit(1)
	case <-time.After(30 * time.Second):
		fmt.Fprintln(os.Stderr, "ctgschedd: shutdown timed out")
		os.Exit(1)
	}
}

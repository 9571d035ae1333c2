#!/bin/sh
# verify.sh — the repo's full verification pipeline:
#   a gofmt check (fails when any file needs formatting), vet, build, the
#   full test suite, tests again under the race detector in short mode (the
#   heavy exp replays honor -short; the race pass is about concurrency bugs,
#   not numerics), per-package coverage floors (the adaptive manager, the
#   fault, telemetry and health layers, the scheduling daemon, and the
#   stretch, replay and DLS hot path), a
#   one-iteration smoke run of the micro-benchmarks in bench_test.go (catches
#   bit-rot in them without paying for real measurement; the paper's tables
#   and figures are pinned by internal/exp's golden files in the test suite,
#   not by benchmarks), short fuzzing sessions of
#   the workload parser, the alert-rules parser, the daemon's step body and
#   the stretch class-row builder, a fault-campaign and a failover-campaign run of the
#   fault-tolerance layer, a bounded run of the large-scale warm-start tier
#   (one 10^3-task cell), an
#   end-to-end health-analyzer pass over a captured event stream, an
#   end-to-end provenance pass (captured campaign streams replayed through
#   `ctgsched explain`), an end-to-end monitoring pass (alert rules + series
#   capture replayed through `ctgsched explain` and `ctgsched watch`, and
#   the default health rules, which must fire on a 3x-overrun campaign,
#   through `ctgsched analyze`), the daemon
#   chaos campaign (panic isolation, request floods, kill-restart recovery
#   on an in-process daemon pair), and a daemon smoke run that builds the
#   real ctgschedd binary, SIGKILLs it mid-run, and verifies the restart
#   resumes bit-for-bit from its latest checkpoint. A best-effort
#   govulncheck pass runs early when the tool is installed (advisory only —
#   the container may be offline).
# The benchmark module under perfbench/ is vetted and tested right after the
# root test suite. Timing is not gated here: perfbench (perfbench/LEDGER.md)
# is the one performance ledger, and the allocation contracts are ordinary
# tests in the suite (TestFlightRecorderZeroAllocSteadyState,
# TestStoreTickAllocsZero, TestPartialBoundWorkspaceAllocatesNothing,
# TestReplayAllocsBounded, TestServeStepAllocsBounded,
# TestFullRescheduleAllocsBounded).
# Run from anywhere; operates on the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

# Best-effort vulnerability scan: advisory only, because the container may be
# offline (govulncheck needs the vuln DB) or the tool may not be installed.
echo "== govulncheck (best-effort) =="
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./... || echo "govulncheck: advisory failure ignored (offline or findings above)"
else
	echo "govulncheck not installed; skipping"
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

# perfbench/ is its own module (replace ctgdvfs => ../), so the root build
# and tests above never compile it.
echo "== benchmark module (perfbench: vet + test) =="
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)

# The full exp suite under the race detector takes ~30 minutes on a small
# machine; -short keeps the race pass focused on concurrency coverage while
# the full-fidelity numerics ran un-instrumented above.
echo "== go test -race -short =="
go test -race -short -timeout 30m ./...

echo "== coverage floors (core, faults, telemetry, health, serve, stretch, sim, sched) =="
sh scripts/cover.sh

# Every benchmark lives in the root package's bench_test.go.
echo "== bench smoke (1 iteration each) =="
go test -run '^$' -bench . -benchtime 1x . >/dev/null

echo "== fuzz smoke (workload parser, rules parser, step body, class rows, 5s each) =="
go test -run '^$' -fuzz FuzzRead -fuzztime 5s ./internal/ctgio >/dev/null
go test -run '^$' -fuzz FuzzParseRules -fuzztime 5s ./internal/series >/dev/null
go test -run '^$' -fuzz FuzzStepBody -fuzztime 5s ./internal/serve >/dev/null
go test -run '^$' -fuzz FuzzClassRows -fuzztime 5s ./internal/stretch >/dev/null

echo "== fault-campaign + telemetry smoke =="
trace_tmp="$(mktemp)"
go run ./cmd/experiments -exp faults -trace-out "$trace_tmp" >/dev/null
go run ./scripts/checktrace "$trace_tmp"
rm -f "$trace_tmp"

echo "== failover-campaign smoke =="
go run ./cmd/experiments -exp failover >/dev/null

echo "== scale-tier smoke (10^3-task cell, warm vs full) =="
go run ./cmd/experiments -exp scale -scale-instances 24 >/dev/null

echo "== health-analyzer smoke (capture + analyze) =="
events_tmp="$(mktemp)"
example_trace_tmp="$(mktemp)"
go run ./examples/telemetry -events-out "$events_tmp" -trace-out "$example_trace_tmp" >/dev/null
go run ./cmd/ctgsched analyze "$events_tmp" >/dev/null
rm -f "$events_tmp" "$example_trace_tmp"

echo "== provenance smoke (capture + explain) =="
prov_dir="$(mktemp -d)"
go run ./cmd/experiments -exp faults -events-out "$prov_dir/ev" >/dev/null
go run ./cmd/ctgsched explain -list "$prov_dir/ev-mpeg.jsonl" >/dev/null
go run ./cmd/ctgsched explain -kind reschedule "$prov_dir/ev-mpeg.jsonl" >/dev/null
go run ./cmd/ctgsched explain -kind fallback "$prov_dir/ev-cruise.jsonl" >/dev/null
rm -rf "$prov_dir"

echo "== daemon chaos campaign (panic isolation, floods, kill-restart) =="
go run ./cmd/experiments -exp daemon >/dev/null

echo "== daemon smoke (build ctgschedd, submit over HTTP, SIGKILL, resume) =="
go run ./scripts/daemonsmoke

echo "== monitoring smoke (rules + series + watch) =="
mon_dir="$(mktemp -d)"
go run ./cmd/experiments -exp faults -rules examples/watch/rules.json \
	-series-out "$mon_dir/se" -events-out "$mon_dir/ev" >/dev/null
# The miss-rate rule fires during the campaign; its cause chain must resolve
# back through the triggering instance_finish.
go run ./cmd/ctgsched explain -kind alert_firing "$mon_dir/ev-mpeg.jsonl" >/dev/null
go run ./cmd/ctgsched watch -dump "$mon_dir/se-mpeg.json" >/dev/null
# The default health rules alert on the manager's gauges; analyze reports
# the firings the live rules recorded. Overruns of 3x sink even the
# full-speed fallback on mpeg, so the miss rules must fire.
printf '{"perturb": {"seed": 42, "overrun_prob": 0.2, "overrun_factor": 3}}\n' >"$mon_dir/overrun.json"
go run ./cmd/experiments -exp faults -faults-spec "$mon_dir/overrun.json" \
	-rules examples/watch/health.json -events-out "$mon_dir/hl" >/dev/null
if ! go run ./cmd/ctgsched analyze "$mon_dir/hl-mpeg.jsonl" 2>/dev/null |
	grep -Eq '^health report: .*, [1-9][0-9]* alerts$'; then
	echo "verify: no health rule fired on the 3x-overrun campaign" >&2
	exit 1
fi
rm -rf "$mon_dir"

echo "verify: OK"

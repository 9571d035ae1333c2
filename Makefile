# Standard entry points; `make verify` is the gate a change must pass.

.PHONY: build test race cover bench bench-parallel bench-telemetry bench-failover bench-scale bench-consolidation bench-provenance bench-monitor bench-daemon benchgate bench-baseline fuzz-smoke fault-smoke failover-smoke consolidation-smoke scale-smoke telemetry-smoke analyze-smoke explain-smoke watch-smoke chaos-smoke daemon-smoke perfbench-check verify

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Statement-coverage floors for internal/core and internal/faults (the
# degraded-mode re-mapping and failure-timeline code paths).
cover:
	sh scripts/cover.sh

# Full benchmark sweep (regenerates every table/figure as a side effect).
bench:
	go test -run '^$$' -bench . -benchmem .

# Serial-vs-parallel scenario-engine comparison; see BENCH_parallel.json
# for a recorded baseline.
bench-parallel:
	go test -run '^$$' -bench 'PerScenario(Serial|Parallel)|Exhaustive(Serial|Parallel)' -benchmem .

# Short fuzzing session for the workload parser (the seed corpus alone runs
# as part of `make test`; this explores beyond it).
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzRead -fuzztime 5s ./internal/ctgio

# Fault-injection campaign on the MPEG + cruise workloads.
fault-smoke:
	go run ./cmd/experiments -exp faults

# Failover campaign: adaptive re-mapping vs a static schedule under PE
# outages, on the mpeg/wlan/cruise workloads.
failover-smoke:
	go run ./cmd/experiments -exp failover

# Consolidation campaign: multiple applications on one shared fabric under a
# chip power cap — budget governor vs ungoverned baseline (bounded rounds).
consolidation-smoke:
	go run ./cmd/experiments -exp consolidation -consolidation-rounds 80

# Telemetry-disabled vs enabled adaptive-step cost; see BENCH_telemetry.json
# for a recorded baseline (including the pre-telemetry runtime).
bench-telemetry:
	go test -run '^$$' -bench 'AdaptiveStep(MPEG|Telemetry)' -benchmem .

# Timeline-off vs outage-timeline adaptive-step cost; see BENCH_failover.json
# for a recorded baseline.
bench-failover:
	go test -run '^$$' -bench 'AdaptiveStepFailover' -benchmem .

# Large-scale tier: full vs warm-started reschedule on a 10^3-task CTG; see
# BENCH_scale.json for a recorded baseline (the warm entry is alloc-gated).
bench-scale:
	go test -run '^$$' -bench 'BenchmarkScale' -benchmem .

# Ungoverned-metering vs governed consolidated-round cost; see
# BENCH_consolidation.json for a recorded baseline.
bench-consolidation:
	go test -run '^$$' -bench 'FleetStep(Ungoverned|Governed)' -benchmem .

# Flight-recorder steady state / disabled path (both alloc-gated at zero) and
# the adaptive step with the black box on; see BENCH_provenance.json.
bench-provenance:
	go test -run '^$$' -bench 'FlightRecorder(Record|Disabled)|AdaptiveStepFlight' -benchmem .

# Time-series sampler sweep with and without alert rules armed (both
# alloc-gated at zero) and the adaptive step sampling its own registry; see
# BENCH_monitor.json for a recorded baseline.
bench-monitor:
	go test -run '^$$' -bench 'SeriesTick|AdaptiveStepSeries' -benchmem .

# Bounded run of the scaling campaign (one 10^3-task cell, warm vs full).
scale-smoke:
	go run ./cmd/experiments -exp scale -scale-tasks 1000 -scale-pes 16 -scale-instances 24

# Fault campaign with the Chrome trace export, validated by checktrace.
telemetry-smoke:
	go run ./cmd/experiments -exp faults -trace-out /tmp/ctgdvfs_trace.json
	go run ./scripts/checktrace /tmp/ctgdvfs_trace.json

# Daemon request overhead: steady-state serve loop (alloc-gated) and the
# full-reschedule worst case; see BENCH_daemon.json for a recorded baseline.
bench-daemon:
	go test -run '^$$' -bench 'DaemonStep(Serve|Resched)' -benchmem .

# Daemon chaos campaign: panic isolation, request floods and a kill-restart
# cycle against an in-process baseline/chaos daemon pair.
chaos-smoke:
	go run ./cmd/experiments -exp daemon

# End-to-end daemon smoke: build the real ctgschedd binary, submit the mpeg
# tenant over HTTP, SIGKILL it mid-run, restart on the same checkpoint
# directory and verify the resume is bit-for-bit.
daemon-smoke:
	go run ./scripts/daemonsmoke

# Bench-regression gate: re-run the baselined benchmarks and fail on >10%
# ns/op regressions against the committed BENCH_*.json files.
benchgate:
	go run ./scripts/benchgate BENCH_parallel.json BENCH_telemetry.json BENCH_failover.json BENCH_scale.json BENCH_consolidation.json BENCH_provenance.json BENCH_monitor.json BENCH_daemon.json

# Re-bless the benchmark baselines on this host (after a deliberate change).
bench-baseline:
	go run ./scripts/benchgate -update BENCH_parallel.json BENCH_telemetry.json BENCH_failover.json BENCH_scale.json BENCH_consolidation.json BENCH_provenance.json BENCH_monitor.json BENCH_daemon.json

# End-to-end health pipeline: capture a JSONL event stream from the telemetry
# example, then run the offline analyzer over it.
analyze-smoke:
	go run ./examples/telemetry -events-out /tmp/ctgdvfs_events.jsonl -trace-out /tmp/ctgdvfs_example_trace.json >/dev/null
	go run ./cmd/ctgsched analyze /tmp/ctgdvfs_events.jsonl

# End-to-end provenance pipeline: capture the fault campaign's event streams
# and flight-recorder dumps, then reconstruct causal chains from both.
explain-smoke:
	go run ./cmd/experiments -exp faults -events-out /tmp/ctgdvfs_prov -flight-out /tmp/ctgdvfs_flight >/dev/null
	go run ./cmd/ctgsched explain -list /tmp/ctgdvfs_prov-mpeg.jsonl
	go run ./cmd/ctgsched explain -kind reschedule /tmp/ctgdvfs_prov-mpeg.jsonl
	go run ./cmd/ctgsched explain /tmp/ctgdvfs_flight-mpeg-1.jsonl

# End-to-end monitoring pipeline: run the fault campaign with alert rules and
# series capture, walk an alert's cause chain, render the stores in the watch
# view, and lint the Prometheus exposition.
watch-smoke:
	go run ./cmd/experiments -exp faults -rules examples/watch/rules.json -series-out /tmp/ctgdvfs_series -events-out /tmp/ctgdvfs_mon -prom-out /tmp/ctgdvfs_metrics.prom >/dev/null
	go run ./cmd/ctgsched explain -kind alert_firing /tmp/ctgdvfs_mon-mpeg.jsonl
	go run ./cmd/ctgsched watch -dump /tmp/ctgdvfs_series-mpeg.json
	go run ./scripts/promlint /tmp/ctgdvfs_metrics.prom

# The benchmark harness is a Go module of its own (perfbench/go.mod), so the
# root `go build ./...` never compiles it: vet and test it separately.
perfbench-check:
	cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...

verify:
	sh scripts/verify.sh

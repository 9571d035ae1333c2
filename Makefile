# Standard entry points; `make verify` is the gate a change must pass.

.PHONY: build test race cover bench fuzz-smoke fault-smoke failover-smoke scale-smoke telemetry-smoke analyze-smoke explain-smoke watch-smoke chaos-smoke daemon-smoke perfbench-check verify

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

# The root micro-benchmarks (adaptive step, flight recorder, series tick,
# all-scenario replay, daemon serve loop). Paper results come from
# cmd/experiments, pinned by internal/exp's golden files; end-to-end timing
# comes from perfbench/.
bench:
	go test -run '^$$' -bench . -benchmem .

# Short fuzzing sessions for the workload parser, the alert-rules parser,
# the daemon's step body and the stretch class-row builder (the seed
# corpora alone run as part of `make test`; this explores beyond them).
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzRead -fuzztime 5s ./internal/ctgio
	go test -run '^$$' -fuzz FuzzParseRules -fuzztime 5s ./internal/series
	go test -run '^$$' -fuzz FuzzStepBody -fuzztime 5s ./internal/serve
	go test -run '^$$' -fuzz FuzzClassRows -fuzztime 5s ./internal/stretch

# Fault-injection campaign on the MPEG + cruise workloads.
fault-smoke:
	go run ./cmd/experiments -exp faults

# Failover campaign: adaptive re-mapping vs a static schedule under PE
# outages, on the mpeg/wlan/cruise workloads.
failover-smoke:
	go run ./cmd/experiments -exp failover

# Bounded run of the scaling campaign (one 10^3-task cell, warm vs full).
scale-smoke:
	go run ./cmd/experiments -exp scale -scale-instances 24

# Fault campaign with the Chrome trace export, validated by checktrace.
telemetry-smoke:
	go run ./cmd/experiments -exp faults -trace-out /tmp/ctgdvfs_trace.json
	go run ./scripts/checktrace /tmp/ctgdvfs_trace.json

# Daemon chaos campaign: panic isolation, request floods and a kill-restart
# cycle against an in-process baseline/chaos daemon pair.
chaos-smoke:
	go run ./cmd/experiments -exp daemon

# End-to-end daemon smoke: build the real ctgschedd binary, submit the mpeg
# tenant over HTTP, SIGKILL it mid-run, restart on the same checkpoint
# directory and verify the resume is bit-for-bit.
daemon-smoke:
	go run ./scripts/daemonsmoke

# End-to-end health pipeline: capture a JSONL event stream from the telemetry
# example, then run the offline analyzer over it.
analyze-smoke:
	go run ./examples/telemetry -events-out /tmp/ctgdvfs_events.jsonl -trace-out /tmp/ctgdvfs_example_trace.json >/dev/null
	go run ./cmd/ctgsched analyze /tmp/ctgdvfs_events.jsonl

# End-to-end provenance pipeline: capture the fault campaign's event streams,
# then reconstruct causal chains from them.
explain-smoke:
	go run ./cmd/experiments -exp faults -events-out /tmp/ctgdvfs_prov >/dev/null
	go run ./cmd/ctgsched explain -list /tmp/ctgdvfs_prov-mpeg.jsonl
	go run ./cmd/ctgsched explain -kind reschedule /tmp/ctgdvfs_prov-mpeg.jsonl

# End-to-end monitoring pipeline: run the fault campaign with alert rules and
# series capture, walk an alert's cause chain, and render the stores in the
# watch view; then arm the default health rules, which alert on the manager's
# gauges, on a 3x-overrun campaign and report their firings.
watch-smoke:
	go run ./cmd/experiments -exp faults -rules examples/watch/rules.json -series-out /tmp/ctgdvfs_series -events-out /tmp/ctgdvfs_mon >/dev/null
	go run ./cmd/ctgsched explain -kind alert_firing /tmp/ctgdvfs_mon-mpeg.jsonl
	go run ./cmd/ctgsched watch -dump /tmp/ctgdvfs_series-mpeg.json
	printf '{"perturb": {"seed": 42, "overrun_prob": 0.2, "overrun_factor": 3}}\n' >/tmp/ctgdvfs_overrun.json
	go run ./cmd/experiments -exp faults -faults-spec /tmp/ctgdvfs_overrun.json -rules examples/watch/health.json -events-out /tmp/ctgdvfs_hl >/dev/null
	go run ./cmd/ctgsched analyze /tmp/ctgdvfs_hl-mpeg.jsonl | grep -E '^health report: .*, [1-9][0-9]* alerts$$'

# The benchmark harness is a Go module of its own (perfbench/go.mod), so the
# root `go build ./...` never compiles it: vet and test it separately.
perfbench-check:
	cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...

verify:
	sh scripts/verify.sh

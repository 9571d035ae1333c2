#!/bin/sh
# cover.sh — enforce per-package statement-coverage floors (make cover).
# The floors guard the packages the fault-tolerance, observability and
# serving work lean on hardest: the adaptive manager's degraded-mode
# re-mapping paths, the fault/failure timeline derivations, the telemetry
# event/recorder/provenance layer, the health analyzers plus the explain
# engine, and the scheduling daemon (admission, checkpoints, restore).
# Measured 89.0% / 93.0% / 91.7% / 88.6% / 78.3% when recorded. The hot
# path of every adaptive step — the stretch DP, the replay simulator and the
# DLS scheduler — is rewritten by performance work more often than anything
# else; it measured 97.8% / 98.4% / 94.4% when its floors were added, and
# internal/stretch 98.8% once its passes computed each value where it is
# read. After the unused exports were deleted they measured core 91.6%,
# faults 93.5%, telemetry 88.2%, health 88.6%, serve 82.3%, stretch 98.8%,
# sim 99.1% and sched 94.4%. The floors sit a few points under so routine
# refactors don't trip them, while a change that lands a meaningful
# untested branch does.
set -eu

cd "$(dirname "$0")/.."

check() {
    pkg="$1"
    floor="$2"
    out="$(go test -cover "$pkg")"
    echo "$out"
    pct="$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"
    if [ -z "$pct" ]; then
        echo "cover: no coverage reported for $pkg" >&2
        exit 1
    fi
    if [ "$(awk -v p="$pct" -v f="$floor" 'BEGIN{print (p < f) ? 1 : 0}')" = 1 ]; then
        echo "cover: $pkg coverage ${pct}% is below the ${floor}% floor" >&2
        exit 1
    fi
}

check ./internal/core 85
check ./internal/faults 90
check ./internal/telemetry 88
check ./internal/health 85
check ./internal/serve 75
check ./internal/stretch 95
check ./internal/sim 95
check ./internal/sched 91

echo "cover: OK"

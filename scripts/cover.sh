#!/bin/sh
# cover.sh — enforce per-package statement-coverage floors (make cover).
# The floors guard the packages the fault-tolerance, consolidation,
# observability and serving work lean on hardest: the adaptive manager's
# degraded-mode re-mapping paths, the fault/failure timeline derivations, the
# power-budget model/governor, the telemetry event/recorder/provenance layer,
# the health analyzers plus the explain engine, and the scheduling daemon
# (admission, checkpoints, restore). Measured 89.0% / 93.0% / 98.4% / 91.7% /
# 88.6% / 78.3% when recorded; the floors sit a few points under so routine
# refactors don't trip them, while a change that lands a meaningful untested
# branch does.
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
check ./internal/power 90
check ./internal/telemetry 88
check ./internal/health 85
check ./internal/serve 75

echo "cover: OK"

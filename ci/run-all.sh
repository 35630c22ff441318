#!/usr/bin/env bash
# The CI entry point: every gating job in one command.
#
# Runs, in order:
#   1. the tier-1 build + test suite (Release),
#   2. the paper claims: every experiments/*.ini that states
#      [claims], at full size (metro_sim exits 1 on a missed claim),
#   3. the engine-performance smoke against the committed baseline
#      (ci/bench-smoke.sh — catches hot-path regressions and a
#      broken scheduler wakeup protocol),
#   4. the serve soak smoke (ci/soak-smoke.sh — CLI-level
#      checkpoint/restore byte identity under a fault campaign
#      with concurrent planned maintenance),
#   5. the crash-injection torture sweep (ci/crash-torture.sh —
#      supervised crash/stall/mid-checkpoint-write recovery must
#      reproduce the uninterrupted stream byte-for-byte),
#   6. the ThreadSanitizer sweep job (ci/tsan-sweep.sh),
#   7. the ThreadSanitizer engine job (ci/tsan-engine.sh — the
#      sharded parallel engine's byte-identity suite and saturated
#      soak; shares the sanitizer build with the sweep job),
#   8. the AddressSanitizer fault soak (ci/asan-fault-soak.sh).
#
# Pass --quick to run only the tier-1 suite, the paper claims, the
# bench smoke, the serve soak, and a one-point-per-mode torture
# subset (the sanitizer jobs rebuild the world and dominate wall
# clock).
#
# Usage: ci/run-all.sh [--quick]

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi

echo "==> tier-1: build + ctest"
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-ci -j "$(nproc)"
ctest --test-dir build-ci --output-on-failure -j "$(nproc)"

echo "==> paper claims (experiments/*.ini, full size)"
for f in experiments/*.ini; do
    grep -q '^\[claims\]' "$f" || continue
    echo "--- $f"
    build-ci/tools/metro_sim --sweep-file="$f" --threads="$(nproc)" \
        > /dev/null
done

echo "==> bench smoke (committed baseline: BENCH_engine.json)"
ci/bench-smoke.sh build-ci

echo "==> serve soak smoke (checkpoint/restore byte identity)"
ci/soak-smoke.sh build-ci

if [[ "$QUICK" == "1" ]]; then
    echo "==> crash torture (quick subset)"
    ci/crash-torture.sh build-ci --quick
else
    echo "==> crash torture (full sweep)"
    ci/crash-torture.sh build-ci
fi

if [[ "$QUICK" == "0" ]]; then
    echo "==> tsan sweep"
    ci/tsan-sweep.sh
    echo "==> tsan engine"
    ci/tsan-engine.sh
    echo "==> asan fault soak"
    ci/asan-fault-soak.sh
fi

echo "==> all CI jobs passed"

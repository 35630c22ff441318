#!/usr/bin/env bash
# Overload soak for the retry subsystem under ThreadSanitizer.
#
# Builds with -DMETRO_TSAN=ON (same cache layout as tsan-sweep.sh —
# the build dir is shared by default so the two jobs reuse one
# compile), then:
#   1. runs the retry/backoff/admission/aging tests, including the
#      per-policy thread-count determinism sweep, under TSan;
#   2. runs experiments/congestion_collapse.ini across a worker per
#      core, which both soaks the parallel sweep runner past
#      saturation and checks the file's stability claim (>= 80% of
#      peak goodput at the point after the peak, 2x the saturating
#      injection rate, with exponential backoff + retry budget);
#   3. drives one bursty-MMPP overload point with heavy-tailed
#      (bounded-Pareto) message sizes and RPC fan-out through the
#      CLI — the service-level workload path under TSan at 4x the
#      saturating rate.
#
# Usage: ci/overload-soak.sh [build-dir]   (default: build-tsan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-tsan}"

cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMETRO_TSAN=ON
cmake --build "$BUILD" -j "$(nproc)" \
    --target metro_tests metro_sim
ctest --test-dir "$BUILD" --output-on-failure \
    -R 'Backoff|Retry|Admission|InflightGate|Workload'
"$BUILD"/tools/metro_sim --sweep-file=experiments/congestion_collapse.ini \
    --threads="$(nproc)" > /dev/null
"$BUILD"/tools/metro_sim --topology=fig1 --mode=open \
    --inject=0.16 --process=mmpp --burst-ratio=8 \
    --size-dist=pareto --size-min=4 --size-max=64 \
    --fanout=2 --class-mix=0.7,0.2,0.1 \
    --retry-policy=exponential --retry-budget=1 \
    --age-clamp=2000 --age-starve=6000 \
    --warmup=500 --measure=8000 \
    --engine-threads="$(nproc)" --csv

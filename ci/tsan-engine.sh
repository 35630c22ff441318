#!/usr/bin/env bash
# Tier-1 TSan job for the sharded parallel engine.
#
# Builds the test suite with -DCMAKE_BUILD_TYPE=RelWithDebInfo and
# -fsanitize=thread (the METRO_TSAN toggle), then runs the shard
# suite — the byte-identity property tests, the plan-structure
# tests, the mid-campaign removal test, the self-profile tests, and
# the saturated multi-thread soak (which keeps every worker
# contending on shared boundary lanes), the drivers-in-their-
# endpoint's-shard plan tests — the 1 → 4 → 1 mid-run
# thread-switch test, the tick-pool suite (the epoch hand-off,
# spin-then-park waits, the spin governor and resize), the
# staged-send byte-identity tests (fan-out groups, request-reply,
# admission sheds, MMPP, sessions, a corrupt endpoint link, and the
# serve stream with checkpoints cut across thread counts), plus the
# thread-parameterized quiescence equivalence tests, under
# ThreadSanitizer. Any unsynchronized access in the tick pool, the
# deferred-activation exchange, the staged ledger records, the
# chunked phase-2 commit, or the router and endpoint counter blocks
# (written by their shard, folded serially) fails the job.
#
# Usage: ci/tsan-engine.sh [build-dir]   (default: build-tsan)
# (Shares build-tsan with ci/tsan-sweep.sh by default: same
# toolchain flags, one sanitizer build.)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-tsan}"

cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMETRO_TSAN=ON
cmake --build "$BUILD" -j "$(nproc)" --target metro_tests
ctest --test-dir "$BUILD" --output-on-failure \
    -R 'Shard|EngineThreadSwitch|Pool|QuiescenceAtThreads|StagedIds'

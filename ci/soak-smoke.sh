#!/usr/bin/env bash
# Serve-mode soak smoke: checkpoint/restore byte identity at the
# CLI level, under a concurrent stochastic fault campaign.
#
# Runs the same serve scenario three ways:
#   1. one uninterrupted run, streaming windowed metrics JSONL;
#   2. the same run cut at a mid-run checkpoint (the process exits
#      at the checkpoint boundary, simulating a shutdown);
#   3. a fresh process restoring that checkpoint and serving the
#      remainder.
# The concatenation of (2)+(3)'s window streams must be
# byte-for-byte identical to (1)'s, and again when the restored
# process runs with a different --engine-threads. Window records
# carry every nonzero counter delta, and the serve loop asserts
# both word-conservation identities at every window boundary, so a
# byte-equal diff is a full end-to-end state check.
#
# A second leg repeats the check with the diagnosis engine masking
# a dead injection wire across the cut. Two more run the campaign on
# saturated fig3 at seeds 28 and 38, whose link churn fails and heals
# a link within one cycle (once a one-word conservation break).
#
# Finally the script checks from outside the process that serve state
# is O(live): on saturated fig3 the last periodic checkpoint file may
# be at most 1.1x the size of the first.
#
# Usage: ci/soak-smoke.sh [build-dir]   (default: build-ci)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-ci}"
SIM="$BUILD/tools/metro_sim"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

if [[ ! -x "$SIM" ]]; then
    cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build "$BUILD" -j "$(nproc)" --target metro_sim
fi

# A live campaign: link churn with corruption plus flaky links,
# active from cycle 1000 onward — the drain/restore paths must hold
# up while the fault surface keeps moving.
cat > "$WORK/campaign.fault" <<'EOF'
linkFailRate = 0.0008
linkHealRate = 0.008
corruptFraction = 0.25
flakyLinks = 2
flakyPeriod = 512
start = 1000
EOF

# soak NAME TOTAL CUT FLAGS...: the three-way check for one serve
# scenario.
soak() {
    local name="$1" total="$2" cut="$3"
    shift 3
    local dir="$WORK/$name"
    mkdir -p "$dir"

    echo "==> $name: uninterrupted reference ($total cycles)"
    "$SIM" "$@" --serve-cycles="$total" > "$dir/full.jsonl"

    echo "==> $name: run to checkpoint at $cut, then exit"
    "$SIM" "$@" --serve-cycles="$cut" \
        --checkpoint-out="$dir/cut.ckpt" --checkpoint-at="$cut" \
        > "$dir/pre.jsonl"

    echo "==> $name: restore and serve the remainder"
    "$SIM" "$@" --serve-cycles="$total" \
        --restore="$dir/cut.ckpt" > "$dir/post.jsonl"

    cat "$dir/pre.jsonl" "$dir/post.jsonl" > "$dir/resumed.jsonl"
    if ! diff -q "$dir/full.jsonl" "$dir/resumed.jsonl" > /dev/null
    then
        echo "FAIL: resumed window stream diverges from uninterrupted"
        diff "$dir/full.jsonl" "$dir/resumed.jsonl" | head -20
        exit 1
    fi
    echo "    resumed stream byte-identical"

    echo "==> $name: restore across engine thread counts"
    for T in 2 4; do
        "$SIM" "$@" --serve-cycles="$total" \
            --engine-threads="$T" --restore="$dir/cut.ckpt" \
            > "$dir/post-t$T.jsonl"
        if ! diff -q "$dir/post.jsonl" "$dir/post-t$T.jsonl" \
            > /dev/null
        then
            echo "FAIL: restore under --engine-threads=$T diverges"
            exit 1
        fi
    done
    echo "    cross-thread restores byte-identical"
}

soak "serve soak" 24576 12288 \
    --topology=fig1 --serve --window=1024 --think=200 \
    --fault-file="$WORK/campaign.fault" --maintain=2@4096+4096

# Diagnosis leg: link 0 is endpoint 0's injection wire. Diagnosis
# masks a dead injection wire at the endpoint (no router upstream to
# probe from), and the cut lands while that mask is live, so the
# restore must rebuild a mask that has no router-output wire entry.
printf 'fault = 0 linkDead 0\n' > "$WORK/inject.fault"
soak "diagnosis soak" 8192 2048 \
    --topology=fig1 --serve --window=1024 --think=20 --diagnosis \
    --fault-file="$WORK/inject.fault"

for SEED in 28 38; do
    soak "campaign seed $SEED" 40960 20480 \
        --topology=fig3 --serve --window=1024 --think=0 --diagnosis \
        --fault-file="$WORK/campaign.fault" --seed="$SEED"
done

echo "==> checkpoint size stays flat over 96 windows"
"$SIM" --topology=fig3 --serve --window=1024 --think=0 \
    --serve-cycles=98304 --checkpoint-every=8192 --checkpoint-keep=12 \
    --checkpoint-out="$WORK/flat.ckpt" > /dev/null
first=$(stat -c %s "$WORK/flat.ckpt.0")
last=$(stat -c %s "$WORK/flat.ckpt.11")
echo "    first checkpoint $first B (cycle 8192), last $last B (cycle 98304)"
if (( last * 10 > first * 11 )); then
    echo "FAIL: the last checkpoint is more than 1.1x the first"
    exit 1
fi

echo "==> serve soak passed"

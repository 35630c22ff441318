#!/bin/sh
# metro_sim --sweep-file on a copy of an experiment file: a claim
# flipped to miss exits 1 and is named MISSED while the other claim
# still holds; a malformed claim exits 2 naming its line.
#
# Usage: tests/claims_cli.sh METRO_SIM REPO_ROOT

set -u
sim=$1
experiments=$2/experiments
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
    echo "FAIL: $*"
    cat "$tmp/err"
    exit 1
}

cp "$experiments/ablation_fast_reclaim.ini" \
   "$experiments/fig3_detailed_reclaim.spec" "$tmp/"
sed 's/^fastCarriesMore = fast.load > detailed.load$/fastCarriesMore = fast.load < detailed.load/' \
    "$experiments/ablation_fast_reclaim.ini" > "$tmp/flipped.ini"
cmp -s "$tmp/flipped.ini" "$tmp/ablation_fast_reclaim.ini" &&
    fail "the operator flip did not apply"

run() {
    "$sim" --sweep-file="$1" --warmup=1000 --measure=3750 \
        >/dev/null 2>"$tmp/err"
}

run "$tmp/ablation_fast_reclaim.ini"
[ $? -eq 0 ] || fail "the unflipped copy should exit 0"

run "$tmp/flipped.ini"
[ $? -eq 1 ] || fail "a missed claim should exit 1"
grep -q '^claim fastCarriesMore MISSED: fast.load < detailed.load (' \
    "$tmp/err" || fail "the missed claim is not named"
grep -q '^claim fastIsQuicker held: ' "$tmp/err" ||
    fail "the untouched claim should still hold"

lines=$(wc -l < "$tmp/flipped.ini")
echo "broken = fast.load 0.5" >> "$tmp/flipped.ini"
run "$tmp/flipped.ini"
[ $? -eq 2 ] || fail "a malformed claim should exit 2"
grep -q "line $((lines + 1)): expected < <= > >= or == in claim broken" \
    "$tmp/err" || fail "the malformed claim's line is not named"
echo "claims_cli: ok"

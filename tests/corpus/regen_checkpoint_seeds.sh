#!/usr/bin/env bash
# Regenerate the checkpoint seed corpus (tests/corpus/checkpoint/)
# after a kCheckpointVersion bump: the two valid seeds are written by
# metro_sim's serve mode with the flag sets that
# tests/test_checkpoint_fuzz.cc and fuzz/fuzz_checkpoint.cc rebuild,
# and the corrupted seeds are derived from valid_fig1_serve.ckpt.
# Seeds named v<N>_* belong to older formats and are kept as they are.
#
# Usage: tests/corpus/regen_checkpoint_seeds.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/../.."

SIM="${1:-build}/tools/metro_sim"
OUT="$PWD/tests/corpus/checkpoint"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/diag_campaign.fault" <<'FAULTS'
linkFailRate = 0.0008
linkHealRate = 0.008
corruptFraction = 0.25
flakyLinks = 2
flakyPeriod = 512
start = 1000
fault = 500 linkDead 40
FAULTS

base=(--topology=fig1 --serve --window=1024 --think=200)
"$SIM" "${base[@]}" --serve-cycles=2048 --checkpoint-at=2048 \
    --checkpoint-out="$OUT/valid_fig1_serve.ckpt" > /dev/null
# The fault file is named relative to the working directory: its
# path is part of the config digest the seed carries.
(cd "$WORK" && "$OLDPWD/$SIM" "${base[@]}" --diagnosis \
    --fault-file=diag_campaign.fault --maintain=2@2048+4096 \
    --serve-cycles=4096 --checkpoint-at=4096 \
    --checkpoint-out="$OUT/valid_fig1_diag_serve.ckpt" > /dev/null)

python3 - "$OUT" <<'PY'
import struct, sys
out = sys.argv[1]
valid = open(f"{out}/valid_fig1_serve.ckpt", "rb").read()
payload = valid[:-20]

def fnv1a(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h

def blessed(p):
    """p with a valid integrity footer appended."""
    return p + struct.pack("<QQI", len(p), fnv1a(p), 0x4652544D)

def edit(p, offset, new):
    return p[:offset] + new + p[offset + len(new):]

seeds = {
    "bad_magic": blessed(edit(payload, 0, bytes([payload[0] ^ 0xFF]))),
    "bad_version": blessed(edit(payload, 4, struct.pack("<I", 999))),
    "footer_flipped": edit(valid, len(valid) - 10,
                           bytes([valid[-10] ^ 0x04])),
    "huge_count": blessed(edit(payload, 28, b"\xff" * 4)),
    "no_footer": payload,
    "truncated_half": valid[: len(valid) // 2],
    "truncated_tail": valid[:-7],
}
# A well-formed header over garbage sections: keep the garbage, take
# the current header.
garbage = open(f"{out}/garbage_after_header.ckpt", "rb").read()[:-20]
seeds["garbage_after_header"] = blessed(payload[:24] + garbage[24:])
for name, data in seeds.items():
    open(f"{out}/{name}.ckpt", "wb").write(data)
PY
echo "regenerated $OUT"

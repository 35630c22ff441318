#!/usr/bin/env python3
"""Build and run the METRO simulator benchmark.

Usage (from the repository root):

  python3 metrobench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 metrobench/run.py --workload all       # every workload, one process each
  python3 metrobench/run.py --self-test          # short check of the benchmark itself
  python3 metrobench/run.py --pin 0,1,2          # rewrite pinned.json for these seeds

The program is built from source on every call (an up-to-date build is a
no-op) under $CARGO_TARGET_DIR/metrobench, default .bench_build/metrobench.
Each workload runs in its own process. The last line printed is one JSON
object with the keys correct, attempted, failed and metrics; the metrics are
the end-to-end ones BENCHMARK.json names (--trace 0) or its per-layer ones
(--trace 1). See metrobench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
PINNED = HERE / "pinned.json"
WORKLOADS = ["fig3_sweep", "mb1024_saturated", "serve_checkpoint"]
# A seed no digest is pinned for: the self-test runs it to show an
# unpinned seed still runs clean.
HELD_OUT_SEED = 1000003
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def out_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = Path(base)
    return base if base.is_absolute() else ROOT / base


def build():
    """Configure (once) and build the benchmark; returns its path."""
    bdir = out_dir() / "metrobench"
    if not (bdir / "Makefile").exists():
        r = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(
        ["cmake", "--build", str(bdir), "-j", jobs, "--target",
         "metrobench"],
        stdout=sys.stderr, stderr=sys.stderr)
    binary = bdir / "metrobench"
    return binary if r.returncode == 0 and binary.exists() else None


def load_pins():
    with open(PINNED) as f:
        return json.load(f)


def run_one(binary, workload, seed, seconds, trace, expect=None):
    """Run one workload in its own process. Returns (human lines,
    parsed JSON of its last line) or raises RuntimeError."""
    work = out_dir() / "metrobench-work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work),
           "--trace-out", str(work / f"trace-{workload}-seed{seed}.json")]
    if expect:
        cmd += ["--expect-digest", expect]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} did not finish in "
                           f"{CHILD_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {r.returncode}")
    return lines[:-1], json.loads(lines[-1])


def select(result, names):
    """The metrics `names` from a child's result; raises when one is
    missing."""
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not reported: {', '.join(missing)}")
    return {n: metrics[n] for n in names}


def metric_names(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def expected_digest(workload, seed):
    return load_pins()["digests"].get(workload, {}).get(str(seed))


def run_workloads(binary, names, seed, seconds, trace):
    wanted = metric_names(trace)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        lines, res = run_one(binary, w, seed, seconds, trace,
                             expected_digest(w, seed))
        print("\n".join(lines), flush=True)
        metrics = select(res, wanted)
        total["correct"] = total["correct"] and bool(res["correct"])
        total["attempted"] += int(res["attempted"])
        total["failed"] += int(res["failed"])
        prefix = "" if len(names) == 1 else w + "."
        for k, v in metrics.items():
            total["metrics"][prefix + k] = v
    print(json.dumps(total), flush=True)


def self_test(binary):
    """Every workload briefly, traced and untraced; a held-out seed;
    a deliberately wrong pinned digest."""
    with open(SPEC) as f:
        spec = json.load(f)
    default_seed = load_pins()["default_seed"]
    problems = []

    def expect(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            problems.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            print(f"self-test: {w} trace {trace}", flush=True)
            lines, res = run_one(binary, w, default_seed, 1, trace,
                                 expected_digest(w, default_seed))
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       f"{w}: {m['name']} printed in {m['unit']}")
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] > 0,
                   f"{w}: failed_frac 0 ({res['failed']} of "
                   f"{res['attempted']})")
            expect(any("matches the pinned digest" in l for l in lines),
                   f"{w}: digest matches the pinned one")
            if trace:
                cov = res["metrics"]["trace.coverage"]["value"]
                expect(cov >= 0.95,
                       f"{w}: top-level spans cover {cov:.3f} of wall "
                       f"time (>= 0.95)")
                trace_file = (out_dir() / "metrobench-work" /
                              f"trace-{w}-seed{default_seed}.json")
                expect(trace_file.exists(), f"{w}: wrote {trace_file}")

    print("self-test: held-out seed", flush=True)
    lines, res = run_one(binary, "fig3_sweep", HELD_OUT_SEED, 0, 0)
    expect(res["correct"] and res["failed"] == 0,
           f"seed {HELD_OUT_SEED} runs clean")
    expect(any("unpinned" in l for l in lines),
           f"seed {HELD_OUT_SEED} digest reported as unpinned")

    print("self-test: wrong pinned digest", flush=True)
    _, res = run_one(binary, "fig3_sweep", default_seed, 0, 0,
                     "0123456789abcdef")
    expect(not res["correct"] and res["failed"] >= 1,
           "a wrong pinned digest is counted as a failure")

    print(f"self-test: {'PASSED' if not problems else 'FAILED'}",
          flush=True)
    return 0 if not problems else 1


def pin(binary, seeds):
    pins = load_pins() if PINNED.exists() else {"default_seed": 1}
    digests = {}
    for w in WORKLOADS:
        digests[w] = {}
        for s in seeds:
            _, res = run_one(binary, w, s, 0, 0)
            if not res["correct"]:
                raise RuntimeError(f"{w} seed {s} is not clean")
            digests[w][str(s)] = res["digest"]
            log(f"{w} seed {s}: {res['digest']}")
    pins["digests"] = digests
    with open(PINNED, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", metavar="SEEDS")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.pin):
        ap.error("one of --workload, --self-test, --pin is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    try:
        if args.self_test:
            return self_test(binary)
        if args.pin:
            return pin(binary, [int(s) for s in args.pin.split(",")])
        seed = args.seed if args.seed is not None else \
            load_pins()["default_seed"]
        if args.seconds is not None:
            seconds = args.seconds
        else:
            with open(SPEC) as f:
                seconds = json.load(f)["run_seconds"]
        names = WORKLOADS if args.workload == "all" else [args.workload]
        run_workloads(binary, names, seed, seconds, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

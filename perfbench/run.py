#!/usr/bin/env python3
"""ParaMount benchmark entry point.

    python3 perfbench/run.py --workload convoy-8 --seed 3 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/ (the benchmark package,
which compiles the library from src/) in Release into $CARGO_TARGET_DIR or
.bench_build, runs pmbench for one workload and seed, and checks its result.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the separate traced run (and writes its spans as a Chrome trace).

Every run writes one result record under .bench_out/results/ carrying the
shared header (commit, build type, compiler, nproc, kernel, seed, sample
counts); perfbench/compare.py compares two sets of them. The last line of
standard output is the JSON result object. The exit code is 0 only when
every operation passed the oracle checks and every metric was measured.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense-fanin", "convoy-8", "convoy-64", "race-hotvar")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds pmbench; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pmbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"run.py: build step failed: {exc}")
            return None
        if proc.returncode != 0:
            log(f"run.py: build step failed ({proc.returncode}): {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "pmbench")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [m["name"] for m in section]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the measured code
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def parse_output(text):
    """pmbench's `metric`, `ops`, `info` and `fail` lines."""
    metrics, info, failures, passes = {}, {}, [], {}
    attempted = failed = None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric" and len(parts) == 5:
            metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3],
                                 "samples": int(parts[4])}
        elif parts[0] == "ops" and len(parts) == 3:
            attempted, failed = int(parts[1]), int(parts[2])
        elif parts[0] == "info" and len(parts) >= 3:
            info[parts[1]] = " ".join(parts[2:])
        elif parts[0] == "fail":
            failures.append(line[5:])
        elif parts[0] == "samples" and len(parts) >= 3:
            passes[parts[1]] = [float(x) for x in parts[2:]]
    return metrics, info, failures, passes, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="trace size multiplier (smoke tests)")
    ap.add_argument("--fault", default="", choices=("", "corrupt-trace", "wrong-count"),
                    help="test hook: inject a defect the gate must catch")
    ap.add_argument("--out-dir", default=os.path.join(ROOT, ".bench_out"))
    args = ap.parse_args()

    names = expected_metrics(args.trace)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = build(os.path.abspath(build_dir))
    if binary is None:
        return 2

    os.makedirs(os.path.join(args.out_dir, "results"), exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--scale={args.scale}", f"--out-dir={os.path.relpath(args.out_dir)}"]
    if args.fault:
        cmd.append(f"--fault={args.fault}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: pmbench exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(proc.stderr)
    metrics, info, failures, passes, attempted, failed = parse_output(proc.stdout)
    if attempted is None or proc.returncode not in (0, 1):
        log(f"run.py: pmbench ended abnormally (exit {proc.returncode})")
        sys.stderr.write(proc.stdout)
        return 3

    missing = [n for n in names if n not in metrics or
               not math.isfinite(metrics[n]["value"])]
    correct = failed == 0 and not missing and proc.returncode == 0
    header = {
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": info.get("build_type", "unknown"),
        "compiler": info.get("compiler", "unknown"),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "samples": {n: m["samples"] for n, m in metrics.items()},
    }
    record = {"header": header, "info": info, "correct": correct,
              "attempted": attempted, "failed": failed, "failures": failures,
              "metrics": metrics, "pass_samples": passes}
    path = os.path.join(args.out_dir, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"events={info.get('events')} states={info.get('states')} "
          f"compiler={header['compiler']} build={header['build_type']}")
    for failure in failures:
        print(f"# FAIL {failure}")
    for name in missing:
        print(f"# MISSING metric {name}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(f"failed_frac = {failed / max(1, attempted):.6g} ratio "
          f"(n={attempted})")
    print(f"# result record: {os.path.relpath(path, ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names if n in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

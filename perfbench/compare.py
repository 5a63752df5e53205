#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds result records written by perfbench/run.py (its
.bench_out/results/). Runs are paired by workload, mode and seed, or by seed
order where the seeds differ. For every workload × metric the tool prints
each side's median and quartiles, the share of pairs the change won (ties
count for neither side), and a verdict:

  improved      the change won at least 9/10 of the pairs and the medians
                differ by more than the base's own spread (the distance
                between its quartiles), and no more operations failed
  worse         the change's median is worse than the base's by more than
                the metric's bound (end-to-end), or the base won at least
                9/10 of the pairs by more than its spread (per-layer)
  within bound  neither of the above, and the run-to-run spread is inside
                the bound, or every change run beat every base run
  unresolved    the spread is wider than the bound, or a per-layer metric
                (which has no bound) is neither improved nor worse

Exit status 1 if any end-to-end metric is worse, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WIN_SHARE = 0.9


def load(directory):
    """{(workload, trace): {seed: record}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        h = rec["header"]
        runs.setdefault((h["workload"], h["trace"]), {})[h["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, change):
    """Seed-matched pairs, else seed-ordered pairs."""
    common = sorted(set(base) & set(change))
    if len(common) >= min(len(base), len(change)):
        return [(base[s], change[s]) for s in common]
    return list(zip([base[s] for s in sorted(base)],
                    [change[s] for s in sorted(change)]))


def verdict(metric, base_vals, change_vals, won, lost, n_pairs, bound,
            more_failures):
    higher = metric["better"] == "higher"
    sign = 1.0 if higher else -1.0
    b_q1, b_med, b_q3 = quartiles(base_vals)
    c_q1, c_med, c_q3 = quartiles(change_vals)
    base_iqr = b_q3 - b_q1
    gain = sign * (c_med - b_med)  # > 0: the change is better
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = (min(change_vals) > max(base_vals) if higher
                  else max(change_vals) < min(base_vals))
    if n_pairs < 2:
        return "unresolved"
    if not more_failures and won >= WIN_SHARE * n_pairs and gain > base_iqr:
        return "improved"
    worse_share = -gain / abs(b_med) if b_med else 0.0
    if bound is None:
        if lost >= WIN_SHARE * n_pairs and -gain > base_iqr:
            return "worse"
        return "unresolved"
    if worse_share > bound:
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="directory of the base (parent) result records")
    ap.add_argument("change", help="directory of the change's result records")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(HERE),
                                                   "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}

    base, change = load(args.base), load(args.change)
    any_worse = False
    print(f"{'workload':12} {'metric':38} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'won':>7}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        matched = pairs(base[key], change[key])
        for b, c in matched:
            for field in ("build_type", "compiler", "nproc", "seconds", "scale"):
                if b["header"].get(field) != c["header"].get(field):
                    print(f"# warning: {workload}: {field} differs "
                          f"({b['header'].get(field)} vs {c['header'].get(field)})")
                    break
        failed_b = sum(b["failed"] for b, _ in matched)
        failed_c = sum(c["failed"] for _, c in matched)
        if failed_b or failed_c:
            print(f"# {workload}: failed operations base={failed_b} "
                  f"change={failed_c}")
        for metric in metrics[trace]:
            name = metric["name"]
            usable = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                      for b, c in matched
                      if name in b["metrics"] and name in c["metrics"]]
            if not usable:
                continue
            base_vals = [b for b, _ in usable]
            change_vals = [c for _, c in usable]
            higher = metric["better"] == "higher"
            won = sum(1 for b, c in usable if (c > b if higher else c < b))
            lost = sum(1 for b, c in usable if (c < b if higher else c > b))
            v = verdict(metric, base_vals, change_vals, won, lost, len(usable),
                        metric.get("bound"), failed_c > failed_b)
            any_worse = any_worse or (v == "worse" and trace == 0)
            b_q1, b_med, b_q3 = quartiles(base_vals)
            c_q1, c_med, c_q3 = quartiles(change_vals)
            delta = (c_med - b_med) / abs(b_med) if b_med else float("nan")
            base_col = f"{b_med:.5g} [{b_q1:.4g}, {b_q3:.4g}]"
            change_col = f"{c_med:.5g} [{c_q1:.4g}, {c_q3:.4g}]"
            print(f"{workload:12} {name:38} {base_col:>32} {change_col:>32} "
                  f"{delta:>+8.1%} {won:>3}/{len(usable):<3}  {v}")
    only = sorted(set(base) ^ set(change))
    for workload, trace in only:
        print(f"# {workload} (trace={trace}) has runs on one side only")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

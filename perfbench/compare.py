#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl [--bench BENCHMARK.json]

Each file holds the records perfbench/run.py appends to
.bench_out/results.jsonl, one JSON object per run; copy that file aside
after measuring each commit. Timed runs (--trace 0) give the end-to-end
table: per workload, the median and quartiles of each metric over that
side's runs, the change of the median, and, with the bounds from
BENCHMARK.json, a verdict. Traced runs (--trace 1) give the per-layer
table: the median of each metric on each side and the change.

Verdicts follow perfbench/README.md: "worse" when the after-median is
worse than the before-median by more than the bound, "unresolved" when
either side's own spread (quartile distance over median) exceeds the
bound, otherwise "ok".
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def group(records, traced):
    out = {}
    for r in records:
        if bool(r.get("trace")) != traced:
            continue
        for name, m in r["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def change(before, after):
    if before == 0:
        return "n/a" if after != 0 else "0%"
    return f"{(after - before) / before * 100:+.1f}%"


def fmt(x):
    return f"{x:.4g}"


def cell(q):
    return f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"


def end_to_end(before, after, bounds):
    rows = []
    metrics = sorted({m for w in before.values() for m in w})
    for metric in metrics:
        bound, better = bounds.get(metric, (None, "lower"))
        rows.append(f"\n{metric}" + (f"  (bound {bound:.0%}, {better} is better)" if bound else ""))
        rows.append(f"  {'workload':14s} {'runs':>7s}  {'before median [q1, q3]':34s} "
                    f"{'after median [q1, q3]':34s} {'change':>8s}  verdict")
        for workload in sorted(set(before) & set(after)):
            b = before[workload].get(metric)
            a = after[workload].get(metric)
            if not b or not a:
                continue
            bq, aq = quartiles(b), quartiles(a)
            verdict = ""
            if bound:
                spread = max((q[2] - q[0]) / q[1] if q[1] else 0 for q in (bq, aq))
                worse = (aq[1] - bq[1]) / bq[1] if bq[1] else 0
                if better == "higher":
                    worse = -worse
                if spread > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                else:
                    verdict = "ok"
            rows.append(f"  {workload:14s} {len(b):>3d}/{len(a):<3d}  {cell(bq):34s} "
                        f"{cell(aq):34s} {change(bq[1], aq[1]):>8s}  {verdict}")
    return rows


def per_layer(before, after):
    rows = []
    metrics = sorted({m for w in before.values() for m in w})
    for metric in metrics:
        lines = []
        for workload in sorted(set(before) & set(after)):
            b = before[workload].get(metric)
            a = after[workload].get(metric)
            if not b or not a:
                continue
            bm, am = statistics.median(b), statistics.median(a)
            if bm == 0 and am == 0:
                continue
            lines.append(f"  {workload:14s} {fmt(bm):>12s} {fmt(am):>12s} {change(bm, am):>8s}")
        if lines:
            rows.append(f"\n{metric}")
            rows.extend(lines)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    default_bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                 "BENCHMARK.json")
    parser.add_argument("--bench", default=default_bench)
    args = parser.parse_args()
    bounds = {}
    if os.path.exists(args.bench):
        with open(args.bench) as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = (m["bound"], m["better"])
    before, after = load(args.before), load(args.after)
    failed = [r for r in before + after if not r.get("correct", False)]
    if failed:
        print(f"warning: {len(failed)} run(s) reported wrong answers", file=sys.stderr)
    print("END TO END (timed runs)")
    print("\n".join(end_to_end(group(before, False), group(after, False), bounds)))
    layers = per_layer(group(before, True), group(after, True))
    if layers:
        print("\nPER LAYER (traced runs): before median, after median, change")
        print("\n".join(layers))


if __name__ == "__main__":
    main()

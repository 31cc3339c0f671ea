"""Compare two benchmark result sets under BENCHMARK.json's bounds.

Usage::

    python3 perfbench/compare.py BASE HEAD [--benchmark BENCHMARK.json]

BASE and HEAD are ``results.jsonl`` files written by ``run.py`` (or
directories holding one), typically the parent commit's and a change's
runs made with the same benchmark code and ``--seconds``.  For each
workload and end-to-end metric it prints both sides' median and
quartiles over runs, the share of paired runs (same seed on both
sides) the change wins, and a verdict:

* ``worse``      the change's median is worse by more than the bound;
* ``better``     it wins at least 9 in 10 pairs and the medians differ
                 by more than the parent's own quartile spread;
* ``same``       neither;
* ``unresolved`` a side's quartile spread is wider than the bound, so
                 the runs cannot tell (unless every run of one side
                 beats every run of the other).

Results from different environment fingerprints (cpu count, Python,
platform), benchmark code or ``--seconds`` are compared but flagged.
A change that claims a gain must show it on seeds not used while the
change was written.  Exit status: 1 when any metric is ``worse``, 2 on
unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fraction of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def load(path: str) -> List[Dict[str, Any]]:
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_seed(records: List[Dict[str, Any]], workload: str, metric: str) -> Dict[int, float]:
    """Per-seed value (median if a seed ran more than once)."""
    values: Dict[int, List[float]] = {}
    for rec in records:
        if rec["workload"] == workload and not rec["trace"] and metric in rec["metrics"]:
            values.setdefault(rec["seed"], []).append(rec["metrics"][metric])
    return {seed: statistics.median(v) for seed, v in values.items()}


def verdict(
    base: Dict[int, float], head: Dict[int, float], better: str, bound: float
) -> Dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0  # positive delta = worse
    bq1, bmed, bq3 = quartiles(list(base.values()))
    hq1, hmed, hq3 = quartiles(list(head.values()))
    delta = sign * (hmed - bmed) / bmed
    base_spread = (bq3 - bq1) / bmed
    spread = max(base_spread, (hq3 - hq1) / hmed)
    seeds = sorted(set(base) & set(head))
    wins = sum(1 for s in seeds if sign * (head[s] - base[s]) < 0)
    share = wins / len(seeds) if seeds else float("nan")
    head_all_better = max(sign * v for v in head.values()) < min(sign * v for v in base.values())
    head_all_worse = min(sign * v for v in head.values()) > max(sign * v for v in base.values())
    if spread > bound and not (head_all_better or head_all_worse):
        word = "unresolved"
    elif delta > bound:
        word = "worse"
    elif -delta > base_spread and share >= WIN_SHARE:
        word = "better"
    else:
        word = "same"
    return {
        "base": (bq1, bmed, bq3),
        "head": (hq1, hmed, hq3),
        "delta": delta,
        "pairs": len(seeds),
        "win_share": share,
        "verdict": word,
    }


def distinct(records: List[Dict[str, Any]], field: str) -> List[str]:
    return sorted({json.dumps(r.get(field), sort_keys=True) for r in records})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument(
        "--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    )
    args = parser.parse_args(argv)
    try:
        base, head = load(args.base), load(args.head)
        with open(args.benchmark) as fh:
            spec = json.load(fh)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    envs = distinct(base + head, "env")
    if len(envs) > 1:
        print("WARNING: environment fingerprints differ; these numbers are not comparable:")
        for env in envs:
            print(f"  {env}")
    for field, what in (("bench_digest", "benchmark code"), ("seconds", "--seconds")):
        if len(distinct(base + head, field)) > 1:
            print(f"WARNING: the runs differ in {what}; compare like with like")
    regressions = 0
    header = (
        f"{'workload':10s} {'metric':14s} {'base q1/med/q3':>32s} "
        f"{'head q1/med/q3':>32s} {'delta':>8s} {'bound':>6s} {'pairs':>5s} {'wins':>5s}  verdict"
    )
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, h = by_seed(base, workload, name), by_seed(head, workload, name)
            if not b or not h:
                continue
            v = verdict(b, h, metric["better"], metric["bound"])
            regressions += v["verdict"] == "worse"
            flag = " (env differs)" if len(envs) > 1 else ""
            print(
                f"{workload:10s} {name:14s} "
                f"{'/'.join(f'{x:.4g}' for x in v['base']):>32s} "
                f"{'/'.join(f'{x:.4g}' for x in v['head']):>32s} "
                f"{v['delta']:>+8.3f} {metric['bound']:>6.2f} {v['pairs']:>5d} "
                f"{v['win_share']:>5.2f}  {v['verdict']}{flag}"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

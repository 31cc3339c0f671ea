"""The repository benchmark: one command, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 30 --trace 0

Each workload iteration runs in a fresh ``worker.py`` process, so peak
RSS and caches belong to that iteration alone.  Iterations repeat in
rounds until ``--seconds`` have passed (at least one round); round
``k`` runs the program on inputs made from :func:`input_seed` of the
run's seed, so one run covers several inputs and the same ``--seed``
always gives the same sequence.  Each metric is the median over the
run's iterations; times are scaled to a reference host speed measured
inside every worker (``hostspeed.py``), and the unscaled medians are
printed and stored beside them.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs an untraced and a traced
iteration per round and reports the per-layer metrics plus the tracing
overhead (traced minus untraced wall time).

Output checks (see ``workloads.py``) count into ``failed``; the
deterministic result row, and with ``--trace 1`` every per-layer count,
must also repeat across iterations and across runs of the same code at
the same input seed.  The last stdout line is the JSON result; the exit
status is 1 when any check failed and 2 when the benchmark cannot run
at all (for example, no ``src/repro`` beside it).  Each run appends its
full record, with the environment fingerprint, to
``.perfbench_out/results.jsonl``; ``compare.py`` reads those files.
See METRICS.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics: name -> (unit, better).  Names are frozen.
E2E = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "cells_per_s": ("1/s", "higher"),
}

#: Per-layer metrics of the traced run: name -> unit.  Names are frozen.
PER_LAYER = {
    "topogen.build_s": "s",
    "routing.fib_s": "s",
    "routing.fib_entries": "count",
    "routing.lookups": "count",
    "routing.lookup_s": "s",
    "addressing.str_calls": "count",
    "addressing.str_s": "s",
    "sim.events": "count",
    "sim.peak_heap": "count",
    "sim.compactions": "count",
    "sim.self_s": "s",
    "link.transmits": "count",
    "link.transmit_s": "s",
    "link.drops": "count",
    "link.s": "s",
    "node.receive_s": "s",
    "node.app_deliveries": "count",
    "pimdm.data_calls": "count",
    "pimdm.data_s": "s",
    "pimdm.control_pkts": "count",
    "pimdm.sg_peak": "count",
    "pimdm.s": "s",
    "mld.s": "s",
    "mld.control_pkts": "count",
    "mipv6.s": "s",
    "mipv6.control_pkts": "count",
    "mipv6.bindings_peak": "count",
    "traffic.recomputes": "count",
    "traffic.recompute_s": "s",
    "traffic.probes": "count",
    "trace.records": "count",
    "trace.record_s": "s",
    "trace.retained": "count",
    "campaign.executed": "count",
    "campaign.failed": "count",
    "campaign.retries": "count",
    "campaign.busy_s": "s",
    "campaign.util": "frac",
    "tracing.overhead_s": "s",
    "tracing.overhead_frac": "frac",
}

#: A run never starts an iteration that could end past this (seconds).
RUN_LIMIT_S = 170.0
ITERATION_TIMEOUT_S = 165.0


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


def env_fingerprint() -> Dict[str, Any]:
    """Results are comparable only between equal fingerprints."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def tree_digest(*roots: str) -> str:
    """Digest of the ``.py`` files under ``roots`` (paths included)."""
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, CHECKOUT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def check_benchmark_file() -> None:
    """BENCHMARK.json must name exactly the metrics this file reports,
    and only workloads it knows."""
    path = os.path.join(CHECKOUT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec.get("end_to_end", [])}
    layers = {m["name"] for m in spec.get("per_layer", [])}
    names = {w["name"] for w in spec.get("workloads", [])}
    if e2e != set(E2E) or layers != set(PER_LAYER) or not names <= set(WORKLOADS):
        raise BenchError("BENCHMARK.json and perfbench/run.py name different metrics or workloads")


# ----------------------------------------------------------------------
# one iteration
# ----------------------------------------------------------------------
def run_iteration(
    workload: str, seed: int, traced: bool, out_dir: str, index: int
) -> Dict[str, Any]:
    scratch = os.path.join(out_dir, "tmp", f"{os.getpid()}-{index}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    out = os.path.join(scratch, "result.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        workload,
        str(seed),
        "1" if traced else "0",
        out,
        scratch,
    ]
    proc = subprocess.Popen(
        cmd,
        cwd=CHECKOUT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=ITERATION_TIMEOUT_S)
        crash = None if proc.returncode == 0 else stderr.decode(errors="replace")[-2000:]
    except subprocess.TimeoutExpired:
        crash = f"iteration exceeded {ITERATION_TIMEOUT_S}s"
    finally:
        _stop_group(proc)
    try:
        if crash is not None:
            return {"traced": traced, "errors": [f"worker failed: {crash}"]}
        with open(out) as fh:
            result = json.load(fh)
        spans = os.path.join(scratch, "spans.json")
        if os.path.exists(spans):
            os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
            os.replace(spans, os.path.join(out_dir, "spans", f"{workload}-seed{seed}.json"))
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever the worker left in its session, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def e2e_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    cells = result["campaign"]["cells"] or 1
    return {
        "wall_s": result["wall_s"],
        "setup_s": result["setup_s"],
        "run_s": result["run_s"],
        "events_per_s": result["events"] / result["run_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "cells_per_s": cells / result["wall_s"],
    }


def layer_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    agg = result["layers"]
    calls, charge = agg["calls"], agg["charge"]
    own, counts, peaks = agg["layer_self"], agg["counts"], agg["peaks"]
    camp = result["campaign"]

    def called(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    metrics = {
        "topogen.build_s": own.get("topogen", 0.0),
        "routing.fib_s": charge.get("routing.fib", 0.0),
        "routing.fib_entries": counts.get("fib_entries", 0),
        "routing.lookups": called("routing.RoutingTable.lookup"),
        "routing.lookup_s": charge.get("routing.lookup", 0.0),
        "addressing.str_calls": called(
            "addressing.Address.__str__", "addressing.Prefix.__str__"
        ),
        "addressing.str_s": charge.get("addressing.str", 0.0),
        "sim.events": counts.get("events", 0),
        "sim.peak_heap": peaks.get("heap", 0),
        "sim.compactions": counts.get("compactions", 0),
        "sim.self_s": own.get("sim", 0.0),
        "link.transmits": called("link.Link.transmit"),
        "link.transmit_s": charge.get("link.transmit", 0.0),
        "link.drops": counts.get("drops", 0),
        "link.s": own.get("link", 0.0),
        "node.receive_s": charge.get("node.receive", 0.0),
        "node.app_deliveries": called("node.Host.deliver_app_data"),
        "pimdm.data_calls": called("pimdm.PimDmEngine.on_multicast_data"),
        "pimdm.data_s": charge.get("pimdm.data", 0.0),
        "pimdm.control_pkts": counts.get("pim_pkts", 0),
        "pimdm.sg_peak": peaks.get("sg", 0),
        "pimdm.s": own.get("pimdm", 0.0),
        "mld.s": own.get("mld", 0.0),
        "mld.control_pkts": counts.get("mld_pkts", 0),
        "mipv6.s": own.get("mipv6", 0.0),
        "mipv6.control_pkts": counts.get("mipv6_pkts", 0),
        "mipv6.bindings_peak": peaks.get("bindings", 0),
        "traffic.recomputes": counts.get("recomputes", 0),
        "traffic.recompute_s": charge.get("traffic.recompute", 0.0),
        "traffic.probes": counts.get("probes", 0),
        "trace.records": called("trace.Tracer.record"),
        "trace.record_s": charge.get("trace.record", 0.0),
        "trace.retained": counts.get("retained", 0),
        "campaign.executed": camp["executed"],
        "campaign.failed": camp["failed"],
        "campaign.retries": camp["retries"],
        "campaign.busy_s": camp["busy_s"],
        # per-cell times are raw seconds, so the wall time is too
        "campaign.util": camp["busy_s"] / (result["jobs"] * result["raw"]["wall_s"]),
    }
    for name, unit in PER_LAYER.items():
        if unit == "count" and name in metrics:
            metrics[name] = int(round(metrics[name]))
    return metrics


# ----------------------------------------------------------------------
# repeat checks
# ----------------------------------------------------------------------
def repeat_check(out_dir: str, key: str, value: Any) -> Optional[str]:
    """``value`` must equal what earlier runs of this code stored under
    ``key``; the first run stores it."""
    path = os.path.join(out_dir, "repeat", key + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
        if stored != value:
            return f"{key}: differs from an earlier run of the same code and seed"
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(value, fh, sort_keys=True)
    return None


def layer_counts(result: Dict[str, Any]) -> Dict[str, int]:
    return {k: v for k, v in layer_metrics(result).items() if PER_LAYER[k] == "count"}


def input_seed(seed: int, k: int) -> int:
    """Seed of the program inputs in round ``k`` of a run: the run's
    own seed first, then distinct derived ones, so a run's median
    spans several inputs and the same seed always yields the same
    sequence."""
    return (seed + k * 1_000_003) % (2**31 - 1)


def median_metrics(rows: List[Dict[str, float]], names) -> Dict[str, float]:
    return {name: statistics.median(r[name] for r in rows) for name in names}


# ----------------------------------------------------------------------
def run(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "repro", "__init__.py")):
        raise BenchError(f"no src/repro package beside the benchmark in {CHECKOUT}")
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    check_benchmark_file()
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    # rows and counts must repeat only between runs of identical code
    digest = tree_digest(os.path.join(CHECKOUT, "src"), HERE)

    started = time.perf_counter()
    deadline = started + args.seconds
    results: List[Dict[str, Any]] = []
    longest = 0.0
    for k in itertools.count():
        inputs = input_seed(args.seed, k)
        for traced in ((False, True) if args.trace else (False,)):
            t0 = time.perf_counter()
            results.append(run_iteration(args.workload, inputs, traced, out_dir, len(results)))
            longest = max(longest, time.perf_counter() - t0)
        now = time.perf_counter()
        per_round = longest * (2 if args.trace else 1)
        if now >= deadline or now - started + per_round > RUN_LIMIT_S:
            break

    # output checks, then repeat checks per input seed
    errors: List[str] = []
    bad = set()
    for i, r in enumerate(results):
        if r["errors"]:
            bad.add(i)
            errors.extend(r["errors"])
    by_input: Dict[int, List[int]] = {}
    for i, r in enumerate(results):
        if i not in bad:
            by_input.setdefault(r["seed"], []).append(i)
    for inputs, idxs in by_input.items():
        tag = f"{args.workload}-seed{inputs}-{digest[:16]}"
        rows = {results[i]["row_digest"] for i in idxs}
        if len(rows) > 1:
            problem = f"result row differs between iterations at seed {inputs}"
        else:
            problem = repeat_check(out_dir, f"{tag}-row", rows.pop())
        for i in idxs:
            if results[i]["traced"] and not problem:
                problem = repeat_check(out_dir, f"{tag}-counts", layer_counts(results[i]))
        if problem:
            errors.append(problem)
            bad.update(idxs)
    good = [r for i, r in enumerate(results) if i not in bad]

    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics: Dict[str, Dict[str, Any]] = {}
    medians: Dict[str, float] = {}
    if args.trace and plain and traced:
        per_iter = [layer_metrics(r) for r in traced]
        medians = median_metrics(per_iter, [k for k in PER_LAYER if not k.startswith("tracing.")])
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        medians["tracing.overhead_s"] = traced_wall - plain_wall
        medians["tracing.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        metrics = {k: {"value": medians[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    elif not args.trace and plain:
        medians = median_metrics([e2e_metrics(r) for r in plain], E2E)
        metrics = {k: {"value": medians[k], "unit": E2E[k][0]} for k in E2E}
    raw = {}
    if plain:
        raw = median_metrics([r["raw"] for r in plain], ("wall_s", "setup_s", "run_s"))
        raw.update(median_metrics([r["speed"] for r in plain], ("setup_scale", "run_scale")))

    attempted = len(results)
    failed = len(bad)
    correct = failed == 0
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_fingerprint(),
        "code_digest": digest,
        "bench_digest": tree_digest(HERE),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": errors,
        "metrics": medians,
        "raw": raw,
        "iterations": [
            {k: v for k, v in r.items() if k != "layers"} for r in results
        ],
    }
    with open(os.path.join(out_dir, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {attempted}  failed_frac {failed / attempted:.3f}")
    for message in errors:
        print(f"  check failed: {message.strip().splitlines()[-1]}")
    for name, entry in metrics.items():
        print(f"  {name:24s} {entry['value']:>16.6g} {entry['unit']}")
    if raw:
        print(f"  unscaled: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s, "
              f"run_s {raw['run_s']:.6g} s; host-speed scale {raw['setup_scale']:.4g} "
              f"(setup), {raw['run_scale']:.4g} (run)")
    if not metrics:
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of: " + ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(CHECKOUT, ".perfbench_out"),
                        help="directory for results.jsonl, spans and repeat records")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

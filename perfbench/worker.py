"""One workload iteration in a fresh process (peak RSS is its alone).

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE OUT_JSON SCRATCH_DIR

The clock and the host-speed probe (``hostspeed.py``) start before
``repro`` is imported, so import time counts as set-up.  Times are
reported scaled to the reference host, with the raw seconds beside
them.  Writes one JSON object to OUT_JSON; exits 0 even when an
output check fails (the result says so), non-zero only on a crash.
"""

from time import perf_counter

T_START = perf_counter()

import hostspeed  # noqa: E402

hostspeed.start()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def main(argv) -> int:
    name, seed, traced, out, scratch = argv[0], int(argv[1]), argv[2] == "1", argv[3], argv[4]
    sys.path.insert(0, os.path.join(CHECKOUT, "src"))
    import probes
    import workloads

    channel = os.path.join(scratch, "channel")
    os.makedirs(channel)
    rec = probes.install(traced, channel)
    outcome = workloads.WORKLOADS[name](seed, CHECKOUT, scratch)
    t_end = perf_counter()
    hostspeed.stop()

    try:
        errors = outcome.check()
    except Exception:  # noqa: BLE001 - a failed check is a result, not a crash
        errors = [traceback.format_exc(limit=3)]
    agg = probes.collect(rec)
    events = int(agg["counts"].get("events", 0))
    if outcome.events >= 0 and outcome.events != events:
        errors.append(f"kernel probe counted {events} events, program reports {outcome.events}")
    if rec.first_dispatch is None:
        errors.append("no simulated event was dispatched")
        first = t_end
    else:
        first = rec.first_dispatch
    # setup and run are scaled by the host speed sampled in each phase
    speed = hostspeed.samples + [tuple(s) for s in agg.pop("speed", [])]
    setup_scale = hostspeed.scale(speed, until=first)
    run_scale = hostspeed.scale(speed, since=first)
    setup_s = (first - T_START) * setup_scale
    run_s = (t_end - first) * run_scale
    result = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "errors": errors,
        "row_digest": workloads.row_digest(outcome.row),
        "jobs": outcome.jobs,
        "wall_s": setup_s + run_s,
        "setup_s": setup_s,
        "run_s": run_s,
        "raw": {"wall_s": t_end - T_START, "setup_s": first - T_START, "run_s": t_end - first},
        "speed": {"setup_scale": setup_scale, "run_scale": run_scale, "samples": len(speed)},
        "events": events,
        "peak_rss_mb": agg["maxrss_kb"] / 1024.0,
        "campaign": _campaign(rec),
    }
    if traced:
        result["layers"] = agg
        probes.write_spans(rec, os.path.join(scratch, "spans.json"))
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


def _campaign(rec) -> dict:
    results = rec.campaign_results
    executed = [o for r in results for o in r.outcomes if not o.cached]
    return {
        "cells": sum(len(r) for r in results),
        "executed": sum(r.executed for r in results),
        "failed": sum(r.failed for r in results),
        "retries": sum(r.retries for r in results),
        "busy_s": sum(o.elapsed for o in executed),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's workloads, each built only from ``repro``'s
public API and the benchmark seed.  Why each exists: METRICS.md.

Every workload returns an :class:`Outcome`: the simulated event count
the program itself reports (cross-checked against the kernel probe),
a deterministic *row* — the workload's result without wall-clock
fields — and an output check that runs after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

@dataclass
class Outcome:
    events: int
    #: deterministic result, hashed to check it repeats at one seed
    row: Any
    #: returns a list of failed-check messages (empty: outputs correct)
    check: Callable[[], List[str]]
    #: campaign jobs used (cmp43), else 1
    jobs: int = 1


def row_digest(row: Any) -> str:
    text = json.dumps(row, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _fig2(seed: int, checkout: str, scratch: str) -> Outcome:
    """The per-packet data plane on the paper's own topology."""
    from repro.core.scenario import PaperScenario, ScenarioConfig
    from repro.core.strategies import LOCAL_MEMBERSHIP
    from repro.obs import digest_events

    sc = PaperScenario(ScenarioConfig(seed=seed, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(330.0)
    events = sc.net.tracer.events
    trace = {"events": len(events), "digest": None}

    def check() -> List[str]:
        trace["digest"] = digest_events(events)
        errors = []
        if seed == 0:
            path = os.path.join(checkout, "tests", "goldens", "fig2-seed0.json")
            with open(path) as fh:
                golden = json.load(fh)
            if (golden["events"], golden["digest"]) != (trace["events"], trace["digest"]):
                errors.append("fig2 seed 0 trace digest differs from the committed golden")
        else:
            if sc.join_delay("R3", 40.0) is None:
                errors.append(f"fig2 seed {seed}: join delay not measured")
            if sc.leave_delay("L4", 40.0) is None:
                errors.append(f"fig2 seed {seed}: leave delay not measured")
        return errors

    return Outcome(events=sc.net.sim.events_dispatched, row=trace, check=check)


def _cell_check(row: Dict[str, Any], **expect: Any) -> Callable[[], List[str]]:
    def check() -> List[str]:
        errors = [
            f"{key} = {row.get(key)!r}, expected {value!r}"
            for key, value in expect.items()
            if row.get(key) != value
        ]
        if not row.get("events"):
            errors.append("no simulated events")
        return errors

    return check


def _hier1110(seed: int, checkout: str, scratch: str) -> Outcome:
    """The 1,110-router FIB build and linear-scan lookups.  Runnable by
    name but not in BENCHMARK.json: one ~35 s iteration per run, and a
    seeded move count, leave its run_s spread near 0.3."""
    from repro.core.scalestudy import scale_cell

    row = scale_cell(
        model="hier",
        model_params={"depth": 3, "fanout": 10},
        receivers=500,
        groups=1,
        mobility=0.05,
        seed=seed,
        warmup=8.0,
        duration=20.0,
        check_invariants=False,
    )
    check = _cell_check(row, routers=1110, receivers=500)

    def moved_check() -> List[str]:
        return check() + ([] if row.get("moves") else ["no receiver moves"])

    return Outcome(events=row["events"], row=row, check=moved_check)


def _fluid1m(seed: int, checkout: str, scratch: str) -> Outcome:
    """Rate integration and an MLD join storm for 10^6 receivers.  No
    mobility: the seeded move count would make the work itself vary by
    about 13% between seeds."""
    from repro.core.fluidstudy import fluid_cell

    row = fluid_cell(
        model="hier",
        model_params={"depth": 3, "fanout": 5},
        receivers=1000,
        receiver_weight=1000,
        mobility=0.0,
        seed=seed,
        warmup=8.0,
        duration=30.0,
    )
    check = _cell_check(row, routers=155, receivers=1_000_000, moves=0)

    def fluid_check() -> List[str]:
        errors = check()
        if not row.get("traffic", {}).get("recomputes"):
            errors.append("fluid engine never recomputed its rate table")
        return errors

    return Outcome(events=row["events"], row=row, check=fluid_check)


def _cmp43(seed: int, checkout: str, scratch: str) -> Outcome:
    """The campaign engine: pool, pickling, cache writes, load balance."""
    from repro.campaign import CampaignRunner
    from repro.core.comparison import run_full_comparison

    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cache_dir = os.path.join(scratch, "campaign-cache")
    os.makedirs(cache_dir)
    runner = CampaignRunner(jobs=jobs, cache_dir=cache_dir, master_seed=seed)
    report = run_full_comparison(seed, runner=runner)
    row = {
        "receiver_rows": report.receiver_rows,
        "sender_rows": report.sender_rows,
        "join_study_rows": report.join_study_rows,
        "claims": report.claims,
    }

    def check() -> List[str]:
        errors = []
        result = runner.last_result
        if result is None or result.executed != 11:
            errors.append("expected 11 executed cells on a cold cache")
        else:
            result.require_success()
        if not report.all_claims_hold:
            failed = [name for name, ok, _ in report.claims if not ok]
            errors.append(f"section 4.3 claims do not hold: {failed}")
        return errors

    # cells run in worker processes: their events come from the probes
    return Outcome(events=-1, row=row, check=check, jobs=jobs)


WORKLOADS: Dict[str, Callable[[int, str, str], Outcome]] = {
    "fig2": _fig2,
    "hier1110": _hier1110,
    "fluid1m": _fluid1m,
    "cmp43": _cmp43,
}

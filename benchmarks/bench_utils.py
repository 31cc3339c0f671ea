"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment from DESIGN.md §5, prints
the rows/series the paper reports, and saves them under
``benchmarks/results/`` so EXPERIMENTS.md can reference concrete runs.
Scenario benchmarks execute once (``once``): they are full simulations
whose wall-time is reported by pytest-benchmark but whose *product* is
the experiment table.
"""

from __future__ import annotations

import gc
import statistics
from pathlib import Path
from typing import Any, Callable, Tuple

RESULTS_DIR = Path(__file__).parent / "results"


def save_report(name: str, text: str) -> None:
    """Print the experiment report and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def once(benchmark, fn, *args, **kwargs):
    """Run a full-simulation benchmark exactly once."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def paired_overhead(
    run: Callable[[bool], Tuple[float, Any]], pairs: int = 7
) -> Tuple[float, float, float, Any, Any]:
    """Observer overhead as the median of per-pair on/off time ratios.

    ``run(on)`` executes one workload with the observer attached (or
    not) and returns ``(seconds, payload)``.  Each pair runs off and on
    back to back, the order alternating between pairs, so a drift in
    host speed hits both sides alike; the median ratio then discounts
    the pairs a noisy neighbour landed on.  The previous run's cyclic
    garbage is collected before each run, so no run pays for another's.
    Returns ``(overhead, off_s, on_s, payload_off, payload_on)``: the
    median ratio minus one, the median off and on times, and the
    payloads of the last runs.
    """
    ratios = []
    off_times, on_times = [], []
    payloads = {}
    for i in range(pairs):
        for on in (False, True) if i % 2 == 0 else (True, False):
            payloads.pop(on, None)
            gc.collect()
            seconds, payloads[on] = run(on)
            (on_times if on else off_times).append(seconds)
        ratios.append(on_times[-1] / off_times[-1])
    return (
        statistics.median(ratios) - 1.0,
        statistics.median(off_times),
        statistics.median(on_times),
        payloads[False],
        payloads[True],
    )

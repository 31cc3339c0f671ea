"""EXP-I1 — invariant-oracle overhead on a §4.3 comparison run.

The runtime protocol invariant oracles (docs/ROBUSTNESS.md) are
passive trace listeners; arming them must cost < 5% of end-to-end
runtime on a real experiment.  Measured on the §4.3 receiver-mobility
row (the Figure 2 scenario measured through
``repro.core.comparison.receiver_mobility_run``), as the median on/off
time ratio over 7 alternating pairs with the monitor attached vs not.
The same runs double as a correctness check: zero violations, and
byte-identical result rows either way.
"""

import json
import os
from time import perf_counter

from repro.core import LOCAL_MEMBERSHIP
from repro.core.comparison import receiver_mobility_run
from repro.invariants import ENV_FLAG

from bench_utils import paired_overhead, save_report


def _run_row(checked):
    prior = os.environ.pop(ENV_FLAG, None)
    if checked:
        os.environ[ENV_FLAG] = "1"
    try:
        start = perf_counter()
        row = receiver_mobility_run(LOCAL_MEMBERSHIP, seed=0)
        return perf_counter() - start, row
    finally:
        os.environ.pop(ENV_FLAG, None)
        if prior is not None:
            os.environ[ENV_FLAG] = prior


def test_bench_invariant_oracle_overhead():
    """Oracles attached in escalate mode stay within 5% of a bare run."""
    _run_row(checked=False)  # warm-up: imports, allocator, caches
    overhead, off, on, row_off, row_on = paired_overhead(_run_row)
    # escalate mode raised nothing, and the oracles perturbed nothing
    assert json.dumps(row_off, sort_keys=True) == json.dumps(
        row_on, sort_keys=True
    )
    save_report(
        "invariant_oracles",
        "\n".join(
            [
                "EXP-I1: invariant-oracle overhead on the §4.3 "
                "receiver-mobility row (fig2 scenario, seed 0)",
                f"oracles off: {off:.3f} s   oracles on: {on:.3f} s   "
                f"overhead {overhead * 100:+.2f}% (median of 7 paired ratios)",
                "violations: 0 (escalate mode — any breach would raise)",
                "result rows byte-identical with checking on and off",
            ]
        ),
    )
    assert overhead < 0.05, f"oracle overhead {overhead * 100:.1f}% >= 5%"

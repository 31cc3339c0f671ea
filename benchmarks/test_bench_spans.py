"""EXP-I2 — span-recorder overhead on the Figure 2 scenario.

The causal span layer (docs/OBSERVABILITY.md) is a passive trace
listener subscribed to the control-plane categories only, so keeping it
attached must cost < 5% of end-to-end runtime on a real experiment —
measured on the Figure 2 receiver move, as the median on/off time
ratio over 15 alternating pairs with spans on vs off.  Disabled must
be structurally free: no recorder is constructed and the tracer keeps
its zero-listener fast path.  The same runs double as a correctness check: the recorded trace digest,
dispatched-event count and §4.3 join delay are identical either way
(spans are listen-only), and the reconstructed pipeline phases sum to
the join delay.
"""

from time import perf_counter

from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.obs import digest_events
from repro.obs.spans import HANDOVER_PHASES

from bench_utils import paired_overhead, save_report


def _run_fig2(spanned):
    start = perf_counter()
    sc = PaperScenario(
        ScenarioConfig(seed=0, approach=LOCAL_MEMBERSHIP, trace_spans=spanned)
    )
    sc.converge()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(90.0)
    sc.finish()
    return perf_counter() - start, sc


def _fingerprint(sc):
    return (
        digest_events(sc.net.tracer.events),
        sc.net.sim.events_dispatched,
        sc.join_delay("R3", 40.0),
    )


def test_bench_span_recorder_overhead():
    """An attached SpanRecorder stays within 5% of a bare run."""
    _run_fig2(spanned=False)  # warm-up: imports, allocator, caches
    # a run is ~0.3 s, so more pairs fit the budget of the longer gates
    overhead, off, on, sc_off, sc_on = paired_overhead(_run_fig2, pairs=15)

    # disabled is structurally free: no recorder, no tracer listeners,
    # so Tracer.record runs its unmodified zero-listener path
    assert sc_off.spans is None
    assert sc_off.net.tracer._listeners == []

    # spans are listen-only: identical trace, schedule and metrics
    assert _fingerprint(sc_off) == _fingerprint(sc_on)

    # and the reconstruction is sound: four phases summing to the join
    # delay of the instrumented run
    handover = next(
        s
        for s in sc_on.spans.roots
        if s.kind == "handover" and s.node == "R3" and s.start >= 40.0
    )
    phases = [c for c in handover.children if c.kind == "phase"]
    assert [p.name for p in phases] == list(HANDOVER_PHASES)
    phase_sum = sum(p.duration for p in phases)
    join = sc_on.join_delay("R3", 40.0)
    assert abs(phase_sum - join) < 1e-9

    save_report(
        "span_overhead",
        "\n".join(
            [
                "EXP-I2: span-recorder overhead on the Figure 2 receiver "
                "move (seed 0, 90 s)",
                f"spans off: {off:.3f} s   spans on: {on:.3f} s   "
                f"overhead {overhead * 100:+.2f}% (median of 15 paired ratios)",
                f"trace digest, {sc_on.net.sim.events_dispatched} dispatched "
                "events and join delay identical with spans on and off",
                f"phase sum {phase_sum:.6f} s == join delay {join:.6f} s "
                f"({len(list(phases))} phases)",
                "disabled path: no recorder constructed, zero tracer "
                "listeners",
            ]
        ),
    )
    assert overhead < 0.05, f"span overhead {overhead * 100:.1f}% >= 5%"

"""Trace-store benchmarks: indexed queries vs linear scan, profiler cost.

Engineering benchmarks for the observability tentpole, not a paper
artifact.  Two contracts are asserted:

* indexed ``Tracer.query``/``count`` are >= 10x faster than the seed's
  linear scan on a 100k-event trace (in practice the category fast
  path is orders of magnitude faster — O(log k) vs O(n)),
* the profiler hook costs < 5% of fig2 end-to-end runtime while *off*
  (measured conservatively: the profiler-ON runtime, which strictly
  dominates the off-mode branch cost, stays within 5% of the
  profiler-off runtime).
"""

from time import perf_counter

from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.obs import KernelProfiler
from repro.sim import Tracer

from bench_utils import paired_overhead, save_report

N_EVENTS = 100_000
CATEGORIES = (
    "mld",
    "pim",
    "pim.state",
    "mipv6",
    "mcast.deliver",
    "mcast.forward",
    "mobility",
    "link",
)


class _Clock:
    now = 0.0


def build_trace(n=N_EVENTS):
    clock = _Clock()
    tracer = Tracer(clock)
    for i in range(n):
        clock.now = i * 0.001
        tracer.record(
            CATEGORIES[i % len(CATEGORIES)],
            f"n{i % 20}",
            event=f"e{i % 3}",
        )
    return tracer


def linear_query(events, category=None, node=None, since=None, until=None):
    """The seed Tracer's query loop: a full linear scan."""
    for ev in events:
        if category is not None and ev.category != category:
            continue
        if node is not None and ev.node != node:
            continue
        if since is not None and ev.time < since:
            continue
        if until is not None and ev.time > until:
            continue
        yield ev


def best_of(fn, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return best, result


def test_bench_indexed_count_vs_linear_scan():
    tracer = build_trace()
    events = tracer.events

    t_indexed, n_indexed = best_of(lambda: tracer.count("pim"))
    t_linear, n_linear = best_of(
        lambda: sum(1 for _ in linear_query(events, "pim"))
    )
    assert n_indexed == n_linear == N_EVENTS // len(CATEGORIES)
    count_speedup = t_linear / t_indexed

    t_indexed_w, rows_indexed = best_of(
        lambda: list(tracer.query("mobility", node="n6", since=40.0, until=60.0))
    )
    t_linear_w, rows_linear = best_of(
        lambda: list(
            linear_query(events, "mobility", node="n6", since=40.0, until=60.0)
        )
    )
    assert rows_indexed == rows_linear
    query_speedup = t_linear_w / t_indexed_w

    report = "\n".join(
        [
            f"trace size: {N_EVENTS} events, {len(CATEGORIES)} categories",
            f"count('pim'):              indexed {t_indexed * 1e6:9.1f} µs   "
            f"linear {t_linear * 1e6:9.1f} µs   speedup {count_speedup:8.1f}x",
            f"query(cat,node,window):    indexed {t_indexed_w * 1e6:9.1f} µs   "
            f"linear {t_linear_w * 1e6:9.1f} µs   speedup {query_speedup:8.1f}x",
        ]
    )
    save_report("bench_trace_query", report)
    assert count_speedup >= 10.0, f"count speedup only {count_speedup:.1f}x"
    assert query_speedup >= 10.0, f"query speedup only {query_speedup:.1f}x"


def test_bench_indexed_count_throughput(benchmark):
    tracer = build_trace()
    assert benchmark(lambda: tracer.count("pim")) == N_EVENTS // len(CATEGORIES)


def _run_fig2(with_profiler):
    sc = PaperScenario(ScenarioConfig(seed=0, approach=LOCAL_MEMBERSHIP))
    if with_profiler:
        KernelProfiler().install(sc.net.sim)
    start = perf_counter()
    sc.converge()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(40.0 + 260.0 + 30.0)
    return perf_counter() - start


def test_bench_profiler_off_overhead_on_fig2():
    """Profiler-off overhead bound: even profiler-ON stays within 5%.

    The off-mode cost of the hook is a single ``is None`` check per
    dispatched event, strictly cheaper than the full accounting path
    measured here, so overhead_on < 5% implies overhead_off < 5%.  The
    overhead is the median on/off time ratio over 7 alternating pairs.
    """
    overhead, off, on, _, _ = paired_overhead(
        lambda on: (_run_fig2(with_profiler=on), None)
    )
    save_report(
        "bench_profiler_overhead",
        f"fig2 end-to-end: profiler off {off:.3f} s, on {on:.3f} s, "
        f"on-overhead {overhead * 100:.2f}% (median of 7 paired ratios; "
        "off-mode branch cost is strictly below this)",
    )
    assert overhead < 0.05, f"profiler overhead {overhead * 100:.1f}% >= 5%"

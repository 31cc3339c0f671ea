"""Outside-in probes: wrap the public entry points of each ``repro.*``
layer from the benchmark's own files and record what they cost.

Nothing under ``src/`` knows about these probes.  :func:`install`
replaces functions and methods in the already-imported modules, so the
program runs its normal code with a thin wrapper around each layer
boundary.

Two modes:

* **untraced** (end-to-end runs): only the kernel entry points
  (``Simulator.run/step/run_below``) and the campaign hand-off
  (``ProcessPoolExecutor.submit``) are wrapped, to timestamp the first
  dispatched event and count events.  Nothing on the per-event path
  is touched.
* **traced** (per-layer runs): every layer boundary in :data:`LAYERS`
  becomes a span ``(id, parent, name, start, end)``.  A span's *self*
  time is its duration minus the time its child spans cover, and is
  charged to the span's layer; a span of a layer entered from the same
  layer inherits its caller's *charge key*, so e.g. all PIM-DM code
  reached through ``on_multicast_data`` is charged to ``pimdm.data``.
  Spans are kept in memory (the first :data:`SPAN_CAP`) and written
  out when the workload ends; the aggregates cover every span.

Campaign workers are forked from the workload process, so they inherit
the wrappers.  A worker starts its own host-speed probe at its first
cell, and after each cell writes its cumulative aggregates and speed
samples to ``<channel>/<pid>.json``; :func:`collect` merges them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
from collections import defaultdict
from time import perf_counter
from types import FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed

#: Spans kept in memory per process; later spans still feed the aggregates.
SPAN_CAP = 50_000

# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------
#: (layer, module, class or None, member or None, charge key or None)
#:
#: ``class`` and ``member`` both None: every method of every class
#: defined in ``module`` (the layer's boundary is wherever control
#: enters it, timer callbacks and message handlers included).  A
#: charge key makes the span an anchor: its self time, and that of
#: same-layer spans beneath it, is reported under the key.
LAYERS: List[Tuple[str, str, Optional[str], Optional[str], Optional[str]]] = [
    ("topogen", "repro.net.topogen", None, "topo_graph", None),
    ("topogen", "repro.net.topogen", None, "build_network", None),
    ("topogen", "repro.net.topogen", "GeneratedTopology", None, None),
    ("routing", "repro.net.routing", None, "compute_router_fibs", "routing.fib"),
    ("routing", "repro.net.routing", "RoutingTable", "lookup", "routing.lookup"),
    ("addressing", "repro.net.addressing", "Address", "__str__", "addressing.str"),
    ("addressing", "repro.net.addressing", "Prefix", "__str__", "addressing.str"),
    ("sim", "repro.sim.kernel", "Simulator", "run", None),
    ("sim", "repro.sim.kernel", "Simulator", "step", None),
    ("sim", "repro.sim.kernel", "Simulator", "run_below", None),
    ("sim", "repro.sim.timers", None, None, None),
    ("link", "repro.net.link", None, None, None),
    ("link", "repro.net.link", "Link", "transmit", "link.transmit"),
    ("node", "repro.net.node", None, None, None),
    ("node", "repro.net.node", "Node", "receive", "node.receive"),
    ("pimdm", "repro.pimdm.router", None, None, None),
    ("pimdm", "repro.pimdm.router", "PimDmEngine", "on_multicast_data", "pimdm.data"),
    ("mld", "repro.mld.router", None, None, None),
    ("mld", "repro.mld.host", None, None, None),
    ("mipv6", "repro.mipv6.home_agent", None, None, None),
    ("mipv6", "repro.mipv6.mobile_node", None, None, None),
    ("mipv6", "repro.mipv6.correspondent", None, None, None),
    ("mipv6", "repro.mipv6.binding", None, None, None),
    ("traffic", "repro.traffic.base", None, "make_traffic_model", None),
    ("traffic", "repro.traffic.sources", None, None, None),
    ("traffic", "repro.traffic.packet", None, None, None),
    ("traffic", "repro.traffic.fluid", None, None, None),
    ("traffic", "repro.traffic.fluid", "FluidModel", "_recompute", "traffic.recompute"),
    ("trace", "repro.sim.trace", "Tracer", "record", "trace.record"),
]

class Recorder:
    """Span stack and aggregates for one process."""

    def __init__(self, channel: str) -> None:
        self.channel = channel
        self.owner_pid = os.getpid()
        self.first_dispatch: Optional[float] = None
        self.campaign_results: List[Any] = []
        #: pid of the forked campaign worker these aggregates belong to
        self.worker_pid: Optional[int] = None
        # wrappers close over these containers: reset() clears in place
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.next_id = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.charge: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = defaultdict(float)
        self._live: Dict[str, Dict[int, int]] = defaultdict(dict)
        self._live_total: Dict[str, int] = defaultdict(int)
        self.networks: List[Any] = []
        self.traffic_models: List[Any] = []

    def reset(self) -> None:
        """Zero every aggregate (a forked campaign worker starts here)."""
        for container in (
            self.stack, self.spans, self.calls, self.charge, self.layer_self,
            self.counts, self.peaks, self._live, self._live_total,
            self.networks, self.traffic_models,
        ):
            container.clear()
        self.next_id = 0

    # -- peaks of live state ------------------------------------------
    def track(self, kind: str, owner: int, size: int) -> None:
        live = self._live[kind]
        total = self._live_total[kind] + size - live.get(owner, 0)
        live[owner] = size
        self._live_total[kind] = total
        if total > self.peaks[kind]:
            self.peaks[kind] = total

    def peak(self, kind: str, value: float) -> None:
        if value > self.peaks[kind]:
            self.peaks[kind] = value

    # -- end of a workload or a campaign cell ---------------------------
    def harvest(self) -> None:
        """Fold the networks and traffic models seen since the last
        harvest into the counts, then forget them."""
        for net in self.networks:
            stats = net.stats
            self.counts["pim_pkts"] += stats.total_packets("pim")
            self.counts["mld_pkts"] += stats.total_packets("mld")
            self.counts["mipv6_pkts"] += stats.total_packets("mipv6")
            self.counts["drops"] += stats.total_drops()
            self.counts["retained"] += len(net.tracer.store)
        for model in self.traffic_models:
            self.counts["recomputes"] += getattr(model, "recomputes", 0)
            probes = getattr(model, "probes_sent", None)
            self.counts["probes"] += probes() if callable(probes) else 0
        self.networks.clear()
        self.traffic_models.clear()
        self._live.clear()
        self._live_total.clear()

    def aggregate(self) -> Dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "charge": dict(self.charge),
            "layer_self": dict(self.layer_self),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }

    def publish(self) -> None:
        """Campaign worker: write this process's cumulative aggregates."""
        path = os.path.join(self.channel, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(dict(self.aggregate(), speed=hostspeed.samples), fh)
        os.replace(tmp, path)


def merge(into: Dict[str, Any], other: Dict[str, Any]) -> None:
    """Add ``other``'s sums into ``into``; peaks and RSS take the max;
    speed samples are pooled."""
    for part in ("calls", "charge", "layer_self", "counts"):
        dst = into.setdefault(part, {})
        for key, value in other.get(part, {}).items():
            dst[key] = dst.get(key, 0) + value
    peaks = into.setdefault("peaks", {})
    for key, value in other.get("peaks", {}).items():
        peaks[key] = max(peaks.get(key, 0), value)
    into["maxrss_kb"] = max(into.get("maxrss_kb", 0), other.get("maxrss_kb", 0))
    into.setdefault("speed", []).extend(other.get("speed", []))


def collect(rec: Recorder) -> Dict[str, Any]:
    """This process's aggregates plus every campaign worker's."""
    rec.harvest()
    total = rec.aggregate()
    for name in sorted(os.listdir(rec.channel)):
        if name.endswith(".json"):
            with open(os.path.join(rec.channel, name)) as fh:
                merge(total, json.load(fh))
    return total


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _span(
    rec: Recorder,
    fn: Callable,
    name: str,
    layer: str,
    anchor: Optional[str],
    post: Optional[Callable[[tuple, Any], None]] = None,
) -> Callable:
    stack = rec.stack
    calls, charge, layer_self, spans = rec.calls, rec.charge, rec.layer_self, rec.spans

    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else None
        if anchor is not None:
            key = anchor
        elif parent is not None and parent[0] == layer:
            key = parent[1]
        else:
            key = layer
        sid = rec.next_id
        rec.next_id = sid + 1
        frame = [layer, key, 0.0, sid]
        stack.append(frame)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            own = duration - frame[2]
            charge[key] += own
            layer_self[layer] += own
            calls[name] += 1
            if len(spans) < SPAN_CAP:
                spans.append((sid, parent[3] if parent else -1, name, start, end))
            if post is not None:
                post(args, result)

    return functools.update_wrapper(wrapper, fn)


def _after(fn: Callable, post: Callable[[tuple, Any], None]) -> Callable:
    """Plain wrapper (no span) that calls ``post(args, result)``."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        post(args, result)
        return result

    return functools.update_wrapper(wrapper, fn)


def _replace_function(module: str, name: str, make: Callable[[Callable], Callable]) -> None:
    """Wrap a module-level function and every ``repro`` module global
    bound to it (``from x import f`` copies the reference)."""
    mod = importlib.import_module(module)
    original = getattr(mod, name)
    wrapped = make(original)
    for other in list(sys.modules.values()):
        if other is None or not other.__name__.startswith("repro"):
            continue
        for attr, value in list(vars(other).items()):
            if value is original:
                setattr(other, attr, wrapped)


def _methods(cls: type) -> List[str]:
    names = []
    for attr, value in vars(cls).items():
        if not isinstance(value, FunctionType):
            continue
        if attr.startswith("__") and attr.endswith("__"):
            continue
        if inspect.isgeneratorfunction(value):
            continue
        names.append(attr)
    return names


def _classes(module: str) -> List[type]:
    mod = importlib.import_module(module)
    return [
        value
        for value in vars(mod).values()
        if isinstance(value, type) and value.__module__ == module
    ]


def _kernel_probe(rec: Recorder, fn: Callable) -> Callable:
    """Timestamp the first dispatch; count events and compactions."""

    def wrapper(self, *args, **kwargs):
        if rec.first_dispatch is None:
            rec.first_dispatch = perf_counter()
        events, compactions = self.events_dispatched, self.compactions
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.counts["events"] += self.events_dispatched - events
            rec.counts["compactions"] += self.compactions - compactions

    return functools.update_wrapper(wrapper, fn)


def install(traced: bool, channel: str) -> Recorder:
    """Wrap the layer boundaries; returns the process's recorder.
    Campaign workers publish their aggregates into ``channel``."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.campaign.runner  # noqa: F401  (import the whole stack first)
    import repro.core.comparison  # noqa: F401
    import repro.core.fluidstudy  # noqa: F401
    import repro.core.scalestudy  # noqa: F401
    from repro.campaign.runner import CampaignRunner
    from repro.net.topology import Network
    from repro.sim.kernel import Simulator

    rec = Recorder(channel)

    # kernel entry: first dispatch + event counts (both modes)
    for member in ("run", "step", "run_below"):
        setattr(Simulator, member, _kernel_probe(rec, getattr(Simulator, member)))

    # campaign hand-off: first cell submitted to a worker
    submit = ProcessPoolExecutor.submit

    def first_submit(self, *args, **kwargs):
        if rec.first_dispatch is None:
            rec.first_dispatch = perf_counter()
        return submit(self, *args, **kwargs)

    ProcessPoolExecutor.submit = functools.update_wrapper(first_submit, submit)
    CampaignRunner.run = _after(
        CampaignRunner.run, lambda args, result: rec.campaign_results.append(result)
    )

    # campaign workers: report per-cell aggregates through the channel
    def task_probe(get_task: Callable) -> Callable:
        def wrapper(name):
            task = get_task(name)

            def run_cell(*args, **kwargs):
                if os.getpid() == rec.owner_pid:
                    return task(*args, **kwargs)
                if rec.worker_pid != os.getpid():
                    rec.reset()  # forked: drop the parent's aggregates
                    rec.worker_pid = os.getpid()
                    hostspeed.start()
                try:
                    return task(*args, **kwargs)
                finally:
                    rec.harvest()
                    rec.publish()

            return functools.update_wrapper(run_cell, task)

        return functools.update_wrapper(wrapper, get_task)

    _replace_function("repro.campaign.tasks", "get_task", task_probe)

    if not traced:
        return rec

    # traced: every layer boundary becomes a span
    anchors = {
        (module, cls, member): key
        for _, module, cls, member, key in LAYERS
        if key is not None
    }
    posts = _posts(rec)
    done = set()
    for layer, module, cls_name, member, _ in LAYERS:
        if cls_name is None and member is not None:
            _replace_function(
                module,
                member,
                lambda fn, n=f"{layer}.{member}", l=layer, m=(module, None, member): _span(
                    rec, fn, n, l, anchors.get(m), posts.get(n)
                ),
            )
            continue
        classes = (
            [getattr(importlib.import_module(module), cls_name)]
            if cls_name is not None
            else _classes(module)
        )
        for cls in classes:
            members = [member] if member is not None else _methods(cls)
            for attr in members:
                if (cls, attr) in done:
                    continue
                done.add((cls, attr))
                name = f"{layer}.{cls.__name__}.{attr}"
                key = anchors.get((module, cls.__name__, attr))
                setattr(cls, attr, _span(rec, vars(cls)[attr], name, layer, key, posts.get(name)))

    # peak heap: sampled on every schedule (no span)
    def heap_peak(args, _result):
        rec.peak("heap", args[0].heap_size)

    Simulator.schedule_at = _after(Simulator.schedule_at, heap_peak)
    Network.start = _after(Network.start, lambda args, _r: rec.networks.append(args[0]))
    return rec


def _posts(rec: Recorder) -> Dict[str, Callable[[tuple, Any], None]]:
    """Per-span hooks that read counts and live state sizes."""
    from repro.mipv6.binding import BindingCache
    from repro.pimdm.router import PimDmEngine

    posts: Dict[str, Callable[[tuple, Any], None]] = {}

    def fib_entries(_args, result):
        rec.counts["fib_entries"] += len(result or ())

    def traffic_model(_args, result):
        rec.traffic_models.append(result)

    def sg_size(args, _result):
        engine = args[0]
        rec.track("sg", id(engine), len(getattr(engine, "entries", ())))

    def binding_size(args, _result):
        rec.track("bindings", id(args[0]), len(args[0]))

    posts["routing.compute_router_fibs"] = fib_entries
    posts["traffic.make_traffic_model"] = traffic_model
    for attr in _methods(PimDmEngine):
        posts[f"pimdm.PimDmEngine.{attr}"] = sg_size
    for attr in _methods(BindingCache):
        posts[f"mipv6.BindingCache.{attr}"] = binding_size
    return posts


def write_spans(rec: Recorder, path: str) -> None:
    """Write the retained spans (times relative to the first span)."""
    origin = rec.spans[0][3] if rec.spans else 0.0
    payload = {
        "columns": ["id", "parent", "name", "start_s", "end_s"],
        "spans": [
            [sid, parent, name, round(start - origin, 9), round(end - origin, 9)]
            for sid, parent, name, start, end in rec.spans
        ],
        "total_spans": rec.next_id,
        "dropped": max(0, rec.next_id - len(rec.spans)),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)

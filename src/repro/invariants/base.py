"""Oracle infrastructure: violation records, the oracle base class,
and the :class:`InvariantMonitor` that wires oracles into a live run.

An *oracle* is a passive observer of one protocol layer.  It receives
every :class:`~repro.sim.trace.TraceEvent` the run records (through
the same ``Tracer.add_listener`` hook the metrics collectors use), may
inspect live protocol state through the :class:`~repro.net.Network`,
and reports violations through :meth:`Oracle.violate`.  Oracles never
schedule protocol events, never touch any RNG stream, and emit no
trace events of their own while the run stays legal — so an attached
monitor is invisible to golden-trace digests and result payloads
unless an invariant actually breaks.

A violation

* is recorded as an ``invariant.violation`` trace event,
* increments the ``repro_invariant_violations`` counter (labelled by
  oracle and rule) when a metrics registry is attached,
* is appended to :attr:`InvariantMonitor.violations`, and
* raises :class:`InvariantViolationError` immediately when the monitor
  runs in ``escalate`` mode (the ``--check-invariants`` CLI path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..sim.trace import TraceEvent

__all__ = [
    "VIOLATION_CATEGORY",
    "InvariantViolation",
    "InvariantViolationError",
    "InvariantMonitor",
    "Oracle",
]

VIOLATION_CATEGORY = "invariant.violation"


@dataclass(frozen=True)
class InvariantViolation:
    """One detected invariant breach."""

    time: float
    oracle: str
    rule: str
    node: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:.3f}] {self.oracle}/{self.rule} @ {self.node} {kv}"


class InvariantViolationError(AssertionError):
    """Raised in escalate mode the moment an oracle reports a breach."""

    def __init__(self, violations: Sequence[InvariantViolation]) -> None:
        self.violations = list(violations)
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines += [f"  {v}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        super().__init__("\n".join(lines))


class Oracle:
    """Base class: bound to a monitor, fed trace events, finalized once."""

    #: short name used in violation records and metric labels
    name = "oracle"

    def __init__(self) -> None:
        self.monitor: Optional["InvariantMonitor"] = None

    # -- wiring --------------------------------------------------------
    def bind(self, monitor: "InvariantMonitor") -> None:
        self.monitor = monitor

    @property
    def net(self):
        return self.monitor.net

    @property
    def sim(self):
        return self.monitor.net.sim

    def violate(self, rule: str, node: str, **detail: Any) -> None:
        self.monitor.report(self.name, rule, node, detail)

    # -- hooks subclasses implement ------------------------------------
    def routes(self) -> Optional[Dict[str, Callable[[TraceEvent], None]]]:
        """Category -> handler map for the monitor's dispatch table.

        Returning a dict routes only the named categories to this
        oracle (the hot path: one dict lookup per trace event, no call
        at all for categories nobody watches).  Returning ``None``
        keeps the legacy behavior: :meth:`on_event` is invoked for
        *every* category.  An empty dict means "no trace events at
        all" (e.g. a pure kernel-hook oracle).
        """
        return None

    def on_event(self, ev: TraceEvent) -> None:
        """Called for every recorded trace event (violations excluded)
        when :meth:`routes` returns ``None``."""

    def finalize(self) -> None:
        """End-of-run sweep: check liveness deadlines that never saw a
        later event (the run may simply have ended first)."""


class InvariantMonitor:
    """Attach a set of oracles to a network and collect their verdicts.

    Usage::

        monitor = InvariantMonitor(net).attach()
        ...  # run the simulation
        monitor.finalize()          # liveness sweep
        assert not monitor.violations
    """

    def __init__(
        self,
        net,
        oracles: Optional[Sequence[Oracle]] = None,
        registry: Optional[Any] = None,
        escalate: bool = False,
    ) -> None:
        if oracles is None:
            from . import default_oracles

            oracles = default_oracles()
        self.net = net
        self.oracles: List[Oracle] = list(oracles)
        self.registry = registry
        self.escalate = escalate
        self.violations: List[InvariantViolation] = []
        self._attached = False
        self._finalized = False
        for oracle in self.oracles:
            oracle.bind(self)
        # Dispatch table: category -> handlers.  Oracles with explicit
        # routes cost one dict lookup per event; oracles without
        # (routes() is None) land in the wildcard list and see every
        # category, as before.
        self._wildcard = tuple(
            o.on_event for o in self.oracles if o.routes() is None
        )
        table: Dict[str, List] = {}
        for oracle in self.oracles:
            routed = oracle.routes()
            if routed:
                for category, handler in routed.items():
                    table.setdefault(category, []).append(handler)
        self._routes = {
            category: tuple(handlers) + self._wildcard
            for category, handlers in table.items()
        }

    # ------------------------------------------------------------------
    def attach(self) -> "InvariantMonitor":
        """Register as a live trace listener (and kernel dispatch hook)."""
        if self._attached:
            return self
        self._attached = True
        # With no wildcard oracle, the tracer routes only the watched
        # categories here: unwatched per-datagram records cost no call.
        categories = None if self._wildcard else tuple(self._routes)
        self.net.tracer.add_listener(self._on_event, categories=categories)
        for oracle in self.oracles:
            install = getattr(oracle, "install", None)
            if install is not None:
                install(self.net.sim)
        return self

    def _on_event(self, ev: TraceEvent) -> None:
        handlers = self._routes.get(ev.category)
        if handlers is None:
            # VIOLATION_CATEGORY is never a routed key, so the guard
            # against feeding violations back in only runs off-path.
            if ev.category == VIOLATION_CATEGORY:
                return
            handlers = self._wildcard
        for handler in handlers:
            handler(ev)

    # ------------------------------------------------------------------
    def report(self, oracle: str, rule: str, node: str, detail: Dict[str, Any]) -> None:
        violation = InvariantViolation(
            time=self.net.sim.now, oracle=oracle, rule=rule, node=node,
            detail=dict(detail),
        )
        self.violations.append(violation)
        self.net.tracer.record(
            VIOLATION_CATEGORY, node, oracle=oracle, rule=rule, **detail
        )
        if self.registry is not None:
            self.registry.counter(
                "repro_invariant_violations",
                help="Protocol invariant violations detected by the oracles.",
                label_names=("oracle", "rule"),
            ).labels(oracle=oracle, rule=rule).inc()
        if self.escalate:
            raise InvariantViolationError([violation])

    # ------------------------------------------------------------------
    def finalize(self) -> List[InvariantViolation]:
        """Run every oracle's end-of-run sweep; idempotent."""
        if not self._finalized:
            self._finalized = True
            for oracle in self.oracles:
                oracle.finalize()
        return self.violations

    def check(self) -> None:
        """Finalize and raise if anything was ever violated."""
        self.finalize()
        if self.violations:
            raise InvariantViolationError(self.violations)

    def summary(self) -> Dict[str, Any]:
        return {
            "oracles": [o.name for o in self.oracles],
            "violations": len(self.violations),
        }

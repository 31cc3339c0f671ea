"""Structured event tracing.

Metrics in the reproduction (join delay, leave delay, assert counts,
flood extents, tunnel overhead) are computed from a structured trace
rather than by instrumenting protocol code with ad-hoc counters.  Every
protocol entity emits :class:`TraceEvent` records through a shared
:class:`Tracer`; analysis code queries the trace afterwards.

Storage and querying are backed by the indexed
:class:`~repro.obs.store.TraceStore` (per-category and per-node
indexes, time bisection, optional bounded ring-buffer mode), so
``query``/``first``/``last``/``count`` no longer scan every event.
The query API itself lives in
:class:`~repro.obs.store.TraceQueryMixin`, shared with the offline
:class:`~repro.obs.export.TraceArchive`.

Categories in use across the reproduction:

=================  =====================================================
category           meaning
=================  =====================================================
``mld``            Query / Report / Done sent or processed
``pim``            Prune / Join / Graft / GraftAck / Assert / Hello
``pim.state``      (S,G) entry created / pruned / grafted / expired
``mipv6``          Binding Update / Ack, tunnel encap / decap
``mcast.deliver``  application-level multicast delivery at a receiver
``mcast.forward``  a router forwarded a multicast datagram onto a link
``mobility``       a mobile node detached / attached / configured a CoA
``fault``          an injected fault fired (:mod:`repro.faults`)
``drop``           a link dropped a frame (reason: ``nd-failure``,
                   ``link-loss``, ``link-down``, ``node-crashed``,
                   ``sender-detached``)
``link``           transmission records (optional, high volume)
=================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.store import TraceQueryMixin, TraceStore
from .kernel import Simulator

__all__ = ["TraceEvent", "Tracer"]


@dataclass(slots=True)
class TraceEvent:
    """One trace record.

    Slotted and not frozen: one is built per forwarded or delivered
    datagram, and a frozen dataclass's ``object.__setattr__`` init costs
    about three times as much.  Treat records as read-only.
    """

    time: float
    category: str
    node: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def matches(self, **criteria: Any) -> bool:
        """True if every ``detail`` criterion matches this event."""
        return all(self.detail.get(k) == v for k, v in criteria.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.3f}] {self.category:<14} {self.node:<10} {kv}"


class Tracer(TraceQueryMixin):
    """Collects :class:`TraceEvent` records and serves indexed queries.

    Recording of high-volume categories (``link``) can be disabled for
    long benchmark runs; all protocol-level categories are always cheap
    enough to keep.  For very long runs, ``capacity=N`` keeps only the
    newest N events (ring-buffer mode) so memory stays bounded.
    """

    def __init__(
        self,
        sim: Simulator,
        enabled_categories: Optional[Iterable[str]] = None,
        disabled_categories: Optional[Iterable[str]] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self._enabled = set(enabled_categories) if enabled_categories else None
        self._disabled = set(disabled_categories or ())
        if self._enabled is not None:
            overlap = self._enabled & self._disabled
            if overlap:
                raise ValueError(
                    "categories both enabled and disabled: "
                    f"{sorted(overlap)}"
                )
        self._store = TraceStore(capacity=capacity)
        #: (listener, categories or None) in registration order
        self._listeners: List[Tuple[Callable[[TraceEvent], None], Optional[frozenset]]] = []
        #: category -> recorded? memo, so the hot path (record / wants)
        #: is a single dict hit instead of two set probes; invalidated
        #: by enable/disable.
        self._active_cache: Dict[str, bool] = {}
        #: category -> the listeners that see it, in registration order;
        #: invalidated by add_listener.
        self._listener_cache: Dict[str, Tuple[Callable[[TraceEvent], None], ...]] = {}

    # ------------------------------------------------------------------
    def record(self, category: str, node: str, **detail: Any) -> None:
        """Record one event at the current simulation time."""
        active = self._active_cache.get(category)
        if active is None:
            active = self._active_cache[category] = self.is_enabled(category)
        if not active:
            return
        ev = TraceEvent(self.sim.now, category, node, detail)
        self._store.append(ev)
        listeners = self._listener_cache.get(category)
        if listeners is None:
            listeners = self._listener_cache[category] = tuple(
                fn for fn, cats in self._listeners if cats is None or category in cats
            )
        for listener in listeners:
            listener(ev)

    def wants(self, category: str) -> bool:
        """Cached :meth:`is_enabled` for hot call sites.

        High-volume producers (``Link.transmit``'s ``link`` records)
        check this *before* building the event detail — a disabled
        category then costs one dict lookup instead of a
        ``packet.describe()`` plus a kwargs dict per frame.
        """
        active = self._active_cache.get(category)
        if active is None:
            active = self._active_cache[category] = self.is_enabled(category)
        return active

    def add_listener(
        self,
        fn: Callable[[TraceEvent], None],
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        """Register a live listener (used by online metric collectors).

        With ``categories``, the listener only sees events whose
        category is in the set.  Routing is per category: a span
        recorder subscribed to the control-plane categories costs
        nothing on a data-plane event.  Listeners run in registration
        order.
        """
        cats = frozenset(categories) if categories is not None else None
        self._listeners.append((fn, cats))
        self._listener_cache.clear()

    def disable(self, category: str) -> None:
        """Stop recording ``category`` (existing events are kept)."""
        self._disabled.add(category)
        self._active_cache.clear()

    def enable(self, category: str) -> None:
        """(Re-)enable recording of ``category``.

        Complements :meth:`disable`: removes the category from the
        disabled set and, when a whitelist is active, adds it there.
        """
        self._disabled.discard(category)
        if self._enabled is not None:
            self._enabled.add(category)
        self._active_cache.clear()

    def is_enabled(self, category: str) -> bool:
        """Would an event in ``category`` be recorded right now?"""
        if category in self._disabled:
            return False
        return self._enabled is None or category in self._enabled

    # ------------------------------------------------------------------
    # storage control
    # ------------------------------------------------------------------
    @property
    def store(self) -> TraceStore:
        """The backing :class:`~repro.obs.store.TraceStore`."""
        return self._store

    @property
    def capacity(self) -> Optional[int]:
        return self._store.capacity

    def set_capacity(self, capacity: Optional[int]) -> None:
        """Switch to ring-buffer mode (or back to unbounded).

        Existing events are re-indexed into the new store; when the new
        capacity is smaller than the current trace, only the newest
        events survive — exactly as if the run had recorded into the
        ring from the start.
        """
        store = TraceStore(capacity=capacity)
        for ev in self._store.events:
            store.append(ev)
        self._store = store

    # ``query``/``first``/``last``/``count``/``clear`` and the
    # ``events`` view come from TraceQueryMixin.

    def dump(self, limit: Optional[int] = None) -> str:  # pragma: no cover
        """Human-readable trace listing (debugging aid)."""
        rows = self.events if limit is None else self.events[:limit]
        return "\n".join(repr(ev) for ev in rows)

"""PIM-DM (S,G) forwarding state.

Each router keeps one :class:`SgEntry` per (Source, Group) pair it has
seen traffic (or control messages) for — the "(S, G) entry" of paper
§3.1 — holding:

* the **incoming (upstream) interface** — the RPF interface toward S,
* the **upstream neighbor** — target of Prunes/Grafts (None when the
  source's link is directly attached, i.e. this is a first-hop router),
* per-downstream-interface state: prune-pending (the T_PruneDel
  window), pruned (with hold timer), assert-loser (with assert timer),
* the entry **data timeout** (210 s default) after which state for a
  silent source is deleted — the reason a moved sender's old tree
  lingers (paper §4.2.2-A),
* upstream bookkeeping: whether we pruned upstream, graft-ack pending.

Two interchangeable state *representations* back the same API
(``PimDmConfig.state_backend``):

* ``"dict"`` — the seed representation: entries keyed by the
  128-bit-address pair :func:`sg_key`, per-interface state in a
  ``dict`` of :class:`DownstreamState` dataclasses with plain boolean
  flags.
* ``"compact"`` (default) — entries keyed by a small interned integer
  (:class:`SgInterner`), per-interface state in an array indexed by
  the per-node interface uid, pruned / assert-loser flags pooled into
  two :class:`OifSet` bitmasks per entry, and slotted state objects.

Both must produce byte-identical traces — the differential golden
tests pin that — so behaviour (creation order, timer logic, iteration
where it matters) is shared; only the storage shape differs.  The
analytic per-object byte model used by the scaling study lives in
:mod:`repro.net.stats` (``STATE_BYTE_COSTS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..net.addressing import Address
from ..net.interface import Interface
from ..sim import Timer

__all__ = [
    "CompactDownstreamState",
    "CompactDownstreamTable",
    "DictDownstreamTable",
    "DownstreamState",
    "OifPlan",
    "OifSet",
    "STATE_BACKENDS",
    "SgEntry",
    "SgInterner",
    "StateStore",
    "sg_key",
]

#: Selectable values for ``PimDmConfig.state_backend``.
STATE_BACKENDS = ("dict", "compact")


def sg_key(source: Address, group: Address) -> tuple:
    return (Address(source).as_int(), Address(group).as_int())


# ----------------------------------------------------------------------
# compact building blocks
# ----------------------------------------------------------------------
class OifSet:
    """A set of small interface uids stored as one int bitmask.

    The per-node interface uid allocator hands out 1, 2, 3, ... so the
    mask stays a machine word for any realistic router degree.  This is
    the "array/bitset-backed oif set" of ROADMAP item 1: membership,
    add, and discard are single bit operations and the whole set costs
    one integer instead of a hash table.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0) -> None:
        if bits < 0:
            raise ValueError("OifSet bits must be non-negative")
        self._bits = bits

    def add(self, uid: int) -> None:
        self._bits |= 1 << uid

    def discard(self, uid: int) -> None:
        self._bits &= ~(1 << uid)

    def clear(self) -> None:
        self._bits = 0

    def as_int(self) -> int:
        return self._bits

    def __contains__(self, uid: int) -> bool:
        return bool((self._bits >> uid) & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        uid = 0
        while bits:
            if bits & 1:
                yield uid
            bits >>= 1
            uid += 1

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OifSet):
            return self._bits == other._bits
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OifSet({sorted(self)})"


class SgInterner:
    """Bidirectional Address ↔ small-int table shared by one engine.

    Sources and groups are interned on first sight (ids are dense and
    deterministic given the event order), and an (S,G) pair maps to one
    small integer used as the ``entries`` dict key — replacing the
    seed's tuple of two 128-bit address ints.
    """

    __slots__ = ("_address_ids", "_addresses", "_sg_ids")

    def __init__(self) -> None:
        self._address_ids: Dict[int, int] = {}
        self._addresses: List[Address] = []
        self._sg_ids: Dict[Tuple[int, int], int] = {}

    def intern_address(self, address: Address) -> int:
        raw = address.as_int()
        ident = self._address_ids.get(raw)
        if ident is None:
            ident = len(self._addresses)
            self._address_ids[raw] = ident
            self._addresses.append(address)
        return ident

    def address(self, ident: int) -> Address:
        return self._addresses[ident]

    def intern_sg(self, source: Address, group: Address) -> int:
        pair = (self.intern_address(source), self.intern_address(group))
        ident = self._sg_ids.get(pair)
        if ident is None:
            ident = len(self._sg_ids)
            self._sg_ids[pair] = ident
        return ident

    def __len__(self) -> int:
        return len(self._addresses)


# ----------------------------------------------------------------------
# downstream per-interface state
# ----------------------------------------------------------------------
@dataclass
class DownstreamState:
    """Per-(S,G)-per-downstream-interface state (dict backend)."""

    iface: Interface
    #: Prune received, waiting T_PruneDel for a possible Join override.
    prune_pending_timer: Optional[Timer] = None
    #: Interface pruned; forwarding resumes when the hold timer fires.
    pruned: bool = False
    prune_hold_timer: Optional[Timer] = None
    #: This router lost an assert election on the interface.
    assert_loser: bool = False
    assert_timer: Optional[Timer] = None
    assert_winner: Optional[Address] = None
    assert_winner_metric: Optional[int] = None

    @property
    def prune_pending(self) -> bool:
        return (
            self.prune_pending_timer is not None and self.prune_pending_timer.running
        )

    def clear_prune(self) -> None:
        if self.prune_pending_timer is not None:
            self.prune_pending_timer.stop()
            self.prune_pending_timer = None
        if self.prune_hold_timer is not None:
            self.prune_hold_timer.stop()
            self.prune_hold_timer = None
        self.pruned = False

    def clear_assert(self) -> None:
        if self.assert_timer is not None:
            self.assert_timer.stop()
            self.assert_timer = None
        self.assert_loser = False
        self.assert_winner = None
        self.assert_winner_metric = None


class CompactDownstreamState:
    """Downstream state with flags pooled into the table's bitmasks.

    Same duck-typed surface as :class:`DownstreamState` (the engine
    never branches on the backend); ``pruned`` / ``assert_loser`` read
    and write the owning :class:`CompactDownstreamTable`'s
    :class:`OifSet` masks instead of per-object booleans, and the
    object itself is slotted.
    """

    __slots__ = (
        "iface",
        "prune_pending_timer",
        "prune_hold_timer",
        "assert_timer",
        "assert_winner",
        "assert_winner_metric",
        "_table",
    )

    def __init__(self, iface: Interface, table: "CompactDownstreamTable") -> None:
        self.iface = iface
        self.prune_pending_timer: Optional[Timer] = None
        self.prune_hold_timer: Optional[Timer] = None
        self.assert_timer: Optional[Timer] = None
        self.assert_winner: Optional[Address] = None
        self.assert_winner_metric: Optional[int] = None
        self._table = table

    @property
    def pruned(self) -> bool:
        return self.iface.uid in self._table.pruned_oifs

    @pruned.setter
    def pruned(self, value: bool) -> None:
        if value:
            self._table.pruned_oifs.add(self.iface.uid)
        else:
            self._table.pruned_oifs.discard(self.iface.uid)

    @property
    def assert_loser(self) -> bool:
        return self.iface.uid in self._table.assert_loser_oifs

    @assert_loser.setter
    def assert_loser(self, value: bool) -> None:
        if value:
            self._table.assert_loser_oifs.add(self.iface.uid)
        else:
            self._table.assert_loser_oifs.discard(self.iface.uid)

    @property
    def prune_pending(self) -> bool:
        return (
            self.prune_pending_timer is not None and self.prune_pending_timer.running
        )

    def clear_prune(self) -> None:
        if self.prune_pending_timer is not None:
            self.prune_pending_timer.stop()
            self.prune_pending_timer = None
        if self.prune_hold_timer is not None:
            self.prune_hold_timer.stop()
            self.prune_hold_timer = None
        self.pruned = False

    def clear_assert(self) -> None:
        if self.assert_timer is not None:
            self.assert_timer.stop()
            self.assert_timer = None
        self.assert_loser = False
        self.assert_winner = None
        self.assert_winner_metric = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompactDownstreamState {self.iface.name}"
            f" pruned={self.pruned} assert_loser={self.assert_loser}>"
        )


class DictDownstreamTable(dict):
    """Seed representation: a plain ``{iface uid: DownstreamState}``.

    Subclasses ``dict`` so ``get`` / ``values`` / iteration keep the
    exact seed semantics; only on-demand creation is added.
    """

    __slots__ = ()

    def state_for(self, iface: Interface) -> DownstreamState:
        state = self.get(iface.uid)
        if state is None:
            state = DownstreamState(iface=iface)
            self[iface.uid] = state
        return state

    def flag_key(self) -> Tuple[int, int]:
        """(pruned, assert-loser) uid bitmasks, as the compact table
        stores them — read from the per-state booleans on every call,
        so a direct ``ds.pruned = ...`` write changes the key."""
        pruned = loser = 0
        for uid, state in self.items():
            if state.pruned:
                pruned |= 1 << uid
            if state.assert_loser:
                loser |= 1 << uid
        return pruned, loser


class CompactDownstreamTable:
    """Array-backed downstream table indexed by per-node iface uid.

    Lookups are list indexing (uids are dense small ints), and the
    per-interface pruned / assert-loser flags live in two shared
    :class:`OifSet` masks, so per-state objects shrink to timers and
    assert bookkeeping.
    """

    __slots__ = ("_states", "pruned_oifs", "assert_loser_oifs")

    def __init__(self) -> None:
        self._states: List[Optional[CompactDownstreamState]] = []
        self.pruned_oifs = OifSet()
        self.assert_loser_oifs = OifSet()

    def get(self, uid: int) -> Optional[CompactDownstreamState]:
        if 0 <= uid < len(self._states):
            return self._states[uid]
        return None

    def state_for(self, iface: Interface) -> CompactDownstreamState:
        uid = iface.uid
        if uid >= len(self._states):
            self._states.extend([None] * (uid + 1 - len(self._states)))
        state = self._states[uid]
        if state is None:
            state = CompactDownstreamState(iface, self)
            self._states[uid] = state
        return state

    def flag_key(self) -> Tuple[int, int]:
        """(pruned, assert-loser) uid bitmasks: the table's flag state."""
        return self.pruned_oifs._bits, self.assert_loser_oifs._bits

    def values(self) -> List[CompactDownstreamState]:
        return [s for s in self._states if s is not None]

    def __len__(self) -> int:
        return sum(1 for s in self._states if s is not None)

    def __bool__(self) -> bool:
        return any(s is not None for s in self._states)

    def __iter__(self) -> Iterator[int]:
        return iter(s.iface.uid for s in self._states if s is not None)


# ----------------------------------------------------------------------
# memoised forwarding plan
# ----------------------------------------------------------------------
class OifPlan:
    """An (S,G) entry's outgoing interface list, memoised.

    The list changes only on control events, so
    :meth:`~repro.pimdm.router.PimDmEngine.outgoing_ifaces` keeps it
    on the entry with the state it was computed from — the engine
    epoch, the upstream interface and the downstream table's
    :meth:`flag_key` — and recomputes when any of them differs.  The
    plan also carries what a ``mcast.forward`` record needs: the
    source and group text and the names of the links the oifs sit on.
    """

    __slots__ = ("epoch", "upstream", "flags", "oifs", "source", "group", "links")

    def __init__(
        self,
        epoch: int,
        upstream: Optional[Interface],
        flags: Tuple[int, int],
        oifs: Sequence[Interface],
        source: str,
        group: str,
    ) -> None:
        self.epoch = epoch
        self.upstream = upstream
        self.flags = flags
        self.oifs = oifs
        self.source = source
        self.group = group
        self.links = [o.link.name for o in oifs if o.link]


# ----------------------------------------------------------------------
# (S,G) entry
# ----------------------------------------------------------------------
@dataclass
class SgEntry:
    """One (Source, Group) multicast forwarding entry."""

    source: Address
    group: Address
    upstream_iface: Optional[Interface]
    #: FIB next hop toward the source (None at a first-hop router).
    upstream_neighbor: Optional[Address]
    #: Assert winner on the upstream link overrides the FIB next hop as
    #: the target of Grafts/Prunes (paper §3.1: "downstream routers ...
    #: store the elected forwarder for later PIM-DM protocol actions").
    upstream_assert_winner: Optional[Address] = None
    upstream_assert_winner_metric: Optional[int] = None
    metric_to_source: int = 0
    entry_timer: Optional[Timer] = None
    downstream: "DictDownstreamTable | CompactDownstreamTable" = field(
        default_factory=DictDownstreamTable
    )
    #: True after we sent a Prune upstream and before grafting back.
    pruned_upstream: bool = False
    last_prune_sent: float = float("-inf")
    graft_retry_timer: Optional[Timer] = None
    #: Grafts sent since the last Graft-Ack: drives the
    #: capped-exponential retry backoff (graceful degradation under
    #: sustained upstream loss).  Reset on ack.
    graft_retries: int = 0
    #: Statistics for the experiments.
    packets_forwarded: int = 0
    packets_discarded: int = 0
    #: The ``entries`` dict key: the interned small int under the
    #: compact backend, None (→ computed :func:`sg_key`) under dict.
    interned_key: Optional[int] = None
    #: the memoised outgoing interface list (see :class:`OifPlan`)
    oif_plan: Optional[OifPlan] = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------
    @property
    def key(self):
        if self.interned_key is not None:
            return self.interned_key
        return sg_key(self.source, self.group)

    def downstream_state(self, iface: Interface):
        table = self.downstream
        state_for = getattr(table, "state_for", None)
        if state_for is not None:
            return state_for(iface)
        # plain-dict table passed by hand (legacy tests): seed inline path
        state = table.get(iface.uid)
        if state is None:
            state = DownstreamState(iface=iface)
            table[iface.uid] = state
        return state

    def upstream_target(self) -> Optional[Address]:
        """Whom to address Prunes/Grafts to (assert winner beats FIB)."""
        return (
            self.upstream_assert_winner
            if self.upstream_assert_winner is not None
            else self.upstream_neighbor
        )

    def stop_all_timers(self) -> None:
        if self.entry_timer is not None:
            self.entry_timer.stop()
        if self.graft_retry_timer is not None:
            self.graft_retry_timer.stop()
        for state in self.downstream.values():
            state.clear_prune()
            state.clear_assert()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        up = self.upstream_iface.name if self.upstream_iface else "?"
        return f"<SgEntry ({self.source},{self.group}) up={up}>"


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
class StateStore:
    """Keying + entry construction for one engine's chosen backend.

    The engine asks the store for dict keys and fresh entries; every
    other code path handles :class:`SgEntry` through its shared API, so
    switching representations cannot change behaviour.
    """

    __slots__ = ("backend", "interner", "keys")

    def __init__(self, backend: str = "compact") -> None:
        if backend not in STATE_BACKENDS:
            raise ValueError(
                f"unknown state backend {backend!r}; expected one of {STATE_BACKENDS}"
            )
        self.backend = backend
        self.interner: Optional[SgInterner] = (
            SgInterner() if backend == "compact" else None
        )
        #: (source int, group int) -> ``entries`` key under either
        #: backend, so the data path finds an entry's key with one probe
        self.keys: Dict[Tuple[int, int], object] = {}

    def key(self, source: Address, group: Address):
        pair = sg_key(source, group)
        key = self.keys.get(pair)
        if key is None:
            key = self.keys[pair] = (
                pair
                if self.interner is None
                else self.interner.intern_sg(source, group)
            )
        return key

    def new_entry(
        self,
        source: Address,
        group: Address,
        upstream_iface: Optional[Interface],
        upstream_neighbor: Optional[Address],
        metric_to_source: int,
    ) -> SgEntry:
        source = Address(source)
        group = Address(group)
        if self.interner is not None:
            return SgEntry(
                source=source,
                group=group,
                upstream_iface=upstream_iface,
                upstream_neighbor=upstream_neighbor,
                metric_to_source=metric_to_source,
                downstream=CompactDownstreamTable(),
                interned_key=self.interner.intern_sg(source, group),
            )
        return SgEntry(
            source=source,
            group=group,
            upstream_iface=upstream_iface,
            upstream_neighbor=upstream_neighbor,
            metric_to_source=metric_to_source,
        )

    def reset(self) -> None:
        """Crash support: discard interned ids with the rest of state."""
        if self.interner is not None:
            self.interner = SgInterner()
            self.keys.clear()

"""IPv6 addressing for the simulated network.

An :class:`Address` is one 128-bit int and a :class:`Prefix` a
``(network, length)`` pair, so equality, hashing, ordering, the scope
predicates and prefix containment are integer operations.
:mod:`ipaddress` is used only to parse text and, once per distinct
address, to format it: the text is memoised in a table keyed by the
int.  Also here: the well-known constants the protocols need, and the
stateless autoconfiguration Mobile IPv6 uses to form care-of addresses
on foreign links (RFC 2462 — reference [14] of the paper).
"""

from __future__ import annotations

import ipaddress
from functools import total_ordering
from typing import Dict, Union

__all__ = [
    "Address", "Prefix", "ALL_NODES", "ALL_ROUTERS", "ALL_PIM_ROUTERS",
    "UNSPECIFIED", "is_multicast", "make_multicast_group",
]

_AddressLike = Union[str, int, "Address", ipaddress.IPv6Address]

_ALL_ONES = (1 << 128) - 1

#: Formatted text of every address printed so far, keyed by its int.
_TEXT: Dict[int, str] = {}


@total_ordering
class Address:
    """An IPv6 address.

    Immutable, hashable, ordered (MLD querier election and PIM-DM assert
    tie-breaks compare addresses numerically).  ``Address(a)`` for an
    existing Address returns ``a`` itself.

    >>> Address("2001:db8:1::10").is_multicast
    False
    >>> Address("ff02::1").is_multicast
    True
    >>> Address("ff02::1") == Address("ff02:0:0:0:0:0:0:1")
    True
    """

    __slots__ = ("_int",)

    def __new__(cls, value: _AddressLike) -> "Address":
        if type(value) is Address:
            return value
        if not isinstance(value, int):
            parsed = ipaddress.IPv6Address(value)
            if parsed.scope_id is not None:
                raise ValueError(f"scoped IPv6 addresses are not supported: {value!r}")
            value = int(parsed)
        elif not 0 <= value <= _ALL_ONES:
            raise ipaddress.AddressValueError(f"{value} is not a 128-bit IPv6 address")
        self = object.__new__(cls)
        self._int = value
        return self

    @property
    def is_multicast(self) -> bool:
        return self._int >> 120 == 0xFF

    @property
    def is_link_local(self) -> bool:
        """True for fe80::/10."""
        return self._int >> 118 == 0x3FA

    @property
    def is_link_scope_multicast(self) -> bool:
        """True for link-scope multicast (ffX2::/16) — never forwarded."""
        return (self._int >> 112) & 0xFF0F == 0xFF02

    @property
    def is_unspecified(self) -> bool:
        return self._int == 0

    def as_int(self) -> int:
        return self._int

    def packed(self) -> bytes:
        """16-byte network-order representation (wire format)."""
        return self._int.to_bytes(16, "big")

    @classmethod
    def from_packed(cls, data: bytes) -> "Address":
        if len(data) != 16:
            raise ValueError(f"IPv6 address needs 16 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def __eq__(self, other: object) -> bool:
        if type(other) is Address:
            return self._int == other._int
        if isinstance(other, (str, int, ipaddress.IPv6Address)):
            try:
                return self._int == Address(other)._int
            except ValueError:
                return False
        return NotImplemented

    def __lt__(self, other: "Address") -> bool:
        return self._int < Address(other)._int

    def __hash__(self) -> int:
        return hash(self._int)

    def __reduce__(self):
        return (Address, (self._int,))

    def __str__(self) -> str:
        try:
            return _TEXT[self._int]
        except KeyError:
            text = _TEXT[self._int] = str(ipaddress.IPv6Address(self._int))
            return text

    def __repr__(self) -> str:
        return f"Address({str(self)!r})"


class Prefix:
    """An IPv6 network prefix (one per simulated link).

    ``network`` is the network address as an int; ``mask`` has the
    ``prefix_len`` leading bits set.

    >>> p = Prefix("2001:db8:1::/64")
    >>> p.contains(Address("2001:db8:1::42"))
    True
    >>> str(p.address_for_host(5))
    '2001:db8:1::5'
    """

    __slots__ = ("network", "prefix_len", "mask", "_text")

    def __init__(self, value: Union[str, "Prefix", ipaddress.IPv6Network]) -> None:
        net = ipaddress.IPv6Network(value._text if isinstance(value, Prefix) else value)
        self.network, self.prefix_len = int(net.network_address), net.prefixlen
        self._text = str(net)
        self.mask = _ALL_ONES ^ (_ALL_ONES >> self.prefix_len)

    def contains(self, address: Address) -> bool:
        return address._int & self.mask == self.network

    def address_for_host(self, host_id: int) -> Address:
        """Form an address on this prefix with the given interface id.

        Models stateless address autoconfiguration: prefix (from Router
        Advertisement) + interface identifier.
        """
        if host_id <= 0:
            raise ValueError("host_id must be positive")
        addr = self.network + host_id
        if addr & self.mask != self.network:
            raise ValueError(f"host_id {host_id} exceeds prefix {self}")
        return Address(addr)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return (self.network, self.prefix_len) == (other.network, other.prefix_len)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.network, self.prefix_len))

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Prefix({self._text!r})"


#: All-nodes link-scope multicast (ff02::1) — MLD General Queries go here.
ALL_NODES = Address("ff02::1")

#: All-routers link-scope multicast (ff02::2) — MLD Done messages go here.
ALL_ROUTERS = Address("ff02::2")

#: All-PIM-routers link-scope multicast (ff02::d) — PIM control messages.
ALL_PIM_ROUTERS = Address("ff02::d")

#: The unspecified address.
UNSPECIFIED = Address("::")


def is_multicast(address: _AddressLike) -> bool:
    """True when ``address`` is an IPv6 multicast address."""
    return Address(address).is_multicast


def make_multicast_group(group_id: int) -> Address:
    """Allocate a global-scope multicast group address (ff1e::/112 pool).

    >>> str(make_multicast_group(1))
    'ff1e::1'
    """
    if not 0 < group_id < 2**32:
        raise ValueError(f"group_id out of range: {group_id}")
    return Address(Address("ff1e::").as_int() + group_id)

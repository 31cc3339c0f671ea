"""Unit + property tests for IPv6 addressing."""

import ipaddress
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    ALL_NODES,
    ALL_PIM_ROUTERS,
    ALL_ROUTERS,
    Address,
    Prefix,
    is_multicast,
    make_multicast_group,
)


class TestAddress:
    def test_from_string(self):
        assert str(Address("2001:db8::1")) == "2001:db8::1"

    def test_from_int_roundtrip(self):
        a = Address("2001:db8::42")
        assert Address(a.as_int()) == a

    def test_copy_constructor(self):
        a = Address("::1")
        assert Address(a) == a

    def test_equality_across_notations(self):
        assert Address("ff02::1") == Address("ff02:0:0:0:0:0:0:1")

    def test_equality_with_string(self):
        assert Address("ff02::1") == "ff02::1"

    def test_equality_with_garbage_is_false(self):
        assert not Address("::1") == "not-an-address"
        assert Address("::1") != "not-an-address"

    def test_equality_with_out_of_range_int_is_false(self):
        assert not Address("::1") == 2**129
        assert not Address("::1") == -1

    def test_scoped_address_rejected(self):
        with pytest.raises(ValueError, match="fe80::1%eth0"):
            Address("fe80::1%eth0")

    def test_out_of_range_int_rejected(self):
        with pytest.raises(ValueError):
            Address(2**128)

    def test_rewrap_is_identity(self):
        a = Address("2001:db8::7")
        assert Address(a) is a

    def test_text_memo_one_entry_per_value(self):
        from repro.net.addressing import _TEXT

        a = Address("2001:db8:77::1")
        str(a)
        size = len(_TEXT)
        assert str(Address(a.as_int())) == "2001:db8:77::1"
        assert len(_TEXT) == size

    def test_hashable(self):
        assert len({Address("::1"), Address("0::1")}) == 1

    def test_ordering_numeric(self):
        assert Address("2001:db8::1") < Address("2001:db8::2")

    def test_multicast_detection(self):
        assert Address("ff1e::5").is_multicast
        assert not Address("2001:db8::5").is_multicast

    def test_link_local(self):
        assert Address("fe80::1").is_link_local
        assert not Address("2001:db8::1").is_link_local

    def test_link_scope_multicast(self):
        assert ALL_NODES.is_link_scope_multicast
        assert ALL_ROUTERS.is_link_scope_multicast
        assert ALL_PIM_ROUTERS.is_link_scope_multicast
        assert not Address("ff1e::1").is_link_scope_multicast
        assert not Address("2001:db8::1").is_link_scope_multicast

    def test_packed_roundtrip(self):
        a = Address("2001:db8:1:2:3:4:5:6")
        assert Address.from_packed(a.packed()) == a

    def test_packed_length(self):
        assert len(Address("::1").packed()) == 16

    def test_from_packed_wrong_length(self):
        with pytest.raises(ValueError):
            Address.from_packed(b"\x00" * 8)

    def test_unspecified(self):
        assert Address("::").is_unspecified
        assert not Address("::1").is_unspecified

    @given(st.integers(min_value=1, max_value=2**128 - 1))
    def test_int_roundtrip_property(self, value):
        assert Address(value).as_int() == value

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_packed_roundtrip_property(self, value):
        a = Address(value)
        assert Address.from_packed(a.packed()) == a


class TestPrefix:
    def test_contains(self):
        p = Prefix("2001:db8:5::/64")
        assert p.contains(Address("2001:db8:5::99"))
        assert not p.contains(Address("2001:db8:6::99"))

    def test_address_for_host(self):
        p = Prefix("2001:db8:1::/64")
        assert str(p.address_for_host(1)) == "2001:db8:1::1"
        assert str(p.address_for_host(0x64)) == "2001:db8:1::64"

    def test_address_for_host_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Prefix("2001:db8::/64").address_for_host(0)

    def test_address_for_host_in_prefix(self):
        p = Prefix("2001:db8:2::/64")
        assert p.contains(p.address_for_host(12345))

    def test_prefix_len(self):
        assert Prefix("2001:db8::/48").prefix_len == 48

    def test_hash_eq(self):
        assert Prefix("2001:db8::/64") == Prefix("2001:db8::/64")
        assert len({Prefix("2001:db8::/64"), Prefix("2001:db8::/64")}) == 1

    @given(st.integers(min_value=1, max_value=2**16))
    def test_host_addresses_distinct(self, host_id):
        p = Prefix("2001:db8:7::/64")
        assert p.address_for_host(host_id) != p.address_for_host(host_id + 1)


class TestWellKnown:
    def test_constants(self):
        assert str(ALL_NODES) == "ff02::1"
        assert str(ALL_ROUTERS) == "ff02::2"
        assert str(ALL_PIM_ROUTERS) == "ff02::d"

    def test_is_multicast_helper(self):
        assert is_multicast("ff02::1")
        assert not is_multicast("2001::1")

    def test_make_multicast_group(self):
        g1, g2 = make_multicast_group(1), make_multicast_group(2)
        assert g1.is_multicast and g2.is_multicast and g1 != g2
        assert not g1.is_link_scope_multicast

    def test_make_multicast_group_bounds(self):
        with pytest.raises(ValueError):
            make_multicast_group(0)
        with pytest.raises(ValueError):
            make_multicast_group(2**32)


# ----------------------------------------------------------------------
# differential: Address / Prefix against the stdlib ipaddress module
# ----------------------------------------------------------------------
_ALL_ONES = 2**128 - 1
_WELL_KNOWN = [
    "::", "::1", "fe80::", "fe80::1", "febf:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
    "fec0::", "fe7f:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "ff00::", "ff02::1",
    "ff02::2", "ff02::d", "ff12::1", "ff05::1", "ff1e::1", "feff::",
    "2001:db8::1", "2001:db8:1::10", "::ffff:10.0.0.1", "1::", "1:0:0:1::",
    "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
]
_addresses = st.one_of(
    st.integers(min_value=0, max_value=_ALL_ONES),
    st.sampled_from([int(ipaddress.IPv6Address(a)) for a in _WELL_KNOWN]),
    # values with long zero runs exercise the "::" compression rules
    st.lists(st.sampled_from([0, 0, 0, 1, 0xFFFF, 0xDB8]), min_size=8, max_size=8).map(
        lambda groups: sum(g << (16 * i) for i, g in enumerate(groups))
    ),
)


class TestDifferentialAgainstIpaddress:
    @given(_addresses)
    def test_text_predicates_and_wire_format(self, value):
        ours, ref = Address(value), ipaddress.IPv6Address(value)
        assert str(ours) == str(ref)
        assert repr(ours) == f"Address({str(ref)!r})"
        assert Address(str(ref)) == ours and Address(ref) == ours
        assert ours.is_multicast == ref.is_multicast
        assert ours.is_link_local == ref.is_link_local
        assert ours.is_unspecified == ref.is_unspecified
        assert ours.is_link_scope_multicast == (ref.is_multicast and ref.packed[1] & 0xF == 2)
        assert ours.packed() == ref.packed
        assert Address.from_packed(ref.packed) == ours
        assert pickle.loads(pickle.dumps(ours)) == ours

    @given(_addresses, _addresses)
    def test_order_equality_hash(self, a, b):
        x, y = Address(a), Address(b)
        rx, ry = ipaddress.IPv6Address(a), ipaddress.IPv6Address(b)
        assert (x == y) == (rx == ry)
        assert (x != y) == (rx != ry)
        assert (x < y) == (rx < ry)
        assert (x <= y) == (rx <= ry)
        assert (x > y) == (rx > ry)
        assert (x >= y) == (rx >= ry)
        assert (x == str(ry)) == (rx == ry)
        if x == y:
            assert hash(x) == hash(y)
        assert [str(v) for v in sorted([x, y])] == [str(v) for v in sorted([rx, ry])]

    @given(_addresses, st.integers(min_value=0, max_value=128), _addresses)
    def test_prefix(self, base, length, probe):
        ref = ipaddress.IPv6Network((base, length), strict=False)
        ours = Prefix(str(ref))
        assert str(ours) == str(ref)
        assert repr(ours) == f"Prefix({str(ref)!r})"
        assert ours.prefix_len == length
        assert ours == Prefix(ref) and hash(ours) == hash(Prefix(ref))
        first, last = int(ref.network_address), int(ref.broadcast_address)
        for value in (probe, first, last, first - 1, last + 1):
            if 0 <= value <= _ALL_ONES:
                expected = ipaddress.IPv6Address(value) in ref
                assert ours.contains(Address(value)) == expected
        if ref.num_addresses > 1:
            assert ours.address_for_host(ref.num_addresses - 1) == Address(last)
        with pytest.raises(ValueError):
            ours.address_for_host(ref.num_addresses)
        clone = pickle.loads(pickle.dumps(ours))
        assert clone == ours and str(clone) == str(ours)
        assert clone.contains(Address(first))

"""Tests for the dual-labeled FibTrie."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.trie import FibTrie, Node
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

from tests.conftest import lookup_oracle, make_nexthops, tables

NH = make_nexthops(4)


def bp(bits: str, width: int = 6) -> Prefix:
    return Prefix.from_bits(bits, width=width)


class TestLabels:
    def test_set_get_ot(self):
        trie = FibTrie(6)
        assert trie.set_ot(bp("101"), NH[0]) is None
        assert trie.get_ot(bp("101")) == NH[0]
        assert trie.ot_size == 1

    def test_ot_overwrite_returns_old(self):
        trie = FibTrie(6)
        trie.set_ot(bp("101"), NH[0])
        assert trie.set_ot(bp("101"), NH[1]) == NH[0]
        assert trie.ot_size == 1

    def test_ot_delete_prunes(self):
        trie = FibTrie(6)
        trie.set_ot(bp("10110"), NH[0])
        assert trie.node_count() == 6
        trie.set_ot(bp("10110"), None)
        assert trie.node_count() == 1  # only the root remains

    def test_at_independent_of_ot(self):
        trie = FibTrie(6)
        trie.set_ot(bp("1"), NH[0])
        trie.set_at(bp("1"), NH[1])
        assert trie.get_ot(bp("1")) == NH[0]
        assert trie.get_at(bp("1")) == NH[1]
        trie.set_at(bp("1"), None)
        assert trie.get_ot(bp("1")) == NH[0]
        assert trie.at_size == 0 and trie.ot_size == 1

    def test_at_observer_sees_changes(self):
        trie = FibTrie(6)
        events = []
        trie.at_observer = lambda p, old, new: events.append((p, old, new))
        trie.set_at(bp("01"), NH[2])
        trie.set_at(bp("01"), NH[2])  # no-op, no event
        trie.set_at(bp("01"), None)
        assert events == [(bp("01"), None, NH[2]), (bp("01"), NH[2], None)]


class TestPsiAndPresent:
    def test_psi_functions(self):
        trie = FibTrie(6)
        trie.set_ot(bp("1"), NH[0])
        trie.set_ot(bp("101"), NH[1])
        trie.set_at(bp("10"), NH[2])
        target = bp("10110")
        assert trie.psi_o_a(target)[0].prefix == bp("101")
        assert trie.psi_o_a(bp("101"), inclusive=True)[0].prefix == bp("101")
        assert trie.psi_o_a(bp("101"))[0].prefix == bp("1")
        assert trie.psi_a(target).prefix == bp("10")
        assert trie.psi_o_a(target)[1] is trie.psi_a(target)
        assert trie.psi_o_a(bp("10"))[1] is None  # Ψ_A is proper

    def test_psi_none_when_no_label(self):
        trie = FibTrie(6)
        assert trie.psi_o_a(bp("111")) == (None, None)
        assert trie.psi_a(bp("111")) is None

    def test_present_at(self):
        trie = FibTrie(6)
        assert trie.present_at(bp("111")) == DROP
        trie.set_at(bp("1"), NH[0])
        assert trie.present_at(bp("111")) == NH[0]
        trie.set_at(bp("11"), NH[1])
        assert trie.present_at(bp("111")) == NH[1]
        assert trie.present_at(bp("11")) == NH[1]  # own label counts


class TestPreimages:
    def test_reverse_index(self):
        trie = FibTrie(6)
        ot = trie.ensure(bp("1"))
        ot.d_o = NH[0]
        deagg = trie.ensure(bp("11"))
        deagg.d_a = NH[0]
        trie.set_pi(deagg, ot)
        assert trie.deaggregates_of(ot) == [deagg]
        trie.set_pi(deagg, None)
        assert trie.deaggregates_of(ot) == []

    def test_clearing_at_label_clears_pi(self):
        trie = FibTrie(6)
        ot = trie.ensure(bp("1"))
        ot.d_o = NH[0]
        trie.set_at(bp("11"), NH[0])
        deagg = trie.find(bp("11"))
        trie.set_pi(deagg, ot)
        trie.set_at_node(deagg, None)
        assert deagg.pi is None
        assert trie.deaggregates_of(ot) == []

    def test_nil_node_registry(self):
        trie = FibTrie(6)
        drop_entry = trie.ensure(bp("01"))
        drop_entry.d_a = DROP
        trie.set_pi(drop_entry, trie.nil_node)
        assert trie.deaggregates_of(trie.nil_node) == [drop_entry]


def indexed(width: int, members: list[Prefix]) -> tuple[FibTrie, Node]:
    """A trie whose nil sentinel indexes ``members`` as null routes."""
    trie = FibTrie(width)
    for prefix in members:
        trie.set_at(prefix, DROP)
        trie.set_pi(trie.find(prefix), trie.nil_node)
    return trie, trie.nil_node


def filtered(holder: Node, within: Prefix) -> list[Node]:
    """The reference for a range read: sort everything, then filter."""
    ordered = sorted(holder.deaggs or (), key=lambda node: node.prefix)
    return [node for node in ordered if within.contains(node.prefix)]


@st.composite
def clustered_prefixes(draw, width: int) -> Prefix:
    """Prefixes that often share a value, so they nest at any width."""
    length = draw(st.integers(0, width))
    raw = draw(
        st.one_of(
            st.sampled_from([0, (1 << width) - 1, 0x5A << (width - 8)]),
            st.integers(0, (1 << width) - 1),
        )
    )
    host = width - length
    return Prefix(raw >> host << host, length, width)


class TestDeaggregateIndex:
    @pytest.mark.parametrize("width", [8, 32, 128])
    @given(data=st.data())
    def test_range_read_matches_filter(self, width, data):
        members = data.draw(
            st.lists(clustered_prefixes(width), max_size=24, unique=True)
        )
        trie, holder = indexed(width, members)
        within = data.draw(clustered_prefixes(width))
        if members and data.draw(st.booleans()):
            # An ancestor of some member, so the range is rarely empty.
            member = data.draw(st.sampled_from(members))
            length = data.draw(st.integers(0, member.length))
            host = width - length
            within = Prefix(member.value >> host << host, length, width)
        assert trie.deaggregates_of(holder, within=within) == filtered(
            holder, within
        )
        assert trie.deaggregates_of(holder) == filtered(
            holder, Prefix.root(width)
        )

    def test_root_range_is_everything(self):
        members = [bp("0", 8), bp("1", 8), bp("", 8), bp("11111111", 8)]
        trie, holder = indexed(8, members)
        assert [
            node.prefix
            for node in trie.deaggregates_of(holder, within=bp("", 8))
        ] == sorted(members)

    def test_range_at_the_top_of_the_space(self):
        # 1111/4 ends where the address space ends: value + span == 2**8.
        top = bp("1111", 8)
        assert top.value + (1 << (8 - top.length)) == 1 << 8
        members = [bp("0", 8), bp("111", 8), bp("1111", 8), bp("11111111", 8)]
        trie, holder = indexed(8, members)
        assert [
            node.prefix for node in trie.deaggregates_of(holder, within=top)
        ] == [bp("1111", 8), bp("11111111", 8)]

    def test_same_value_shorter_length_is_excluded(self):
        within = bp("1010", 8)
        shorter = bp("101", 8)  # same value as 1010, one bit shorter
        assert shorter.value == within.value
        members = [shorter, within, bp("10100", 8), bp("1011", 8)]
        trie, holder = indexed(8, members)
        assert [
            node.prefix for node in trie.deaggregates_of(holder, within=within)
        ] == [within, bp("10100", 8)]

    def test_add_discard_round_trips_leave_none(self):
        trie = FibTrie(8)
        first = trie.ensure(bp("1", 8))
        first.d_o = NH[0]
        second = trie.ensure(bp("10", 8))
        second.d_o = NH[0]
        deaggs = [trie.ensure(bp(bits, 8)) for bits in ("101", "1000", "100")]
        for deagg in deaggs:
            deagg.d_a = NH[0]
            trie.set_pi(deagg, first)
        assert len(first.deaggs) == 3
        for deagg in deaggs:
            trie.set_pi(deagg, second)  # re-pointed: leaves first's index
        assert first.deaggs is None
        assert trie.deaggregates_of(second) == sorted(
            deaggs, key=lambda node: node.prefix
        )
        for deagg in deaggs:
            trie.set_pi(deagg, None)
        assert second.deaggs is None
        assert trie.deaggregates_of(second) == []


class TestLookup:
    @given(table=tables(6, nexthop_count=4, max_size=16), address=st.integers(0, 63))
    def test_lookup_matches_linear_oracle(self, table, address):
        trie = FibTrie(6)
        for prefix, nexthop in table.items():
            trie.set_ot(prefix, nexthop)
            trie.set_at(prefix, nexthop)
        expected = lookup_oracle(table, address, 6)
        assert trie.lookup_ot(address) == expected
        assert trie.lookup_at(address) == expected

    @given(table=tables(6, nexthop_count=3, max_size=12))
    def test_tables_roundtrip(self, table):
        trie = FibTrie(6)
        for prefix, nexthop in table.items():
            trie.set_ot(prefix, nexthop)
        assert trie.ot_table() == table
        assert trie.ot_size == len(table)

    @given(table=tables(5, nexthop_count=3, max_size=12))
    def test_delete_all_restores_empty(self, table):
        trie = FibTrie(5)
        for prefix, nexthop in table.items():
            trie.set_ot(prefix, nexthop)
        for prefix in table:
            trie.set_ot(prefix, None)
        assert trie.ot_size == 0
        assert trie.node_count() == 1


class TestPrune:
    def test_prune_keeps_nodes_with_deaggs(self):
        trie = FibTrie(6)
        anchor = trie.ensure(bp("10"))
        dep = trie.ensure(bp("101"))
        dep.d_a = NH[0]
        trie.set_pi(dep, anchor)
        trie.prune(anchor)
        assert trie.find(bp("10")) is anchor  # still attached

    def test_double_prune_is_safe(self):
        trie = FibTrie(6)
        node = trie.ensure(bp("111"))
        trie.prune(node)
        trie.prune(node)  # node already detached; must not raise
        assert trie.find(bp("111")) is None

"""Tests for the ORTC snapshot algorithm: correctness and optimality."""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.optimal import optimal_table_size
from repro.core.ortc import ortc
from repro.core.equivalence import semantically_equivalent
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

from tests.conftest import make_nexthops, tables

NH = make_nexthops(4)


def table_from(entries: dict[str, Nexthop], width: int) -> dict[Prefix, Nexthop]:
    return {Prefix.from_bits(bits, width=width): nh for bits, nh in entries.items()}


class TestPaperExamples:
    def test_figure_2(self):
        """The paper's running example: 3 entries aggregate to 2."""
        a, b = NH[0], NH[1]
        original = {
            Prefix.from_string("128.16.0.0/15"): b,
            Prefix.from_string("128.18.0.0/15"): a,
            Prefix.from_string("128.16.0.0/16"): a,
        }
        aggregated = ortc(original.items())
        assert aggregated == {
            Prefix.from_string("128.16.0.0/14"): a,
            Prefix.from_string("128.17.0.0/16"): b,
        }

    def test_adjacent_siblings_merge(self):
        """2.0.0.0/8 + 3.0.0.0/8 with one nexthop → 2.0.0.0/7 (Section 1)."""
        a = NH[0]
        original = {
            Prefix.from_string("2.0.0.0/8"): a,
            Prefix.from_string("3.0.0.0/8"): a,
        }
        aggregated = ortc(original.items())
        assert aggregated == {Prefix.from_string("2.0.0.0/7"): a}

    def test_single_nexthop_collapses_to_one_entry(self):
        """Figure 6's left edge: one IGP nexthop and full coverage → a
        single entry (with holes, hole-puncturing DROP entries remain)."""
        a = NH[0]
        original = table_from({"00": a, "01": a, "1": a, "110": a}, 6)
        aggregated = ortc(original.items(), 6)
        assert len(aggregated) == 1

    def test_single_nexthop_with_hole_keeps_drop(self):
        a = NH[0]
        original = table_from({"00": a, "01": a, "10": a, "111": a}, 6)
        aggregated = ortc(original.items(), 6)
        assert len(aggregated) == 2
        assert semantically_equivalent(original, aggregated, 6)


class TestSemantics:
    def test_empty_table(self):
        assert ortc([], 8) == {}

    def test_hole_preserved_not_whiteholed(self):
        """Unrouted space must stay unrouted (no whiteholing)."""
        a = NH[0]
        original = table_from({"00": a, "10": a}, 4)
        aggregated = ortc(original.items(), 4)
        assert semantically_equivalent(original, aggregated, 4)
        # Address 0b0100 (in the 01 hole) must still be unrouted.
        covering = [p for p in aggregated if p.contains_address(0b0100)]
        assert all(aggregated[p] == DROP for p in covering)

    def test_explicit_drop_when_cheaper(self):
        """Three same-nexthop /2s around one hole: optimal is root + DROP."""
        a = NH[0]
        original = table_from({"00": a, "10": a, "11": a}, 4)
        aggregated = ortc(original.items(), 4)
        assert len(aggregated) == 2
        assert semantically_equivalent(original, aggregated, 4)
        assert DROP in aggregated.values()

    def test_default_route(self):
        a, b = NH[0], NH[1]
        original = {
            Prefix.root(4): a,
            Prefix.from_bits("01", width=4): b,
        }
        aggregated = ortc(original.items(), 4)
        assert aggregated == original  # already optimal

    def test_large_nexthop_keys(self):
        """A set is as wide as the run's distinct nexthops, whatever their
        keys: netsim's EGRESS (key 9,999,999) beside small keys aggregates
        with the min-key tie-break and small sets."""
        import tracemalloc

        from repro.netsim import EGRESS

        a = NH[0]
        pair = {
            Prefix.from_bits("0", width=4): EGRESS,
            Prefix.from_bits("1", width=4): a,
        }
        assert ortc(pair.items(), 4) == {
            Prefix.root(4): a,
            Prefix.from_bits("0", width=4): EGRESS,
        }

        table = {
            Prefix.from_bits(format(index, "06b"), width=8): EGRESS if index % 3 else a
            for index in range(64)
        }
        tracemalloc.start()
        try:
            aggregated = ortc(table.items(), 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert semantically_equivalent(table, aggregated, 8)
        # A set indexed by raw key would hold 1.25 MB per EGRESS node.
        assert peak < 1_000_000

    def test_width_mismatch_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ortc([(Prefix.from_bits("1", width=4), NH[0])], 8)

    @settings(max_examples=400, deadline=None)
    @given(table=tables(6, nexthop_count=4, max_size=24))
    def test_equivalence_random(self, table):
        aggregated = ortc(table.items(), 6)
        assert semantically_equivalent(table, aggregated, 6)

    @settings(max_examples=150, deadline=None)
    @given(table=tables(8, nexthop_count=5, max_size=40))
    def test_equivalence_random_width8(self, table):
        aggregated = ortc(table.items(), 8)
        assert semantically_equivalent(table, aggregated, 8)


class TestOptimality:
    @settings(max_examples=200, deadline=None)
    @given(table=tables(5, nexthop_count=3, max_size=16))
    def test_matches_independent_dp(self, table):
        """ORTC's size equals the exact DP optimum."""
        assert len(ortc(table.items(), 5)) == optimal_table_size(table, 5)

    @settings(max_examples=80, deadline=None)
    @given(table=tables(6, nexthop_count=4, max_size=20))
    def test_matches_independent_dp_width6(self, table):
        assert len(ortc(table.items(), 6)) == optimal_table_size(table, 6)

    @settings(max_examples=150, deadline=None)
    @given(table=tables(6, nexthop_count=3, max_size=20))
    def test_never_larger_than_input(self, table):
        assert len(ortc(table.items(), 6)) <= len(table)

    @settings(max_examples=100, deadline=None)
    @given(table=tables(6, nexthop_count=3, max_size=20))
    def test_idempotent_size(self, table):
        """Aggregating an optimal table cannot shrink it further."""
        first = ortc(table.items(), 6)
        second = ortc(first.items(), 6)
        assert len(second) == len(first)

    def test_deterministic(self):
        table = table_from({"0": NH[0], "10": NH[1], "110": NH[2]}, 6)
        assert ortc(table.items(), 6) == ortc(table.items(), 6)

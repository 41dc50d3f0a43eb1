"""Tests for nexthops, the registry, and the BGP→IGP round-robin mapper."""

from __future__ import annotations

import pytest

from repro.net.nexthop import DROP, Nexthop, NexthopRegistry, RoundRobinIgpMapper


class TestNexthop:
    def test_equality_by_key(self):
        assert Nexthop(3) == Nexthop(3, "other-name")
        assert Nexthop(3) != Nexthop(4)

    def test_ordering(self):
        assert sorted([Nexthop(2), DROP, Nexthop(0)]) == [
            DROP,
            Nexthop(0),
            Nexthop(2),
        ]

    def test_drop_sentinel(self):
        assert DROP.key == -1
        assert str(DROP) == "DROP"

    def test_default_name(self):
        assert str(Nexthop(7)) == "nh7"

    def test_key_below_drop_rejected(self):
        # ORTC ranks a run's nexthops by key and needs DROP's -1 first.
        assert Nexthop(-1, "null").key == -1
        with pytest.raises(ValueError, match="below -1"):
            Nexthop(-2)


class TestRegistry:
    def test_sequential_keys(self):
        registry = NexthopRegistry()
        a, b, c = registry.create_many(3)
        assert [a.key, b.key, c.key] == [0, 1, 2]
        assert len(registry) == 3

    def test_lookup_by_key_and_name(self):
        registry = NexthopRegistry()
        nh = registry.create("peer-east")
        assert registry.get(nh.key) is nh
        assert registry.by_name("peer-east") is nh

    def test_duplicate_name_rejected(self):
        registry = NexthopRegistry()
        registry.create("x")
        with pytest.raises(ValueError):
            registry.create("x")

    def test_iteration_excludes_drop(self):
        registry = NexthopRegistry()
        registry.create_many(2)
        assert DROP not in list(registry)
        assert len(list(registry)) == 2


class TestRoundRobinIgpMapper:
    def test_round_robin_assignment(self):
        registry = NexthopRegistry()
        igp = registry.create_many(2, prefix="igp")
        bgp = registry.create_many(5, prefix="bgp")
        mapper = RoundRobinIgpMapper(igp)
        assigned = [mapper.map(nh) for nh in bgp]
        assert assigned == [igp[0], igp[1], igp[0], igp[1], igp[0]]

    def test_sticky(self):
        registry = NexthopRegistry()
        igp = registry.create_many(3, prefix="igp")
        bgp = registry.create_many(2, prefix="bgp")
        mapper = RoundRobinIgpMapper(igp)
        first = mapper.map(bgp[0])
        mapper.map(bgp[1])
        assert mapper.map(bgp[0]) is first

    def test_drop_maps_to_drop(self):
        registry = NexthopRegistry()
        mapper = RoundRobinIgpMapper(registry.create_many(1, prefix="igp"))
        assert mapper.map(DROP) is DROP

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            RoundRobinIgpMapper([])

    def test_mapping_snapshot(self):
        registry = NexthopRegistry()
        igp = registry.create_many(1, prefix="igp")
        bgp = registry.create("b0")
        mapper = RoundRobinIgpMapper(igp)
        mapper.map(bgp)
        assert mapper.mapping == {bgp: igp[0]}

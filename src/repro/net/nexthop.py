"""Nexthops and the BGP-to-IGP nexthop mapping.

The paper aggregates over *IGP* nexthops: many BGP nexthops resolve to one
IGP nexthop (an adjacent interface), which creates extra aggregation
opportunity (Section 4.3, Figure 6). :class:`RoundRobinIgpMapper`
implements the round-robin mapping the paper applies to the RouteViews
peers.

``DROP`` is the distinguished null nexthop: address space with no route.
The paper's algorithms treat the null nexthop ε as a first-class alphabet
symbol; an aggregated table may contain explicit DROP (discard/null0)
entries, which preserve forwarding semantics exactly — unlike the
"whiteholing" of the Level-3/4 baselines, which assigns real nexthops to
unrouted space.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class Nexthop:
    """A forwarding nexthop, identified by a small integer key.

    Nexthops are interned by :class:`NexthopRegistry`; identity of equal
    keys is not required, equality and hashing go through ``key``. Ordering
    (by key) gives the deterministic tie-breaks ORTC's pass 3 needs.

    Keys are ``>= -1`` (-1 is DROP): ORTC ranks a run's nexthops by key
    into the bits of its set bitmasks and relies on DROP ranking first.
    """

    __slots__ = ("key", "name")

    def __init__(self, key: int, name: Optional[str] = None) -> None:
        if key < -1:
            raise ValueError(f"nexthop key {key} below -1 (DROP)")
        self.key = key
        self.name = name if name is not None else f"nh{key}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Nexthop) and self.key == other.key

    def __lt__(self, other: "Nexthop") -> bool:
        return self.key < other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Nexthop({self.key}, {self.name!r})"

    def __str__(self) -> str:
        return self.name


#: The null nexthop ε — "no route". Lookups resolving to DROP behave
#: exactly like lookups that match nothing.
DROP = Nexthop(-1, "DROP")


class NexthopRegistry:
    """Allocates and interns :class:`Nexthop` objects with sequential keys."""

    def __init__(self) -> None:
        self._by_key: dict[int, Nexthop] = {DROP.key: DROP}
        self._by_name: dict[str, Nexthop] = {DROP.name: DROP}
        self._next_key = 0

    def create(self, name: Optional[str] = None) -> Nexthop:
        """Allocate a fresh nexthop with the next free key."""
        key = self._next_key
        self._next_key += 1
        nexthop = Nexthop(key, name)
        if nexthop.name in self._by_name:
            raise ValueError(f"duplicate nexthop name {nexthop.name!r}")
        self._by_key[key] = nexthop
        self._by_name[nexthop.name] = nexthop
        return nexthop

    def create_many(self, count: int, prefix: str = "nh") -> list[Nexthop]:
        """Allocate ``count`` nexthops named ``{prefix}{i}``."""
        return [self.create(f"{prefix}{self._next_key}") for _ in range(count)]

    def get(self, key: int) -> Nexthop:
        return self._by_key[key]

    def by_name(self, name: str) -> Nexthop:
        return self._by_name[name]

    def __len__(self) -> int:
        # DROP does not count as an allocated nexthop.
        return len(self._by_key) - 1

    def __iter__(self) -> Iterator[Nexthop]:
        return (nh for key, nh in sorted(self._by_key.items()) if key >= 0)


class RoundRobinIgpMapper:
    """Maps BGP nexthops onto a fixed set of IGP nexthops, round-robin.

    This mirrors Section 4.1.2: "we modeled a varying number of IGP
    nexthops by mapping each eBGP peer to an IGP nexthop in a round-robin
    fashion". The mapping is sticky — a BGP nexthop always maps to the
    same IGP nexthop once seen.
    """

    def __init__(self, igp_nexthops: Iterable[Nexthop]) -> None:
        self._igp = list(igp_nexthops)
        if not self._igp:
            raise ValueError("need at least one IGP nexthop")
        self._mapping: dict[Nexthop, Nexthop] = {}
        self._cursor = 0

    def map(self, bgp_nexthop: Nexthop) -> Nexthop:
        """The IGP nexthop for ``bgp_nexthop`` (assigning one on first use)."""
        if bgp_nexthop is DROP:
            return DROP
        igp = self._mapping.get(bgp_nexthop)
        if igp is None:
            igp = self._igp[self._cursor % len(self._igp)]
            self._cursor += 1
            self._mapping[bgp_nexthop] = igp
        return igp

    @property
    def mapping(self) -> dict[Nexthop, Nexthop]:
        """A copy of the sticky BGP→IGP assignments made so far."""
        return dict(self._mapping)

    def __len__(self) -> int:
        return len(self._igp)

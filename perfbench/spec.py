"""Workload definitions, metric names and the statistics they share.

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the repo root, the one place they are written
down, as is each workload's reason for being there.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

_CONFIG = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


#: What a user of the router sees (printed with ``--trace 0``).
END_TO_END = tuple(Metric(**metric) for metric in _CONFIG["end_to_end"])
#: One layer each (printed with ``--trace 1``); see CATALOG.md.
PER_LAYER = tuple(Metric(**metric) for metric in _CONFIG["per_layer"])

#: Environment knobs that would change what a run measures; removed
#: from the benchmark's own environment and from the daemon's.
ISOLATED_ENV = ("SMALTA_BACKEND", "SMALTA_SNAPSHOT_WORKERS", "REPRO_SCALE")

NEXTHOPS = 8
DFZ_PROFILE = {"allocated_fraction": 0.85, "allocated_runs": 40}
#: Every run of a workload uses the same table; ``--seed`` draws the
#: update sequence. On the sparse profile the table alone moves update
#: cost by tens of percent between seeds (how many null routes hang off
#: the nil sentinel, how many prefixes have no covering route), which
#: would swamp the differences between two versions of the code.
TABLE_SEED = 20111206


@dataclass(frozen=True)
class Workload:
    name: str
    prefixes: int
    #: TableProfile overrides; empty is the dense default profile.
    profile: dict
    backends: tuple[str, ...]
    #: Set-up repetitions per run; setup_s is their median.
    setups: int


WORKLOADS = {
    "burst-flap": Workload("burst-flap", 20_000, {}, ("packed",), 5),
    "daemon-fleet": Workload("daemon-fleet", 20_000, DFZ_PROFILE, ("single", "packed", "sharded"), 3),
}


# -- inputs ----------------------------------------------------------------


class SeededRandom(random.Random):
    """``random.Random`` with ``choices(weights=...)`` cached per list.

    The workload generators draw from one fixed weight list thousands of
    times; the stdlib re-accumulates it on every call. Accumulating once
    and passing ``cum_weights`` consumes the same random numbers and
    returns the same picks, so traces are identical to the plain
    generator's, only built ~10x faster.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._cumulative: dict[int, tuple[Sequence[float], list[float]]] = {}

    def choices(self, population, weights=None, *, cum_weights=None, k=1):  # type: ignore[override]
        if weights is None or cum_weights is not None:
            return super().choices(population, weights, cum_weights=cum_weights, k=k)
        cached = self._cumulative.get(id(weights))
        if cached is None or cached[0] is not weights:
            cached = (weights, list(itertools.accumulate(weights)))
            self._cumulative[id(weights)] = cached
        return super().choices(population, cum_weights=cached[1], k=k)


def make_table(workload: Workload):
    """The workload's table and nexthops (the same on every run)."""
    from repro.net.nexthop import NexthopRegistry
    from repro.workloads.synthetic_table import TableProfile, generate_table

    nexthops = NexthopRegistry().create_many(NEXTHOPS)
    table = generate_table(
        workload.prefixes,
        nexthops,
        SeededRandom(TABLE_SEED),
        profile=TableProfile(**workload.profile),
    )
    return table, nexthops


def closing_updates(table, updates) -> list:
    """The updates that return ``table`` to itself after ``updates``.

    Appended to a generated trace they close it: the next trace starts
    from the loaded table again, so the FIB stays as aggregatable as it
    started however many updates a faster program gets through.
    """
    from repro.net.update import RouteUpdate

    final: dict = {}
    timestamp = 0.0
    for update in updates:
        timestamp = update.timestamp
        final[update.prefix] = update.nexthop
    closing = [
        RouteUpdate.announce(prefix, table[prefix], timestamp)
        for prefix in sorted(final)
        if prefix in table and final[prefix] != table[prefix]
    ]
    closing += [
        RouteUpdate.withdraw(prefix, timestamp)
        for prefix in sorted(final)
        if prefix not in table and final[prefix] is not None
    ]
    return closing


def segment_rngs(seed: int) -> Iterator[SeededRandom]:
    """Endless generators, one per trace, all drawn from ``seed``.

    The update generators run with their default popularity, a Zipf 1.1
    hot set that differs for every generator seed. A run made of many
    short traces averages its cost over as many hot sets instead of
    resting on one.
    """
    root = SeededRandom(seed)
    while True:
        yield SeededRandom(root.getrandbits(64))


# -- statistics ------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (at least one)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_quantile(count: int, wanted: float = 0.99) -> float:
    """The highest quantile up to ``wanted`` with >= 10 samples beyond it."""
    if count <= 10:
        return 0.5
    return min(wanted, math.floor(100 * (count - 10) / count) / 100)


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0

"""Properties of the prefix→shard routing map and the spliced backend.

The sharded backend rests on one function — :func:`repro.core.shards.
shard_index` — and one structural invariant (non-empty shards are
spliced into the root table as real child nodes). This module pins both:

- the shard map is a *partition*: every prefix of length ≥ boundary maps
  to exactly one shard (its top ``boundary`` bits), everything shorter
  lands in the root table, and the boundary cases (``0.0.0.0/0``, the
  ``x.0.0.0/8`` shard bases themselves) go where they must;
- cross-shard LPM: a root-table prefix (e.g. a /7) covering routes that
  live in *two different shards* resolves lookups exactly like the
  reference trie — the regression that would catch a splice that loses
  the covering context at shard boundaries;
- incremental sizes: the backend's ``ot_size``/``at_size`` counts,
  kept per mutation, match a full table walk;
- ``Prefix`` survives pickling.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import (
    TrieBackend,
    backend_name_of,
    make_backend,
    resolve_backend_name,
)
from repro.core.downloads import FibDownload
from repro.core.ortc import ortc
from repro.core.shards import ShardedBackend, default_boundary, shard_index
from repro.core.smalta import SmaltaState
from repro.core.trie import FibTrie
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

from tests.conftest import lookup_oracle, make_nexthops, prefixes, tables

WIDTH = 6
BOUNDARY = 3  # 8 shards at width 6, mirroring /8-of-32 proportions
NEXTHOPS = make_nexthops(4)


# -- the shard map is a partition ------------------------------------------


@settings(max_examples=300, deadline=None)
@given(prefixes(WIDTH))
def test_every_prefix_has_exactly_one_home(prefix):
    index = shard_index(prefix, BOUNDARY)
    if prefix.length < BOUNDARY:
        assert index is None
    else:
        assert index is not None
        assert 0 <= index < (1 << BOUNDARY)
        # The owning shard is named by the top `boundary` bits, i.e. the
        # unique shard base that contains the prefix.
        base = Prefix(index << (WIDTH - BOUNDARY), BOUNDARY, WIDTH)
        assert base.contains(prefix)
        # ...and no other shard base contains it.
        others = [
            other
            for other in range(1 << BOUNDARY)
            if other != index
            and Prefix(other << (WIDTH - BOUNDARY), BOUNDARY, WIDTH).contains(
                prefix
            )
        ]
        assert others == []


def test_boundary_prefixes():
    # The root prefix and everything shorter than the boundary live in
    # the root table.
    assert shard_index(Prefix.root(32), 8) is None
    assert shard_index(Prefix.from_string("128.0.0.0/1"), 8) is None
    assert shard_index(Prefix.from_string("10.0.0.0/7"), 8) is None
    # A shard base itself belongs to its own shard (length == boundary).
    assert shard_index(Prefix.from_string("0.0.0.0/8"), 8) == 0
    assert shard_index(Prefix.from_string("10.0.0.0/8"), 8) == 10
    assert shard_index(Prefix.from_string("255.0.0.0/8"), 8) == 255
    # Longer prefixes inherit the shard of their covering /8.
    assert shard_index(Prefix.from_string("10.20.30.0/24"), 8) == 10
    assert shard_index(Prefix.from_string("203.0.113.0/24"), 8) == 203


def test_default_boundary():
    assert default_boundary(32) == 8
    assert default_boundary(128) == 8
    assert default_boundary(8) == 8
    assert default_boundary(WIDTH) == WIDTH // 2
    assert default_boundary(1) == 1


# -- cross-shard covering prefixes ----------------------------------------


def snapshot_burst(backend: FibTrie) -> list[FibDownload]:
    """Snapshot an OT-only backend: ORTC's table as inserts, in the
    emission order, checked against the entry-stream oracle."""
    expected = ortc(backend.ot_entries(), backend.width)
    burst = SmaltaState(backend.width, backend=backend).snapshot()
    assert burst == [
        FibDownload.insert(prefix, nexthop) for prefix, nexthop in expected.items()
    ]
    return burst


def plan_table(backend: FibTrie) -> dict[Prefix, Nexthop]:
    """The entries ORTC's plan places, for a trie with no AT labels."""
    return {
        node.prefix if bit < 0 else node.prefix.child(bit): label
        for node, bit, label, _ in backend.ortc_table()
    }


def test_root_table_slash7_covers_two_shards():
    """A /7 in the root table covers two /8 shards; LPM through the
    splice must fall back to it exactly where neither shard matches."""
    backend = ShardedBackend(32, boundary=8)
    cover = Prefix.from_string("10.0.0.0/7")  # covers 10.* and 11.*
    in_ten = Prefix.from_string("10.1.0.0/16")
    in_eleven = Prefix.from_string("11.2.0.0/16")
    nh_cover, nh_ten, nh_eleven = make_nexthops(3)
    backend.set_ot(cover, nh_cover)
    backend.set_ot(in_ten, nh_ten)
    backend.set_ot(in_eleven, nh_eleven)

    def addr(text):
        prefix = Prefix.from_string(text + "/32")
        return prefix.value

    # Inside each shard's specific route.
    assert backend.lookup_ot(addr("10.1.2.3")) == nh_ten
    assert backend.lookup_ot(addr("11.2.3.4")) == nh_eleven
    # Elsewhere under the /7 the root-table cover answers — for
    # addresses in BOTH shards it spans.
    assert backend.lookup_ot(addr("10.200.0.1")) == nh_cover
    assert backend.lookup_ot(addr("11.200.0.1")) == nh_cover
    # Outside the /7: unrouted.
    assert backend.lookup_ot(addr("12.0.0.1")) == DROP

    # The aggregated snapshot sees the same world: one entry for the
    # cover, one per more-specific. ``ortc_table`` leaves the trie as it
    # was, so the shards below still hold only OT labels.
    assert plan_table(backend) == {
        cover: nh_cover,
        in_ten: nh_ten,
        in_eleven: nh_eleven,
    }

    # Withdrawing the more-specifics empties and detaches both shards;
    # the /7 keeps answering through the (now shard-free) root table.
    backend.set_ot(in_ten, None)
    backend.set_ot(in_eleven, None)
    assert backend._shards[10].root.parent is None
    assert backend._shards[11].root.parent is None
    assert backend.lookup_ot(addr("10.1.2.3")) == nh_cover
    assert backend.lookup_ot(addr("11.2.3.4")) == nh_cover
    assert plan_table(backend) == {cover: nh_cover}


@settings(max_examples=150, deadline=None)
@given(tables(WIDTH))
def test_sharded_lpm_matches_reference_and_oracle(table):
    reference = FibTrie(WIDTH)
    sharded = ShardedBackend(WIDTH, boundary=BOUNDARY)
    for prefix, nexthop in table.items():
        reference.set_ot(prefix, nexthop)
        sharded.set_ot(prefix, nexthop)
    for address in range(1 << WIDTH):
        expected = lookup_oracle(table, address, WIDTH)
        assert reference.lookup_ot(address) == expected
        assert sharded.lookup_ot(address) == expected
    assert sharded.ot_table() == reference.ot_table() == table
    assert sharded.ot_size == reference.ot_size == len(table)
    # Same aggregation, same order (order feeds download-log identity).
    assert snapshot_burst(sharded) == snapshot_burst(reference)


@settings(max_examples=100, deadline=None)
@given(tables(WIDTH), st.lists(prefixes(WIDTH, min_length=1), max_size=8))
def test_sharded_withdrawals_track_reference(table, removals):
    """Insert a table then withdraw a subset: structures stay identical,
    including shards emptying out and detaching from the root table."""
    reference = FibTrie(WIDTH)
    sharded = ShardedBackend(WIDTH, boundary=BOUNDARY)
    for prefix, nexthop in table.items():
        reference.set_ot(prefix, nexthop)
        sharded.set_ot(prefix, nexthop)
    for prefix in removals:
        assert reference.set_ot(prefix, None) == sharded.set_ot(prefix, None)
    assert sharded.ot_table() == reference.ot_table()
    assert sharded.ot_size == reference.ot_size == len(reference.ot_table())
    assert sharded.node_count() == reference.node_count()
    assert snapshot_burst(sharded) == snapshot_burst(reference)


# -- prefix pickling --------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(prefixes(WIDTH))
def test_prefix_pickle_round_trip(prefix):
    clone = pickle.loads(pickle.dumps(prefix))
    assert clone == prefix and hash(clone) == hash(prefix)


def test_prefix_pickle_round_trip_ipv4():
    prefix = Prefix.from_string("203.0.113.0/24")
    assert pickle.loads(pickle.dumps(prefix)) == prefix


# -- backend selection ------------------------------------------------------


def test_make_backend_and_names(monkeypatch):
    monkeypatch.delenv("SMALTA_BACKEND", raising=False)
    assert resolve_backend_name() == "single"
    assert resolve_backend_name("SHARDED ") == "sharded"
    monkeypatch.setenv("SMALTA_BACKEND", "sharded")
    assert resolve_backend_name() == "sharded"
    backend = make_backend(width=WIDTH)
    assert isinstance(backend, ShardedBackend)
    assert backend_name_of(backend) == "sharded"
    assert backend_name_of(FibTrie(WIDTH)) == "single"
    # Both implementations satisfy the protocol surface.
    assert isinstance(backend, TrieBackend)
    assert isinstance(FibTrie(WIDTH), TrieBackend)
    monkeypatch.setenv("SMALTA_BACKEND", "no-such-backend")
    try:
        resolve_backend_name()
    except ValueError as error:
        assert "no-such-backend" in str(error)
    else:
        raise AssertionError("unknown backend name must raise")


def test_state_accepts_backend_instance():
    backend = ShardedBackend(WIDTH, boundary=BOUNDARY)
    state = SmaltaState(WIDTH, backend=backend)
    assert state.trie is backend
    downloads = state.insert(Prefix(0b1010 << (WIDTH - 4), 4, WIDTH), NEXTHOPS[0])
    assert downloads and state.ot_table()
    state.verify()

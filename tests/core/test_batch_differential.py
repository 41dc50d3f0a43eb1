"""Differential proof of the batched update engine.

For random update sequences and random partitions of them into bursts,
three independently-computed systems must agree:

- **sequential** — one ``apply`` per update (the paper's Algorithms 1–2
  verbatim),
- **batched** — ``apply_batch`` per burst (per-prefix coalescing, one
  download drain per burst),
- **scratch** — ORTC run from scratch over the final table (the ground
  truth both incremental paths must stay semantically equal to).

Agreement means: identical Original Trees, semantically equivalent
Aggregated Trees (SMALTA's AT is path-dependent, so labels may differ;
forwarding behaviour may not — the TaCo check in
:mod:`repro.core.equivalence` decides), structural invariants intact,
and a net ``FibDownload`` stream that replays to exactly the batched
AT/FIB. This is the machinery that keeps every perf refactor honest.

A fourth axis crosses all of the above: every scenario replays on the
**sharded** backend (8 subtries behind a /3 boundary at this width) and
on the **packed** backend (array-packed OT/AT lookup planes over a
shadow trie), each of which must produce *byte-identical* download
streams and tables — not merely equivalent ones — against the reference
single trie. The packed replay additionally proves its incrementally
patched arrays equal to a from-scratch rebuild and its LPM answers equal
to the reference trie's over the whole address space.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.downloads import FibDownload, diff_tables
from repro.core.equivalence import equivalence_counterexample
from repro.core.manager import SmaltaManager
from repro.core.ortc import ortc
from repro.core.packed import PackedBackend
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.core.shards import ShardedBackend
from repro.core.smalta import SmaltaState
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate
from repro.verify import audit_trie

from tests.conftest import make_nexthops

WIDTH = 6
NEXTHOPS = make_nexthops(4)


def to_prefix(length: int, bits: int, width: int = WIDTH) -> Prefix:
    top = bits & ((1 << length) - 1)
    return Prefix(top << (width - length), length, width)


def op_strategy():
    """(announce?, length, bits, nexthop_index, new_burst?) tuples."""
    return st.tuples(
        st.booleans(),
        st.integers(min_value=1, max_value=WIDTH),
        st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
        st.integers(min_value=0, max_value=len(NEXTHOPS) - 1),
        st.booleans(),
    )


def decode(raw) -> tuple[list[tuple[Prefix, Nexthop | None]], list[int]]:
    """Ops plus burst boundaries (indices where a new burst starts)."""
    ops: list[tuple[Prefix, Nexthop | None]] = []
    boundaries: list[int] = []
    for announce, length, bits, nh_index, new_burst in raw:
        if new_burst or not ops:
            boundaries.append(len(ops))
        prefix = to_prefix(length, bits)
        ops.append((prefix, NEXTHOPS[nh_index] if announce else None))
    return ops, boundaries


def bursts_of(ops, boundaries):
    for index, start in enumerate(boundaries):
        end = boundaries[index + 1] if index + 1 < len(boundaries) else len(ops)
        yield ops[start:end]


def make_state(backend: str) -> SmaltaState:
    """A fresh state on the named backend (sharded: /3 boundary → 8
    shards at width 6; packed: stride plan (3, 3) so the multi-level
    block machinery is exercised too)."""
    if backend == "sharded":
        return SmaltaState(WIDTH, backend=ShardedBackend(WIDTH, boundary=3))
    if backend == "packed":
        return SmaltaState(WIDTH, backend=PackedBackend(WIDTH, strides=(3, 3)))
    return SmaltaState(WIDTH)


def run_sequential(
    ops, backend: str = "single"
) -> tuple[SmaltaState, dict[Prefix, Nexthop], list[FibDownload]]:
    """One apply per update, with the manager's withdraw tolerance."""
    state = make_state(backend)
    shadow: dict[Prefix, Nexthop] = {}
    downloads: list[FibDownload] = []
    for prefix, nexthop in ops:
        if nexthop is None:
            try:
                downloads.extend(state.delete(prefix))
            except KeyError:
                pass
            shadow.pop(prefix, None)
        else:
            downloads.extend(state.insert(prefix, nexthop))
            shadow[prefix] = nexthop
        if backend == "sharded":
            assert_sizes(state)
    return state, shadow, downloads


def assert_sizes(state: SmaltaState) -> None:
    """The incrementally kept entry counts match a full table walk."""
    assert state.trie.ot_size == len(state.trie.ot_table())
    assert state.trie.at_size == len(state.trie.at_table())


def node_graph(state: SmaltaState) -> list[tuple]:
    """Every node with its labels and bookkeeping, by identity."""
    trie = state.trie
    return [
        (node, node.d_o, node.d_a, node.pi, frozenset(node.deaggs or ()))
        for node in (*trie.iter_nodes(), trie.nil_node)
    ]


def snapshot_oracle(state: SmaltaState) -> list[FibDownload]:
    """Snapshot ``state`` against the entry-stream ORTC oracle; its burst.

    The rebuilt AT must be exactly ``ortc(ot_entries())`` and the burst,
    as a multiset, exactly the oracle's ``diff_tables`` delta. Past the
    leading inserts of new prefixes the order is the oracle's too (it
    follows the old AT); the inserts come in ORTC emission order, which
    the caller checks across backends (download-log identity).
    """
    trie = state.trie
    old_at = trie.at_table()
    optimal = ortc(trie.ot_entries(), trie.width)
    downloads = state.snapshot()
    assert trie.at_table() == optimal
    expected = diff_tables(old_at, optimal)
    assert Counter(downloads) == Counter(expected)
    inserts = sum(1 for download in expected if download.prefix not in old_at)
    assert all(download.prefix not in old_at for download in downloads[:inserts])
    assert downloads[inserts:] == expected[inserts:]
    assert audit_trie(trie, optimal=True) == []
    return downloads


def assert_snapshot_idempotent(state: SmaltaState) -> None:
    """A second snapshot with no update in between is a no-op: no
    downloads, and every node, label, ``pi`` and ``deaggs`` unchanged."""
    graph = node_graph(state)
    assert state.snapshot() == []
    assert node_graph(state) == graph


def replay(downloads: list[FibDownload]) -> dict[Prefix, Nexthop]:
    """What a kernel FIB holds after absorbing the download stream."""
    fib: dict[Prefix, Nexthop] = {}
    for download in downloads:
        if download.nexthop is None:
            fib.pop(download.prefix, None)
        else:
            fib[download.prefix] = download.nexthop
    return fib


def check_agreement(ops, boundaries) -> None:
    """The core differential: sequential ≡ batched ≡ ORTC-from-scratch,
    each replayed on both trie backends with byte-identical streams."""
    sequential, shadow, seq_downloads = run_sequential(ops)

    batched = SmaltaState(WIDTH)
    downloads: list[FibDownload] = []
    for burst in bursts_of(ops, boundaries):
        downloads.extend(batched.apply_batch(burst))

    # Original Trees: exactly the shadow table on both paths.
    assert sequential.ot_table() == shadow
    assert batched.ot_table() == shadow

    # Aggregated Trees: semantically equivalent to the scratch optimum
    # (hence to each other), and structurally sound.
    scratch = ortc(shadow.items(), WIDTH)
    for state in (sequential, batched):
        mismatch = equivalence_counterexample(state.at_table(), scratch, WIDTH)
        assert mismatch is None, mismatch
        state.verify()

    # The batched download stream replays to exactly the batched AT.
    assert replay(downloads) == batched.at_table()

    # Backend differential: the sharded backend must be byte-identical
    # to the reference trie — same download stream entry for entry (not
    # merely equivalent), same OT, same AT labels.
    sharded_seq, sharded_shadow, sharded_seq_downloads = run_sequential(
        ops, backend="sharded"
    )
    assert sharded_shadow == shadow
    assert sharded_seq_downloads == seq_downloads
    assert sharded_seq.ot_table() == shadow
    assert sharded_seq.at_table() == sequential.at_table()
    sharded_seq.verify()

    sharded_batched = make_state("sharded")
    sharded_downloads: list[FibDownload] = []
    for burst in bursts_of(ops, boundaries):
        sharded_downloads.extend(sharded_batched.apply_batch(burst))
        assert_sizes(sharded_batched)
    assert sharded_downloads == downloads
    assert sharded_batched.ot_table() == shadow
    assert sharded_batched.at_table() == batched.at_table()
    sharded_batched.verify()

    # Packed backend differential: same byte-identity bar as sharded —
    # sequential and batched replays, entry for entry.
    packed_seq, packed_shadow, packed_seq_downloads = run_sequential(
        ops, backend="packed"
    )
    assert packed_shadow == shadow
    assert packed_seq_downloads == seq_downloads
    assert packed_seq.ot_table() == shadow
    assert packed_seq.at_table() == sequential.at_table()
    packed_seq.verify()

    packed_batched = make_state("packed")
    packed_downloads: list[FibDownload] = []
    for burst in bursts_of(ops, boundaries):
        packed_downloads.extend(packed_batched.apply_batch(burst))
    assert packed_downloads == downloads
    assert packed_batched.ot_table() == shadow
    assert packed_batched.at_table() == batched.at_table()
    packed_batched.verify()

    # The packed planes themselves: incremental patching ≡ rebuild from
    # scratch, and the array LPM ≡ the reference trie's node walk over
    # the entire width-6 address space, both label planes.
    assert packed_batched.trie.packed_divergence() is None
    for address in range(1 << WIDTH):
        assert packed_batched.trie.lookup_ot(address) == batched.trie.lookup_ot(
            address
        )
        assert packed_batched.trie.lookup_at(address) == batched.trie.lookup_at(
            address
        )

    # Snapshot on the batched tries (which hold AT-only and bookkeeping
    # nodes): the in-place ORTC equals the entry-stream oracle on every
    # backend, and the bursts are identical entry for entry — order
    # included, since it is part of download-log byte-identity. With the
    # bursts identical, one backend is enough for the idempotence check.
    snapshot_downloads = snapshot_oracle(batched)
    assert snapshot_oracle(sharded_batched) == snapshot_downloads
    assert snapshot_oracle(packed_batched) == snapshot_downloads
    assert_snapshot_idempotent(batched)
    assert sharded_batched.at_table() == batched.at_table()
    assert packed_batched.at_table() == batched.at_table()
    assert_sizes(sharded_batched)
    assert packed_batched.trie.packed_divergence() is None


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(op_strategy(), min_size=1, max_size=60))
def test_batch_differential_property(raw):
    ops, boundaries = decode(raw)
    check_agreement(ops, boundaries)


def test_batch_differential_200_seeded_sequences():
    """The acceptance floor, deterministically: 200 random sequences with
    random burst partitions, every one passing the full differential."""
    rng = random.Random(20110712)
    for _ in range(200):
        ops = []
        boundaries = [0]
        for index in range(rng.randint(1, 40)):
            length = rng.randint(1, WIDTH)
            prefix = to_prefix(length, rng.getrandbits(length))
            if rng.random() < 0.6:
                ops.append((prefix, NEXTHOPS[rng.randrange(len(NEXTHOPS))]))
            else:
                ops.append((prefix, None))
            if rng.random() < 0.3 and index + 1 < 40:
                boundaries.append(len(ops))
        boundaries = sorted(set(b for b in boundaries if b < len(ops)))
        check_agreement(ops, boundaries)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(op_strategy(), min_size=1, max_size=40))
def test_manager_batch_matches_sequential_with_snapshots(raw):
    """Manager-level differential with snapshot policies interleaved:
    apply_batch per burst ≡ apply per update, both forwarding to a FIB
    that ends identical to the live AT."""
    ops, boundaries = decode(raw)

    def to_update(prefix, nexthop):
        if nexthop is None:
            return RouteUpdate.withdraw(prefix)
        return RouteUpdate.announce(prefix, nexthop)

    seq = SmaltaManager(width=WIDTH, policy=PeriodicUpdateCountPolicy(7))
    seq.end_of_rib()
    fib_seq: list[FibDownload] = []
    for prefix, nexthop in ops:
        fib_seq.extend(seq.apply(to_update(prefix, nexthop)))

    bat = SmaltaManager(width=WIDTH, policy=PeriodicUpdateCountPolicy(7))
    bat.end_of_rib()
    fib_bat: list[FibDownload] = []
    for burst in bursts_of(ops, boundaries):
        fib_bat.extend(
            bat.apply_batch(to_update(prefix, nexthop) for prefix, nexthop in burst)
        )

    assert seq.state.ot_table() == bat.state.ot_table()
    assert seq.updates_received == bat.updates_received == len(ops)
    mismatch = equivalence_counterexample(
        seq.fib_table(), bat.fib_table(), WIDTH
    )
    assert mismatch is None, mismatch
    # Each download stream replays to its own manager's FIB exactly.
    assert replay(fib_seq) == seq.fib_table()
    assert replay(fib_bat) == bat.fib_table()

"""Sharded trie backend: fixed /8 subtries spliced under a root table.

DFZ-scale tables are dominated by prefixes of length 8 and longer, so the
IPv4 space partitions naturally at the /8 **boundary**: one
:class:`~repro.core.trie.FibTrie` subtrie per /8 (rooted *at* its /8 base
prefix) plus a tiny root table — the inherited ``FibTrie`` state of the
backend itself — for the handful of prefixes shorter than /8.

The load-bearing trick is that shard roots are **spliced** into the root
table as real child nodes: whenever a shard is non-empty, its root's
``parent`` pointer and the corresponding depth-(boundary-1) child slot
are kept wired, so the composite node graph is node-for-node isomorphic
to the single reference trie. Every inherited whole-graph traversal —
LPM lookups, ψ walks, entry iteration, node counting, the invariants
auditor, the in-place ORTC snapshot — therefore behaves
*identically* by construction. Only point operations are
overridden, and they simply route to the owning shard by the top
``boundary`` bits of the prefix.

Snapshots are therefore not sharded at all: ORTC runs in place over the
spliced graph in one walk (:func:`~repro.core.ortc.ortc_plan`), exactly
as it does over the reference trie.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ortc import PlanStep, ortc_plan
from repro.core.trie import FibTrie, Node
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.obs.observability import Observability


def default_boundary(width: int) -> int:
    """The standard shard boundary: /8 for real address widths.

    Test widths too small to split at 8 bits fall back to the halfway
    point so there is still a meaningful root table above the shards.
    """
    if width >= 8:
        return 8
    return max(1, width // 2)


def shard_index(prefix: Prefix, boundary: int) -> Optional[int]:
    """The index of the shard owning ``prefix``; None → root table.

    Total and single-valued over the prefix space: every prefix of
    length ≥ ``boundary`` maps to exactly the shard whose base is its
    top ``boundary`` bits, and every shorter prefix maps to the root
    table (property-tested in ``tests/core/test_shard_map.py``).
    """
    if prefix.length < boundary:
        return None
    return prefix.value >> (prefix.width - boundary)


class ShardedBackend(FibTrie):
    """A :class:`FibTrie` partitioned into per-/8 subtries.

    The inherited FibTrie state *is* the root table (prefixes shorter
    than ``boundary``); ``self._shards[i]`` holds everything under the
    i-th /boundary prefix. See the module docstring for the splicing
    invariant that makes inherited traversals exact.
    """

    def __init__(
        self,
        width: int = 32,
        boundary: Optional[int] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(width)
        if boundary is None:
            boundary = default_boundary(width)
        if not 1 <= boundary <= width:
            raise ValueError(f"shard boundary {boundary} outside [1, {width}]")
        self.boundary = boundary
        self._shard_shift = width - boundary
        self._shards: list[FibTrie] = [
            FibTrie(width, base=Prefix(index << self._shard_shift, boundary, width))
            for index in range(1 << boundary)
        ]
        self._attached = 0
        #: OT/AT entries held by the shards, kept incrementally because
        #: the size gauges read them on every download drain.
        self._shard_ot = 0
        self._shard_at = 0
        registry = (obs if obs is not None else Observability.null()).registry
        self._c_shard_ops = registry.counter(
            "smalta_shard_ops_total", "Mutations routed to a shard subtrie"
        )
        self._g_shards_attached = registry.gauge(
            "smalta_shards_attached", "Non-empty shard subtries spliced in"
        )

    # -- routing --------------------------------------------------------

    def find(self, prefix: Prefix) -> Optional[Node]:
        index = shard_index(prefix, self.boundary)
        if index is None:
            return super().find(prefix)
        return self._shards[index].find(prefix)

    def ensure(self, prefix: Prefix) -> Node:
        index = shard_index(prefix, self.boundary)
        if index is None:
            return super().ensure(prefix)
        return self._shards[index].ensure(prefix)

    def set_ot(self, prefix: Prefix, nexthop: Optional[Nexthop]) -> Optional[Nexthop]:
        index = shard_index(prefix, self.boundary)
        if index is None:
            return super().set_ot(prefix, nexthop)
        shard = self._shards[index]
        self._c_shard_ops.inc()
        before = shard.ot_size
        old = shard.set_ot(prefix, nexthop)
        self._shard_ot += shard.ot_size - before
        self._sync_shard(shard)
        return old

    def set_at_node(self, node: Node, nexthop: Optional[Nexthop]) -> None:
        index = shard_index(node.prefix, self.boundary)
        if index is None:
            super().set_at_node(node, nexthop)
            return
        shard = self._shards[index]
        self._c_shard_ops.inc()
        # The download observer is installed on the backend after
        # construction (and swapped around batched drains); mirroring it
        # at mutation time keeps every shard a plain unsuspecting FibTrie.
        shard.at_observer = self.at_observer
        before = shard.at_size
        shard.set_at_node(node, nexthop)
        self._shard_at += shard.at_size - before
        # Only a clear can empty a shard, and only a detached shard needs
        # attaching: labeling inside an attached one leaves the splice as
        # it is (the snapshot writes thousands of labels this way).
        if nexthop is None or shard.root.parent is None:
            self._sync_shard(shard)

    # set_at / get_ot / get_at dispatch through find/ensure/set_at_node
    # and need no routing of their own; set_pi is a *global* node-graph
    # operation the splicing invariant keeps correct unchanged (a
    # cross-component prune stops at a detached shard root because its
    # parent pointer is None).

    def prune(self, node: Node) -> None:
        # Inherited global prunes are correct as-is across the splice;
        # this override only maintains the attached-shard bookkeeping
        # when a cascade starting inside a shard empties and detaches
        # the shard's root.
        index = shard_index(node.prefix, self.boundary)
        if index is None:
            super().prune(node)
            return
        shard_root = self._shards[index].root
        was_attached = shard_root.parent is not None
        super().prune(node)
        if was_attached and shard_root.parent is None:
            self._attached -= 1
            self._g_shards_attached.set(self._attached)

    def _sync_shard(self, shard: FibTrie) -> None:
        """Re-establish the splice after a shard mutation.

        A shard that just became empty is detached (and the root-table
        chain above it pruned); a shard that just got its first node is
        attached as a real child of its depth-(boundary-1) parent.
        """
        root = shard.root
        if root.is_empty:
            parent = root.parent
            if parent is None:
                return
            if parent.left is root:
                parent.left = None
            else:
                parent.right = None
            root.parent = None
            self._attached -= 1
            self._g_shards_attached.set(self._attached)
            super().prune(parent)
        elif root.parent is None:
            parent = super().ensure(root.prefix.parent())
            if (root.prefix.value >> self._shard_shift) & 1:
                parent.right = root
            else:
                parent.left = root
            root.parent = parent
            self._attached += 1
            self._g_shards_attached.set(self._attached)

    # -- sizes ----------------------------------------------------------

    @property
    def ot_size(self) -> int:
        return self._ot_count + self._shard_ot

    @property
    def at_size(self) -> int:
        return self._at_count + self._shard_at

    # -- snapshot -------------------------------------------------------

    def ortc_table(self) -> list[PlanStep]:
        # Same body as the inherited method; defined here so tracers that
        # wrap ShardedBackend.__dict__["ortc_table"] keep finding it.
        return ortc_plan(self.root)

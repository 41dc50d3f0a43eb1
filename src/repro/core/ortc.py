"""ORTC — Optimal Routing Table Constructor (Draves, King, Venkatachary, Zill).

SMALTA's ``snapshot(OT)`` is ORTC (Section 2.1 of the paper). The three
passes over the binary tree:

1. **Normalization** — expand so every node has two or no children, with
   each (possibly phantom) leaf owed the nexthop its address space
   resolves to. We do not materialize phantom leaves; the *effective*
   inherited nexthop of each node lets pass 3 emit entries for missing
   children directly.
2. **Bottom-up** — each node receives a set of candidate nexthops:
   ``merge(A, B) = A ∩ B if A ∩ B ≠ ∅ else A ∪ B``.
3. **Top-down** — starting from the root (whose inherited context is the
   null nexthop DROP), a node whose inherited choice appears in its set
   needs no entry; otherwise it is assigned an arbitrary member (we pick
   the minimum key for determinism). Unnecessary leaves disappear because
   they are simply never emitted.

The output is provably minimal in entry count over the alphabet of real
nexthops plus DROP, which is exactly the "no whiteholing" semantics the
paper requires: unrouted space stays unrouted, via structure or via
explicit null-route entries.

The passes run over any node that has ``left``/``right``/``d_o``: the
scratch :class:`_ONode` tree that :func:`ortc` builds from an entry
stream, or the live union trie itself, where a node without an OT label
is just a node that inherits (an AT-only or bookkeeping leaf contributes
exactly what a phantom leaf would). Nexthop sets are int bitmasks over the
run's distinct nexthops ranked by key — DROP, the smallest key, is bit 0,
and the min-key tie-break is the lowest set bit — which keeps pass 2 free
of Python-level hashing and a set no wider than the nexthop count.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

#: One pass-3 emission, ``(node, bit, label, owner)``:
#:
#: - ``bit == -1`` — ``node`` itself, with its new label (None when ORTC
#:   places no entry there);
#: - ``bit`` 0/1 — the phantom child of ``node`` on that side, owed the
#:   entry ``label``.
#:
#: ``owner`` is the nearest OT node strictly enclosing the emitted
#: position (None when there is none), which is what a snapshot's
#: preimage pointers are rebuilt from.
PlanStep = tuple[Any, int, Optional[Nexthop], Any]


class _ONode:
    """Scratch node for an entry-stream ORTC run.

    Carries its own position as plain ints; a :class:`Prefix` is only
    materialized for the nodes that end up emitting an entry. A scratch
    node is never in an Aggregated Tree, hence the constant ``d_a``.
    """

    __slots__ = ("left", "right", "d_o", "value", "length")

    d_a = None

    def __init__(self, value: int, length: int) -> None:
        self.left: Optional[_ONode] = None
        self.right: Optional[_ONode] = None
        self.d_o: Optional[Nexthop] = None
        self.value = value
        self.length = length


def _build(entries: Iterable[tuple[Prefix, Nexthop]], width: int) -> _ONode:
    root = _ONode(0, 0)
    for prefix, nexthop in entries:
        if prefix.width != width:
            raise ValueError(f"{prefix} has width {prefix.width}, expected {width}")
        node = root
        value = prefix.value
        for shift in range(width - 1, width - 1 - prefix.length, -1):
            if (value >> shift) & 1:
                nxt = node.right
                if nxt is None:
                    nxt = node.right = _ONode((value >> shift) << shift, width - shift)
            else:
                nxt = node.left
                if nxt is None:
                    nxt = node.left = _ONode((value >> shift) << shift, width - shift)
            node = nxt
        node.d_o = nexthop
    return root


def ortc_plan(root: Any) -> list[PlanStep]:
    """All three ORTC passes over the tree under ``root``; the emissions.

    Nodes are visited in pre-order, right subtree first, and the plan
    lists, in that order, every node whose new label is set or whose
    current ``d_a`` is set (so a caller can see labels to remove), each
    followed by its phantom children's entries, left then right.
    """
    by_key: dict[int, Nexthop] = {DROP.key: DROP}

    # Pass 1: effective inherited label (as a nexthop key) per node, in
    # pre-order, right subtree first.
    order: list[Any] = []
    effs: list[int] = []
    stack: list[tuple[Any, int]] = [(root, DROP.key)]
    while stack:
        node, eff = stack.pop()
        d_o = node.d_o
        if d_o is not None:
            eff = d_o.key
            if eff not in by_key:
                by_key[eff] = d_o
        order.append(node)
        effs.append(eff)
        if node.left is not None:
            stack.append((node.left, eff))
        if node.right is not None:
            stack.append((node.right, eff))

    # Dense bits by key rank: DROP, the smallest key, is bit 0, so the
    # lowest set bit of a set is its min-key member.
    keys = sorted(by_key)
    bit_of = {key: 1 << rank for rank, key in enumerate(keys)}
    by_bit = {1 << rank: by_key[key] for rank, key in enumerate(keys)}
    effs = [bit_of[key] for key in effs]

    # Pass 2: candidate sets bottom-up. The reverse of pass 1's order is
    # a left-first post-order, so child sets come off a value stack.
    count = len(order)
    masks = [0] * count
    values: list[int] = []
    for index in range(count - 1, -1, -1):
        node = order[index]
        eff = effs[index]
        if node.right is not None:
            right = values.pop()
            if node.left is not None:
                left = values.pop()
            else:
                left = eff
            mask = left & right or left | right
        elif node.left is not None:
            left = values.pop()
            mask = left & eff or left | eff
        else:
            mask = eff
        values.append(mask)
        masks[index] = mask

    # Pass 3: top-down assignment in pass 1's order. The context stack
    # moves in lockstep with it: a node pushes one frame per child, the
    # right child's last, and the next node visited is that child.
    plan: list[PlanStep] = []
    contexts: list[tuple[int, Any]] = [(1, None)]
    for index in range(count):
        node = order[index]
        assigned, owner = contexts.pop()
        mask = masks[index]
        if assigned & mask:
            choice = assigned
            if node.d_a is not None:
                plan.append((node, -1, None, owner))
        else:
            # The virtual context above the root is DROP, so an explicit
            # DROP at the root would be redundant; it cannot happen here
            # because DROP ∈ mask would have taken the branch above.
            choice = mask & -mask
            plan.append((node, -1, by_bit[choice], owner))
        left = node.left
        right = node.right
        if left is None and right is None:
            continue
        eff = effs[index]
        here = node if node.d_o is not None else owner
        # A phantom leaf resolves uniformly to the node's effective
        # inherited nexthop and needs an explicit entry whenever the new
        # propagated choice differs.
        if left is not None:
            contexts.append((choice, here))
        elif eff != choice:
            plan.append((node, 0, by_bit[eff], here))
        if right is not None:
            contexts.append((choice, here))
        elif eff != choice:
            plan.append((node, 1, by_bit[eff], here))
    return plan


def ortc(
    entries: Iterable[tuple[Prefix, Nexthop]], width: int = 32
) -> dict[Prefix, Nexthop]:
    """Optimally aggregate a prefix table.

    ``entries`` is any iterable of ``(prefix, nexthop)`` pairs; the result
    maps prefixes to nexthops (possibly including explicit DROP entries)
    and is semantically equivalent to the input: every address resolves to
    the same nexthop, with "no match" treated as DROP.
    """
    out: dict[Prefix, Nexthop] = {}
    for node, bit, label, _ in ortc_plan(_build(entries, width)):
        if label is None:
            continue  # a scratch node never carries an AT label to remove
        if bit < 0:
            out[Prefix(node.value, node.length, width)] = label
        else:
            length = node.length + 1
            value = node.value | (bit << (width - length))
            out[Prefix(value, length, width)] = label
    return out

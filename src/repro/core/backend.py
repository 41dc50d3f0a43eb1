"""The ``TrieBackend`` seam: how managers address the OT/AT structure.

:class:`~repro.core.smalta.SmaltaState` never touches trie internals
directly — every read and mutation goes through the surface captured by
:class:`TrieBackend` below. Three implementations satisfy it today:

- :class:`~repro.core.trie.FibTrie` — the reference single trie, one
  pointer-chasing structure over the whole prefix space;
- :class:`~repro.core.shards.ShardedBackend` — fixed /8 subtries spliced
  under a tiny root table, with mutations routed to the owning shard;
- :class:`~repro.core.packed.PackedBackend` — the reference trie as a
  shadow plus level-compressed, array-packed OT/AT lookup planes (flat
  stride tables, no per-node objects on the LPM hot path).

Selection is by name through :func:`make_backend`; the default comes
from the ``SMALTA_BACKEND`` environment variable so the whole tier-1
suite can be replayed against the sharded backend unchanged (the CI
matrix leg does exactly that). The differential harness
(``tests/core/test_batch_differential.py``) is what makes the seam safe:
backends must produce byte-identical download logs.
"""

from __future__ import annotations

import os
from typing import (
    Callable,
    Iterator,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.core.ortc import PlanStep
from repro.core.packed import PackedBackend
from repro.core.shards import ShardedBackend
from repro.core.trie import FibTrie, Node
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.obs.observability import Observability

#: Environment variable naming the default backend for new managers.
BACKEND_ENV_VAR = "SMALTA_BACKEND"
SINGLE_BACKEND = "single"
SHARDED_BACKEND = "sharded"
PACKED_BACKEND = "packed"


@runtime_checkable
class TrieBackend(Protocol):
    """The structural surface ``SmaltaState`` and the auditor consume.

    Kept as a protocol (not a base class) so a backend can be anything
    that behaves like the union trie — the sharded backend *is* a
    ``FibTrie`` subclass for maximal behavioural reuse, but nothing
    above the seam may rely on that.
    """

    width: int
    root: Node
    nil_node: Node
    at_observer: Optional[
        Callable[[Prefix, Optional[Nexthop], Optional[Nexthop]], None]
    ]

    def find(self, prefix: Prefix) -> Optional[Node]: ...

    def ensure(self, prefix: Prefix) -> Node: ...

    def prune(self, node: Node) -> None: ...

    def get_ot(self, prefix: Prefix) -> Optional[Nexthop]: ...

    def set_ot(
        self, prefix: Prefix, nexthop: Optional[Nexthop]
    ) -> Optional[Nexthop]: ...

    def get_at(self, prefix: Prefix) -> Optional[Nexthop]: ...

    def set_at(self, prefix: Prefix, nexthop: Optional[Nexthop]) -> None: ...

    def set_at_node(self, node: Node, nexthop: Optional[Nexthop]) -> None: ...

    def set_pi(self, node: Node, preimage: Optional[Node]) -> None: ...

    def deaggregates_of(
        self, node: Node, within: Optional[Prefix] = None
    ) -> list[Node]: ...

    def psi_o_a(
        self, prefix: Prefix, inclusive: bool = False
    ) -> tuple[Optional[Node], Optional[Node]]: ...

    def psi_a(self, prefix: Prefix) -> Optional[Node]: ...

    def present_at(self, prefix: Prefix) -> Nexthop: ...

    def lookup_ot(self, address: int) -> Nexthop: ...

    def lookup_at(self, address: int) -> Nexthop: ...

    def ot_entries(self) -> Iterator[tuple[Prefix, Nexthop]]: ...

    def at_entries(self) -> Iterator[tuple[Prefix, Nexthop]]: ...

    def ot_table(self) -> dict[Prefix, Nexthop]: ...

    def at_table(self) -> dict[Prefix, Nexthop]: ...

    def ortc_table(self) -> list[PlanStep]: ...

    @property
    def ot_size(self) -> int: ...

    @property
    def at_size(self) -> int: ...

    def node_count(self) -> int: ...

    def iter_nodes(self) -> Iterator[Node]: ...

    def close(self) -> None: ...


def _make_single(
    width: int, obs: Optional[Observability] = None, **options: object
) -> FibTrie:
    if options:
        unexpected = ", ".join(sorted(options))
        raise TypeError(f"single backend takes no options (got {unexpected})")
    return FibTrie(width)


_FACTORIES: dict[str, Callable[..., FibTrie]] = {
    SINGLE_BACKEND: _make_single,
    SHARDED_BACKEND: ShardedBackend,
    PACKED_BACKEND: PackedBackend,
}

BACKEND_NAMES = tuple(sorted(_FACTORIES))


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Normalize an explicit backend name, or read the env default."""
    raw = name if name is not None else os.environ.get(BACKEND_ENV_VAR, "")
    resolved = raw.strip().lower() or SINGLE_BACKEND
    if resolved not in _FACTORIES:
        known = ", ".join(BACKEND_NAMES)
        raise ValueError(f"unknown trie backend {resolved!r} (known: {known})")
    return resolved


def make_backend(
    name: Optional[str] = None,
    width: int = 32,
    obs: Optional[Observability] = None,
    **options: object,
) -> FibTrie:
    """Construct a trie backend by name (None → ``$SMALTA_BACKEND``).

    ``options`` are backend-specific knobs — the sharded backend accepts
    ``boundary``; the packed backend accepts ``strides``.
    """
    return _FACTORIES[resolve_backend_name(name)](width, obs=obs, **options)


def backend_name_of(backend: FibTrie) -> str:
    """The selection name a live backend instance answers to."""
    if isinstance(backend, ShardedBackend):
        return SHARDED_BACKEND
    if isinstance(backend, PackedBackend):
        return PACKED_BACKEND
    return SINGLE_BACKEND

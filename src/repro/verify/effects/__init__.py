"""Layer 5: effect/purity inference and concurrency-readiness rules.

The asyncio aggregation daemon hosts many tenants in one process, on a
codebase whose correctness story assumes single-threaded determinism.
This package proves which functions are pure, which state escapes a
tenant's manager, and which call paths would block the event loop or
break the injected-clock / seeded-RNG determinism seams.

It builds on the flow engine (:mod:`repro.verify.flow`): the same
project symbol table and call graph, extended with a bottom-up
interprocedural **effect inference** (:mod:`~repro.verify.effects.infer`)
that summarizes, per function and propagated over the SCCs of the call
graph, every blocking call, raw clock read, unseeded RNG use, IO
operation, and module-global write. Four rules consume the summaries
(:mod:`~repro.verify.effects.rules`):

- **REPRO013** ``blocking-in-async`` — a blocking call (``time.sleep``,
  file IO, subprocess, sockets) reachable from an ``async def``;
- **REPRO014** ``seam-bypass`` — a direct clock read or unseeded RNG
  use outside ``repro.faults`` and the blessed ``rng: random.Random``
  parameter idiom (REPRO003 in the lint layer is its wall-clock-only
  fast-path alias);
- **REPRO015** ``shard-escape`` — module-level mutable state written
  from code reachable by more than one shard entry point
  (``SmaltaManager`` public methods);
- **REPRO017** ``impure-snapshot-path`` — a global write, IO, or
  nondeterminism source reachable from ``snapshot``/``snapshot_now``/
  ``ortc_table``, which must stay a pure function of the trie so
  every backend and every tenant rebuilds the same table.

Run it with ``python -m repro.verify.effects src/repro examples`` (same
text/JSON/SARIF output, ``# repro: allow[RULE]`` suppressions, and
checked-in ``.effects-baseline.json`` contract as the flow CLI), or as
part of the combined ``python -m repro.verify`` run. See
``docs/VERIFICATION.md`` for the effect lattice and the recipe for
blessing a new determinism seam.
"""

from repro.verify.effects.infer import EffectIndex, infer_effects
from repro.verify.effects.rules import RULES, analyze_effects
from repro.verify.effects.summary import EffectSite

__all__ = [
    "RULES",
    "EffectIndex",
    "EffectSite",
    "analyze_effects",
    "infer_effects",
]

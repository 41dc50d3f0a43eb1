"""The concurrency-readiness rule set: REPRO013/014/015/017.

Same contract as the flow rules (:mod:`repro.verify.flow.rules`): each
rule is a plain function from :class:`EffectContext` to findings, and
on ambiguity it stays silent. Findings reuse the flow layer's
:class:`~repro.verify.flow.report.Finding` (and with it the SARIF/
baseline/fingerprint machinery).

How to add a rule: write ``def _rule_<thing>(ctx: EffectContext) ->
list[Finding]``, give it a ``REPRO0xx`` code in :data:`RULES`, add
positive/negative/suppressed fixtures under
``tests/verify/effects_fixtures`` and a catalog entry in
``docs/VERIFICATION.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.verify.cache import AnalysisCache
from repro.verify.config import (
    SourceFile,
    find_repo_root,
    load_sources,
    package_parts,
)
from repro.verify.effects.infer import EffectIndex, infer_effects, is_async
from repro.verify.effects.summary import EffectSite
from repro.verify.flow.callgraph import CallGraph
from repro.verify.flow.project import FunctionInfo, Project
from repro.verify.flow.report import Finding, relativize
from repro.verify.flow.suppress import is_suppressed

#: Packages (under ``repro/``) that *are* the determinism seams — raw
#: clock/RNG use inside them is the implementation of the seam itself.
BLESSED_SEAM_PACKAGES = frozenset({"faults"})

#: Classes whose public methods are shard entry points: every daemon
#: tenant owns one manager, and tenants call into them independently.
SHARD_ENTRY_CLASSES = frozenset({"SmaltaManager"})

#: Functions that must stay a pure function of the trie they snapshot.
SNAPSHOT_ROOT_NAMES = frozenset({"snapshot", "snapshot_now", "ortc_table"})

#: Effect kinds that break snapshot purity (REPRO017).
IMPURE_KINDS = ("global-write", "io", "rng", "clock")


@dataclass
class EffectContext:
    """Everything an effect rule may consult."""

    project: Project
    graph: CallGraph
    index: EffectIndex
    root: Optional[Path]

    def rel(self, path: Path) -> str:
        return relativize(path, self.root)


def _in_blessed_seam(path: Path) -> bool:
    parts = package_parts(path)
    return bool(parts) and parts[0] in BLESSED_SEAM_PACKAGES


# -- REPRO013: blocking call reachable from async -----------------------


def _rule_blocking_in_async(ctx: EffectContext) -> list[Finding]:
    findings: list[Finding] = []
    for qualname in sorted(ctx.project.functions):
        if not is_async(ctx.project, qualname):
            continue
        func = ctx.project.functions[qualname]
        summary = ctx.index.summaries.get(qualname, {})
        for (kind, detail), (chain, site) in sorted(summary.items()):
            if kind != "blocking":
                continue
            route = ctx.index.chain_text(qualname, chain)
            anchor = func.lineno if len(chain) > 0 else site.lineno
            findings.append(
                Finding(
                    "REPRO013",
                    ctx.rel(func.path),
                    anchor,
                    qualname,
                    f"async {qualname} reaches blocking {detail} {route}; "
                    "a blocked event loop stalls every tenant — await an "
                    "async equivalent or offload to an executor",
                )
            )
    return findings


# -- REPRO014: determinism-seam bypass ----------------------------------

_SEAM_HINTS = {
    "clock": (
        "inject the clock instead (a `clock: Callable[[], float]` "
        "parameter defaulting to the time function keeps replays "
        "deterministic)"
    ),
    "rng": (
        "thread a seeded `rng: random.Random` parameter through "
        "(the repo's blessed randomness seam) instead of the "
        "process-global RNG"
    ),
}


def _rule_seam_bypass(ctx: EffectContext) -> list[Finding]:
    findings: list[Finding] = []
    scopes: list[tuple[str, Path, tuple[EffectSite, ...]]] = []
    for name in sorted(ctx.index.module_direct):
        module = ctx.project.modules[name]
        scopes.append((name, module.path, ctx.index.module_direct[name]))
    for qualname in sorted(ctx.index.direct):
        func = ctx.project.functions.get(qualname)
        if func is None:
            continue
        scopes.append((qualname, func.path, ctx.index.direct[qualname]))
    for symbol, path, sites in scopes:
        if _in_blessed_seam(path):
            continue
        for site in sites:
            hint = _SEAM_HINTS.get(site.kind)
            if hint is None:
                continue
            noun = "reads the real clock" if site.kind == "clock" else (
                "draws unseeded randomness"
            )
            findings.append(
                Finding(
                    "REPRO014",
                    ctx.rel(path),
                    site.lineno,
                    symbol,
                    f"{site.detail} {noun}, bypassing the determinism "
                    f"seam; {hint}",
                )
            )
    return findings


# -- REPRO015: shard-escaping module state ------------------------------


def _shard_entry_points(ctx: EffectContext) -> list[FunctionInfo]:
    entries: list[FunctionInfo] = []
    for cls_qual in sorted(ctx.project.classes):
        info = ctx.project.classes[cls_qual]
        if info.name not in SHARD_ENTRY_CLASSES:
            continue
        for method_name in sorted(info.methods):
            if not method_name.startswith("_"):
                entries.append(info.methods[method_name])
    return entries


def _rule_shard_escape(ctx: EffectContext) -> list[Finding]:
    entries = _shard_entry_points(ctx)
    #: global qualname -> entry qualname -> (chain, site)
    writers: dict[str, dict[str, tuple[tuple[str, ...], EffectSite]]] = {}
    for entry in entries:
        summary = ctx.index.summaries.get(entry.qualname, {})
        for (kind, detail), witness in summary.items():
            if kind == "global-write":
                writers.setdefault(detail, {})[entry.qualname] = witness
    findings: list[Finding] = []
    for detail in sorted(writers):
        by_entry = writers[detail]
        if len(by_entry) < 2:
            continue  # single-entry state still belongs to one shard
        module_name, bare = detail.rsplit(".", 1)
        binding = ctx.index.bindings.get(module_name, {}).get(bare)
        module = ctx.project.modules.get(module_name)
        if binding is None or module is None:
            continue
        sample = ", ".join(
            f"{entry} ({ctx.index.chain_text(entry, chain)})"
            for entry, (chain, _site) in sorted(by_entry.items())[:3]
        )
        findings.append(
            Finding(
                "REPRO015",
                ctx.rel(module.path),
                binding.lineno,
                detail,
                f"module-level mutable {detail} is written from "
                f"{len(by_entry)} shard entry points ({sample}); shared "
                "state escapes the shard boundary — move it onto the "
                "manager/shard object or guard it behind an explicit "
                "cross-shard service",
            )
        )
    return findings


# -- REPRO017: impurity reachable from the snapshot path ----------------


def _snapshot_roots(ctx: EffectContext) -> list[FunctionInfo]:
    roots: list[FunctionInfo] = []
    for qualname in sorted(ctx.project.functions):
        func = ctx.project.functions[qualname]
        if func.name not in SNAPSHOT_ROOT_NAMES:
            continue
        # Inside the repo namespace only the core algorithms are roots;
        # fixture/test trees (no ``repro.`` prefix) qualify by name.
        if func.module.startswith("repro.") and not func.module.startswith(
            "repro.core"
        ):
            continue
        roots.append(func)
    return roots


def _rule_impure_snapshot(ctx: EffectContext) -> list[Finding]:
    findings: list[Finding] = []
    for root_func in _snapshot_roots(ctx):
        summary = ctx.index.summaries.get(root_func.qualname, {})
        for (kind, detail), (chain, site) in sorted(summary.items()):
            if kind not in IMPURE_KINDS:
                continue
            route = ctx.index.chain_text(root_func.qualname, chain)
            anchor = root_func.lineno if len(chain) > 0 else site.lineno
            findings.append(
                Finding(
                    "REPRO017",
                    ctx.rel(root_func.path),
                    anchor,
                    root_func.qualname,
                    f"snapshot-path function {root_func.qualname} reaches "
                    f"impure {detail} ({kind}) {route}; a snapshot must be "
                    "a pure function of the trie so every backend and "
                    "every daemon tenant rebuilds the same table (writes "
                    "confined to the manager's own state)",
                )
            )
    return findings


# -- registry ------------------------------------------------------------


@dataclass(frozen=True)
class RuleSpec:
    """One rule's identity and entry point."""

    code: str
    name: str
    summary: str
    run: Callable[[EffectContext], list[Finding]]


RULES: dict[str, RuleSpec] = {
    "REPRO013": RuleSpec(
        "REPRO013",
        "blocking-in-async",
        "blocking call (sleep/file IO/subprocess) reachable from an "
        "async def; it would stall the event loop",
        _rule_blocking_in_async,
    ),
    "REPRO014": RuleSpec(
        "REPRO014",
        "seam-bypass",
        "raw clock read or unseeded RNG outside the repro.faults seams "
        "and the seeded rng-parameter idiom (REPRO003 is its "
        "wall-clock-only fast-path alias)",
        _rule_seam_bypass,
    ),
    "REPRO015": RuleSpec(
        "REPRO015",
        "shard-escape",
        "module-level mutable state written from more than one shard "
        "entry point",
        _rule_shard_escape,
    ),
    "REPRO017": RuleSpec(
        "REPRO017",
        "impure-snapshot-path",
        "global write, IO, or nondeterminism reachable from the "
        "snapshot path, which must be a pure function of the trie",
        _rule_impure_snapshot,
    ),
}


def analyze_effects(
    paths: Sequence[Path],
    select: Optional[frozenset[str]] = None,
    sources: Optional[Sequence[SourceFile]] = None,
    cache: Optional[AnalysisCache] = None,
    project: Optional[Project] = None,
    graph: Optional[CallGraph] = None,
) -> list[Finding]:
    """Run the (selected) effect rules over ``paths``.

    Inline ``# repro: allow[...]`` suppressions are subtracted here;
    baseline subtraction is the CLI's job. A combined run can hand in
    the already-built ``sources``/``project``/``graph`` so nothing is
    parsed or resolved twice.
    """
    if sources is None and project is None:
        sources = load_sources(paths, cache)
    if project is None:
        project = Project.load(paths, sources=sources, cache=cache)
    if graph is None:
        graph = CallGraph.build(project)
    digests = (
        {source.name: source.digest for source in sources}
        if sources is not None
        else None
    )
    index = infer_effects(project, graph, cache=cache, source_digests=digests)
    root = find_repo_root(paths[0]) if len(paths) > 0 else None
    ctx = EffectContext(project, graph, index, root)
    findings: list[Finding] = []
    for code in sorted(RULES):
        if select is not None and code not in select:
            continue
        findings.extend(RULES[code].run(ctx))
    by_path: dict[str, list[str]] = {
        relativize(module.path, root): module.source_lines
        for module in project.modules.values()
    }
    kept = [
        finding
        for finding in findings
        if finding.path not in by_path
        or not is_suppressed(by_path[finding.path], finding.line, finding.rule)
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept

"""Command-line front end: ``python -m repro.verify.effects``.

Same contract as the flow CLI: exit **0** clean (or baselined /
suppressed), **1** new findings, **2** usage error. The checked-in
baseline lives at ``<repo root>/.effects-baseline.json`` and is kept
empty by policy — fix findings, don't bury them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.verify.config import default_cache, find_repo_root
from repro.verify.effects.rules import RULES, analyze_effects
from repro.verify.flow.report import (
    Finding,
    load_baseline,
    render_json,
    render_sarif,
    render_text,
    write_baseline,
)

#: File name of the checked-in baseline at the repo root.
BASELINE_NAME = ".effects-baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.effects",
        description=(
            "SMALTA concurrency-readiness analysis (rules REPRO013-"
            "REPRO017): interprocedural effect/purity inference powering "
            "async-safety, determinism-seam, shard-escape, and "
            "snapshot-purity checks."
        ),
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories")
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="write the report here"
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: <repo root>/{BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings as tolerated and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def _default_baseline(paths: Sequence[Path]) -> Optional[Path]:
    for path in paths:
        root = find_repo_root(path)
        if root is not None:
            candidate = root / BASELINE_NAME
            if candidate.exists():
                return candidate
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            spec = RULES[code]
            print(f"{code}  {spec.name}: {spec.summary}")
        return 0
    if len(args.paths) == 0:
        parser.error("at least one path is required")
    for path in args.paths:
        if not path.exists():
            parser.error(f"no such path: {path}")
    select: Optional[frozenset[str]] = None
    if args.select is not None:
        select = frozenset(
            code.strip() for code in args.select.split(",") if code.strip()
        )
        unknown = select - set(RULES)
        if unknown:
            parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    findings = analyze_effects(
        args.paths, select=select, cache=default_cache(args.paths)
    )
    baseline_path = args.baseline or _default_baseline(args.paths)
    if args.write_baseline:
        target = args.baseline or baseline_path
        if target is None:
            root = find_repo_root(args.paths[0]) or Path.cwd()
            target = root / BASELINE_NAME
        write_baseline(target, findings)
        print(f"wrote {len(findings)} fingerprint(s) to {target}")
        return 0
    fresh: list[Finding] = findings
    if baseline_path is not None:
        known = load_baseline(baseline_path)
        fresh = [f for f in findings if f.fingerprint() not in known]
    if args.format == "text":
        rendered = render_text(fresh)
    elif args.format == "json":
        rendered = render_json(fresh)
    else:
        rendered = render_sarif(
            fresh, {code: spec.summary for code, spec in RULES.items()}
        )
    if args.output is not None:
        args.output.write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return 1 if len(fresh) > 0 else 0

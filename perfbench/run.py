"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload burst-flap --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs half the time untraced and half with the layer
wrappers installed, and prints the per-layer metrics instead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say what
ran (host cores, Python, seed, sizes, transport) and give sample counts.
Spans of a traced run are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.spec import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def collect(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run ``workload`` once; returns (provenance, the result object)."""
    from perfbench.spec import END_TO_END, PER_LAYER

    if workload.name == "daemon-fleet":
        from perfbench import fleet

        result = fleet.run(workload, seed, seconds, trace, ROOT, OUT_DIR)
    else:
        from perfbench import inproc

        result = inproc.run(workload, seed, seconds, trace, OUT_DIR)
    provenance = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host_cores": _host_cores(),
        "python": platform.python_version(),
        "table_prefixes": workload.prefixes,
        "backends": list(workload.backends),
        "transport": "loopback TCP" if workload.name == "daemon-fleet" else "in-process",
        **result["notes"],
    }
    specs = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    metrics = {
        spec.name: {"value": float(values.get(spec.name, 0.0)), "unit": spec.unit}
        for spec in specs
    }
    return provenance, {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    args = _parse(argv)
    from perfbench.spec import ISOLATED_ENV, WORKLOADS

    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    # Measure the checkout's own program, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    provenance, result = collect(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("run " + json.dumps(provenance, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

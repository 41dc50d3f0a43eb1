"""Self-tests of the benchmark harness at a tiny size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import fleet, inproc, run, tracing  # noqa: E402
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS, SeededRandom  # noqa: E402

SECONDS = 0.4


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload's inputs; returns a workload factory."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(inproc, "SEGMENT_BURSTS", 4)
    monkeypatch.setattr(inproc, "SNAPSHOT_EVERY", 1_000)
    monkeypatch.setattr(inproc, "LOOKUPS", 500)
    monkeypatch.setattr(fleet, "TRACE_UPDATES", 3_000)

    def make(name: str):
        return dataclasses.replace(WORKLOADS[name], prefixes=600, setups=1)

    return make


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny, name, trace):
    provenance, result = run.collect(tiny(name), 3, SECONDS, trace)
    specs = PER_LAYER if trace else END_TO_END
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [spec.name for spec in specs]
    for spec in specs:
        assert result["metrics"][spec.name]["unit"] == spec.unit
    if not trace:
        for name_, metric in result["metrics"].items():
            assert metric["value"] > 0, name_
    assert provenance["host_cores"] >= 1
    json.dumps(result)  # the printed line must serialize


def test_self_times_and_unattributed_sum_to_the_traced_wall(tiny):
    from repro.router.pipeline import RouterPipeline

    workload = tiny("burst-flap")
    table, nexthops = inproc.make_table(workload)
    pipeline = RouterPipeline(backend=workload.backends[0])
    pipeline.load_table(table)
    pipeline.end_of_rib()
    ops = inproc._inputs(5, table, nexthops)
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    tracer.started_ns = time.perf_counter_ns()
    try:
        phase = inproc._drive(pipeline, ops, SECONDS, tracer)
    finally:
        tracer.stopped_ns = time.perf_counter_ns()
        installed.remove()
    assert phase.ops > 0
    assert sum(tracer.self_ns) == tracer.root_ns
    assert tracer.unattributed_s() >= 0
    assert sum(tracer.self_ns) / 1e9 + tracer.unattributed_s() == pytest.approx(tracer.wall_s())
    assert tracer.unattributed_s() < 0.5 * tracer.wall_s()
    # Every op has spans; a collector pause before the first op has op 0.
    assert set(tracer.span_op) - {0} == set(range(1, phase.ops + 1))
    # Removing the wrappers restores the program's own methods.
    assert not hasattr(RouterPipeline.apply_burst, "__wrapped__")


def test_gate_fails_when_a_wrong_route_reaches_the_kernel(tiny, monkeypatch):
    from repro.core.downloads import FibDownload

    real_drive = inproc._drive

    def corrupting_drive(pipeline, *args, **kwargs):
        phase = real_drive(pipeline, *args, **kwargs)
        kernel = pipeline.zebra.kernel
        prefix, nexthop = next(iter(kernel.table().items()))
        wrong = next(nh for nh in pipeline.zebra.manager.state.ot_table().values() if nh != nexthop)
        kernel.apply(FibDownload.insert(prefix, wrong))
        return phase

    monkeypatch.setattr(inproc, "_drive", corrupting_drive)
    _, result = run.collect(tiny("burst-flap"), 3, SECONDS, False)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ops_ok_ratio"]["value"] < 1


def test_two_seeds_give_different_inputs_and_the_same_metrics(tiny):
    workload = tiny("burst-flap")
    inputs = []
    names = []
    for seed in (1, 2):
        table, nexthops = inproc.make_table(workload)
        inputs.append(list(itertools.islice(inproc._inputs(seed, table, nexthops), 200)))
        names.append(list(run.collect(workload, seed, SECONDS, False)[1]["metrics"]))
    assert inputs[0] != inputs[1]
    assert names[0] == names[1]


def test_seeded_random_draws_the_same_trace_as_the_stdlib():
    import random

    from repro.workloads.synthetic_updates import generate_update_trace

    table, nexthops = inproc.make_table(dataclasses.replace(WORKLOADS["daemon-fleet"], prefixes=800))
    plain = list(generate_update_trace(table, 2_000, nexthops, random.Random(4)))
    fast = list(generate_update_trace(table, 2_000, nexthops, SeededRandom(4)))
    assert plain == fast


def test_closing_updates_return_the_table_to_itself():
    from repro.workloads.synthetic_updates import generate_burst_trace, generate_update_trace

    from perfbench.spec import closing_updates

    table, nexthops = inproc.make_table(dataclasses.replace(WORKLOADS["daemon-fleet"], prefixes=800))
    traces = [
        list(generate_update_trace(table, 2_000, nexthops, SeededRandom(6))),
        list(generate_burst_trace(table, 20, 200, nexthops, SeededRandom(6), working_set=25)),
    ]
    for trace in traces:
        live = dict(table)
        for update in trace + closing_updates(table, trace):
            if update.nexthop is None:
                live.pop(update.prefix, None)
            else:
                live[update.prefix] = update.nexthop
        assert live == table

"""The in-process workload: burst-flap.

It drives one :class:`~repro.router.pipeline.RouterPipeline` in a
closed loop from this process: the next op is submitted when the
previous one's downloads have reached ``KernelFib`` (the fault-free
channel applies them synchronously), so an op's latency is the time its
public call takes.
"""

from __future__ import annotations

import gc
import resource
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Iterator

from perfbench import tracing
from perfbench.spec import (
    SeededRandom,
    Workload,
    closing_updates,
    make_table,
    quantile,
    segment_rngs,
    share,
    tail_quantile,
)

#: Bursts per generated trace; see ``segment_rngs``.
SEGMENT_BURSTS = 20
#: Bursts of BURST_SIZE updates over working sets of BURST_WORKING_SET
#: prefixes (every prefix touched ~8 times per burst).
BURST_SIZE = 200
BURST_WORKING_SET = 25
SNAPSHOT_EVERY = 40_000
#: Random addresses timed against the packed AT plane after a traced run.
LOOKUPS = 50_000


@dataclass
class Phase:
    """What one timed stretch of ops did."""

    ops: int = 0
    updates: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: Time spent generating inputs, left out of wall_s.
    drawing_s: float = 0.0
    latencies_ns: array = field(default_factory=lambda: array("q"))
    snapshots_s: list[float] = field(default_factory=list)

    def updates_per_s(self) -> float:
        return self.updates / self.wall_s


def _setup(workload: Workload, table) -> tuple[object, float]:
    """Construction, table load and the End-of-RIB snapshot, timed."""
    from repro.router.pipeline import RouterPipeline

    gc.collect()
    started = time.perf_counter()
    pipeline = RouterPipeline(backend=workload.backends[0])
    pipeline.load_table(table)
    pipeline.end_of_rib()
    return pipeline, time.perf_counter() - started


def _inputs(seed: int, table, nexthops) -> Iterator[list]:
    """The endless burst stream: short traces, each closed back to ``table``.

    Traces are generated as the run draws them, so a run covers as many
    hot sets as it has time for without holding them all in memory; the
    run's clock stops while one is generated (see ``_drive``).
    """
    from repro.net.update import iter_bursts
    from repro.workloads.synthetic_updates import generate_burst_trace

    for rng in segment_rngs(seed):
        trace = generate_burst_trace(
            table,
            burst_count=SEGMENT_BURSTS,
            burst_size=BURST_SIZE,
            nexthops=nexthops,
            rng=rng,
            working_set=BURST_WORKING_SET,
        )
        yield from iter_bursts(trace, max_gap_s=0.02)
        # Closing bursts touch as many prefixes as a generated burst
        # does; a 200-prefix burst runs 8x the algorithms and would set
        # the p99 tail.
        closing = closing_updates(table, trace)
        step = BURST_WORKING_SET
        for i in range(0, len(closing), step):
            yield closing[i : i + step]


def _drive(
    pipeline,
    ops: Iterator,
    seconds: float,
    tracer: tracing.Tracer | None = None,
) -> Phase:
    """Run ops until ``seconds`` of measured time pass.

    Drawing the next op from ``ops`` (generating inputs) is not measured.
    """
    phase = Phase()
    # Bound after any tracing install so the wrappers are what runs.
    apply = pipeline.apply_burst
    zebra = pipeline.zebra
    latencies = phase.latencies_ns
    clock = time.perf_counter_ns
    since_snapshot = 0
    started = ready = clock()
    drawing = 0
    deadline = started + int(seconds * 1e9)
    draw = iter(ops).__next__
    while True:
        if tracer is not None:
            tracer.paused = True
        op = draw()
        submitted = clock()
        drawing += submitted - ready
        if tracer is not None:
            tracer.paused = False
            tracer.op += 1
        try:
            apply(op)
        except Exception:  # counted against the run, never fatal
            phase.failed += 1
        done = clock()
        latencies.append(done - submitted)
        size = len(op)
        phase.ops += 1
        phase.updates += size
        since_snapshot += size
        if since_snapshot >= SNAPSHOT_EVERY:
            since_snapshot = 0
            # Settle the collector first so a gen-2 pass owed by earlier
            # bursts does not land inside one snapshot at random; its
            # time still counts in the phase's wall clock.
            gc.collect()
            began = time.perf_counter()
            zebra.snapshot_now()
            phase.snapshots_s.append(time.perf_counter() - began)
        ready = clock()
        if ready - drawing >= deadline:
            break
    phase.wall_s = (ready - started - drawing) / 1e9
    phase.drawing_s = drawing / 1e9
    if tracer is not None:
        tracer.paused_ns += drawing
    return phase


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    table, nexthops = make_table(workload)
    stream = _inputs(seed, table, nexthops)
    setup_times: list[float] = []
    eor_snapshots: list[float] = []
    pipeline = None
    # Half the set-ups run before the measured phase and half after it,
    # so setup_s samples the host at both ends of the run instead of in
    # one stretch of a few seconds.
    for _ in range((workload.setups + 1) // 2):
        if pipeline is not None:
            pipeline.close()
            pipeline = None
        pipeline, took = _setup(workload, table)
        setup_times.append(took)
        eor_snapshots.append(pipeline.zebra.manager.snapshot_durations[-1])
    assert pipeline is not None
    kernel = pipeline.zebra.kernel
    ops_before = kernel.operations
    failed_before = kernel.failed_uninstalls
    gc.collect()

    measured = _drive(pipeline, stream, seconds / 2 if trace else seconds)
    phases = [measured]
    layer: dict[str, float] = {}
    if trace:
        tracer = tracing.Tracer()
        registry = pipeline.obs.registry
        before = tracing.counter_totals([registry])
        installed = tracing.install(tracer)
        tracer.started_ns = time.perf_counter_ns()
        try:
            traced = _drive(pipeline, stream, seconds / 2, tracer)
        finally:
            tracer.stopped_ns = time.perf_counter_ns()
            installed.remove()
        phases.append(traced)
        counters = tracing.counter_deltas(tracing.counter_totals([registry]), before)
        layer = tracing.pipeline_metrics(tracer, counters, traced.updates)
        layer.update(_backend_metrics(pipeline, seed))
        layer["trace.overhead_ratio"] = share(
            traced.wall_s / max(1, traced.updates),
            measured.wall_s / max(1, measured.updates),
        )
        tracer.write(out_dir / f"{workload.name}-seed{seed}.spans")

    kernel_ops = kernel.operations - ops_before
    failed_uninstalls = kernel.failed_uninstalls - failed_before
    correct = pipeline.kernel_matches_rib()
    attempted = sum(phase.ops for phase in phases) + 1  # the gate is an op
    failed = min(
        attempted,
        sum(phase.failed for phase in phases) + failed_uninstalls + (0 if correct else 1),
    )
    updates = sum(phase.updates for phase in phases)
    latencies = measured.latencies_ns
    tail = tail_quantile(len(latencies))
    snapshots = measured.snapshots_s or eor_snapshots
    end_to_end = {
        "updates_per_s": measured.updates_per_s(),
        "fib_latency_p50_ms": quantile(latencies, 0.5) / 1e6,
        "fib_latency_p99_ms": quantile(latencies, tail) / 1e6,
        "snapshot_s": median(snapshots),
        "fib_ratio": len(kernel) / pipeline.zebra.manager.ot_size,
        "downloads_per_update": kernel_ops / max(1, updates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_ratio": 1 - failed / attempted,
    }
    pipeline.close()
    while len(setup_times) < workload.setups:
        pipeline, took = _setup(workload, table)
        setup_times.append(took)
        pipeline.close()
    end_to_end["setup_s"] = median(setup_times)
    notes = {
        "latency_samples": len(latencies),
        "latency_tail_quantile": tail,
        "snapshot_samples": len(snapshots),
        "input_generation_s": sum(phase.drawing_s for phase in phases),
        "setup_samples": setup_times,
    }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "notes": notes,
    }


def _backend_metrics(pipeline, seed: int) -> dict[str, float]:
    """Structure and lookup figures read after the traced phase."""
    from repro.core.packed import PackedBackend

    trie = pipeline.zebra.manager.state.trie
    metrics = {"core.trie.nil_deaggregates": float(len(trie.nil_node.deaggs or ()))}
    if isinstance(trie, PackedBackend):
        metrics.update(packed_metrics(trie, seed))
    return metrics


def packed_metrics(trie, seed: int) -> dict[str, float]:
    """Packed-plane size per OT prefix and the AT lookup rate.

    No served path calls ``lookup_at``; the rate is recorded alongside
    because the planes exist to serve it.
    """
    rng = SeededRandom(seed + 7)
    addresses = [rng.getrandbits(trie.width) for _ in range(LOOKUPS)]
    lookup = trie.lookup_at
    started = time.perf_counter()
    for address in addresses:
        lookup(address)
    took = time.perf_counter() - started
    return {
        "core.packed.bytes_per_prefix": share(trie.packed_bytes(), trie.ot_size),
        "core.packed.lookup_at_per_s": LOOKUPS / took,
    }

"""Layer tracing installed from outside the program.

The benchmark measures the SMALTA update path without touching ``src/``:
:func:`install` replaces the public methods at each layer boundary
(pipeline, zebra, manager, SMALTA core, trie, ORTC, backends, channel,
kernel, and in the daemon the protocol codec, tenant queue and scrape
renderer) with wrappers that record one span per call. Spans live in
flat in-memory arrays, carry the id of the op that caused them, and are
written out once at the end (:meth:`Tracer.write`).

A layer's *self time* is its span's duration minus the part covered by
child spans. Every synchronous span closes before the next await, so one
stack per process gives exact nesting even on the daemon's event loop;
the two awaiting boundaries (the control handler and the feed queue's
``put``) are timed as plain intervals, never pushed on the stack.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from array import array
from pathlib import Path
from statistics import median
from typing import Any, Callable, Optional

#: Spans beyond this many are folded into the per-layer totals but not
#: kept individually, so a fast future program cannot exhaust memory.
MAX_KEPT_SPANS = 1_000_000

_now = time.perf_counter_ns


class Tracer:
    """Spans, per-layer self time, and named samples for one process."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.span_layer = array("i")
        self.span_op = array("q")
        self.span_depth = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped_spans = 0
        #: Open spans: [layer id, start ns, ns covered by children].
        self._stack: list[list[int]] = []
        #: The op (one update, burst or frame) every new span belongs to.
        self.op = 0
        #: Inclusive durations (ns) of selected calls, by series name.
        self.samples: dict[str, list[int]] = {}
        #: Plain counts and maxima, by name.
        self.counts: dict[str, int] = {}
        self.root_ns = 0
        self.started_ns = 0
        self.stopped_ns = 0
        #: Set while the benchmark generates inputs: that time is left
        #: out of the wall time (paused_ns) and collector pauses in it
        #: are not recorded.
        self.paused = False
        self.paused_ns = 0

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = len(self.layers)
            self._layer_ids[name] = lid
            self.layers.append(name)
            self.self_ns.append(0)
        return lid

    def enter(self, lid: int) -> None:
        self._stack.append([lid, _now(), 0])

    def exit(self, sample: Optional[str] = None) -> int:
        end = _now()
        lid, start, child = self._stack.pop()
        duration = end - start
        self.self_ns[lid] += duration - child
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        else:
            self.root_ns += duration
        if len(self.span_layer) < MAX_KEPT_SPANS:
            self.span_layer.append(lid)
            self.span_op.append(self.op)
            self.span_depth.append(len(stack))
            self.span_start.append(start)
            self.span_end.append(end)
        else:
            self.dropped_spans += 1
        if sample is not None:
            self.sample(sample, duration)
        return duration

    def sample(self, name: str, value: int) -> None:
        series = self.samples.get(name)
        if series is None:
            series = self.samples[name] = []
        series.append(value)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def self_s(self, layer: str) -> float:
        lid = self._layer_ids.get(layer)
        return 0.0 if lid is None else self.self_ns[lid] / 1e9

    def wall_s(self) -> float:
        return (self.stopped_ns - self.started_ns - self.paused_ns) / 1e9

    def unattributed_s(self) -> float:
        """Traced wall time covered by no span: the benchmark's own loop in
        process, plus the event loop and socket IO in the daemon."""
        return self.wall_s() - sum(self.self_ns) / 1e9

    def write(self, path: Path) -> None:
        """Write every kept span: a JSON header line, then the five
        int64/int32 columns back to back (layer, op, depth, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "layers": self.layers,
            "spans": len(self.span_layer),
            "dropped_spans": self.dropped_spans,
            "columns": ["layer:i32", "op:i64", "depth:i64", "start_ns:i64", "end_ns:i64"],
        }
        with path.open("wb") as handle:
            handle.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in (
                self.span_layer,
                self.span_op,
                self.span_depth,
                self.span_start,
                self.span_end,
            ):
                column.tofile(handle)


# -- wrappers --------------------------------------------------------------


def _span_wrapper(
    tracer: Tracer,
    layer: str,
    fn: Callable[..., Any],
    sample: Optional[str] = None,
    on_result: Optional[Callable[[Tracer, tuple, Any], None]] = None,
) -> Callable[..., Any]:
    lid = tracer.layer_id(layer)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(lid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(sample)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return wrapper


class Installation:
    """Undo log of the attribute replacements :func:`install` made."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._gc_callback: Optional[Callable[[str, dict], None]] = None

    def replace(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def trace_gc(self, tracer: Tracer) -> None:
        """Time collector pauses as a ``python.gc`` span inside whatever
        span triggered them, so they do not inflate that layer's self time."""
        lid = tracer.layer_id("python.gc")

        def callback(phase: str, info: dict) -> None:
            if tracer.paused:
                return
            if phase == "start":
                tracer.enter(lid)
            else:
                tracer.exit()

        self._gc_callback = callback
        gc.callbacks.append(callback)

    def remove(self) -> None:
        if self._gc_callback is not None:
            gc.callbacks.remove(self._gc_callback)
            self._gc_callback = None
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def _count_deaggregates(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.trie.deaggregates_scanned", len(result))


def _count_burst(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.sample("core.snapshot.burst_downloads", len(result))


def install(tracer: Tracer, daemon: bool = False) -> Installation:
    """Wrap every traced boundary; :meth:`Installation.remove` undoes it.

    Methods are looked up on the class at call time everywhere on the
    traced paths, so replacing class attributes takes effect for objects
    that already exist.
    """
    from repro.core.manager import SmaltaManager
    from repro.core.packed import PackedBackend
    from repro.core.shards import ShardedBackend
    from repro.core.smalta import SmaltaState
    from repro.core.trie import FibTrie
    from repro.router.channel import DownloadChannel
    from repro.router.kernel import KernelFib
    from repro.router.pipeline import RouterPipeline
    from repro.router.zebra import Zebra

    inst = Installation()
    inst.trace_gc(tracer)

    def span(owner: type, name: str, layer: str, **extra: Any) -> None:
        inst.replace(owner, name, _span_wrapper(tracer, layer, owner.__dict__[name], **extra))

    for name in ("apply_update", "apply_burst", "end_of_rib"):
        span(RouterPipeline, name, "router.pipeline")
    for name in ("apply_update", "apply_batch", "end_of_rib", "snapshot_now"):
        span(Zebra, name, "router.zebra")
    for name in ("apply", "apply_batch", "end_of_rib", "snapshot_now"):
        span(SmaltaManager, name, "core.manager")
    span(SmaltaState, "apply_batch", "core.smalta")
    for name in ("insert", "delete"):
        _install_smalta_update(inst, tracer, SmaltaState, name)
    span(SmaltaState, "snapshot", "core.snapshot", sample="core.snapshot", on_result=_count_burst)
    span(FibTrie, "ortc_table", "core.ortc", sample="core.ortc")
    span(ShardedBackend, "ortc_table", "core.ortc", sample="core.ortc")
    span(FibTrie, "deaggregates_of", "core.trie", on_result=_count_deaggregates)
    span(PackedBackend, "_patch_plane", "core.packed")
    for name in ("ot_size", "at_size"):
        prop = ShardedBackend.__dict__[name]
        inst.replace(
            ShardedBackend,
            name,
            property(_span_wrapper(tracer, "core.shards", prop.fget)),
        )
    span(DownloadChannel, "send", "router.channel")
    span(KernelFib, "apply_all", "router.kernel")
    if daemon:
        _install_daemon(inst, tracer)
    return inst


def _install_smalta_update(
    inst: Installation, tracer: Tracer, owner: type, name: str
) -> None:
    from repro.core.backend import backend_name_of

    fn = owner.__dict__[name]
    lid = tracer.layer_id("core.smalta")
    series = "core.smalta." + name

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        tracer.enter(lid)
        try:
            return fn(self, *args, **kwargs)
        finally:
            duration = tracer.exit(series)
            tracer.sample("core.smalta.apply." + backend_name_of(self.trie), duration)

    inst.replace(owner, name, wrapper)


def _install_daemon(inst: Installation, tracer: Tracer) -> None:
    """The daemon-only boundaries: codec, tenant queue, handler, scrape."""
    from repro.daemon import protocol
    from repro.daemon.server import AggregationDaemon
    from repro.daemon.tenant import Tenant

    decode_line = protocol.__dict__["decode_line"]

    def on_line(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.maximum("daemon.protocol.frame_bytes_max", len(args[0]))
        tracer.count("daemon.protocol.frames")

    inst.replace(
        protocol,
        "decode_line",
        _span_wrapper(tracer, "daemon.protocol", decode_line, on_result=on_line),
    )
    inst.replace(
        protocol,
        "decode_update",
        _span_wrapper(tracer, "daemon.protocol", protocol.__dict__["decode_update"]),
    )
    for name in ("ok_response", "error_response"):
        inst.replace(
            protocol,
            name,
            _span_wrapper(tracer, "daemon.protocol.encode", protocol.__dict__[name]),
        )

    def on_render(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.maximum("obs.scrape_bytes", len(result.encode("utf-8")) if result else 0)

    inst.replace(
        AggregationDaemon,
        "_registry_for",
        _span_wrapper(
            tracer,
            "obs",
            AggregationDaemon.__dict__["_registry_for"],
            sample="obs.scrape",
            on_result=on_render,
        ),
    )

    respond = AggregationDaemon.__dict__["_respond"]

    @functools.wraps(respond)
    async def timed_respond(self: Any, line: bytes) -> bytes:
        # One op is a feed frame and the drain after it; the client's
        # compact, key-sorted JSON makes the command a fixed byte string.
        if b'"cmd":"feed"' in line:
            tracer.op += 1
        started = _now()
        try:
            return await respond(self, line)
        finally:
            tracer.sample("daemon.server.respond", _now() - started)

    inst.replace(AggregationDaemon, "_respond", timed_respond)

    enqueued: dict[int, int] = {}
    put = Tenant.__dict__["_put"]

    @functools.wraps(put)
    async def timed_put(self: Any, item: Any) -> None:
        started = _now()
        enqueued[id(item)] = started
        try:
            await put(self, item)
        finally:
            tracer.count("daemon.tenant.backpressure_ns", _now() - started)

    inst.replace(Tenant, "_put", timed_put)

    apply = Tenant.__dict__["_apply"]
    tenant_lid = tracer.layer_id("daemon.tenant")

    @functools.wraps(apply)
    def traced_apply(self: Any, item: Any) -> None:
        stamped = enqueued.pop(id(item), None)
        if stamped is not None:
            tracer.sample("daemon.tenant.queue_wait", _now() - stamped)
        tracer.enter(tenant_lid)
        try:
            apply(self, item)
        finally:
            tracer.exit("daemon.tenant.apply." + self.name)

    inst.replace(Tenant, "_apply", traced_apply)


# -- per-layer metrics -------------------------------------------------------


def counter_totals(registries) -> dict[str, float]:
    """Counter values summed over ``registries``, by name and by series key."""
    from repro.obs.registry import Counter

    totals: dict[str, float] = {}
    for registry in registries:
        for instrument in registry.collect():
            if isinstance(instrument, Counter):
                for key in {instrument.name, instrument.key}:
                    totals[key] = totals.get(key, 0.0) + instrument.value
    return totals


def counter_deltas(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def pipeline_metrics(
    tracer: Tracer, counters: dict[str, float], updates: int
) -> dict[str, float]:
    """The per-layer metrics of the router stack, from one traced phase.

    ``counters`` are registry counter deltas over the phase and
    ``updates`` the updates it incorporated. Layers a workload never
    reaches read 0.
    """
    from perfbench.spec import quantile, share, tail_quantile

    wall = tracer.wall_s()
    samples = tracer.samples
    per_update = max(1, updates)

    def self_share(layer: str) -> float:
        return share(tracer.self_s(layer), wall)

    def series_median(name: str, scale: float) -> float:
        values = samples.get(name)
        return median(values) / scale if values else 0.0

    inserts = samples.get("core.smalta.insert", [])
    snapshots = samples.get("core.snapshot", [])
    ortcs = samples.get("core.ortc", [])
    rests = [whole - part for whole, part in zip(snapshots, ortcs)]
    sharded_apply = sum(samples.get("daemon.tenant.apply.sharded", []))
    metrics = {
        "core.smalta.busy_share": self_share("core.smalta"),
        "core.smalta.insert_us_p99": (
            quantile(inserts, tail_quantile(len(inserts))) / 1e3 if inserts else 0.0
        ),
        "core.smalta.reclaims_per_update": counters.get("smalta_reclaim_calls_total", 0.0)
        / per_update,
        "core.trie.deaggregates_scanned_per_update": tracer.counts.get(
            "core.trie.deaggregates_scanned", 0
        )
        / per_update,
        "core.trie.deaggregates_of_share": self_share("core.trie"),
        "core.smalta.batch_net_ops_ratio": share(
            counters.get("smalta_batch_net_ops_total", 0.0),
            counters.get("smalta_batch_updates_total", 0.0),
        ),
        "core.ortc.ortc_s": series_median("core.ortc", 1e9),
        "core.smalta.snapshot_rest_s": median(rests) / 1e9 if rests else 0.0,
        "core.snapshot.burst_downloads": series_median("core.snapshot.burst_downloads", 1),
        "core.packed.patches_per_update": counters.get("smalta_packed_patches_total", 0.0)
        / per_update,
        "core.shards.size_read_share": share(
            tracer.self_s("core.shards"), sharded_apply / 1e9
        ),
        "router.pipeline.self_share": self_share("router.pipeline"),
        "router.zebra.self_share": self_share("router.zebra"),
        "core.manager.self_share": self_share("core.manager"),
        "router.channel.send_share": self_share("router.channel"),
        "router.channel.retries": counters.get("channel_retries_total", 0.0),
        "router.kernel.ops_per_update": counters.get("kernel_fib_ops_total", 0.0)
        / per_update,
        "router.kernel.failed_uninstalls": counters.get(
            'kernel_fib_ops_total{op="failed_uninstall"}', 0.0
        ),
        "python.gc_share": self_share("python.gc"),
        "trace.unattributed_share": share(tracer.unattributed_s(), wall),
    }
    for backend in ("single", "packed", "sharded"):
        metrics["core.smalta.apply_us_p50." + backend] = series_median(
            "core.smalta.apply." + backend, 1e3
        )
    return metrics

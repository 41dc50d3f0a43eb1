"""The daemon-fleet workload: ``python -m repro.daemon`` over loopback.

One daemon subprocess hosts three tenants, one per trie backend, each
loaded over the control socket with the same table. The measured loop
is closed and runs from this process on at most two connections: the
control connection feeds each tenant in turn one frame of
``FRAME_UPDATES`` sequential updates (one queue item per update) and
then drains it; every ``SCRAPE_EVERY`` rounds a second connection
scrapes ``/metrics`` while the round's frames are in flight.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import re
import resource
import signal
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

from perfbench.spec import (
    ISOLATED_ENV,
    Workload,
    closing_updates,
    make_table,
    quantile,
    segment_rngs,
    share,
    tail_quantile,
)

HOST = "127.0.0.1"
FRAME_UPDATES = 100
#: Table-load frames stay well under the daemon's 64 KiB line buffer.
LOAD_FRAME_UPDATES = 500
SCRAPE_EVERY = 10
#: The replayed cycle: SEGMENTS traces (see ``segment_rngs``) of
#: TRACE_UPDATES generated updates in all; every tenant gets the same
#: frames.
SEGMENTS = 20
TRACE_UPDATES = 30_000
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_UP = re.compile(rb"control [^:]+:(\d+), metrics [^:]+:(\d+)")


def _update_cycle(table, nexthops, seed: int) -> list:
    """SEGMENTS default-mix update traces, each closed back to ``table``.

    The closing updates of each trace come on top of TRACE_UPDATES. A
    run replays the cycle for as long as it measures.
    """
    from repro.workloads.synthetic_updates import generate_update_trace

    cycle: list = []
    for rng in itertools.islice(segment_rngs(seed), SEGMENTS):
        trace = list(generate_update_trace(table, TRACE_UPDATES // SEGMENTS, nexthops, rng))
        cycle += trace + closing_updates(table, trace)
    return cycle


class Daemon:
    """One daemon subprocess and the control connection to it."""

    def __init__(self, proc: asyncio.subprocess.Process, control: int, metrics: int) -> None:
        self.proc = proc
        self.control_port = control
        self.metrics_port = metrics
        self.client: Any = None

    async def connect(self) -> None:
        from repro.daemon.ctl import DaemonClient

        if self.client is not None:
            try:
                await self.client.close()
            except OSError:
                pass
        self.client = await DaemonClient.connect(HOST, self.control_port)

    async def call(self, cmd: str, **args: Any) -> Any:
        return await self.client.call(cmd, **args)

    async def scrape(self, path: str) -> bytes:
        """One HTTP/1.0 GET on the scrape endpoint; the body."""
        reader, writer = await asyncio.open_connection(HOST, self.metrics_port)
        try:
            writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("latin-1"))
            await writer.drain()
            response = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, body = response.partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.0 200"):
            raise OSError(f"scrape of {path} failed: {head[:40]!r}")
        return body

    async def samples(self, tenant: str) -> dict[str, float]:
        from repro.obs.export import parse_prometheus

        return parse_prometheus((await self.scrape(f"/metrics/{tenant}")).decode("utf-8"))

    async def stop(self) -> None:
        """Ask for shutdown, then make sure the process is gone."""
        try:
            if self.client is not None:
                await asyncio.wait_for(self.call("shutdown"), STOP_TIMEOUT_S)
                await self.client.close()
        except Exception:  # a daemon that died is reaped below
            pass
        try:
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()


async def _launch(workload: Workload, root: Path, out_dir: Path, results: Path | None) -> Daemon:
    env = {key: value for key, value in os.environ.items() if key not in ISOLATED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    argv = ["--host", HOST, "--control-port", "0", "--metrics-port", "0"]
    for backend in workload.backends:
        argv += ["--tenant", f"{backend},backend={backend}"]
    if results is None:
        command = [sys.executable, "-m", "repro.daemon", *argv]
    else:
        command = [sys.executable, str(root / "perfbench" / "daemon_launch.py"), str(results), *argv]
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "daemon.log").open("ab") as log:
        proc = await asyncio.create_subprocess_exec(
            *command,
            cwd=str(root),
            env=env,
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.PIPE,
            stderr=log,
        )
    try:
        line = await asyncio.wait_for(proc.stdout.readline(), START_TIMEOUT_S)
        found = _UP.search(line)
        if found is None:
            raise RuntimeError(f"daemon did not come up: {line!r}")
    except BaseException:
        proc.kill()
        await proc.wait()
        raise
    daemon = Daemon(proc, int(found.group(1)), int(found.group(2)))
    await daemon.connect()
    return daemon


async def _setup(workload: Workload, table_frames: list, root: Path, out_dir: Path, results):
    """Launch through every tenant holding its AT; returns (daemon, s)."""
    started = time.perf_counter()
    daemon = await _launch(workload, root, out_dir, results)
    try:
        for tenant in workload.backends:
            for index, frame in enumerate(table_frames):
                last = index == len(table_frames) - 1
                await daemon.call("feed", tenant=tenant, updates=frame, burst=True, end_of_rib=last)
        for tenant in workload.backends:
            await daemon.call("drain", tenant=tenant)
    except BaseException:
        await daemon.stop()
        raise
    return daemon, time.perf_counter() - started


class Phase:
    def __init__(self) -> None:
        self.ops = 0
        self.updates = 0
        self.failed = 0
        self.wall_s = 0.0
        self.latencies_ns: list[int] = []
        self.feed_rtt_ns: list[int] = []
        self.drain_rtt_ns: list[int] = []
        self.calls = 0
        self.call_ns = 0
        self.scrapes = 0
        self.scrape_failures = 0

    def updates_per_s(self) -> float:
        return self.updates / self.wall_s


# EOFError covers asyncio.IncompleteReadError; ValueError is what
# StreamReader.readline raises for a line over its buffer limit.
_TRANSPORT_ERRORS = (OSError, EOFError, ValueError)


async def _drive(daemon: Daemon, tenants, frames, cursor: int, seconds: float, phase: Phase) -> int:
    """Feed+drain rounds until ``seconds`` pass; returns the next round."""
    from repro.daemon.ctl import CtlError

    clock = time.perf_counter_ns
    started = clock()
    deadline = started + int(seconds * 1e9)
    scrape_task = None
    while clock() < deadline:
        frame = frames[cursor % len(frames)]
        if cursor % SCRAPE_EVERY == 0:
            phase.scrapes += 1
            scrape_task = asyncio.ensure_future(daemon.scrape("/metrics"))
        for tenant in tenants:
            phase.ops += 1
            submitted = clock()
            try:
                await daemon.call("feed", tenant=tenant, updates=frame)
                fed = clock()
                await daemon.call("drain", tenant=tenant)
            except (CtlError, *_TRANSPORT_ERRORS):
                phase.failed += 1
                await _reconnect(daemon)
                continue
            done = clock()
            phase.updates += len(frame)
            phase.latencies_ns.append(done - submitted)
            phase.feed_rtt_ns.append(fed - submitted)
            phase.drain_rtt_ns.append(done - fed)
            phase.calls += 2
            phase.call_ns += done - submitted
        if scrape_task is not None:
            try:
                await scrape_task
            except _TRANSPORT_ERRORS:
                phase.scrape_failures += 1
            scrape_task = None
        cursor += 1
    phase.wall_s = (clock() - started) / 1e9
    return cursor


async def _reconnect(daemon: Daemon) -> None:
    try:
        await daemon.connect()
    except OSError:
        await asyncio.sleep(0.1)


async def _totals(daemon: Daemon, tenants) -> dict[str, dict[str, float]]:
    return {tenant: await daemon.samples(tenant) for tenant in tenants}


def _ops(samples: dict[str, dict[str, float]], key: str) -> float:
    return sum(
        value
        for tenant_samples in samples.values()
        for series, value in tenant_samples.items()
        if series.startswith(key)
    )


async def _gate(daemon: Daemon, tenants) -> tuple[bool, dict[str, dict]]:
    """verify is ok and the three backends agree on what they produced."""
    report = await daemon.call("verify")
    summaries = {t: (await daemon.call("summary", tenant=t))["summary"] for t in tenants}
    keys = ("fib_size", "update_downloads", "snapshot_downloads")
    agree = all(
        summaries[t][key] == summaries[tenants[0]][key] for t in tenants for key in keys
    )
    return bool(report.get("ok")) and agree, summaries


async def _run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path) -> dict:
    from repro.daemon import protocol
    from repro.daemon.ctl import CtlError
    from repro.net.update import RouteUpdate

    table, nexthops = make_table(workload)
    announces = [
        protocol.encode_update(RouteUpdate.announce(prefix, nexthop))
        for prefix, nexthop in table.items()
    ]
    table_frames = [
        announces[i : i + LOAD_FRAME_UPDATES] for i in range(0, len(announces), LOAD_FRAME_UPDATES)
    ]
    updates = _update_cycle(table, nexthops, seed)
    encoded = [protocol.encode_update(update) for update in updates]
    frames = [encoded[i : i + FRAME_UPDATES] for i in range(0, len(encoded), FRAME_UPDATES)]
    tenants = list(workload.backends)
    results = (out_dir / f"daemon-fleet-seed{seed}.json") if trace else None
    if results is not None and results.exists():
        results.unlink()

    setup_times: list[float] = []
    eor_snapshots: list[float] = []
    daemon = None
    try:
        for _ in range(workload.setups):
            if daemon is not None:
                await daemon.stop()
                daemon = None
            daemon, took = await _setup(workload, table_frames, root, out_dir, results)
            setup_times.append(took)
            for samples in (await _totals(daemon, tenants)).values():
                eor_snapshots.append(samples["smalta_snapshot_duration_seconds_sum"])
        before = await _totals(daemon, tenants)
        errors_before = await _consumer_errors(daemon, tenants)

        measured = Phase()
        cursor = await _drive(daemon, tenants, frames, 0, seconds / 2 if trace else seconds, measured)
        phases = [measured]
        layer: dict[str, float] = {}
        if trace:
            traced = Phase()
            daemon.proc.send_signal(signal.SIGUSR1)
            await daemon.call("ping")
            cursor = await _drive(daemon, tenants, frames, cursor, seconds / 2, traced)
            daemon.proc.send_signal(signal.SIGUSR2)
            await daemon.call("ping")
            phases.append(traced)
            layer = _layer_metrics(results, measured, traced)

        try:
            after = await _totals(daemon, tenants)
            errors = await _consumer_errors(daemon, tenants) - errors_before
            correct, summaries = await _gate(daemon, tenants)
            fib_ratio = after[tenants[0]]["kernel_fib_size"] / summaries[tenants[0]]["ot_size"]
        except (CtlError, KeyError, *_TRANSPORT_ERRORS):
            # A daemon that cannot answer after the run fails the gate.
            after, errors, correct, fib_ratio = before, 0.0, False, 0.0
    finally:
        if daemon is not None:
            await daemon.stop()

    fed = sum(phase.updates for phase in phases)
    kernel_ops = _ops(after, "kernel_fib_ops_total") - _ops(before, "kernel_fib_ops_total")
    failed_uninstalls = _ops(after, 'kernel_fib_ops_total{op="failed_uninstall"}') - _ops(
        before, 'kernel_fib_ops_total{op="failed_uninstall"}'
    )
    # Scrapes and the gate count as ops beside the feed+drain frames.
    attempted = sum(phase.ops + phase.scrapes for phase in phases) + 1
    failed = min(
        attempted,
        int(
            sum(phase.failed + phase.scrape_failures for phase in phases)
            + errors
            + failed_uninstalls
        )
        + (0 if correct else 1),
    )
    if trace:
        layer["daemon.tenant.consumer_errors"] = float(errors)
    latencies = measured.latencies_ns
    tail = tail_quantile(len(latencies))
    end_to_end = {
        "updates_per_s": measured.updates_per_s(),
        "fib_latency_p50_ms": quantile(latencies, 0.5) / 1e6,
        "fib_latency_p99_ms": quantile(latencies, tail) / 1e6,
        "snapshot_s": median(eor_snapshots),
        "setup_s": median(setup_times),
        "fib_ratio": fib_ratio,
        "downloads_per_update": kernel_ops / max(1, fed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ops_ok_ratio": 1 - failed / attempted,
    }
    notes = {
        "latency_samples": len(latencies),
        "latency_tail_quantile": tail,
        "snapshot_samples": len(eor_snapshots),
        "setup_samples": setup_times,
        "frame_updates": FRAME_UPDATES,
        "tenants": tenants,
    }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "notes": notes,
    }


async def _consumer_errors(daemon: Daemon, tenants) -> float:
    total = 0.0
    for tenant in tenants:
        total += (await daemon.call("summary", tenant=tenant))["summary"]["daemon_consumer_errors"]
    return total


def _layer_metrics(results: Path, measured: Phase, traced: Phase) -> dict[str, float]:
    """Merge the daemon's own figures with what the client saw."""
    import json

    report = json.loads(results.read_text(encoding="utf-8"))
    layer = report["layer"]
    raw = report["raw"]
    feeds = max(1, len(traced.feed_rtt_ns))
    # Client round trips minus the daemon's time inside its handler:
    # the wire, both sides' socket calls, and event-loop scheduling.
    layer["daemon.server.transport_ms_per_frame"] = (
        (traced.call_ns - raw["respond_ns"]) / 1e6 / max(1, traced.calls)
    )
    layer["daemon.server.feed_rtt_ms_p50"] = (
        median(traced.feed_rtt_ns) / 1e6 if traced.feed_rtt_ns else 0.0
    )
    layer["daemon.server.drain_rtt_ms_p50"] = (
        median(traced.drain_rtt_ns) / 1e6 if traced.drain_rtt_ns else 0.0
    )
    layer["daemon.tenant.backpressure_ms_per_frame"] = raw["backpressure_ns"] / 1e6 / feeds
    layer["trace.overhead_ratio"] = share(
        traced.wall_s / max(1, traced.updates), measured.wall_s / max(1, measured.updates)
    )
    return layer


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path) -> dict:
    return asyncio.run(_run(workload, seed, seconds, trace, root, out_dir))

"""Run ``repro.daemon`` with the benchmark's layer tracing on call.

Usage: ``python perfbench/daemon_launch.py RESULTS.json [daemon args...]``

The daemon starts untraced. SIGUSR1 installs the span wrappers in this
process; SIGUSR2 removes them and writes the daemon-side per-layer
metrics to ``RESULTS.json`` (and the spans beside it). The signals are
handled between bytecodes of the event-loop thread, so the benchmark
sends one ``ping`` after each to know it has taken effect.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent


class DaemonTrace:
    """Tracing state of one daemon process."""

    def __init__(self, results: Path) -> None:
        self.results = results
        self.daemon = None
        self.tracer = None
        self.installed = None
        self._before: dict[str, float] = {}
        self._fed_before = 0

    def capture(self) -> None:
        """Keep a handle on the daemon ``main`` constructs."""
        from repro.daemon.server import AggregationDaemon

        original = AggregationDaemon.__init__
        owner = self

        def init(daemon, *args, **kwargs):
            original(daemon, *args, **kwargs)
            owner.daemon = daemon

        AggregationDaemon.__init__ = init

    def _tenants(self):
        return list(self.daemon.tenants.values()) if self.daemon is not None else []

    def _fed(self) -> int:
        return sum(tenant.stats.feed_updates for tenant in self._tenants())

    def start(self, signum=None, frame=None) -> None:
        from perfbench import tracing

        if self.installed is not None:
            return
        self.tracer = tracing.Tracer()
        self._before = tracing.counter_totals(t.obs.registry for t in self._tenants())
        self._fed_before = self._fed()
        self.installed = tracing.install(self.tracer, daemon=True)
        self.tracer.started_ns = time.perf_counter_ns()

    def stop(self, signum=None, frame=None) -> None:
        from perfbench import tracing
        from perfbench.inproc import packed_metrics
        from perfbench.spec import quantile, tail_quantile
        from repro.core.packed import PackedBackend

        if self.installed is None:
            return
        tracer = self.tracer
        tracer.stopped_ns = time.perf_counter_ns()
        self.installed.remove()
        self.installed = None
        tenants = self._tenants()
        counters = tracing.counter_deltas(
            tracing.counter_totals(t.obs.registry for t in tenants), self._before
        )
        updates = self._fed() - self._fed_before
        layer = tracing.pipeline_metrics(tracer, counters, updates)
        frames = tracer.counts.get("daemon.protocol.frames", 0)
        waits = tracer.samples.get("daemon.tenant.queue_wait", [])
        scrapes = tracer.samples.get("obs.scrape", [])
        layer.update(
            {
                "daemon.protocol.decode_ms_per_frame": tracer.self_s("daemon.protocol")
                * 1e3
                / max(1, frames),
                "daemon.protocol.frame_bytes_max": tracer.counts.get(
                    "daemon.protocol.frame_bytes_max", 0
                ),
                "daemon.tenant.queue_wait_ms_p99": (
                    quantile(waits, tail_quantile(len(waits))) / 1e6 if waits else 0.0
                ),
                "obs.scrape_ms_p50": median(scrapes) / 1e6 if scrapes else 0.0,
                "obs.scrape_bytes": tracer.counts.get("obs.scrape_bytes", 0),
            }
        )
        for tenant in tenants:
            trie = tenant.pipeline.zebra.manager.state.trie
            if tenant.name == "single":
                layer["core.trie.nil_deaggregates"] = len(trie.nil_node.deaggs or ())
            if isinstance(trie, PackedBackend):
                layer.update(packed_metrics(trie, 0))
        # Summed here, divided by what the client saw (fleet._layer_metrics).
        raw = {
            "respond_ns": sum(tracer.samples.get("daemon.server.respond", [])),
            "backpressure_ns": tracer.counts.get("daemon.tenant.backpressure_ns", 0),
        }
        tracer.write(self.results.with_suffix(".spans"))
        staging = self.results.with_suffix(".tmp")
        staging.write_text(json.dumps({"layer": layer, "raw": raw}), encoding="utf-8")
        os.replace(staging, self.results)


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    trace = DaemonTrace(Path(argv[0]))
    trace.capture()
    signal.signal(signal.SIGUSR1, trace.start)
    signal.signal(signal.SIGUSR2, trace.stop)
    from repro.daemon.__main__ import main as daemon_main

    return daemon_main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Span tracing from outside the program, for the traced pass only.

Coarse layers are timed with spans that wrap calls into the program's
public entry points.  Each span records its name, start, end and parent;
spans stay in memory until the pass ends.  A layer's self time is its
spans' duration minus the part covered by their child spans.  Each name
is patched where its caller looks it up, and every patch is undone when
the pass ends.

Per-packet layers are too hot to wrap.  For them the traced pass switches
on the program's own stage counters (``repro.perf.STAGES``), which split
the event loop's self time into heap, burst, datapath, codec, handler and
attack-driver buckets.  Counts come from the public stats blocks of every
testbed the pass builds, read when the scenario that built it returns.
"""

from __future__ import annotations

import functools
import os
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

import repro.population.chaos
import repro.population.fleet
import repro.testbed
from repro.experiments import SCENARIOS, ExperimentRunner, RunStore, SweepWriter
from repro.netsim.simulator import Simulator
from repro.perf import STAGES
from repro.population.aggregate import StreamingAggregate

#: Span name of the whole pass (its self time is harness glue).
PASS = "pass"
#: Span name of ``Simulator.run_for``; the stage counters split its self time.
SIM = "netsim.sim"

#: Stage-counter buckets, by the layer metric they feed.
STAGE_LAYERS = {
    "netsim.heap_s": ("heap",),
    "netsim.burst_drain_s": ("burst_drain",),
    "netsim.datapath_s": ("defrag", "checksum", "demux"),
    "netsim.faults_s": ("faults",),
    "ntp.codec_s": ("ntp_decode", "ntp_encode"),
    "dns.codec_s": ("dns_decode", "dns_encode"),
    "core.campaign_send_s": ("campaign_send",),
    "core.progress_check_s": ("progress_check",),
}
#: Span self times, by the layer metric they feed.
SPAN_LAYERS = {
    "experiments.runner_s": "experiments.runner",
    "experiments.scenario_s": "experiments.scenario",
    "experiments.store.append_s": "experiments.store.append",
    "experiments.store.manifest_s": "experiments.store.manifest",
    "experiments.store.fsync_s": "experiments.store.fsync",
    "testbed.build_s": "testbed.build",
    "population.generate_s": "population.generate",
    "population.aggregate_s": "population.aggregate",
    "population.chaos_compile_s": "population.chaos_compile",
    "measurement.report_s": "measurement.report",
}


class Tracer:
    """In-memory span recorder plus the counters harvested from testbeds."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._testbeds: list[Any] = []
        self.counts: dict[str, float] = {}
        #: ``{pool_rate_limit_fraction: [queries, responses]}``.
        self.answers_by_fraction: dict[float, list[int]] = {}

    # ------------------------------------------------------------------ spans
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def wrap(
        self, func: Callable, name: str, after: Optional[Callable[[Any], None]] = None
    ) -> Callable:
        """``func`` timed as a span; ``after(result)`` runs outside the span."""

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _parent), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - children)
        return totals

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    # ---------------------------------------------------------------- counts
    def _capture_testbed(self, testbed: Any) -> None:
        self._testbeds.append(testbed)

    def _harvest(self, _result: Any) -> None:
        """Fold the stats blocks of the testbeds the scenario built."""
        counts = self.counts
        for testbed in self._testbeds:
            simulator, network = testbed.simulator, testbed.network
            faults = network.fault_stats()
            servers = list(testbed.pool.servers.values())
            queries = sum(server.stats.queries_received for server in servers)
            responses = sum(server.stats.responses_sent for server in servers)
            fraction = testbed.config.pool_rate_limit_fraction
            row = self.answers_by_fraction.setdefault(fraction, [0, 0])
            row[0] += queries
            row[1] += responses
            for key, value in (
                ("netsim.events", simulator.events_processed),
                ("netsim.packets", network.packets_transmitted),
                ("netsim.packets_dropped", network.packets_dropped),
                ("netsim.fault_drops", faults.dropped),
                ("netsim.partition_drops", faults.dropped_partition),
                ("ntp.server.queries", queries),
                ("ntp.server.responses", responses),
                ("dns.resolver.queries", testbed.resolver.stats.client_queries),
                (
                    "core.spoofed_queries",
                    testbed.attacker.stats.spoofed_ntp_queries_sent,
                ),
                (
                    "core.associations_removed",
                    sum(c.stats.associations_removed for c in testbed.clients),
                ),
                ("population.sim_s_executed", simulator.now),
                ("client_s_executed", simulator.now * len(testbed.clients)),
                ("testbed.builds", 1),
            ):
                counts[key] = counts.get(key, 0) + value
        self._testbeds.clear()

    # ------------------------------------------------------------ patching
    @contextmanager
    def instrument(self, workloads: Any) -> Iterator[None]:
        """Patch every traced entry point and switch the stage counters on."""
        wrap = self.wrap
        targets = [
            (ExperimentRunner, "run", "experiments.runner", None),
            (ExperimentRunner, "run_stored", "experiments.runner", None),
            (repro.testbed, "build_testbed", "testbed.build", self._capture_testbed),
            (
                repro.population.fleet,
                "build_testbed",
                "testbed.build",
                self._capture_testbed,
            ),
            (repro.population.fleet, "generate_fleet", "population.generate", None),
            (repro.population.chaos, "compile_chaos", "population.chaos_compile", None),
            (Simulator, "run_for", SIM, None),
            (StreamingAggregate, "fold", "population.aggregate", None),
            (StreamingAggregate, "fold_faults", "population.aggregate", None),
            (StreamingAggregate, "to_document", "population.aggregate", None),
            (SweepWriter, "append_record", "experiments.store.append", None),
            (RunStore, "begin_sweep", "experiments.store.manifest", None),
            (RunStore, "open_sweep", "experiments.store.manifest", None),
            (RunStore, "finish_sweep", "experiments.store.manifest", None),
            (os, "fsync", "experiments.store.fsync", None),
            (workloads, "landscape_report", "measurement.report", None),
            (workloads, "degradation_report", "measurement.report", None),
        ]
        with ExitStack() as stack:
            for owner, attr, name, after in targets:
                original = getattr(owner, attr)
                setattr(owner, attr, wrap(original, name, after))
                stack.callback(setattr, owner, attr, original)
            for scenario, original in list(SCENARIOS.items()):
                SCENARIOS[scenario] = wrap(original, "experiments.scenario", self._harvest)
                stack.callback(SCENARIOS.__setitem__, scenario, original)
            STAGES.reset()
            STAGES.enable()
            stack.callback(STAGES.disable)
            yield


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer self times of one traced pass, plus the codec call counts.

    The event loop's self time is split into the stage-counter buckets;
    ``ntp.handler_s`` is the datagram-handler time net of the codec time
    spent inside it.  ``unattributed_s`` is what no layer claims: the
    event loop's remainder (dispatch, transmit, timers, client logic) and
    the harness's own glue between spans.  The self times add up to the
    pass span's duration exactly when every span and stage is mapped.
    """
    times, calls = STAGES.merged()
    spans = tracer.self_times()
    layers: dict[str, float] = {}
    for metric, stages in STAGE_LAYERS.items():
        layers[metric] = sum(times.get(stage, 0.0) for stage in stages)
    codec = layers["ntp.codec_s"] + layers["dns.codec_s"]
    layers["ntp.handler_s"] = times.get("handler", 0.0) - codec
    for metric, name in SPAN_LAYERS.items():
        layers[metric] = spans.get(name, 0.0)
    # The handler bucket contains the codec calls made inside handlers.
    staged = sum(times.values()) - codec
    layers["unattributed_s"] = spans.get(SIM, 0.0) - staged + spans.get(PASS, 0.0)
    codec_calls = {
        metric.replace("_s", "_calls"): sum(calls.get(stage, 0) for stage in stages)
        for metric, stages in STAGE_LAYERS.items()
        if metric.endswith("codec_s")
    }
    return layers, codec_calls

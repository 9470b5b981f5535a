"""Per-layer metrics of a traced run.

Times come from the spans of :mod:`benchlib.trace`; counts of simulated
work come from the program's own counters, read through
``repro.obs.collecting()`` for in-process ops and through the runner's
``on_batch``/``progress`` hooks for pool workers.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from benchlib.trace import CALLBACK_PREFIX, SCHEDULE_SPAN, SpanLog
from benchlib.workloads import POPULATION_JOBS

#: span names (and callback-module prefixes) whose self time is a layer's
LAYER_OF_SPAN = (
    ("sim.", "sim"),
    ("channel.", "channel"),
    ("wifi.", "wifi"),
    ("traffic.", "traffic"),
    ("core.", "core"),
    ("net", "net"),
    ("voice.", "voice"),
    ("analysis.", "analysis"),
    ("sketch.", "analysis"),
    ("batch.", "batch"),
    ("runner.", "runner"),
    # the population op's phase spans: provider_population_study's own
    # code, outside the runner calls inside it
    ("population.", "studies"),
)


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to."""
    if span_name.startswith(CALLBACK_PREFIX):
        # "cb:repro.wifi.ap" -> "wifi"
        parts = span_name[len(CALLBACK_PREFIX):].split(".")
        return parts[1] if len(parts) > 1 and parts[0] == "repro" \
            else "other"
    for prefix, layer in LAYER_OF_SPAN:
        if span_name.startswith(prefix):
            return layer
    return "bench"


def counter_total(registry: Any, name: str) -> float:
    """Sum of counter ``name`` over every label set."""
    return float(sum(metric.value for metric_name, _, metric
                     in registry.items()
                     if metric_name == name and metric.kind == "counter"))


class RunnerTelemetry:
    """``RunnerConfig`` hooks of the population op, split by phase."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.current = "cold"
        self.busy_s = {"cold": 0.0, "warm": 0.0}
        self.executed = 0
        self.cache_hits = 0
        self.warm_total = 0
        self.warm_hits = 0
        self.population_calls = 0.0
        self.cache_bytes = 0

    def phase(self, name: str, cache_dir: Path) -> Any:
        """A span around one phase ("cold" or "warm") of the op.  The
        warm phase only reads, so the cache holds what the cold one
        wrote when it starts."""
        self.current = name
        if name == "warm":
            for parent, _, files in os.walk(cache_dir):
                self.cache_bytes += sum(
                    os.path.getsize(os.path.join(parent, file))
                    for file in files)
        return self.log.span(f"population.{name}")

    def progress(self, event: Any) -> None:
        if not event.cached:
            self.busy_s[self.current] += event.wall_time_s

    def on_batch(self, batch: Any) -> None:
        stats = batch.stats
        self.executed += stats.executed
        self.cache_hits += stats.cache_hits + stats.memo_hits
        if self.current == "warm":
            self.warm_total += stats.total
            self.warm_hits += stats.cache_hits + stats.memo_hits
        elif batch.results and batch.results[0].spec.task.endswith(
                ":provider_pass1_metrics"):
            # Pass 2 re-counts the same calls; count each call once.
            self.population_calls += counter_total(batch.merged_metrics(),
                                                   "population.calls")


def layer_shares(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer's self time as a share of all op time."""
    op_time = totals.get("op", {}).get("total_s", 0.0)
    shares: Dict[str, float] = {}
    for name, row in totals.items():
        if name == "op":
            continue
        layer = layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + row["self_s"]
    return {layer: value / op_time if op_time else 0.0
            for layer, value in sorted(shares.items())}


def per_layer_metrics(log: SpanLog, totals: Dict[str, Dict[str, float]],
                      registry: Any,
                      runner: RunnerTelemetry) -> Dict[str, float]:
    """Every layer metric the traced run reports, by name; ``totals``
    is ``log.totals()``."""

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    def callbacks_self(module_prefix: str) -> float:
        return sum(row["self_s"] for name, row in totals.items()
                   if name.startswith(CALLBACK_PREFIX + module_prefix))

    scheduled = get(SCHEDULE_SPAN, "count")
    executed = counter_total(registry, "sim.events_executed")
    schedule_s = get(SCHEDULE_SPAN, "total_s")
    dispatch_s = get("sim.run", "self_s")
    frames = get("wifi.mac.transmit", "count")
    dropped = counter_total(registry, "mac.frames_dropped")
    runner_batch_cold = sum(
        log.end[i] - log.start[i] for i in _spans_named(log, "runner.batch")
        if log.ancestor_named(i, ("population.cold", "population.warm"))
        == "population.cold")
    busy = runner.busy_s["cold"]
    return {
        "sim.events_scheduled": scheduled,
        "sim.events_executed": executed,
        "sim.events_cancelled": max(
            scheduled - executed - log.pending_at_end, 0.0),
        "sim.useful_event_ratio": executed / scheduled if scheduled else 0.0,
        "sim.peak_queue_depth": float(log.peak_queue_depth),
        "sim.schedule_s": schedule_s,
        "sim.dispatch_self_s": dispatch_s,
        "sim.host_us_per_event": (1e6 * (schedule_s + dispatch_s) / executed
                                  if executed else 0.0),
        "channel.transmit.calls": get("channel.transmit", "count"),
        "channel.transmit_self_s": get("channel.transmit", "self_s"),
        "channel.loss_prob.calls": get("channel.loss_prob", "count"),
        "channel.loss_prob_s": get("channel.loss_prob", "total_s"),
        "wifi.mac.attempts": counter_total(registry, "mac.attempts"),
        "wifi.mac.retries": counter_total(registry, "mac.retries"),
        "wifi.mac.frames_dropped": dropped,
        "wifi.mac.delivery_ratio": (frames - dropped) / frames
        if frames else 0.0,
        "wifi.mac.transmit_self_s": get("wifi.mac.transmit", "self_s"),
        "wifi.ap_s": get("wifi.ap", "self_s")
        + callbacks_self("repro.wifi.ap"),
        "wifi.psm.exchanges": counter_total(registry, "psm.exchanges"),
        "wifi.switches": counter_total(registry, "wifi.switches"),
        "traffic.tcp_s": get("traffic.tcp", "self_s")
        + callbacks_self("repro.traffic.tcp"),
        "traffic.voip_s": get("traffic.voip", "self_s")
        + callbacks_self("repro.traffic.voip"),
        "core.client_s": get("core.client", "self_s")
        + callbacks_self("repro.core.client"),
        "core.render_paired_run_self_s": get("core.render_paired_run",
                                             "self_s"),
        "core.strategies_s": get("core.strategies", "total_s"),
        "net.s": get("net", "self_s") + callbacks_self("repro.net."),
        "voice.score_call_s": get("voice.score_call", "total_s"),
        "voice.score_call.calls": get("voice.score_call", "count"),
        "analysis.windows_s": get("analysis.windows", "total_s"),
        "analysis.correlation_s": get("analysis.correlation", "total_s"),
        "sketch.merge_s": get("sketch.merge", "total_s"),
        "batch.render_block_s": get("batch.render_block", "total_s"),
        "batch.strategy_suite_s": get("batch.strategy_suite", "total_s"),
        "batch.session_payloads_s": get("batch.session_payloads", "self_s"),
        "batch.sessions": counter_total(registry, "batch.sessions"),
        "batch.packet_slots": counter_total(registry, "batch.packet_slots"),
        "runner.batch_s": runner_batch_cold,
        "runner.task_busy_s": busy,
        "runner.overhead_s": (runner_batch_cold - busy / POPULATION_JOBS)
        if runner_batch_cold else 0.0,
        "runner.cache_put_s": get("runner.cache_put", "total_s"),
        "runner.cache_get_s": get("runner.cache_get", "total_s"),
        "runner.executed": float(runner.executed),
        "runner.cache_hits": float(runner.cache_hits),
        "runner.hit_ratio": (runner.warm_hits / runner.warm_total
                             if runner.warm_total else 0.0),
        "runner.cache_bytes": float(runner.cache_bytes),
        "population.calls": runner.population_calls,
    }


def _spans_named(log: SpanLog, name: str) -> List[int]:
    if name not in log.names:
        return []
    names = np.frombuffer(log.name, dtype=np.int32)
    return [int(i) for i in np.flatnonzero(names == log.names.index(name))]

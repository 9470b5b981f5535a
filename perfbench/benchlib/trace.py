"""Runtime span tracing of the ``repro`` layers, from outside ``src/``.

:func:`install` wraps the public functions and methods named in
:data:`TARGETS`, and every callback handed to ``Simulator.call_at``.
Each wrapper patches the name where callers look it up: a method on its
class, a function in every loaded ``repro`` module that holds it.  A
wrapper keeps the wrapped callable's ``__qualname__`` and behaviour, so
traced ops produce the same outputs as untraced ones.

Spans (name, start, end, parent, op id) are kept in flat arrays in
memory and written out once, at the end.  A span's *self* time is its
duration minus the time its direct children cover; spans nest because
everything traced runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: (module, attribute path, span name) of every wrapped public callable
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.channel.link", "WifiLink.transmit", "channel.transmit"),
    ("repro.channel.link", "WifiLink.attempt_loss_prob",
     "channel.loss_prob"),
    ("repro.wifi.mac", "MacLayer.transmit", "wifi.mac.transmit"),
    ("repro.wifi.ap", "AccessPoint.wired_arrival", "wifi.ap"),
    ("repro.wifi.ap", "AccessPoint.client_sleep", "wifi.ap"),
    ("repro.wifi.ap", "AccessPoint.client_wake", "wifi.ap"),
    ("repro.wifi.ap", "AccessPoint.client_absent", "wifi.ap"),
    ("repro.wifi.association", "WifiManager.switch_to", "wifi.association"),
    ("repro.traffic.tcp", "TcpReno.start", "traffic.tcp"),
    ("repro.traffic.voip", "VoipSender.start", "traffic.voip"),
    ("repro.core.controller", "run_session", "core.run_session"),
    ("repro.core.client", "DiversiFiClient.on_receive", "core.client"),
    ("repro.core.replication", "render_paired_run",
     "core.render_paired_run"),
    ("repro.core.strategies", "stronger", "core.strategies"),
    ("repro.core.strategies", "better", "core.strategies"),
    ("repro.core.strategies", "divert", "core.strategies"),
    ("repro.core.strategies", "temporal", "core.strategies"),
    ("repro.core.strategies", "cross_link", "core.strategies"),
    ("repro.core.strategies", "baseline", "core.strategies"),
    ("repro.net.middlebox", "Middlebox.replica_arrival", "net"),
    ("repro.net.middlebox", "Middlebox.start", "net"),
    ("repro.net.middlebox", "Middlebox.retrieve", "net"),
    ("repro.net.middlebox", "Middlebox.stop", "net"),
    ("repro.net.sdn", "SdnSwitch.ingress", "net"),
    ("repro.net.lan", "LanSegment.send", "net"),
    ("repro.voice.pcr", "score_call", "voice.score_call"),
    ("repro.analysis.windows", "worst_window_loss", "analysis.windows"),
    ("repro.analysis.correlation", "loss_autocorrelation",
     "analysis.correlation"),
    ("repro.analysis.correlation", "loss_crosscorrelation",
     "analysis.correlation"),
    ("repro.analysis.sketch", "LabeledCounts.merge", "sketch.merge"),
    ("repro.analysis.sketch", "GridCdf.merge", "sketch.merge"),
    ("repro.analysis.sketch", "MomentSketch.merge", "sketch.merge"),
    ("repro.batch.render", "render_block", "batch.render_block"),
    ("repro.batch.strategies", "strategy_suite", "batch.strategy_suite"),
    ("repro.batch.summary", "session_payloads", "batch.session_payloads"),
    ("repro.runner.executor", "run_batch", "runner.batch"),
    ("repro.runner.cache", "ResultCache.put", "runner.cache_put"),
    ("repro.runner.cache", "ResultCache.get", "runner.cache_get"),
)

#: span name of ``Simulator.call_at`` and prefix of event callbacks
SCHEDULE_SPAN = "sim.call_at"
CALLBACK_PREFIX = "cb:"


class SpanLog:
    """Spans in flat arrays; ``op_id`` tags each span with its op."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: List[int] = [-1]
        self.op_id = -1
        #: engine state read when each ``Simulator.run`` returns
        self.peak_queue_depth = 0
        self.pending_at_end = 0

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str) -> "_Span":
        """A context manager recording one span (bench-level spans)."""
        return _Span(self, self.intern(name))

    def wrap(self, fn: Callable[..., Any], nid: int,
             metadata: bool = True) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        ``metadata=False`` copies only ``__qualname__`` (what the
        engine's determinism digest reads): the cheap form for per-event
        callbacks.
        """
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self.stack
        clock = time.perf_counter
        log = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(log.op_id)
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if metadata:
            return functools.update_wrapper(traced, fn)
        traced.__qualname__ = getattr(fn, "__qualname__",
                                      type(fn).__qualname__)
        return traced

    # ------------------------------------------------------ read-out

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` and ``self_s``."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent],
                                 weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        out: Dict[str, Dict[str, float]] = {}
        n_names = len(self.names)
        counts = np.bincount(a["name"], minlength=n_names)
        totals = np.bincount(a["name"], weights=duration, minlength=n_names)
        selfs = np.bincount(a["name"], weights=self_time, minlength=n_names)
        for nid, name in enumerate(self.names):
            out[name] = {"count": float(counts[nid]),
                         "total_s": float(totals[nid]),
                         "self_s": float(selfs[nid])}
        return out

    def ancestor_named(self, index: int, names: Tuple[str, ...]) -> str:
        """The name of the nearest enclosing span in ``names``, or ''."""
        parent = self.parent[index]
        while parent >= 0:
            name = self.names[self.name[parent]]
            if name in names:
                return name
            parent = self.parent[parent]
        return ""

    def save(self, path: Any) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class _Span:
    def __init__(self, log: SpanLog, nid: int):
        self._log = log
        self._nid = nid
        self._idx = -1

    def __enter__(self) -> "_Span":
        log = self._log
        self._idx = len(log.start)
        log.name.append(self._nid)
        log.parent.append(log.stack[-1])
        log.op.append(log.op_id)
        log.stack.append(self._idx)
        log.end.append(0.0)
        log.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc: Any) -> None:
        self._log.end[self._idx] = time.perf_counter()
        self._log.stack.pop()


def _callback_module(callback: Any) -> str:
    fn = callback
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__module__", None) or type(fn).__module__


def _patch_function(wrapper: Callable[..., Any],
                    original: Callable[..., Any],
                    undo: List[Tuple[Any, str, Any]]) -> None:
    """Replace ``original`` in every loaded ``repro`` module holding it."""
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not (loaded_name == "repro"
                                  or loaded_name.startswith("repro.")):
            continue
        namespace = vars(loaded)
        for attr, value in list(namespace.items()):
            if value is original:
                undo.append((loaded, attr, value))
                setattr(loaded, attr, wrapper)


def install(log: SpanLog) -> Callable[[], None]:
    """Install every wrapper; returns a function that removes them."""
    undo: List[Tuple[Any, str, Any]] = []
    for module_name, path, span_name in TARGETS:
        module = importlib.import_module(module_name)
        nid = log.intern(span_name)
        if "." in path:
            owner_name, attr = path.split(".")
            owner = getattr(module, owner_name)
            original = inspect.getattr_static(owner, attr)
            undo.append((owner, attr, original))
            setattr(owner, attr, log.wrap(original, nid))
        else:
            original = getattr(module, path)
            _patch_function(log.wrap(original, nid), original, undo)
    _install_engine(log, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _install_engine(log: SpanLog,
                    undo: List[Tuple[Any, str, Any]]) -> None:
    """Time scheduling, and wrap each scheduled callback in a span named
    after its defining module."""
    from repro.sim.engine import Simulator

    schedule = log.wrap(inspect.getattr_static(Simulator, "call_at"),
                        log.intern(SCHEDULE_SPAN))
    callback_ids: Dict[str, int] = {}

    def call_at(self: Any, when: float, callback: Callable[..., Any],
                *args: Any) -> Any:
        module = _callback_module(callback)
        nid = callback_ids.get(module)
        if nid is None:
            nid = callback_ids[module] = log.intern(CALLBACK_PREFIX + module)
        fire = log.wrap(callback, nid, metadata=False)
        return schedule(self, when, fire, *args)

    run = inspect.getattr_static(Simulator, "run")
    traced_run = log.wrap(run, log.intern("sim.run"))

    def run_and_read(self: Any, until: Any = None) -> float:
        result: float = traced_run(self, until)
        log.peak_queue_depth = max(log.peak_queue_depth,
                                   self.peak_queue_depth)
        # Events still queued and not cancelled when the run returned:
        # neither executed nor cancelled.
        log.pending_at_end += sum(not event.cancelled
                                  for event in self._queue)
        return result

    original_call_at = inspect.getattr_static(Simulator, "call_at")
    functools.update_wrapper(call_at, original_call_at)
    functools.update_wrapper(run_and_read, run)
    undo.append((Simulator, "call_at", original_call_at))
    undo.append((Simulator, "run", run))
    Simulator.call_at = call_at  # type: ignore[method-assign]
    Simulator.run = run_and_read  # type: ignore[method-assign]

"""One measurement process: set up, warm up, run the timed loop.

Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src`` and this
package, and with BLAS/OpenMP threads pinned to 1.  It prints one JSON
object on its last stdout line; ``run.py`` turns that into the
benchmark's result line.

Untraced (``--trace 0``): one timed phase of ``--seconds``.

Traced (``--trace 1``): an untraced phase of half the time, then the
same ops again with the span wrappers installed.  The two phases must
give identical per-op digests; their throughput ratio is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from benchlib import workloads
from benchlib.calibrate import SpeedSampler

#: a run states op_s_p90 only when at least 10 ops lie beyond it
P90_MIN_OPS = 100


class Record:
    """One timed op: host seconds and calibrated reference seconds."""

    def __init__(self, op: Any, host_s: float, op_s: float,
                 outcome: Any, problems: List[str], digest: str):
        self.op = op
        self.host_s = host_s
        self.op_s = op_s
        self.outcome = outcome
        self.problems = problems
        self.digest = digest

    @property
    def completed(self) -> bool:
        return self.outcome is not None


def _flip_one_byte(text: str) -> str:
    middle = len(text) // 2
    return text[:middle] + chr(ord(text[middle]) ^ 1) + text[middle + 1:]


def run_phase(executor: Any, sampler: SpeedSampler,
              source: Iterable[List[Any]], seconds: Optional[float],
              reference: Dict[str, Any], flip_op: int = -1, log: Any = None,
              registry: Any = None) -> List[Record]:
    """Run whole passes from ``source`` until ``seconds`` of calibrated
    op time have passed (all of ``source`` when ``seconds`` is None)."""
    records: List[Record] = []
    elapsed = host_elapsed = 0.0
    for ops in source:
        for op in ops:
            index = len(records)
            outcome, error = None, ""
            if log is not None:
                log.op_id = index
            start = time.perf_counter()
            try:
                if log is None:
                    outcome = executor.execute(op)
                else:
                    from repro.obs.runtime import collecting
                    with collecting(registry), log.span("op"):
                        outcome = executor.execute(op)
            except Exception as exc:   # an op that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            op_s = sampler.reference_seconds(start, end)
            elapsed += op_s
            host_elapsed += end - start
            if outcome is None:
                problems = [f"{op.workload} op #{index} ({op.key}) raised "
                            f"{error}"]
                digest = ""
            else:
                if index == flip_op:
                    outcome.payload_json = _flip_one_byte(
                        outcome.payload_json)
                problems = workloads.check(op, outcome, reference, index)
                digest = workloads.digest(outcome.payload_json)
            executor.after(op)
            records.append(Record(op, end - start, op_s, outcome, problems,
                                  digest))
        # The host-time cap bounds a run's length on a very slow host.
        if seconds is not None and (elapsed >= seconds
                                    or host_elapsed >= 2 * seconds):
            break
    return records


def throughput(records: List[Record], host: bool = False) -> float:
    """Simulated calls completed per reference (or host) second of op
    time."""
    op_s = sum(r.host_s if host else r.op_s for r in records)
    sessions = sum(r.op.sessions for r in records if r.completed)
    return sessions / op_s if op_s else 0.0


def median_op_s(records: List[Record]) -> float:
    """Median over the distinct ops of a run of each op's median time.

    Every pass runs the same ops, so the median op is a fixed op rather
    than whichever of two neighbouring ops noise puts in the middle.
    """
    by_key: Dict[str, List[float]] = {}
    for record in records:
        by_key.setdefault(record.op.key, []).append(record.op_s)
    return statistics.median(statistics.median(times)
                             for times in by_key.values())


def properties(records: List[Record]) -> Dict[str, float]:
    """Op counts per office op kind and session counts per scenario."""
    counts = {f"ops.office.{kind}": 0.0 for kind in workloads.OFFICE_KINDS}
    counts.update({f"ops.scenario.{name}": 0.0
                   for name in workloads.WILD_SCENARIOS})
    for record in records:
        if record.op.kind in workloads.OFFICE_KINDS:
            counts[f"ops.office.{record.op.kind}"] += 1
        if record.outcome is not None:
            for name in record.outcome.scenarios:
                counts[f"ops.scenario.{name}"] += 1
    return counts


def fidelity(records: List[Record],
             reference: Dict[str, Any]) -> Dict[str, float]:
    """batch - event cross-link bias over the sessions the run covered."""
    batch_values: Dict[int, float] = {}
    for record in records:
        if record.op.workload != "batch_wild" or not record.completed:
            continue
        for row, payload in enumerate(json.loads(
                record.outcome.payload_json)):
            batch_values[record.op.arg + row] = \
                payload["worst_window"]["cross-link"]
    bias = workloads.cross_link_bias(list(batch_values), batch_values,
                                     reference)
    return {"batch.fidelity.cross_link_bias_pp": bias["bias_pp"],
            "batch.fidelity.cross_link_bias_se_pp": bias["se_pp"],
            "batch.fidelity.sessions": float(bias["sessions"])}


def summary(records: List[Record]) -> Dict[str, Any]:
    """Op count, failures, tail and per-kind medians of one phase."""
    durations = [r.op_s for r in records]
    failed = sum(1 for r in records if r.problems)
    out: Dict[str, Any] = {
        "ops": len(records),
        "failed": failed,
        "failed_share": failed / len(records) if records else 0.0,
        "host_sessions_per_s": throughput(records, host=True),
        "host_op_s_p50": statistics.median(r.host_s for r in records),
        "op_s_p50_by_kind": {},
    }
    if len(durations) >= P90_MIN_OPS:
        out["op_s_p90"] = statistics.quantiles(durations, n=10)[-1]
    else:
        out["op_s_p90"] = (f"omitted: {len(durations)} ops < "
                           f"{P90_MIN_OPS}")
    kinds = sorted({r.op.kind for r in records})
    for kind in kinds:
        out["op_s_p50_by_kind"][kind] = statistics.median(
            r.op_s for r in records if r.op.kind == kind)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child (pool
    workers), in MB.  Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every pool worker to exit, so none outlives the run and
    their peak memory is counted; then stop the pool's resource tracker,
    which would otherwise exit only after this process has."""
    import multiprocessing
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the first timed op would start")
    parser.add_argument("--flip-op", type=int, default=-1,
                        help="self-test: flip one byte of this op's payload")
    args = parser.parse_args(argv)
    with SpeedSampler(args.workload in workloads.NUMPY_BOUND) as sampler:
        result = measure(args, sampler)
    print(json.dumps(result))
    return 0


def measure(args: argparse.Namespace,
            sampler: SpeedSampler) -> Dict[str, Any]:
    """Set up, warm up and run; returns the object ``run.py`` reads."""
    t_start = time.perf_counter()
    import repro  # noqa: F401
    import repro.batch.driver  # noqa: F401
    import repro.experiments.section4  # noqa: F401
    import repro.experiments.section6  # noqa: F401
    import repro.studies.population  # noqa: F401

    t_inputs = time.perf_counter()
    reference = workloads.load_reference()
    source = workloads.passes(args.workload, args.seed)
    args.work_dir.mkdir(parents=True, exist_ok=True)

    t_warmup = time.perf_counter()
    executor = workloads.Executor(args.work_dir)
    warm = workloads.warmup_op(args.workload)
    warm_outcome = executor.execute(warm)
    executor.after(warm)
    problems = workloads.check(warm, warm_outcome, reference, -1)
    first_op_at = time.monotonic()
    t_ready = time.perf_counter()
    setup = {"setup.import_s": t_inputs - t_start,
             "setup.inputs_s": t_warmup - t_inputs,
             "setup.warmup_s": t_ready - t_warmup}
    # Reference seconds per host second over this process's set-up;
    # run.py scales the whole set-up time by it.
    setup_speed = sampler.reference_seconds(t_start, t_ready) \
        / (t_ready - t_start)
    if args.setup_only:
        return {"first_op_at": first_op_at, "setup_speed": setup_speed}

    if not args.trace:
        records = run_phase(executor, sampler, source, args.seconds,
                            reference, flip_op=args.flip_op)
        _reap_children()
        all_records = records
        metrics: Dict[str, float] = {
            "sessions_per_s": throughput(records),
            "op_s_p50": median_op_s(records),
            "peak_rss_mb": peak_rss_mb(),
        }
        detail = summary(records)
    else:
        from benchlib.layers import (RunnerTelemetry, layer_shares,
                                     per_layer_metrics)
        from benchlib.trace import SpanLog, install
        from repro.obs.registry import MetricsRegistry

        records = run_phase(executor, sampler, source, args.seconds / 2,
                            reference, flip_op=args.flip_op)
        log = SpanLog()
        registry = MetricsRegistry()
        runner = RunnerTelemetry(log)
        executor = workloads.Executor(args.work_dir, observer=runner)
        uninstall = install(log)
        try:
            traced = run_phase(executor, sampler,
                               ([r.op] for r in records), None, reference,
                               log=log, registry=registry)
        finally:
            uninstall()
        _reap_children()
        for index, (plain, with_spans) in enumerate(zip(records, traced)):
            if plain.digest != with_spans.digest:
                with_spans.problems.append(
                    f"{plain.op.workload} op #{index} ({plain.op.key}): "
                    "traced digest differs from untraced")
        all_records = records + traced
        totals = log.totals()
        metrics = per_layer_metrics(log, totals, registry, runner)
        if runner.warm_total and metrics["runner.hit_ratio"] != 1.0:
            problems.append(f"{args.workload}: the warm half missed the "
                            "cache (runner.hit_ratio "
                            f"{metrics['runner.hit_ratio']:.3f})")
        metrics.update(setup)
        metrics["trace.overhead"] = throughput(records) / throughput(
            traced) - 1.0
        metrics.update(properties(traced))
        metrics.update(fidelity(traced, reference))
        # Beside the run's scratch directory, which run.py deletes.
        log.save(args.work_dir.parent / f"spans-{args.workload}.npz")
        detail = summary(traced)
        detail["layer_shares"] = layer_shares(totals)
        detail["spans"] = len(log.start)

    detail.update(setup)
    detail["properties"] = properties(records)
    if args.workload == "batch_wild":
        detail["fidelity"] = fidelity(records, reference)
    problems.extend(p for r in all_records for p in r.problems)
    return {
        "first_op_at": first_op_at,
        "setup_speed": setup_speed,
        "attempted": len(all_records),
        "failed": sum(1 for r in all_records if r.problems),
        "problems": problems,
        "metrics": metrics,
        "detail": detail,
    }


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads and the check of their outputs.

Each workload is a closed loop with one caller: the next op starts when
the previous one returns.  An op calls one public task function that
``repro.runner`` already maps, directly and in this process (except
``population_cached``, whose op is a whole runner-driven study).

A run repeats a fixed *pass* of ops until ``--seconds`` of op time have
passed, and always finishes the pass it is in.  The benchmark seed
shuffles the order of the ops within each pass.  The pass content is
fixed on purpose: the simulator is deterministic, so every run does the
same simulated work and runs differ in host time alone.  Inputs drawn
per seed made run-to-run spreads of 10-30% (office locations differ in
cost by up to 40%), far above the bounds the benchmark must resolve.
Each pass takes about 8 reference seconds (see ``calibrate.py``), so a
run of 12 s holds two.

Every op's output is checked against a content digest recorded in
``reference.json`` by ``record.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

WORKLOADS = ("office_event", "wild_trace", "batch_wild", "population_cached")

#: office op kinds: three single-mode office sessions and one TCP pair
OFFICE_MODES = ("primary-only", "diversifi-ap", "diversifi-mbox")
OFFICE_KINDS = OFFICE_MODES + ("tcp",)
OFFICE_SEEDS = (0, 1)

#: the Section 4 wild scenario families (``repro.scenarios.WILD_MIX``)
WILD_SCENARIOS = ("benign", "weak_link", "mobility", "congestion",
                  "microwave")
#: the wild population wild_trace and batch_wild both draw from; the
#: event-engine outputs of its first 500 sessions are recorded, for the
#: fidelity metric
WILD_ROOT_SEED = 0
WILD_RECORDED = tuple(range(500))
#: wild_trace's pass: the first sessions of each scenario in the
#: population, 6/4/3/3/2 in WILD_MIX proportions (34/22/18/18/8%)
WILD_PASS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14, 15, 17, 18, 19, 28)
BATCH_BLOCK = 100
BATCH_STARTS = tuple(range(0, 600, BATCH_BLOCK))

#: workloads whose ops are vectorized numpy; their host-speed
#: calibration kernel has a numpy part (see calibrate.py)
NUMPY_BOUND = ("batch_wild", "population_cached")

POPULATION_CALLS = 1_000_000
POPULATION_SEEDS = tuple(range(6))
POPULATION_JOBS = 2

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "reference.json"


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed unit of work."""

    workload: str
    kind: str       # property label: office kind, "wild", "batch", ...
    arg: int        # seed, session index or block start
    sessions: int   # simulated calls the op completes

    @property
    def key(self) -> str:
        """The op's name in ``reference.json``."""
        return f"{self.kind}:{self.arg}"


@dataclasses.dataclass
class Outcome:
    """What one op produced: its payload and any failed check."""

    payload_json: str
    problems: List[str] = dataclasses.field(default_factory=list)
    scenarios: List[str] = dataclasses.field(default_factory=list)


def digest(payload_json: str) -> str:
    """Content digest of one op: no code fingerprint, so an edit that
    leaves the output bytes alone keeps it."""
    return hashlib.sha256(payload_json.encode("utf-8")).hexdigest()


# --------------------------------------------------------------- passes

def _wild_ops(indices: Sequence[int]) -> List[Op]:
    return [Op("wild_trace", "wild", index, 1) for index in indices]


def pass_ops(workload: str) -> List[Op]:
    """The ops of one pass of ``workload``, in a fixed order."""
    if workload == "office_event":
        return [Op(workload, kind, seed, 2 if kind == "tcp" else 1)
                for seed in OFFICE_SEEDS for kind in OFFICE_KINDS]
    if workload == "wild_trace":
        return _wild_ops(WILD_PASS)
    if workload == "batch_wild":
        return [Op(workload, "batch", start, BATCH_BLOCK)
                for start in BATCH_STARTS]
    if workload == "population_cached":
        return [Op(workload, "population", seed, POPULATION_CALLS)
                for seed in POPULATION_SEEDS]
    raise ValueError(f"unknown workload {workload!r}")


def recorded_ops(workload: str) -> List[Op]:
    """The ops ``record.py`` records: the pass, and for ``wild_trace``
    the whole wild population."""
    if workload == "wild_trace":
        return _wild_ops(WILD_RECORDED)
    return pass_ops(workload)


def passes(workload: str, seed: int) -> Iterator[List[Op]]:
    """Passes without end, each in its own seed-dependent order."""
    ops = pass_ops(workload)
    rng = random.Random(seed)
    while True:
        yield rng.sample(ops, len(ops))


def warmup_op(workload: str) -> Op:
    """The untimed warm-up op: fixed, so set-up time does not depend on
    the seed."""
    return pass_ops(workload)[0]


# ------------------------------------------------------------ execution

def _tables_payload(tables: Any) -> Dict[str, Any]:
    return {
        "rows": [dataclasses.asdict(row) for row in tables.rows],
        "overall_pcr": tables.overall_pcr,
        "pcr_wilson": list(tables.pcr_wilson),
        "n_rated_calls": tables.n_rated_calls,
        "n_calls": tables.n_calls,
        "n_balanced_pairs": tables.n_balanced_pairs,
        "n_pc_balanced_pairs": tables.n_pc_balanced_pairs,
        "mos_cdf": tables.mos_cdf.to_payload(),
        "mos_moments": tables.mos_moments.to_payload(),
    }


class Executor:
    """Runs ops; owns the scratch cache directories of the runner op.

    ``observer``, when given, wraps each runner phase
    (``phase(name, cache_dir)`` returns a context manager) and receives
    ``RunnerConfig``'s ``progress`` and ``on_batch`` hooks.
    """

    def __init__(self, work_dir: Path, observer: Optional[Any] = None):
        self.work_dir = work_dir
        self.observer = observer
        self._serial = 0

    def execute(self, op: Op) -> Outcome:
        # repro is imported here, not at module level, so that the
        # benchmark's set-up time covers importing it.
        from repro.runner.spec import canonical_json

        if op.workload == "office_event":
            from repro.experiments import section6
            if op.kind == "tcp":
                payload: Any = section6.tcp_throughput_metrics(op.arg)
            else:
                payload = section6.office_run_metrics(op.arg,
                                                      modes=(op.kind,))
            return Outcome(canonical_json(payload))
        if op.workload == "wild_trace":
            from repro.experiments import section4
            payload = section4.wild_run_metrics(
                op.arg, root_seed=WILD_ROOT_SEED,
                deltas=section4.TEMPORAL_DELTAS)
            return Outcome(canonical_json(payload),
                           scenarios=[payload["scenario"]])
        if op.workload == "batch_wild":
            from repro.batch import driver
            from repro.experiments.section4 import TEMPORAL_DELTAS
            payload = driver.population_block_metrics(
                op.arg, count=BATCH_BLOCK, root_seed=WILD_ROOT_SEED,
                deltas=TEMPORAL_DELTAS)
            return Outcome(canonical_json(payload),
                           scenarios=[row["scenario"] for row in payload])
        return self._population(op)

    def _population(self, op: Op) -> Outcome:
        from repro.runner import RunnerConfig
        from repro.runner.spec import canonical_json
        from repro.studies.population import provider_population_study

        self._serial += 1
        cache_dir = self.work_dir / f"cache-{self._serial}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        hooks: Dict[str, Callable[[Any], None]] = {}
        if self.observer is not None:
            hooks = {"progress": self.observer.progress,
                     "on_batch": self.observer.on_batch}
        tables = {}
        for phase, no_cache in (("cold", True), ("warm", False)):
            config = RunnerConfig(jobs=POPULATION_JOBS, cache_dir=cache_dir,
                                  no_cache=no_cache, memo=False, **hooks)
            with (self.observer.phase(phase, cache_dir)
                  if self.observer is not None
                  else contextlib.nullcontext()):
                tables[phase] = canonical_json(_tables_payload(
                    provider_population_study(n_calls=POPULATION_CALLS,
                                              seed=op.arg,
                                              runner_config=config)))
        problems = []
        if tables["warm"] != tables["cold"]:
            problems.append("warm-cache tables differ from cold tables")
        return Outcome(tables["cold"], problems)

    def after(self, op: Op) -> None:
        """Untimed clean-up after ``op``."""
        if op.workload == "population_cached":
            shutil.rmtree(self.work_dir / f"cache-{self._serial}",
                          ignore_errors=True)


# ----------------------------------------------------------- reference

def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        loaded: Dict[str, Any] = json.load(handle)
    return loaded


def check(op: Op, outcome: Outcome, reference: Dict[str, Any],
          index: int) -> List[str]:
    """Every failed check of one op, each naming the workload and op
    (``index`` -1 is the warm-up op)."""
    label = "warm-up op" if index < 0 else f"op #{index}"
    where = f"{op.workload} {label} ({op.key})"
    problems = [f"{where}: {problem}" for problem in outcome.problems]
    expected = reference["digests"].get(op.workload, {}).get(op.key)
    if expected is None:
        problems.append(f"{where}: no recorded reference digest")
    elif digest(outcome.payload_json) != expected:
        problems.append(f"{where}: output digest differs from reference")
    return problems


def cross_link_bias(covered: Sequence[int], payloads: Dict[int, float],
                    reference: Dict[str, Any]) -> Dict[str, float]:
    """Paired batch - event cross-link worst-5s loss over ``covered``.

    ``payloads`` maps a session index to its batch cross-link value; the
    event values are those recorded with the reference digests.
    """
    event = reference["wild_cross_link"]
    diffs = [payloads[i] - event[str(i)] for i in sorted(set(covered))
             if str(i) in event]
    n = len(diffs)
    if n == 0:
        return {"bias_pp": 0.0, "se_pp": 0.0, "sessions": 0}
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1) if n > 1 else 0.0
    return {"bias_pp": mean, "se_pp": (var / n) ** 0.5, "sessions": n}

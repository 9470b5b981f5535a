"""The repository benchmark: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1``, run from the repository root.

Workloads (closed loops, one caller; see ``benchlib/workloads.py``):

* ``office_event``       Section 6 office sessions and TCP pairs on the
                         discrete-event engine (``repro.sim``)
* ``wild_trace``         Section 4 wild calls: channel + MAC, no engine
* ``batch_wild``         the same population through ``repro.batch``
* ``population_cached``  the million-call provider study through
                         ``repro.runner``: 2 spawn workers, cold then warm

This launcher pins BLAS/OpenMP threads to 1, runs the measurement in a
child process (``benchlib/child.py``) and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, in calibrated reference seconds
(``benchlib/calibrate.py``); ``setup_s`` is the median over three
set-ups (two set-up-only children and the measuring child), each timed
from process start to the first timed op.  With ``--trace 1`` they are
the per-layer metrics, from a run with span wrappers installed.  The
lines before the last one name failed checks and give op counts, the
op-time tail, uncalibrated times and property shares (``README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from benchlib.workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: set-up-only children started besides the measuring child
EXTRA_SETUPS = 2
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_SANITIZE", None)
    return env


def run_child(args: argparse.Namespace, work_dir: Path,
              extra: List[str], deadline: float) -> Dict[str, Any]:
    """Start one child; returns its result object and its start time."""
    command = [sys.executable, "-m", "benchlib.child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)] + extra
    started = time.monotonic()
    completed = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        timeout=max(deadline - started, 1.0), check=False)
    lines = completed.stdout.decode("utf-8").strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"measurement child exited with "
                           f"{completed.returncode}")
    result: Dict[str, Any] = json.loads(lines[-1])
    result["host_setup_s"] = result["first_op_at"] - started
    result["setup_s"] = result["host_setup_s"] * result["setup_speed"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--flip-op", type=int, default=-1,
                        help="self-test only: corrupt this op's payload")
    args = parser.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}; run from a "
                    "checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups, host_setups = [], []
        if not args.trace:
            for _ in range(EXTRA_SETUPS):
                setup = run_child(args, work_dir, ["--setup-only"], deadline)
                setups.append(setup["setup_s"])
                host_setups.append(setup["host_setup_s"])
        flip = ["--flip-op", str(args.flip_op)] if args.flip_op >= 0 else []
        result = run_child(args, work_dir, flip, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = dict(result["metrics"])
    if not args.trace:
        setups.append(result["setup_s"])
        host_setups.append(result["host_setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        result["detail"]["setup_s_samples"] = setups
        result["detail"]["host_setup_s_samples"] = host_setups
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")

    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "detail": result["detail"]},
                     sort_keys=True))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

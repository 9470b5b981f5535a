"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. Flipping one byte of one op's payload makes the run incorrect, with
   a failed op (``failed_share`` > 0).
2. An untraced run is correct and prints every end-to-end metric of
   ``BENCHMARK.json`` with its unit.
3. A traced run of every workload gives the same per-op digests as its
   untraced phase (and as the reference), and prints every per-layer
   metric with its unit.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark's
   files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, *extra: str,
          cwd: Path = ROOT) -> Tuple[int, List[str]]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, timeout=300, check=False)
    return completed.returncode, \
        completed.stdout.decode("utf-8").strip().splitlines()


def result_of(lines: List[str]) -> Dict[str, Any]:
    result: Dict[str, Any] = json.loads(lines[-1])
    return result


def expect(condition: bool, message: str, failures: List[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def metrics_match(result: Dict[str, Any], wanted: List[Dict[str, Any]]
                  ) -> bool:
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    return got == units and all(
        isinstance(value["value"], (int, float))
        for value in result["metrics"].values())


def main() -> int:
    failures: List[str] = []

    code, lines = bench("wild_trace", 0, "--flip-op", "0")
    result = result_of(lines)
    detail = json.loads(lines[-2])["detail"]
    expect(code == 0 and not result["correct"] and result["failed"] >= 1
           and detail["failed_share"] > 0,
           "one flipped payload byte fails the run", failures)

    code, lines = bench("wild_trace", 0)
    result = result_of(lines)
    expect(code == 0 and result["correct"] and result["failed"] == 0,
           "untraced run is correct", failures)
    expect(metrics_match(result, SPEC["end_to_end"]),
           "every end-to-end metric is printed with its unit", failures)

    for workload in (w["name"] for w in SPEC["workloads"]):
        code, lines = bench(workload, 1)
        result = result_of(lines)
        expect(code == 0 and result["correct"],
               f"{workload}: traced digests equal untraced and reference",
               failures)
        expect(metrics_match(result, SPEC["per_layer"]),
               f"{workload}: every per-layer metric is printed with its "
               "unit", failures)

    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("wild_trace", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not (lines and lines[-1].startswith("{")),
           "without the sources the benchmark fails without a result",
           failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the end-to-end metrics of every workload as one table:

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py --trace 0`` once per workload (about 2 minutes).  Besides
the metrics of ``BENCHMARK.json`` it prints ``failed_share`` and
``op_s_p90``, which ``run.py`` reports in its detail line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, check=False)
        lines = completed.stdout.decode("utf-8").strip().splitlines()
        if completed.returncode != 0 or len(lines) < 2:
            print(f"{workload}: benchmark failed")
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        print(f"{workload}  correct={result['correct']}  "
              f"ops={result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<16}{metric['value']:>16.6g} {metric['unit']}")
        print(f"  {'failed_share':<16}{detail['failed_share']:>16.6g} ratio")
        p90 = detail["op_s_p90"]
        print(f"  {'op_s_p90':<16}" + (f"{p90:>16.6g} s"
                                       if isinstance(p90, float)
                                       else f"{'':>16} {p90}"))
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())

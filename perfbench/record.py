"""Record ``reference.json``: the content digest of every op in every
workload's input pool, and the event-engine cross-link worst-5s loss of
every wild session (the event side of ``batch_wild``'s fidelity metric).

    python3 perfbench/record.py [workload ...]

Run from the repository root; with no argument it records all four
workloads (about ten minutes on a 2-core host).  A deliberate behaviour
change re-records and says why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
from run import THREAD_VARS  # noqa: E402

# Before numpy loads: the same single-threaded BLAS as the benchmark.
for _name in THREAD_VARS:
    os.environ[_name] = "1"


def record(workload: str, reference: dict) -> None:
    from benchlib import workloads

    executor = workloads.Executor(ROOT / ".perfbench-work" / "record")
    digests = {}
    for op in workloads.recorded_ops(workload):
        outcome = executor.execute(op)
        executor.after(op)
        if outcome.problems:
            raise SystemExit(f"{op.key}: {outcome.problems}")
        digests[op.key] = workloads.digest(outcome.payload_json)
        if workload == "wild_trace":
            payload = json.loads(outcome.payload_json)
            reference["wild_cross_link"][str(op.arg)] = \
                payload["worst_window"]["cross-link"]
        print(workload, op.key, digests[op.key][:12], flush=True)
    reference["digests"][workload] = digests


def main(names: list) -> int:
    from benchlib import workloads

    recorded: dict = {"digests": {}, "wild_cross_link": {}}
    for name in names or workloads.WORKLOADS:
        record(name, recorded)
    # Merge into the file as it is now, so that recorders of different
    # workloads can run side by side.
    path = workloads.REFERENCE_PATH
    reference = (json.loads(path.read_text(encoding="utf-8"))
                 if path.exists() else {"digests": {}, "wild_cross_link": {}})
    reference["digests"].update(recorded["digests"])
    if "wild_trace" in recorded["digests"]:
        reference["wild_cross_link"] = {}
    reference["wild_cross_link"].update(recorded["wild_cross_link"])
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Determinism smokes: serial, ``--jobs 2`` and warm-cache runs agree.

Each smoke target names one or more artifacts.  Every artifact runs
three times through ``python -m repro`` with ``REPRO_SANITIZE=1``:

1. serially into a fresh cache directory,
2. with ``--no-cache --jobs 2``,
3. again from the cache of run 1 (which must execute zero runs).

What is compared is either the printed ``digest=`` lines or the bytes
of the ``--metrics-out`` JSON.  Runs 1 and 2 must match, and run 3 must
match run 1; any difference, failed run or missing output exits 1.

Usage (from the repository root)::

    python tools/digest_smoke.py bench-smoke
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent

#: target -> artifacts, each (CLI args, compared output): "digest" for
#: the printed digest lines, "metrics" for the --metrics-out bytes
SMOKES: Dict[str, List[Tuple[Tuple[str, ...], str]]] = {
    # parallel runner on the event engine
    "bench-smoke": [(("fig2a", "--runs", "6"), "digest")],
    # 120 sessions in two cache-keyed blocks; the sanitizer also
    # re-runs sampled sessions through the event engine
    "batch-smoke": [(("fig2a", "--runs", "120", "--backend", "batch"),
                     "digest")],
    # counters, gauges, histograms and spans merged in spec order
    "obs-smoke": [(("fig8", "--runs", "3"), "metrics")],
    # QoE controller head-to-head: poll loop, reroutes and middlebox
    # start/stop schedule are part of the digested payload
    "sdn-smoke": [(("controller", "--runs", "4"), "digest")],
    # streaming-sketch merges of the population studies, and the
    # in-memory Table 1 task built on the same generator and reduction
    "population-smoke": [(("provider", "--calls", "50000"), "digest"),
                         (("nettest", "--calls", "200"), "digest"),
                         (("table1", "--runs", "20000"), "digest")],
}

_DIGEST = re.compile(r"digest=[0-9a-f]+")


def compare(what: str, expected: bytes, actual: bytes) -> None:
    """Exit 1 naming ``what`` and the first differing byte (like
    ``cmp``) unless the two outputs are identical."""
    if expected != actual:
        at = next((i for i, (a, b) in enumerate(zip(expected, actual))
                   if a != b), min(len(expected), len(actual)))
        sys.exit(f"digest_smoke: {what} differ at byte {at}")


def _run(args: Sequence[str]) -> str:
    """One sanitized ``python -m repro`` run; its stdout."""
    env = dict(os.environ, REPRO_SANITIZE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-m", "repro", *args],
                            env=env, cwd=REPO, capture_output=True,
                            text=True)
    if result.returncode != 0:
        sys.exit(f"digest_smoke: `repro {' '.join(args)}` exited "
                 f"{result.returncode}:\n{result.stderr[-2000:]}")
    return result.stdout


def _output(stdout: str, metrics: Optional[Path]) -> bytes:
    """The compared bytes of one run: metrics JSON or digest lines."""
    if metrics is not None:
        return metrics.read_bytes()
    digests = _DIGEST.findall(stdout)
    if not digests:
        sys.exit(f"digest_smoke: no digest line in output:\n{stdout}")
    return "\n".join(digests).encode()


def smoke_artifact(args: Sequence[str], compared: str,
                   workdir: Path) -> None:
    """Run one artifact serially, with --jobs 2 and warm; compare."""
    cache = ["--cache-dir", str(workdir / "cache")]
    outputs: Dict[str, bytes] = {}
    for i, (mode, extra) in enumerate((
            ("serial", cache),
            ("--jobs 2", ["--no-cache", "--jobs", "2"]),
            ("warm-cache", cache))):
        metrics = workdir / f"metrics-{i}.json" \
            if compared == "metrics" else None
        run_args = [*args, *extra]
        if metrics is not None:
            run_args += ["--metrics-out", str(metrics)]
        stdout = _run(run_args)
        if mode == "warm-cache" and "executed=0" not in stdout:
            sys.exit(f"digest_smoke: warm `repro {' '.join(args)}` "
                     f"executed runs:\n{stdout}")
        outputs[mode] = _output(stdout, metrics)
    label = f"`repro {' '.join(args)}` {compared}"
    compare(f"serial vs --jobs 2 {label}", outputs["serial"],
            outputs["--jobs 2"])
    compare(f"serial vs warm-cache {label}", outputs["serial"],
            outputs["warm-cache"])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="digest_smoke", description=__doc__.splitlines()[0])
    parser.add_argument("target", choices=sorted(SMOKES))
    target = parser.parse_args(argv).target
    for args, compared in SMOKES[target]:
        with tempfile.TemporaryDirectory(prefix="digest-smoke-") as tmp:
            smoke_artifact(args, compared, Path(tmp))
        print(f"{target}: `repro {' '.join(args)}` serial, --jobs 2 and "
              f"warm-cache {compared} identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

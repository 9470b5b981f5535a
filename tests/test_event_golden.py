"""Golden payload digests for the event path.

Each case recomputes one benchmark op's payload and compares the
SHA-256 of its canonical JSON with the digest recorded in
``perfbench/reference.json``.  The digest carries no code fingerprint,
so a refactor of the engine, TCP or channel code keeps it, and any
change to one payload byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import section4, section6
from repro.runner.spec import canonical_json

REFERENCE = (Path(__file__).resolve().parent.parent
             / "perfbench" / "reference.json")

OFFICE_MODES = ("primary-only", "diversifi-ap", "diversifi-mbox")

#: the first session of each wild scenario family in the benchmark's
#: wild pass (root seed 0)
WILD_SESSIONS = {"benign": 6, "weak_link": 0, "mobility": 7,
                 "congestion": 5, "microwave": 1}


@pytest.fixture(scope="module")
def reference():
    with REFERENCE.open(encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def _digest(payload):
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode", OFFICE_MODES)
def test_office_session_payload_matches_reference(reference, mode):
    payload = section6.office_run_metrics(0, modes=(mode,))
    assert _digest(payload) == reference["office_event"][f"{mode}:0"]


def test_tcp_pair_payload_matches_reference(reference):
    payload = section6.tcp_throughput_metrics(0)
    assert _digest(payload) == reference["office_event"]["tcp:0"]


@pytest.mark.parametrize("scenario,index", sorted(WILD_SESSIONS.items()))
def test_wild_session_payload_matches_reference(reference, scenario, index):
    payload = section4.wild_run_metrics(
        index, root_seed=0, deltas=section4.TEMPORAL_DELTAS)
    assert payload["scenario"] == scenario
    assert _digest(payload) == reference["wild_trace"][f"wild:{index}"]

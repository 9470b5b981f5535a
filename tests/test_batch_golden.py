"""Golden content digests for the batch backend and the controller.

Each constant is the SHA-256 of the canonical JSON of one runner task's
payload at a small size:

* ``population_block_metrics``: a four-session block per wild scenario
  family, with the Section 4 temporal deltas, so every family's render
  and the whole strategy/summary reduction are pinned;
* ``controller_run_metrics``: the four runs of ``repro controller
  --runs 4`` (every control-plane strategy over one channel draw each).

The digests carry no code fingerprint: a refactor keeps them, and any
change to one payload byte fails a case.  A deliberate behaviour change
re-records them and says why in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from repro.batch.driver import population_block_metrics
from repro.core.config import StreamProfile
from repro.experiments.controlplane import controller_run_metrics
from repro.experiments.section4 import TEMPORAL_DELTAS
from repro.net.controller import ControllerConfig
from repro.runner.spec import canonical_json


def _digest(payload):
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


#: scenario family -> digest of sessions 0-3 (root seed 0) forced to it
BATCH_BLOCKS = {
    "benign":
        "55b45bb898ccd97aff47c030ff500975f4bf923191c831a03c6879a55e739f92",
    "weak_link":
        "b115fe0b00385d5d3215e9b9c4de1d9b28fbc2573f704975f70a906cc6b8db51",
    "mobility":
        "5d7806a747e49e951a130eedfca7891bf606023c8ff22d959a91da26c513a47c",
    "congestion":
        "7aa576972a31a0c19e5f2e73420e71b80825c58743ca5ceddaea9333be71493b",
    "microwave":
        "63f2bb1d31ca978736f84bf79ba138eb47ea95563671be8b0cde421ecda4d03e",
}


@pytest.mark.parametrize("scenario", sorted(BATCH_BLOCKS))
def test_population_block_golden(scenario):
    payload = population_block_metrics(0, count=4, root_seed=0,
                                       deltas=TEMPORAL_DELTAS,
                                       scenario=scenario)
    assert [row["scenario"] for row in payload] == [scenario] * 4
    assert _digest(payload) == BATCH_BLOCKS[scenario]


#: run index -> digest, at the ``repro controller`` defaults (seed 0)
CONTROLLER_RUNS = {
    0: "a7f824d5126a0b4144fb4a4e52b37353d801afb1cf270e8b0001f818b8b14a63",
    1: "3ff2326996a7af4cb8a750b2e0aabe72f8909b4d6002dedea98e5d4d99c6b5aa",
    2: "6eaa034b744dda78214e15ea6e1ed24f6b21bf9c91de6a5d7914dab904ec9d29",
    3: "3002b6a70e1f4f144b99fc25f6d1256d719088d9d334f7f398c09d68067bdbec",
}


@pytest.mark.parametrize("index", sorted(CONTROLLER_RUNS))
def test_controller_run_golden(index):
    payload = controller_run_metrics(
        index, root_seed=0, scenario="mix", n_paths=3,
        profile=dataclasses.asdict(StreamProfile(duration_s=30.0)),
        controller=dataclasses.asdict(ControllerConfig()))
    assert _digest(payload) == CONTROLLER_RUNS[index]

"""Golden content digests for the Section 3 artifacts (Tables 1 and 2).

Each constant is the SHA-256 of the canonical JSON of one artifact at a
small size.  They were recorded while the per-call provider loop and the
array renderer still agreed call for call, so they pin both the provider
draw layout and each table's reduction: a change to any output byte
fails a case, and a comment-only edit passes.  A deliberate behaviour
change re-records them and says why in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.section3 import table1_metrics, table2_metrics
from repro.runner.spec import canonical_json
from repro.studies.provider import (
    analyze_table1,
    pair_state,
    provider_block_calls,
    render_provider_block,
    synthesize_provider_year,
)


def _digest(payload):
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


TABLE1_METRICS = {
    0: "c6c2e36e17b64b1dd0d52e87d1d28f70dba6b51e01b7716b5ebb3ccd36bf1e31",
    3: "eec5ab3b62fa1715143559b27060821ffeaf3274b2d124d8f49dd1b07a2794e4",
}


@pytest.mark.parametrize("seed", sorted(TABLE1_METRICS))
def test_table1_metrics_golden(seed):
    assert _digest(table1_metrics(seed, n_calls=20_000)) == \
        TABLE1_METRICS[seed]


#: the calibration overrides the Table 1 robustness ablations sweep
ABLATION_ROWS = {
    "response_bias=False": (
        {"response_bias": False},
        "5b31e04c8786c901ca51f5b167dcf8e54aad7933f30580b0fdc3f2400f011d24"),
    "device_penalty_scale=1e-6": (
        {"device_penalty_scale": 1e-6},
        "80557576f4fd305ba930a790d972da75d6d5d1e53220dccf4eb74ae85dd00cad"),
    "wifi_loss_median=0.015": (
        {"wifi_loss_median": 0.015},
        "07a490b0be80200416f14d44e176913f278c17d833d5bd7864cc457bbe3925fd"),
}


@pytest.mark.parametrize("name", sorted(ABLATION_ROWS))
def test_table1_ablation_rows_golden(name):
    overrides, want = ABLATION_ROWS[name]
    rows = analyze_table1(
        synthesize_provider_year(20_000, seed=0, **overrides))
    assert _digest([dataclasses.asdict(row) for row in rows]) == want


#: (seed, block, count, response_bias) -> digest of the block's rated
#: calls as (subnet_pair, category, pc_class, rating) tuples
PROVIDER_BLOCKS = {
    (0, 0, 2000, True):
        "b7171f9ae8d0b3c567cc3f777d10207a404cbfffff9d0bababf9b7d81aebec01",
    (0, 1, 513, True):
        "de0a54b45d6a0ce5cee04f6ded8d2b6b851bed01154c7089cdb43f4b19f6dd8f",
    (7, 0, 2000, True):
        "87bbbdc416ee155554b1b8549b28143c9ed6d61c90bcdd13a2469221e67cd0d3",
    (7, 1, 513, True):
        "d3914361a951414d91b2de21051bf2814b04c13e68f18dbc4022425856f71633",
    (1, 0, 800, False):
        "fd60b58d4247e6a61b05248d1249d5b572e3d5663ac8194833bd8d5fcbd4cafa",
}


@pytest.mark.parametrize("case", sorted(PROVIDER_BLOCKS),
                         ids=lambda c: "seed{}-block{}-n{}-bias{}".format(*c))
def test_provider_block_calls_golden(case):
    seed, block, count, response_bias = case
    calls = provider_block_calls(render_provider_block(
        block, count, seed, pair_state(seed, 3000),
        response_bias=response_bias))
    assert 0 < len(calls) < count
    assert _digest([[c.subnet_pair, c.category, c.pc_class, c.rating]
                    for c in calls]) == PROVIDER_BLOCKS[case]


TABLE2_METRICS = {
    0: "27da13f77488fdc0ccb3940acddb3aa5eb78e706c6037226cc30d374b661f47d",
    5: "d3146546223e1b5ab28a681bfd75dc02450f3ffd43849155463c4233cc6620e0",
}


@pytest.mark.parametrize("seed", sorted(TABLE2_METRICS))
def test_table2_metrics_golden(seed):
    assert _digest(table2_metrics(seed, scale=0.02)) == \
        TABLE2_METRICS[seed]

"""Tests for the composed WifiLink and paired-link construction."""

import hashlib

import numpy as np
import pytest

from repro.channel.gilbert import GilbertParams
from repro.channel.interference import (
    CompositeInterference,
    CongestionProcess,
    MicrowaveOven,
)
from repro.channel.link import LinkConfig, WifiLink, paired_links
from repro.channel.mobility import (
    Position,
    RandomWaypointMobility,
    StaticPosition,
)
from repro.channel.pathloss import LogDistancePathLoss, PathLossParams
from repro.core.config import StreamProfile
from repro.sim import RandomRouter
from repro.wifi.phy import PhyConfig


SHORT = StreamProfile(duration_s=10.0)  # 500 packets


def make_link(seed=0, distance=8.0, **config_kwargs):
    config = LinkConfig(**config_kwargs)
    mobility = StaticPosition(Position(
        config.ap_position.x + distance, config.ap_position.y))
    return WifiLink(config, RandomRouter(seed), mobility=mobility)


def test_close_clean_link_lossless():
    link = make_link(distance=3.0, gilbert=GilbertParams(
        mean_good_s=1e9, mean_bad_s=0.01, loss_good=0.0, loss_bad=0.0))
    trace = link.generate_trace(SHORT)
    assert trace.loss_rate == 0.0
    assert np.all(trace.delays[trace.delivered] > 0)


def test_far_link_lossier_than_near():
    near = make_link(seed=1, distance=3.0)
    far = make_link(seed=1, distance=60.0,
                    pathloss=PathLossParams(exponent=3.8))
    near_trace = near.generate_trace(SHORT)
    far_trace = far.generate_trace(SHORT)
    assert far_trace.loss_rate >= near_trace.loss_rate


def test_rssi_reflects_distance():
    near = make_link(distance=2.0)
    far = make_link(distance=25.0)
    assert near.rssi_dbm(0.0) > far.rssi_dbm(0.0)


def test_outage_state_produces_burst_loss():
    # A chain pinned to BAD with certain loss: everything lost.
    link = make_link(gilbert=GilbertParams(
        mean_good_s=1e-3, mean_bad_s=1e9, loss_good=1.0, loss_bad=1.0))
    trace = link.generate_trace(SHORT)
    assert trace.loss_rate == 1.0


def test_trace_delay_includes_base_delay():
    link = make_link(distance=3.0, base_delay_s=0.004,
                     gilbert=GilbertParams(loss_good=0.0, loss_bad=0.0,
                                           mean_good_s=1e9, mean_bad_s=0.01))
    trace = link.generate_trace(SHORT)
    assert np.nanmin(trace.delays) >= 0.004


def test_determinism_same_seed():
    a = make_link(seed=7).generate_trace(SHORT)
    b = make_link(seed=7).generate_trace(SHORT)
    assert np.array_equal(a.delivered, b.delivered)


def test_different_seed_differs():
    # Use a moderately lossy link so outcomes can differ.
    params = dict(gilbert=GilbertParams(mean_good_s=1.0, mean_bad_s=0.5,
                                        loss_good=0.05, loss_bad=0.95))
    a = make_link(seed=8, **params).generate_trace(SHORT)
    b = make_link(seed=9, **params).generate_trace(SHORT)
    assert not np.array_equal(a.delivered, b.delivered)


def test_mcs_adapts_to_snr():
    near = make_link(distance=2.0)
    far = make_link(distance=40.0, pathloss=PathLossParams(exponent=3.8))
    assert near.mcs.index >= far.mcs.index


def test_out_of_order_queries_tolerated():
    """MAC retry bursts overrun the next packet's send time; the link's
    query clock must absorb that without raising."""
    link = make_link()
    link.attempt_loss_prob(1.0)
    # a query slightly in the past must not raise
    assert 0.0 <= link.attempt_loss_prob(0.995) <= 1.0


def test_paired_links_shared_interference():
    oven = MicrowaveOven(RandomRouter(3).stream("oven"),
                         episode_rate_hz=1000.0, episode_duration_s=1e9,
                         penalty_db=60.0)
    config_a = LinkConfig(name="A", ap_position=Position(0, 0))
    config_b = LinkConfig(name="B", ap_position=Position(30, 15))
    link_a, link_b = paired_links(config_a, config_b, RandomRouter(4),
                                  shared_interference=oven)
    # Both links see the oven's penalty at a radiating instant.
    t = 100.0  # well inside the always-on episode
    while not oven.is_radiating(t):
        t += 0.001
    assert link_a.attempt_loss_prob(t) > 0.9
    assert link_b.attempt_loss_prob(t) > 0.9


def test_paired_links_independent_by_default():
    config_a = LinkConfig(name="A")
    config_b = LinkConfig(name="B")
    link_a, link_b = paired_links(config_a, config_b, RandomRouter(5))
    trace_a = link_a.generate_trace(SHORT)
    trace_b = link_b.generate_trace(SHORT)
    # Different RNG streams: delay patterns must differ.
    assert not np.array_equal(trace_a.delays, trace_b.delays)


def test_mimo_link_fades_less():
    """4 spatial branches remove deep fades -> fewer PHY losses on a
    marginal link."""
    from repro.wifi.phy import PhyConfig
    common = dict(
        distance=30.0,
        pathloss=PathLossParams(exponent=3.6, shadowing_sigma_db=0.0),
        gilbert=GilbertParams(mean_good_s=1e9, mean_bad_s=0.01,
                              loss_good=0.0, loss_bad=0.0))
    siso = make_link(seed=10, phy=PhyConfig(n_spatial_branches=1), **common)
    mimo = make_link(seed=10, phy=PhyConfig(n_spatial_branches=4), **common)
    siso_trace = siso.generate_trace(SHORT)
    mimo_trace = mimo.generate_trace(SHORT)
    assert mimo_trace.loss_rate <= siso_trace.loss_rate


# ------------------------------------------------------- slow-SNR memo

SWEEP = [0.013 * k for k in range(4000)]   # 0-52 s, several queries a step


def _sweep_against_fresh(link):
    """Query ``mean_snr_db`` over the sweep, checking every answer against
    a fresh path-loss computation; returns the (distance, shadowing)
    pairs seen."""
    seen = set()
    for t in SWEEP:
        for _ in range(2):
            snr = link.mean_snr_db(t)
            distance = link.distance_m(t)
            assert snr == link._pathloss.snr_db(distance)
        seen.add((distance, link._pathloss.shadowing_db))
    return seen


def test_mean_snr_exact_for_moving_client():
    mobility = RandomWaypointMobility(RandomRouter(11).stream("walk"))
    link = WifiLink(LinkConfig(), RandomRouter(11), mobility=mobility)
    seen = _sweep_against_fresh(link)
    assert len({distance for distance, _ in seen}) > 100


def test_mean_snr_exact_under_environment_drift():
    link = make_link(seed=12, environment_drift=True)
    seen = _sweep_against_fresh(link)
    assert len({shadowing for _, shadowing in seen}) > 10


def test_static_link_computes_path_loss_once(monkeypatch):
    calls = []
    original = LogDistancePathLoss.path_loss_db

    def counting(self, distance_m):
        calls.append(distance_m)
        return original(self, distance_m)

    monkeypatch.setattr(LogDistancePathLoss, "path_loss_db", counting)
    link = make_link(seed=13)
    for t in SWEEP:
        link.attempt_loss_prob(t)
    assert len(calls) == 1


# ------------------------------------------- golden traces of fading variants
#
# The event-golden ops only build single-branch Rayleigh links; these pin
# the other fading paths (and interference on top) to trace digests, so
# any change to the values their MAC and fading draws produce shows here.

GOLDEN_PROFILE = StreamProfile(duration_s=60.0)   # 3000 packets

GOLDEN_TRACE_DIGESTS = {
    # two spatial branches share one fading stream and one normal buffer
    "mimo-2": "b093705bab0fcdd2a2d977602d456f00dddab50af658755b97cb86fec8b058b9",
    "rician-6db": "ce4d516a8417986e207089ccf715f8d88d1a93834f747555938ed471dbbb9420",
    "microwave+congestion": "7c16b26c01169afc82c776130d1bac86c9a030c96d126ec25108e871a4def6f3",
}


def _golden_link(variant):
    router = RandomRouter(2015)
    interference = None
    if variant == "mimo-2":
        config = LinkConfig(name="golden",
                            phy=PhyConfig(n_spatial_branches=2))
    elif variant == "rician-6db":
        config = LinkConfig(name="golden", rician_k_db=6.0)
    else:
        config = LinkConfig(name="golden")
        interference = CompositeInterference(
            MicrowaveOven(router.stream("golden.microwave"),
                          episode_rate_hz=0.1, episode_duration_s=5.0),
            CongestionProcess(router.stream("golden.congestion")))
    mobility = StaticPosition(Position(
        config.ap_position.x + 30.0, config.ap_position.y))
    return WifiLink(config, router, mobility=mobility,
                    interference=interference)


@pytest.mark.parametrize("variant", sorted(GOLDEN_TRACE_DIGESTS))
def test_fading_variant_trace_digest(variant):
    trace = _golden_link(variant).generate_trace(GOLDEN_PROFILE)
    digest = hashlib.sha256(trace.delivered.tobytes())
    digest.update(trace.delays.tobytes())
    assert digest.hexdigest() == GOLDEN_TRACE_DIGESTS[variant]

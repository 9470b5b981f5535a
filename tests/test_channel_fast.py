"""Statistical-equivalence tests for the vectorized channel renderer.

:func:`repro.batch.render.render_session` renders a static client's
links as whole-call numpy arrays.  These tests hold one such link to
the exact event-driven :class:`~repro.channel.link.WifiLink` within the
tolerances :mod:`repro.batch.sanity` enforces per population, and pin
the AR(1) fading contract of :func:`repro.batch.render.ar1_complex`.
"""

import time

import numpy as np
import pytest

from repro.analysis.bursts import burst_stats
from repro.batch.population import PopulationSpec, SessionSetup
from repro.batch.render import ar1_complex, render_block, render_session
from repro.channel.gilbert import GilbertParams
from repro.channel.link import LinkConfig, WifiLink
from repro.channel.mobility import Position, StaticPosition
from repro.core.config import StreamProfile
from repro.core.packet import LinkTrace
from repro.scenarios import ScenarioSetup
from repro.sim import RandomRouter

PROFILE = StreamProfile(duration_s=60.0)
POSITION = Position(10.0, 0.0)


def link_config(**kwargs):
    defaults = dict(
        name="fastcheck", ap_position=Position(0.0, 0.0),
        gilbert=GilbertParams(mean_good_s=3.0, mean_bad_s=0.4,
                              loss_good=0.0, loss_bad=0.97),
        base_delay_s=0.004)
    defaults.update(kwargs)
    return LinkConfig(**defaults)


def exact_trace(config, seed):
    link = WifiLink(config, RandomRouter(seed),
                    mobility=StaticPosition(POSITION))
    return link.generate_trace(PROFILE)


def fast_trace(config, seed, position=POSITION):
    """Link A of a vectorized session whose second link is far away."""
    setup = ScenarioSetup(
        name="fastcheck", config_a=config,
        config_b=link_config(name="fastcheck-b",
                             ap_position=Position(40.0, 20.0)),
        mobility=StaticPosition(position))
    links, _ = render_session(
        SessionSetup(index=0, scenario=setup.name, setup=setup,
                     router=RandomRouter(seed)), PROFILE)
    send_times = np.arange(PROFILE.n_packets) \
        * PROFILE.inter_packet_spacing_s
    return LinkTrace(config.name, send_times, links[0].delivered,
                     links[0].delays)


# ------------------------------------------------------------------- AR(1)

def test_ar1_unit_power():
    rng = np.random.default_rng(0)
    x = ar1_complex(50_000, rho=0.9, rng=rng)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.1)


def test_ar1_correlation():
    rng = np.random.default_rng(1)
    rho = 0.8
    x = ar1_complex(100_000, rho=rho, rng=rng)
    measured = np.real(np.mean(x[1:] * np.conj(x[:-1])))
    assert measured == pytest.approx(rho, abs=0.05)


def test_ar1_rho_zero_is_iid():
    rng = np.random.default_rng(2)
    x = ar1_complex(50_000, rho=0.0, rng=rng)
    measured = np.real(np.mean(x[1:] * np.conj(x[:-1])))
    assert abs(measured) < 0.02


# --------------------------------------------------------- equivalence

def mean_over_seeds(fn, config, seeds):
    return np.mean([fn(config, s) for s in seeds])


def test_fast_matches_exact_loss_rate():
    config = link_config()
    seeds = range(6)
    exact = mean_over_seeds(
        lambda c, s: exact_trace(c, s).loss_rate, config, seeds)
    fast = mean_over_seeds(
        lambda c, s: fast_trace(c, s).loss_rate, config, seeds)
    # Same order of magnitude and within 2x of each other.
    assert fast == pytest.approx(exact, rel=1.0, abs=0.01)


def test_fast_matches_burstiness():
    config = link_config()
    exact_stats = burst_stats([exact_trace(config, s) for s in range(5)])
    fast_stats = burst_stats([fast_trace(config, s) for s in range(5)])
    if exact_stats.mean_lost > 1 and fast_stats.mean_lost > 1:
        # Bursty share similar: both dominated by outage spans.
        assert abs(exact_stats.bursty_fraction
                   - fast_stats.bursty_fraction) < 0.35


def test_fast_clean_channel_near_lossless():
    """Right next to the AP (huge SNR margin) a Gilbert-clean channel
    loses essentially nothing even through deep Rayleigh fades."""
    from repro.channel.pathloss import PathLossParams
    config = link_config(
        gilbert=GilbertParams(mean_good_s=1e9, mean_bad_s=0.01,
                              loss_good=0.0, loss_bad=0.0),
        pathloss=PathLossParams(shadowing_sigma_db=0.0))
    trace = fast_trace(config, 3, position=Position(2.0, 0.0))
    assert trace.loss_rate < 0.005
    assert np.nanmin(trace.delays) >= config.base_delay_s


def test_fast_deterministic():
    config = link_config()
    a = fast_trace(config, 7)
    b = fast_trace(config, 7)
    assert np.array_equal(a.delivered, b.delivered)
    assert np.allclose(a.delays, b.delays, equal_nan=True)


def test_fast_far_link_lossier():
    near = fast_trace(link_config(), 8, position=Position(3.0, 0.0))
    from repro.channel.pathloss import PathLossParams
    far_config = link_config(pathloss=PathLossParams(exponent=3.9))
    far = fast_trace(far_config, 8, position=Position(55.0, 0.0))
    assert far.loss_rate >= near.loss_rate


def test_fast_is_much_faster():
    config = link_config()
    t0 = time.time()
    exact_trace(config, 9)
    exact_time = time.time() - t0
    t0 = time.time()
    fast_trace(config, 9)
    fast_time = time.time() - t0
    assert fast_time < exact_time / 5.0


def test_fast_rician_option():
    config = link_config(rician_k_db=8.0)
    trace = fast_trace(config, 10)
    assert 0.0 <= trace.loss_rate <= 1.0


# ------------------------------------------------------ obs metric parity

def trace_metrics(trace_fn, config, seeds):
    from repro.obs import MetricsRegistry, record_trace_metrics
    registry = MetricsRegistry()
    for seed in seeds:
        record_trace_metrics(registry, trace_fn(config, seed),
                             link="fastcheck")
    return registry


def block_trace(config, position):
    """Link A of one session of a rendered batch block."""
    block = render_block(PopulationSpec(n_sessions=2, duration_s=10.0))
    return block.paired_run(position).trace_a


def test_fast_and_exact_emit_identical_instrument_schema():
    """Both render paths must feed the *same* observability surface:
    identical metric names, labels, kinds and histogram bounds, so
    dashboards and digests never care which renderer produced a trace."""
    config = link_config()
    exact = trace_metrics(exact_trace, config, range(2))
    fast = trace_metrics(block_trace, config, range(2))
    schema = lambda reg: [
        (name, labels, metric.kind, getattr(metric, "bounds", None))
        for name, labels, metric in reg.items()]
    assert schema(exact) == schema(fast)
    assert {name for name, _, _, _ in schema(fast)} \
        == {"trace.packets", "trace.lost", "trace.burst_len",
            "trace.window_loss_rate"}


def test_fast_matches_exact_obs_metrics():
    """Aggregate parity via repro.obs: the fast renderer's recorded
    loss volume and per-window loss distribution agree with the exact
    WifiLink path within the established equivalence tolerances."""
    config = link_config()
    seeds = range(6)
    exact = trace_metrics(exact_trace, config, seeds)
    fast = trace_metrics(fast_trace, config, seeds)
    packets = exact.get("trace.packets", link="fastcheck").value
    assert fast.get("trace.packets", link="fastcheck").value == packets
    exact_rate = exact.get("trace.lost", link="fastcheck").value / packets
    fast_rate = fast.get("trace.lost", link="fastcheck").value / packets
    assert fast_rate == pytest.approx(exact_rate, rel=1.0, abs=0.01)
    # Mean per-window loss rate (histogram sum/count) agrees too — the
    # statistic the paper's worst-window evidence is built from.
    exact_win = exact.get("trace.window_loss_rate", link="fastcheck")
    fast_win = fast.get("trace.window_loss_rate", link="fastcheck")
    assert fast_win.count == exact_win.count
    assert fast_win.total / fast_win.count == pytest.approx(
        exact_win.total / exact_win.count, rel=1.0, abs=0.01)


def test_fast_obs_metrics_deterministic():
    from repro.obs import to_canonical_json
    config = link_config()
    a = trace_metrics(fast_trace, config, [7])
    b = trace_metrics(fast_trace, config, [7])
    assert to_canonical_json(a) == to_canonical_json(b)

"""Unit tests for named random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomRouter, StreamSharingError
from repro.sim import random as sim_random
from repro.sim.random import NormalReadAhead, UniformReadAhead


def test_same_seed_same_name_same_sequence():
    a = RandomRouter(seed=7).stream("linkA")
    b = RandomRouter(seed=7).stream("linkA")
    assert np.array_equal(a.random(100), b.random(100))


def test_different_names_give_different_sequences():
    router = RandomRouter(seed=7)
    a = router.stream("linkA").random(100)
    b = router.stream("linkB").random(100)
    assert not np.array_equal(a, b)


def test_different_seeds_give_different_sequences():
    a = RandomRouter(seed=1).stream("x").random(100)
    b = RandomRouter(seed=2).stream("x").random(100)
    assert not np.array_equal(a, b)


def test_stream_is_cached_and_continues(monkeypatch):
    # Plain caching semantics; the sanitizer's ownership rules are
    # exercised separately below.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    router = RandomRouter(seed=3)
    first = router.stream("s").random(10)
    second = router.stream("s").random(10)
    # Continuation, not a restart.
    fresh = RandomRouter(seed=3).stream("s").random(20)
    assert np.array_equal(np.concatenate([first, second]), fresh)


def test_consuming_one_stream_does_not_shift_another():
    router = RandomRouter(seed=11)
    router.stream("noisy").random(1000)
    quiet = router.stream("quiet").random(50)
    reference = RandomRouter(seed=11).stream("quiet").random(50)
    assert np.array_equal(quiet, reference)


def test_fork_is_deterministic_and_disjoint(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    router = RandomRouter(seed=5)
    f1 = router.fork("run-1")
    f2 = router.fork("run-2")
    again = RandomRouter(seed=5).fork("run-1")
    assert np.array_equal(f1.stream("x").random(20), again.stream("x").random(20))
    assert not np.array_equal(f1.stream("x").random(20), f2.stream("x").random(20))


def test_streams_created_lists_names():
    router = RandomRouter(seed=0)
    router.stream("a")
    router.stream("b")
    assert set(router.streams_created()) == {"a", "b"}


# ---------------------------------------------------- sanitizer (REPRO_SANITIZE)

def _component_a(router):
    return router.stream("shared.name")


def _component_b(router):
    return router.stream("shared.name")


def test_shared_stream_name_raises_under_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    router = RandomRouter(seed=0)
    _component_a(router)
    with pytest.raises(StreamSharingError):
        _component_b(router)


def test_same_call_site_may_refetch_its_stream(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    router = RandomRouter(seed=0)
    draws = []
    for _ in range(3):
        # One component polling its own stream in a loop is one call site.
        draws.append(float(router.stream("poller").random()))
    assert len(set(draws)) == 3   # the stream continues, no restart


def test_shared_stream_name_tolerated_without_sanitizer(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    router = RandomRouter(seed=0)
    assert _component_a(router) is _component_b(router)


def test_fork_gets_fresh_ownership(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    router = RandomRouter(seed=0)
    _component_a(router)
    # Forked routers are disjoint universes: the same component layout
    # claims the same names again without conflict.
    _component_a(router.fork("run-2"))


def test_sanitizer_does_not_change_stream_values(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = RandomRouter(seed=9).stream("values").random(50)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = RandomRouter(seed=9).stream("values").random(50)
    assert np.array_equal(plain, sanitized)


# ------------------------------------------------------- read-ahead draw helpers
#
# Each case replays the same draws through a live Generator making the
# scalar numpy calls and through a helper over an identically seeded twin;
# every value must match exactly.  These are the tripwire for a numpy
# release that changes PCG64's uint32 buffering or the Lemire rejection.
# Sequences run past READ_AHEAD_BLOCK draws so refills land mid-sequence;
# the refill tests also shrink the block to 1 and 2 entries.

#: None means ``random()``; an int n means ``integers(0, n)``.  2**31 and
#: 3 * 2**30 make an off-by-one rejection threshold visible quickly.
_UNIFORM_OPS = st.lists(
    st.sampled_from((None, 1, 2, 16, 1024, 2 ** 31, 1000, 3 * 2 ** 30)),
    max_size=600)


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _replay(live, helper, ops):
    for n in ops:
        if n is None:
            assert helper.random() == live.random()
        else:
            assert helper.integers(n) == int(live.integers(0, n))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ops=_UNIFORM_OPS,
       pre_buffered=st.booleans())
def test_uniform_read_ahead_matches_live_generator(seed, ops, pre_buffered):
    live, twin = _twins(seed)
    if pre_buffered:
        # Leaves PCG64's high uint32 half buffered in both generators.
        assert int(live.integers(0, 5)) == int(twin.integers(0, 5))
    _replay(live, UniformReadAhead(twin), ops)


@pytest.mark.parametrize("block", (1, 2, 256))
def test_uniform_read_ahead_refills_mid_sequence(block, monkeypatch):
    monkeypatch.setattr(sim_random, "READ_AHEAD_BLOCK", block)
    live, twin = _twins(20150)
    ops = [None, 2, 16, None, 2 ** 31, 1024, 3 * 2 ** 30, 1000] * 200
    _replay(live, UniformReadAhead(twin), ops)


def test_integers_of_one_is_zero_without_a_draw():
    live, twin = _twins(4)
    helper = UniformReadAhead(twin)
    assert helper.integers(1) == 0 == int(live.integers(0, 1))
    assert helper.random() == live.random()
    assert helper.integers(7) == int(live.integers(0, 7))


def test_uniform_read_ahead_takes_over_a_buffered_uint32():
    live, twin = _twins(8)
    live.integers(0, 1000)
    twin.integers(0, 1000)
    assert twin.bit_generator.state["has_uint32"] == 1
    helper = UniformReadAhead(twin)
    # The first 32-bit draw is the buffered high half, not a fresh output.
    _replay(live, helper, [1000, None, 1000, 1000, None])


def test_uniform_read_ahead_rejects_what_it_cannot_emulate():
    with pytest.raises(TypeError):
        UniformReadAhead(np.random.Generator(np.random.MT19937(0)))
    helper = UniformReadAhead(np.random.default_rng(0))
    for n in (0, 2 ** 32):
        with pytest.raises(ValueError):
            helper.integers(n)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       sigmas=st.lists(st.just(0.0) | st.floats(0.0, 1.0, exclude_min=True,
                                                exclude_max=True),
                       max_size=600))
def test_normal_read_ahead_matches_live_generator(seed, sigmas):
    live, twin = _twins(seed)
    helper = NormalReadAhead(twin)
    for sigma in sigmas:
        expected = live.normal(0.0, sigma)
        value = 0.0 + sigma * helper.standard_normal()
        assert value == expected
        assert np.signbit(value) == np.signbit(expected)


@pytest.mark.parametrize("block", (1, 2, 256))
def test_normal_read_ahead_refills_mid_sequence(block, monkeypatch):
    monkeypatch.setattr(sim_random, "READ_AHEAD_BLOCK", block)
    live, twin = _twins(20151)
    helper = NormalReadAhead(twin)
    for _ in range(700):
        assert helper.standard_normal() == live.standard_normal()

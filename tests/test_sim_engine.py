"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import HeapOrderError, RandomRouter, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_call_at_fires_at_time():
    sim = Simulator()
    fired = []
    sim.call_at(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_call_in_relative():
    sim = Simulator(start_time=2.0)
    fired = []
    sim.call_in(0.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(3.0, lambda: order.append("c"))
    sim.call_at(1.0, lambda: order.append("a"))
    sim.call_at(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.call_at(1.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_callback_args_passed():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda a, b: seen.append((a, b)), 7, "x")
    sim.run()
    assert seen == [(7, "x")]


def test_scheduling_in_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.call_at(9.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.call_at(1.0, fired.append, "nope")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.call_at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert sim.events_executed == 0


def test_run_until_horizon_stops_clock():
    sim = Simulator()
    fired = []
    sim.call_at(5.0, fired.append, "late")
    final = sim.run(until=2.0)
    assert final == 2.0
    assert fired == []
    # Continuing past the horizon fires the event.
    sim.run(until=10.0)
    assert fired == ["late"]


def test_event_exactly_at_horizon_fires():
    sim = Simulator()
    fired = []
    sim.call_at(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append((sim.now, n))
        if n > 0:
            sim.call_in(1.0, chain, n - 1)

    sim.call_at(0.0, chain, 3)
    sim.run()
    assert fired == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.call_at(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 1.0


def test_step_returns_false_on_empty():
    sim = Simulator()
    assert sim.step() is False


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, fired.append, 1)
    sim.call_at(2.0, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.now == 1.0


def test_peek_skips_cancelled():
    sim = Simulator()
    event = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    event.cancel()
    assert sim.peek() == 2.0


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.call_at(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_reentrant_run_raises():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.call_at(1.0, nested)
    sim.run()
    assert len(errors) == 1


# ---------------------------------------------------- sanitizer (REPRO_SANITIZE)

def _stochastic_run(seed):
    """A small run whose event sequence depends on the seed."""
    sim = Simulator()
    rng = RandomRouter(seed).stream("engine-test.jitter")

    def tick(n):
        if n > 0:
            sim.call_in(0.001 + float(rng.random()) * 0.01, tick, n - 1)

    sim.call_at(0.0, tick, 50)
    sim.run()
    return sim


def test_digest_is_none_without_sanitizer(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = _stochastic_run(seed=0)
    assert sim.sanitizing is False
    assert sim.determinism_digest() is None


def test_same_seed_runs_produce_identical_digests(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    a = _stochastic_run(seed=7)
    b = _stochastic_run(seed=7)
    assert a.sanitizing and b.sanitizing
    assert a.determinism_digest() is not None
    assert a.determinism_digest() == b.determinism_digest()


def test_cross_seed_runs_produce_different_digests(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    a = _stochastic_run(seed=7)
    b = _stochastic_run(seed=8)
    assert a.determinism_digest() != b.determinism_digest()


def test_digest_counts_executed_events(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = _stochastic_run(seed=1)
    digest = sim.determinism_digest()
    assert digest.endswith(f"#{sim.events_executed}")


def test_scheduling_in_past_still_raises_with_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.call_at(9.0, lambda: None)


def test_mutated_event_time_caught_by_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator()
    sim.call_at(5.0, lambda: None)
    rogue = sim.call_at(10.0, lambda: None)
    # Corrupting a scheduled event's time violates heap order; the
    # sanitizer catches it at pop time instead of silently time-travelling.
    rogue.time = 1.0
    with pytest.raises(HeapOrderError):
        sim.run()


def test_mutated_event_time_unnoticed_without_sanitizer(monkeypatch):
    """Documents the hazard the sanitizer exists for: without it the
    corrupted run completes, silently out of order."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = Simulator()
    order = []
    sim.call_at(5.0, order.append, "a")
    rogue = sim.call_at(10.0, order.append, "b")
    rogue.time = 1.0
    sim.run()
    assert order == ["a", "b"]   # executed despite t=1.0 < 5.0


# ------------------------------------------------------ ordering property

#: one scheduled event: (time, cancelled before the run, delay of a child
#: it schedules when it fires, or None); few distinct times, so ties are
#: common
_ENTRIES = st.lists(
    st.tuples(st.sampled_from((0.0, 0.25, 1.0, 2.5))
              | st.floats(min_value=0.0, max_value=5.0),
              st.booleans(),
              st.none() | st.sampled_from((0.0, 0.25))),
    max_size=30)


def _drive(entries, use_step):
    """Schedule ``entries`` and run them; returns the fired indices and
    every handle.  Each event's args hold an ``object()``, which has no
    ordering: comparing two heap entries past ``seq`` would raise."""
    sim = Simulator()
    handles = []
    fired = []

    def fire(index, _token, child_delay):
        fired.append(index)
        if child_delay is not None:
            handles.append(sim.call_in(child_delay, fire, len(handles),
                                       object(), None))

    for time, _, child_delay in entries:
        handles.append(sim.call_at(time, fire, len(handles), object(),
                                   child_delay))
    for (_, cancel, _), event in zip(entries, list(handles)):
        if cancel:
            event.cancel()
    if use_step:
        while sim.step():
            pass
    else:
        sim.run()
    return fired, handles


@settings(max_examples=200, deadline=None)
@given(_ENTRIES)
def test_events_fire_in_time_seq_order(entries):
    fired, handles = _drive(entries, use_step=False)
    # A handle's index is its scheduling order: the seq tie-break.
    keys = [(handles[i].time, i) for i in fired]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert sorted(fired) == [i for i, event in enumerate(handles)
                             if not event.cancelled]
    stepped, _ = _drive(entries, use_step=True)
    assert stepped == fired

"""802.11 MAC layer: retransmissions, backoff, per-packet service time.

The MAC retries each frame up to ``retry_limit`` times with exponential
backoff.  Retries happen on the tens-of-microseconds-to-milliseconds
timescale — this is the paper's *temporal diversity at a fine timescale*,
which fails exactly when the channel impairment outlives the whole retry
burst (a BAD Gilbert sojourn, a microwave half-cycle, a deep fade).  The
link model therefore evaluates the attempt-level loss process across the
retry burst's actual attempt times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.obs.registry import (
    COUNT_BUCKETS,
    Counter,
    Histogram,
    LabelValue,
    MetricsRegistry,
)
from repro.obs.runtime import active_registry
from repro.sim.random import UniformReadAhead


@dataclass(frozen=True)
class MacConfig:
    """MAC retransmission parameters (802.11 defaults)."""

    retry_limit: int = 7
    slot_time_s: float = 9e-6
    sifs_s: float = 16e-6
    difs_s: float = 34e-6
    cw_min: int = 15
    cw_max: int = 1023
    #: per-attempt frame airtime (transmission + ACK), overridden by PHY
    attempt_airtime_s: float = 3e-4


@dataclass
class TransmissionResult:
    """Outcome of one MAC-layer delivery attempt burst."""

    delivered: bool
    attempts: int
    #: time from frame reaching the head of the queue to final ACK/drop
    service_time_s: float


class MacLayer:
    """Retry engine: drives per-attempt loss probabilities to an outcome.

    ``attempt_loss_prob(time)`` is supplied by the channel composition and
    evaluated at each attempt's actual transmit time so that bursty channel
    state correctly correlates consecutive attempts.
    """

    def __init__(self, config: MacConfig, rng: np.random.Generator,
                 metrics: Optional[MetricsRegistry] = None,
                 metric_labels: Optional[Dict[str, LabelValue]] = None):
        self.config = config
        self._draws = UniformReadAhead(rng)
        # Backoff slot choices per attempt: the contention window doubles
        # from cw_min up to cw_max, and a backoff draws 0..cw slots.
        self._backoff_choices = tuple(
            min(config.cw_min * (2 ** attempt) + (2 ** attempt - 1),
                config.cw_max) + 1
            for attempt in range(config.retry_limit + 1))
        # Instruments are resolved once here, not per frame: transmit()
        # runs per packet and a dict lookup per counter would be hot.
        registry = metrics if metrics is not None else active_registry()
        self._m_attempts: Optional[Counter] = None
        self._m_retries: Optional[Counter] = None
        self._m_dropped: Optional[Counter] = None
        self._m_attempt_hist: Optional[Histogram] = None
        if registry is not None:
            labels = dict(metric_labels or {})
            self._m_attempts = registry.counter("mac.attempts", **labels)
            self._m_retries = registry.counter("mac.retries", **labels)
            self._m_dropped = registry.counter("mac.frames_dropped",
                                               **labels)
            self._m_attempt_hist = registry.histogram(
                "mac.attempts_per_frame", bounds=COUNT_BUCKETS, **labels)

    def transmit(self, start_time: float,
                 attempt_loss_prob: Callable[[float], float],
                 airtime_s: Optional[float] = None) -> TransmissionResult:
        """Attempt delivery starting at ``start_time``.

        Returns the result with the cumulative service time (backoffs +
        airtimes across all attempts).
        """
        config = self.config
        airtime = (airtime_s if airtime_s is not None
                   else config.attempt_airtime_s)
        draws = self._draws
        elapsed = 0.0
        result = None
        for attempt, choices in enumerate(self._backoff_choices):
            elapsed += config.difs_s + draws.integers(choices) \
                * config.slot_time_s
            tx_time = start_time + elapsed
            elapsed += airtime
            p_loss = attempt_loss_prob(tx_time)
            if draws.random() >= p_loss:
                result = TransmissionResult(
                    delivered=True, attempts=attempt + 1,
                    service_time_s=elapsed)
                break
        if result is None:
            result = TransmissionResult(
                delivered=False, attempts=self.config.retry_limit + 1,
                service_time_s=elapsed)
        if self._m_attempts is not None:
            self._m_attempts.inc(result.attempts)
            self._m_retries.inc(result.attempts - 1)
            if not result.delivered:
                self._m_dropped.inc()
            self._m_attempt_hist.observe(result.attempts)
        return result

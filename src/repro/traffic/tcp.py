"""A Reno-style TCP source: the competing iperf flow of Figure 10.

The model captures what matters for the coexistence experiment: an
ACK-clocked window protocol whose throughput tracks the availability of
the client's default (DEF) link.  When the DiversiFi NIC is off-channel
(switched to the secondary), the AP cannot deliver to the client, the ACK
clock stalls, and throughput dips — the effect the paper measures at an
average of 2.5%.

Mechanics implemented: slow start, congestion avoidance, fast retransmit
on 3 duplicate ACKs (with window halving), retransmission timeout with
window collapse, a finite tail-drop bottleneck queue at the AP, and
residual wireless loss.  Retransmission is go-back-N from the last
cumulative ACK, which is accurate enough at this queue depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.engine import Simulator


@dataclass
class TcpStats:
    """Outcome of one TCP run."""

    bytes_acked: int = 0
    segments_sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    queue_drops: int = 0
    wireless_drops: int = 0
    duration_s: float = 0.0

    @property
    def throughput_bps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_acked * 8.0 / self.duration_s

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps / 1e6


class TcpReno:
    """A greedy Reno sender over the client's DEF WiFi link."""

    def __init__(self, sim: Simulator, rng: np.random.Generator,
                 capacity_bps: float = 4.6e6,
                 base_rtt_s: float = 0.020,
                 mss_bytes: int = 1460,
                 queue_limit: int = 64,
                 duration_s: float = 120.0,
                 radio_present=lambda: True,
                 wireless_loss_prob=0.002,
                 rto_s: float = 0.200):
        self.sim = sim
        self._rng = rng
        self.capacity_bps = capacity_bps
        self.base_rtt_s = base_rtt_s
        self.mss = mss_bytes
        self.queue_limit = queue_limit
        self.duration_s = duration_s
        self.radio_present = radio_present
        self.wireless_loss_prob = wireless_loss_prob
        self.rto_s = rto_s
        self.stats = TcpStats(duration_s=duration_s)

        self._cwnd = 2.0            # segments
        self._ssthresh = 64.0
        self._next_seq = 0          # next new segment to queue
        self._snd_una = 0           # lowest unacked
        self._dup_acks = 0
        self._queue: deque = deque()
        self._serving = False
        self._end_time = 0.0
        self._last_ack_time = 0.0
        #: when the retransmission timer expires; None when disarmed
        self._rto_deadline: Optional[float] = None
        #: whether a timer event is in the simulator's queue
        self._rto_timer_live = False
        self._started = False
        self._in_recovery_until = -1

    # ------------------------------------------------------------------

    @property
    def cwnd_segments(self) -> float:
        return self._cwnd

    def start(self, start_time: float = 0.0) -> None:
        if self._started:
            raise RuntimeError("TCP source already started")
        self._started = True
        self._end_time = start_time + self.duration_s
        self.sim.call_at(start_time, self._pump)
        self._arm_rto()

    # ------------------------------------------------------------------
    # sending

    def _in_flight(self) -> int:
        return self._next_seq - self._snd_una

    def _pump(self) -> None:
        """Queue new segments while the window allows."""
        if self.sim.now >= self._end_time:
            return
        while (self._in_flight() < int(self._cwnd)
               and len(self._queue) < self.queue_limit):
            self._queue.append(self._next_seq)
            self._next_seq += 1
            self.stats.segments_sent += 1
        if (self._in_flight() < int(self._cwnd)
                and len(self._queue) >= self.queue_limit):
            # Window wants more than the queue can hold: tail drop.  The
            # sender notices via dup-acks later; model by capping.
            self.stats.queue_drops += 1
        self._kick_service()

    def _kick_service(self) -> None:
        if not self._serving and self._queue:
            self._serving = True
            self.sim.call_in(0.0, self._serve)

    def _serve(self) -> None:
        if not self._queue:
            self._serving = False
            return
        if self.sim.now >= self._end_time:
            self._serving = False
            return
        if not self.radio_present():
            # Client off-channel: the AP holds the frame; poll again soon.
            self.sim.call_in(0.001, self._serve)
            return
        seq = self._queue.popleft()
        service_s = self.mss * 8.0 / self.capacity_bps
        self.sim.call_in(service_s, self._delivered, seq)
        self.sim.call_in(service_s, self._serve)

    def _loss_prob_now(self) -> float:
        if callable(self.wireless_loss_prob):
            return float(self.wireless_loss_prob())
        return float(self.wireless_loss_prob)

    def _delivered(self, seq: int) -> None:
        if self._rng.random() < self._loss_prob_now():
            self.stats.wireless_drops += 1
            return  # receiver never sees it; dup-acks will follow
        self.sim.call_in(self.base_rtt_s / 2.0, self._ack_arrives, seq)

    # ------------------------------------------------------------------
    # ACK processing

    def _ack_arrives(self, seq: int) -> None:
        self._last_ack_time = self.sim.now
        if seq < self._snd_una:
            return  # stale
        if seq == self._snd_una:
            cumulative_new = True
        else:
            # Out-of-order delivery relative to snd_una: receiver acks
            # cumulatively; a gap means duplicate ACKs.
            cumulative_new = False

        if cumulative_new:
            self._snd_una = seq + 1
            acked_bytes = self.mss
            self.stats.bytes_acked += acked_bytes
            self._dup_acks = 0
            if self._cwnd < self._ssthresh:
                self._cwnd += 1.0            # slow start
            else:
                self._cwnd += 1.0 / self._cwnd  # congestion avoidance
            self._arm_rto()
            self._pump()
        else:
            self._dup_acks += 1
            if (self._dup_acks >= 3
                    and self._snd_una > self._in_recovery_until):
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        self.stats.retransmits += 1
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = self._ssthresh
        self._dup_acks = 0
        self._in_recovery_until = self._next_seq
        # Go-back-N: rewind and resend from the hole.
        self._next_seq = self._snd_una
        self._queue.clear()
        self._pump()

    def _arm_rto(self) -> None:
        """Restart the retransmission timer at ``now + rto_s``.

        Lazy: this only moves the deadline.  At most one timer event is
        queued at a time, and one that fires before the deadline re-arms
        itself for it, so an ACK costs no event.
        """
        now = self.sim.now
        if now >= self._end_time:
            self._rto_deadline = None
            return
        self._rto_deadline = now + self.rto_s
        if not self._rto_timer_live:
            self._rto_timer_live = True
            self.sim.call_at(self._rto_deadline, self._rto_fired)

    def _rto_fired(self) -> None:
        self._rto_timer_live = False
        deadline = self._rto_deadline
        if deadline is None or self.sim.now >= self._end_time:
            self._rto_deadline = None
            return
        if self.sim.now < deadline:
            # ACKs moved the deadline since this event was queued.
            self._rto_timer_live = True
            self.sim.call_at(deadline, self._rto_fired)
            return
        self._rto_deadline = None
        if self._in_flight() == 0 and not self._queue:
            # Idle (window fully acked): nothing to recover.
            self._pump()
            self._arm_rto()
            return
        self.stats.timeouts += 1
        self.stats.retransmits += 1
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = 2.0
        self._dup_acks = 0
        self._next_seq = self._snd_una
        self._queue.clear()
        self._pump()
        self._arm_rto()

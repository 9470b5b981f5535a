"""Named, reproducible random streams.

Every stochastic component (each link's Gilbert–Elliott chain, each fading
process, the jitter of each WAN path...) draws from its *own* named stream so
that changing one component's consumption pattern never perturbs another —
the property that makes paired strategy comparisons valid: two strategies
evaluated against ``RandomRouter(seed)`` with the same stream names see
*identical* channel realizations.

Streams are ``numpy.random.Generator`` instances seeded by hashing the root
seed with the stream name through ``numpy.random.SeedSequence``.

Read-ahead draws
----------------
Per-attempt components (the MAC's backoff and ACK draws, the fading
innovations) make one scalar draw at a time, where numpy's per-call
overhead dominates.  :class:`UniformReadAhead` and :class:`NormalReadAhead`
serve those draws from small blocks fetched ahead, and each returns exactly
the value the scalar call would have drawn:

* the single-owner rule (one component per stream name, which the
  ``REPRO_SANITIZE`` owner registry enforces) is what licenses read-ahead:
  nothing else reads a stream, so how far ahead its owner has fetched is
  invisible to every output;
* after a run, an owned generator's state is therefore *ahead* of what
  was consumed — do not draw from it directly once a helper wraps it;
* two objects sharing one generator must share one helper (as the
  branches of :class:`repro.channel.fading.SelectionDiversityFading` do),
  otherwise each would read ahead past the other's values;
* :class:`UniformReadAhead` mirrors numpy's PCG64 and Lemire internals
  (``next_double``, the buffered ``next_uint32``, bounded-uint32
  rejection).  ``tests/test_sim_random.py`` compares it against a live
  ``Generator`` and is the tripwire if numpy ever changes them.
"""

from __future__ import annotations

import sys
import zlib
from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.sim.sanitize import StreamOwnerRegistry, sanitizer_enabled


class RandomRouter:
    """Factory and cache of named ``numpy.random.Generator`` streams.

    With ``REPRO_SANITIZE=1`` the router also records which call site
    first requested each stream name and raises
    :class:`repro.sim.sanitize.StreamSharingError` when a different call
    site requests the same name — two components sharing one generator
    breaks stream isolation silently, which is far worse than failing
    loudly.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._owners: Optional[StreamOwnerRegistry] = \
            StreamOwnerRegistry() if sanitizer_enabled() else None

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields the same sequence, and the
        generator object is cached so repeated calls continue the sequence.
        """
        if self._owners is not None:
            caller = sys._getframe(1)
            self._owners.claim(
                name, (caller.f_code.co_filename, caller.f_lineno))
        generator = self._streams.get(name)
        if generator is None:
            # Stable across processes/platforms: derive a child key from a
            # CRC of the name rather than Python's salted hash().
            name_key = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(name_key,))
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def fork(self, salt: str) -> "RandomRouter":
        """A router whose streams are all disjoint from this one's.

        Used to give each of many runs (e.g. the 458 simulated calls) its own
        independent randomness while staying reproducible from one root seed.
        """
        salt_key = zlib.crc32(salt.encode("utf-8"))
        return RandomRouter(seed=(self.seed * 1_000_003 + salt_key)
                            % (2 ** 63))

    def streams_created(self) -> Iterable[str]:
        """Names of the streams drawn from so far (for tests/debugging)."""
        return tuple(self._streams)


#: Entries fetched per refill.  Small on purpose: every link holds a few of
#: these buffers, and 256 entries already amortize numpy's per-call cost.
READ_AHEAD_BLOCK = 256

_UINT32_MASK = 0xFFFFFFFF
_DOUBLE_SCALE = 1.0 / 9007199254740992.0    # 2**-53


def _blocks(fetch: Callable[[], List[Any]]) -> Iterator[Any]:
    """Endless iterator over the entries of successive ``fetch()`` blocks;
    a block is fetched only once the previous one is used up."""
    return chain.from_iterable(iter(fetch, None))


class UniformReadAhead:
    """Exact ``Generator.random()`` / ``integers(0, n)`` from raw PCG64 blocks.

    ``random()`` is numpy's ``next_double``: ``(u64 >> 11) * 2**-53``.
    ``integers(n)`` is numpy's bounded draw for ranges below ``2**32 - 1``:
    Lemire's multiply-and-reject on ``next_uint32``, which PCG64 buffers
    (a 64-bit output yields its low half now and its high half on the
    next 32-bit request; ``next_double`` leaves that buffer alone).  The
    buffer state is taken from the generator when the helper is built.
    """

    __slots__ = ("_raw", "_high")

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError("UniformReadAhead emulates PCG64 only, got "
                            f"{type(bit_generator).__name__}")
        state = bit_generator.state
        #: the buffered high half of the last 64-bit output, if unused
        self._high: Optional[int] = \
            int(state["uinteger"]) if state["has_uint32"] else None
        random_raw = bit_generator.random_raw
        self._raw: Iterator[int] = _blocks(
            lambda: random_raw(READ_AHEAD_BLOCK).tolist())

    def random(self) -> float:
        """The next ``generator.random()``."""
        return (next(self._raw) >> 11) * _DOUBLE_SCALE

    def _next_uint32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        raw = next(self._raw)
        self._high = raw >> 32
        return raw & _UINT32_MASK

    def integers(self, n: int) -> int:
        """The next ``generator.integers(0, n)``, for ``1 <= n < 2**32``."""
        if n == 1:
            return 0            # numpy draws nothing for an empty range
        if not 1 < n < _UINT32_MASK + 1:
            raise ValueError(f"integers(0, n) needs 1 <= n < 2**32, got {n}")
        m = self._next_uint32() * n
        if m & _UINT32_MASK < n:
            threshold = (_UINT32_MASK - (n - 1)) % n
            while m & _UINT32_MASK < threshold:
                m = self._next_uint32() * n
        return m >> 32


class NormalReadAhead:
    """Exact ``Generator.standard_normal()`` from read-ahead blocks.

    Values come from ``generator.standard_normal(READ_AHEAD_BLOCK)``,
    which draws the same sequence as repeated scalar calls.
    ``generator.normal(0.0, sigma)`` is ``0.0 + sigma * z`` for the next
    ``z``: numpy computes ``loc + scale * z``, and the ``0.0 +`` gives a
    zero product the same sign.
    """

    __slots__ = ("_normals",)

    def __init__(self, generator: np.random.Generator) -> None:
        self._normals: Iterator[float] = _blocks(
            lambda: generator.standard_normal(READ_AHEAD_BLOCK).tolist())

    def standard_normal(self) -> float:
        """The next ``generator.standard_normal()``."""
        return next(self._normals)

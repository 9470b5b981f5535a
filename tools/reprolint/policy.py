"""Stage-1 path-scoped exemptions.

``make lint`` runs reprolint over ``src/``, ``tools/`` and ``tests/``.
The determinism rules encode invariants of *simulation* code; applied
verbatim to tests and developer tooling they would flag idioms that are
the whole point of those trees, so the exemptions below are granted once,
with rationale:

* ``tests/``
    - DET001/DET002: tests legitimately build throwaway seeded RNGs and
      measure wall-clock time (e.g. performance smoke tests).
    - DET003: test helpers freely schedule from literal collections.
    - GEN103: engine unit tests assert *exact* event timestamps they
      themselves constructed — exactness is the property under test.
    - GEN105: several tests request the same stream name twice on purpose
      to prove the router's same-generator semantics.
* ``tools/``
    - DET002/DET003: developer tooling runs in real time and schedules
      nothing on the event heap.
* ``src/repro/runner/``
    - deliberately exempt from NOTHING.  The parallel runner is where
      determinism is easiest to lose: worker code must draw randomness
      only through :mod:`repro.sim.random` streams seeded from the spec
      (DET001), must not read wall clocks except the explicitly
      suppressed telemetry timers (DET002), and must never use the fork
      start method (DET004, added with the runner).  The empty entry
      records that decision so nobody "fixes" runner lint noise with a
      path exemption instead of fixing the code.
* ``src/repro/batch/``
    - same zero-exemption stance as the runner, for the same reason:
      batch blocks execute inside runner workers and their results are
      content-address cached, so any stray RNG, wall-clock read or
      ad-hoc print poisons digests across serial/parallel/warm-cache
      runs.
* ``src/repro/net/``
    - zero exemptions, same reasoning again: the control plane
      (topology, rolling link metrics, QoE controller) runs inside
      cached runner tasks, and its decisions — reroutes, middlebox
      start/stop — feed the digested payload.  A single unseeded draw
      or wall-clock read in a poll loop would make the sdn-smoke
      digests diverge between serial and --jobs runs.
* ``src/repro/studies/``
    - zero exemptions: the population backend's pass-1/pass-2/nettest
      block tasks execute inside runner workers with content-addressed
      caching, and the in-memory analyses share their reduction rules,
      so the whole package gets the runner's stance — any stray
      print, unseeded draw or wall-clock read would break the
      population-smoke digest equality.

Everything else (mutable defaults, overbroad excepts, slot-less Event
classes...) applies everywhere, including to the linters themselves.

Entries may also name a single ``.py`` file (see
:class:`lintcore.policy.PathPolicy`) for one-file exceptions; this
policy currently needs none.
"""

from __future__ import annotations

from lintcore.policy import PathPolicy

DEFAULT_POLICY = PathPolicy((
    ("tests/", ("DET001", "DET002", "DET003", "GEN103", "GEN105")),
    ("tools/", ("DET002", "DET003")),
    ("src/repro/runner/", ()),
    ("src/repro/batch/", ()),
    ("src/repro/net/", ()),
    ("src/repro/studies/", ()),
))

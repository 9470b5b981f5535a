"""Whole-population drivers for the Section 3 studies (Tables 1 & 2).

:func:`repro.studies.provider.analyze_table1` and
:meth:`repro.studies.nettest.NetTestDataset.table2` reduce one
in-memory study.  At the paper's scale — a *year* of provider ratings,
10^6+ calls — holding one Python object per call is the bottleneck, so
this module runs the same studies block by block:

* **One generator, one reduction** — a provider block is rendered by
  :func:`repro.studies.provider.render_provider_block` and reduced by
  the same Table 1 rules :func:`~repro.studies.provider.analyze_table1`
  uses (:func:`~repro.studies.provider.table1_pass1`,
  :class:`~repro.studies.provider.PairTallies`,
  :func:`~repro.studies.provider.table1_pass2`,
  :func:`~repro.studies.provider.table1_rows`); NetTest blocks are
  reduced by :func:`repro.studies.nettest.call_counts` and tabulated by
  :func:`~repro.studies.nettest.table2_rows` /
  :func:`~repro.studies.nettest.user_fractions`.  The only difference
  from the in-memory paths is how counts are sharded and merged, and
  the counters are exact, so every row is equal at any population size
  (``tests/test_population.py``, ``tests/test_section3_golden.py``).

* **Runner sharding** — blocks are mapped through
  :func:`repro.runner.map_configs` as module-level tasks
  (:func:`provider_pass1_metrics`, :func:`provider_pass2_metrics`,
  :func:`nettest_block_metrics`) with the block index as the cache-keyed
  seed, so populations parallelize with ``--jobs`` and cache per block.
  Every knob is an explicit config entry with a def-time default
  (reproflow KEY501): nothing that changes a result escapes the key.

* **Streaming aggregation** — tasks never return call lists.  Each block
  reduces to :mod:`repro.analysis.sketch` payloads (exact labeled
  counters, a fixed-grid MOS CDF, Welford moments) and the drivers fold
  them **in spec order**, so serial, ``--jobs N`` and warm-cache
  executions merge identically and the batch digest is byte-stable.
  Memory is flat in the population size: per-block arrays plus counters
  bounded by ``n_subnet_pairs`` / :data:`~repro.studies.nettest.N_CLIENTS`.

Two-pass balanced-/24 protocol (Table 1 rows 2 and 4)
-----------------------------------------------------

The "/24s with #E>=#W" filter needs *global* per-pair EE/WW counts
before any row membership is known, so the provider study runs two
passes over the same blocks:

1. :func:`provider_pass1_metrics` returns the All/PC counters plus
   sparse per-pair EE/WW tallies (all calls and PC-only calls);
2. the driver merges the pass-1 tallies in spec order, takes the
   balanced pair sets from
   :meth:`~repro.studies.provider.PairTallies.balanced`, and hands them
   to :func:`provider_pass2_metrics` as sorted lists **inside the task
   config** — part of the cache key, so a pass-2 result can never pair
   with the wrong filter.

Observability: each task bumps ``population.*`` counters, merged
through the runner's deterministic metrics path.  ``population.calls``
counts each generated call once (provider pass 1 and NetTest blocks);
``population.rated_calls`` and ``population.poor_calls`` count what the
tables are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sketch import GridCdf, LabeledCounts, MomentSketch
from repro.obs.runtime import active_registry
from repro.runner import RunnerConfig, map_configs
from repro.studies.nettest import (
    NETTEST_BLOCK,
    TOTAL,
    UserTallies,
    call_counts,
    client_state,
    render_nettest_block,
    schedule_size,
    table2_rows,
    user_fractions,
)
from repro.studies.provider import (
    PairTallies,
    ProviderBlockArrays,
    RatedColumns,
    Table1Row,
    call_blocks,
    pair_state,
    render_provider_block,
    table1_pass1,
    table1_pass2,
    table1_rows,
)

__all__ = [
    "MOS_GRID",
    "NETTEST_TASK",
    "NetTestPopulationTables",
    "PASS1_TASK",
    "PASS2_TASK",
    "ProviderPopulationTables",
    "nettest_block_metrics",
    "nettest_population_study",
    "provider_pass1_metrics",
    "provider_pass2_metrics",
    "provider_population_study",
]

#: runner entry points
PASS1_TASK = "repro.studies.population:provider_pass1_metrics"
PASS2_TASK = "repro.studies.population:provider_pass2_metrics"
NETTEST_TASK = "repro.studies.population:nettest_block_metrics"

#: the fixed grid every MOS sketch uses — merging requires identical
#: grids, so there is exactly one (lo, hi, bins) for the whole repo.
MOS_GRID = (0.0, 5.0, 100)


# ---------------------------------------------------------------------------
# task payloads

def _mos_sketches(mos: np.ndarray) -> Dict[str, Any]:
    cdf = GridCdf(*MOS_GRID)
    cdf.observe_array(mos)
    moments = MomentSketch()
    moments.observe_array(mos)
    return {"mos_cdf": cdf.to_payload(),
            "mos_moments": moments.to_payload()}


# ---------------------------------------------------------------------------
# provider runner tasks

def _provider_block(block: int, count: int, root_seed: int,
                    n_subnet_pairs: int
                    ) -> Tuple[ProviderBlockArrays, RatedColumns]:
    """Render one provider block; return it with its rated calls as
    columns."""
    arrays = render_provider_block(
        block, count, root_seed, pair_state(root_seed, n_subnet_pairs))
    return arrays, RatedColumns.of_block(arrays)


def provider_pass1_metrics(block: int, *, count: int, root_seed: int,
                           n_subnet_pairs: int = 3000) -> Dict[str, Any]:
    """Pass 1 over one provider block: All/PC counters + pair tallies.

    The payload is pure sketches — counter rows, sparse per-pair EE/WW
    tallies (bounded by ``n_subnet_pairs``), and the MOS CDF/moment
    sketches of the block's rated calls.  No call list ever leaves the
    task, which is what keeps million-call populations flat in memory.
    """
    arrays, rated = _provider_block(block, count, root_seed,
                                    n_subnet_pairs)
    table, pair_rows, pc_pair_rows = table1_pass1(rated)
    registry = active_registry()
    if registry is not None:
        # Pass 2 re-renders the same calls, so only pass 1 counts them.
        registry.counter("population.calls").inc(count)
        registry.counter("population.rated_calls").inc(len(rated.pair))
    return {"table": table.to_payload(), "pairs": pair_rows,
            "pc_pairs": pc_pair_rows,
            **_mos_sketches(arrays.mos[arrays.rated])}


def provider_pass2_metrics(block: int, *, count: int, root_seed: int,
                           balanced: Sequence[int],
                           pc_balanced: Sequence[int],
                           n_subnet_pairs: int = 3000
                           ) -> List[List[Any]]:
    """Pass 2: the balanced-/24 rows, re-rendered under the filter.

    ``balanced`` / ``pc_balanced`` are the driver-computed pair sets
    (sorted lists).  They arrive through the task config on purpose:
    they are inputs that change the result, so they must be part of the
    content address — a cached pass-2 payload can never be replayed
    against a different filter.
    """
    _, rated = _provider_block(block, count, root_seed, n_subnet_pairs)
    return table1_pass2(rated, balanced, pc_balanced).to_payload()


# ---------------------------------------------------------------------------
# provider driver

@dataclass
class ProviderPopulationTables:
    """Merged Table 1 statistics for a whole provider population."""

    rows: List[Table1Row]
    overall_pcr: float
    pcr_wilson: Tuple[float, float]
    n_rated_calls: int
    n_calls: int
    n_balanced_pairs: int
    n_pc_balanced_pairs: int
    mos_cdf: GridCdf
    mos_moments: MomentSketch


def provider_population_study(n_calls: int = 1_000_000, seed: int = 0,
                              n_subnet_pairs: int = 3000,
                              runner_config: Optional[RunnerConfig] =
                              None) -> ProviderPopulationTables:
    """Run the whole-population provider study (Table 1 at scale).

    Shards the population into :data:`~repro.studies.provider.CALL_BLOCK`
    blocks, maps the two passes through the runner, and folds the sketch
    payloads in spec order.  For any ``n_calls`` the resulting rows are
    exactly equal to ``analyze_table1(synthesize_provider_year(...))`` —
    the counters are exact, and the rows come from the same
    :func:`~repro.studies.provider.table1_rows`.
    """
    items = [(block, {"root_seed": seed, "n_subnet_pairs": n_subnet_pairs,
                      "count": count})
             for block, count in call_blocks(n_calls)]

    table = LabeledCounts()
    cdf = GridCdf(*MOS_GRID)
    moments = MomentSketch()
    pairs = PairTallies()
    pc_pairs = PairTallies()
    # map_configs returns payloads in spec order — the merge contract.
    for payload in map_configs(PASS1_TASK, items, config=runner_config):
        table.merge(LabeledCounts.from_payload(payload["table"]))
        cdf.merge(GridCdf.from_payload(payload["mos_cdf"]))
        moments.merge(MomentSketch.from_payload(payload["mos_moments"]))
        pairs.add(payload["pairs"])
        pc_pairs.add(payload["pc_pairs"])

    balanced = pairs.balanced()
    pc_balanced = pc_pairs.balanced()
    items2 = [(block, dict(config, balanced=balanced,
                           pc_balanced=pc_balanced))
              for block, config in items]
    for payload in map_configs(PASS2_TASK, items2, config=runner_config):
        table.merge(LabeledCounts.from_payload(payload))

    return ProviderPopulationTables(
        rows=table1_rows(table), overall_pcr=table.pcr(("all", "all")),
        pcr_wilson=table.wilson(("all", "all")),
        n_rated_calls=table.n(("all", "all")), n_calls=n_calls,
        n_balanced_pairs=len(balanced),
        n_pc_balanced_pairs=len(pc_balanced),
        mos_cdf=cdf, mos_moments=moments)


# ---------------------------------------------------------------------------
# NetTest runner task + driver

def nettest_block_metrics(block: int, *, count: int, root_seed: int,
                          scale: float = 1.0) -> Dict[str, Any]:
    """One NetTest call block reduced to sketches.

    The per-call trace simulation is data-dependent (Gilbert chains,
    busy spells), so rendering stays scalar — the population win here is
    runner sharding (parallel blocks, per-block caching) plus streaming
    aggregation instead of shipping 9224 scored calls per seed.
    """
    calls = render_nettest_block(block, count, root_seed,
                                 client_state(root_seed), scale=scale)
    table, users = call_counts(calls)
    registry = active_registry()
    if registry is not None:
        registry.counter("population.calls").inc(count)
        registry.counter("population.poor_calls").inc(
            table.poor((TOTAL,)))
    return {
        "table": table.to_payload(),
        "users": [[int(user), slots, poors]
                  for user, (slots, poors) in sorted(users.items())],
        **_mos_sketches(np.array([call.mos for call in calls])),
    }


@dataclass
class NetTestPopulationTables:
    """Merged Table 2 statistics for a whole NetTest population."""

    rows: List[Tuple[str, int, float]]
    overall_pcr: float
    pcr_wilson: Tuple[float, float]
    n_calls: int
    frac_users_any_poor: float
    frac_users_pcr20: float
    mos_cdf: GridCdf
    mos_moments: MomentSketch


def nettest_population_study(seed: int = 0, scale: float = 1.0,
                             runner_config: Optional[RunnerConfig] = None
                             ) -> NetTestPopulationTables:
    """Run the NetTest study sharded over runner blocks.

    Table 2 rows and the spatial stats are exactly equal to the
    in-memory ``run_nettest_study`` path for any ``scale``: the counters
    are exact and the rows come from the same rules.
    """
    total = schedule_size(scale)
    items = [(block, {"root_seed": seed, "scale": scale,
                      "count": min(NETTEST_BLOCK,
                                   total - block * NETTEST_BLOCK)})
             for block in range((total + NETTEST_BLOCK - 1)
                                // NETTEST_BLOCK)]

    table = LabeledCounts()
    cdf = GridCdf(*MOS_GRID)
    moments = MomentSketch()
    users: UserTallies = {}
    for payload in map_configs(NETTEST_TASK, items,
                               config=runner_config):
        table.merge(LabeledCounts.from_payload(payload["table"]))
        cdf.merge(GridCdf.from_payload(payload["mos_cdf"]))
        moments.merge(MomentSketch.from_payload(payload["mos_moments"]))
        for user, slots, poors in payload["users"]:
            old_slots, old_poors = users.get(int(user), (0, 0))
            users[int(user)] = (old_slots + int(slots),
                                old_poors + int(poors))

    frac_any, frac_20 = user_fractions(users)
    return NetTestPopulationTables(
        rows=table2_rows(table), overall_pcr=table.pcr((TOTAL,)),
        pcr_wilson=table.wilson((TOTAL,)), n_calls=table.n((TOTAL,)),
        frac_users_any_poor=frac_any, frac_users_pcr20=frac_20,
        mos_cdf=cdf, mos_moments=moments)

"""The large-VoIP-service dataset and the Table 1 analysis.

The paper analyzes a year of user-rated calls from a service with hundreds
of millions of users, asking one question: is the WiFi last hop a
significant contributor to poor call quality?  The key methodology is the
*subset analysis*: relative PCR deltas for calls split by last-hop type
(EE / EW / WW), re-computed over (a) only /24-subnet pairs with at least as
many EE as WW rated calls (controls for WiFi clients living in badly
backhauled places) and (b) only PC-class devices (controls for cheap
mobile hardware).

The synthetic population encodes only the hypotheses the paper itself
offers for the confounds:

* WiFi endpoints add an extra, heavy-tailed network impairment;
* WiFi clients are over-represented in poorly backhauled subnets
  (malls, airports) — the row-2 confound;
* WiFi clients are more often cheap mobile devices whose hardware hurts
  perceived quality — the row-3 confound;
* users rate calls only sometimes, and are a little more likely to rate
  after a bad call (the response bias the paper notes).

The analysis machinery is then exactly the paper's, so Table 1's structure
(everything improves under each control, but a large EE-vs-WW gap remains)
is a *finding* of the synthetic study, not something hard-coded.

Block protocol
--------------

Call randomness is organized for population scale: the year is a
sequence of fixed-size **call blocks** of :data:`CALL_BLOCK` calls.
Block ``b`` owns the private router ``RandomRouter(seed).fork(
f"provider-block-{b}")`` and draws every per-call quantity from a
*named per-field substream* (``"pair"``, ``"wifi"``, ``"pc"``, ...)
with a **fixed draw count per call** — conditional quantities (the
per-endpoint WiFi access loss, the non-PC device penalty) are drawn
unconditionally and applied conditionally.  :func:`render_provider_block`
draws each substream as one whole-block array, so any block renders
independently, in any process, and a truncated final block is a prefix
of the full block: the first ``n`` calls of a population are a prefix
of any larger population with the same seed.

One generator, one reduction
----------------------------

:func:`render_provider_block` is the only code that draws provider
calls.  Table 1 is reduced by one set of rules over exact counters:
:func:`table1_pass1` (All/PC counters plus per-pair EE/WW tallies),
:class:`PairTallies` (the balanced-/24 rule), :func:`table1_pass2` (the
balanced rows) and :func:`table1_rows` (the relative deltas).
:func:`analyze_table1` applies them to one in-memory year;
:mod:`repro.studies.population` applies them per cached block and merges
the counts, so the two differ only in how they shard and merge.
``tests/test_section3_golden.py`` pins the content digests of rendered
blocks and of both paths' tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sketch import LabeledCounts
from repro.sim.random import RandomRouter
from repro.voice.quality import emodel_r_factor, r_to_mos

#: calls per protocol block — the unit of randomness derivation (and the
#: unit the population backend renders, shards and caches).
CALL_BLOCK = 16_384


@dataclass
class RatedCall:
    """One user-rated call in the provider dataset."""

    subnet_pair: int
    category: str        # "EE" / "EW" / "WW"
    pc_class: bool       # both endpoints PC-class devices?
    rating: int          # 1..5
    @property
    def poor(self) -> bool:
        return self.rating <= 2


@dataclass
class ProviderDataset:
    """A year's worth of rated calls."""

    calls: List[RatedCall] = field(default_factory=list)

    def pcr(self, calls: Optional[Iterable[RatedCall]] = None) -> float:
        """Poor-call rate over ``calls`` (default: the whole dataset).

        Single pass, so any iterable — including a generator — works
        without materializing a copy.
        """
        source: Iterable[RatedCall] = self.calls if calls is None \
            else calls
        n = 0
        poor = 0
        for call in source:
            n += 1
            poor += call.poor
        if n == 0:
            return float("nan")
        return poor / n


@dataclass
class Table1Row:
    """One row of Table 1: relative PCR deltas vs the overall baseline."""

    label: str
    delta_ee_pct: float
    delta_ew_pct: float
    delta_ww_pct: float
    n_calls: int


# ---------------------------------------------------------------------------
# synthesis

#: subnet-pair archetypes: (share, mean extra one-way delay s, backhaul
#: loss scale, P(endpoint on WiFi), P(device PC-class | WiFi))
_ARCHETYPES = {
    "enterprise": (0.35, 0.030, 0.002, 0.35, 0.85),
    "home":       (0.40, 0.045, 0.004, 0.55, 0.55),
    "public":     (0.25, 0.060, 0.010, 0.90, 0.35),
}

#: P(device PC-class | Ethernet endpoint)
_PC_GIVEN_ETHERNET = 0.95

#: call category by number of WiFi endpoints
_CATEGORIES = ("EE", "EW", "WW")


#: calibration knobs — ablations sweep them by passing explicit keyword
#: arguments.  They are bound as *def-time* signature defaults below:
#: the values are pinned by the source text the runner's code
#: fingerprint hashes, so a cached result can never disagree with the
#: defaults in force when it was computed (call-time ``None`` fallbacks
#: would escape the cache key — reproflow KEY501).
WIFI_LOSS_MEDIAN = 0.005      # median extra loss per WiFi endpoint
WIFI_LOSS_SIGMA = 0.9         # lognormal spread of the WiFi loss
DEVICE_PENALTY_SCALE = 0.07   # mean MOS penalty of non-PC hardware
GLITCH_PENALTY_SCALE = 0.65   # mean MOS penalty of non-network glitches


@dataclass(frozen=True)
class PairState:
    """Per-subnet-pair state shared by every call block.

    Drawn once per population from the root router's
    ``"provider.pairs"`` stream (never from a block router), so every
    block — in any process — sees the same pairs.
    """

    archetype: np.ndarray      # archetype index per pair
    backhaul: np.ndarray       # per-pair backhaul multiplier
    base_delay: np.ndarray     # per-archetype mean extra one-way delay s
    backhaul_loss: np.ndarray  # per-archetype backhaul loss scale
    p_wifi: np.ndarray         # per-archetype P(endpoint on WiFi)
    p_pc_wifi: np.ndarray      # per-archetype P(PC-class | WiFi)


def pair_state(seed: int, n_subnet_pairs: int) -> PairState:
    """Draw the population's subnet-pair state."""
    stream = RandomRouter(seed).stream("provider.pairs")
    names = list(_ARCHETYPES)
    shares = np.array([_ARCHETYPES[n][0] for n in names])
    archetype = stream.choice(len(names), size=n_subnet_pairs,
                              p=shares / shares.sum())
    # Per-pair backhaul multiplier: some pairs are just bad.
    backhaul = stream.lognormal(mean=0.0, sigma=0.6, size=n_subnet_pairs)
    return PairState(
        archetype=archetype, backhaul=backhaul,
        base_delay=np.array([_ARCHETYPES[n][1] for n in names]),
        backhaul_loss=np.array([_ARCHETYPES[n][2] for n in names]),
        p_wifi=np.array([_ARCHETYPES[n][3] for n in names]),
        p_pc_wifi=np.array([_ARCHETYPES[n][4] for n in names]))


def block_router(seed: int, block: int) -> RandomRouter:
    """The private router of call block ``block``."""
    return RandomRouter(seed).fork(f"provider-block-{block}")


def call_blocks(n_calls: int) -> List[Tuple[int, int]]:
    """``(block, count)`` for every protocol block of an ``n_calls``
    population; only the last block may be short."""
    if n_calls < 0:
        raise ValueError("n_calls must be >= 0")
    return [(block, min(CALL_BLOCK, n_calls - block * CALL_BLOCK))
            for block in range((n_calls + CALL_BLOCK - 1) // CALL_BLOCK)]


@dataclass(frozen=True)
class ProviderBlockArrays:
    """One rendered provider call block, every call as array rows.

    ``rated`` marks the calls the user actually rated; the other fields
    cover *all* ``count`` calls so downstream cuts (rated or not) stay
    possible without re-rendering.
    """

    pair: np.ndarray        # subnet pair per call
    wifi_count: np.ndarray  # WiFi endpoints per call: 0=EE, 1=EW, 2=WW
    pc_class: np.ndarray    # both endpoints PC-class?
    mos: np.ndarray         # pre-noise MOS after device/glitch penalties
    rating: np.ndarray      # 1..5 (what the user would rate)
    rated: np.ndarray       # did the user rate the call?


def render_provider_block(block: int, count: int, seed: int,
                          pairs: PairState,
                          wifi_loss_median: float = WIFI_LOSS_MEDIAN,
                          wifi_loss_sigma: float = WIFI_LOSS_SIGMA,
                          device_penalty_scale: float =
                          DEVICE_PENALTY_SCALE,
                          glitch_penalty_scale: float =
                          GLITCH_PENALTY_SCALE,
                          response_bias: bool = True
                          ) -> ProviderBlockArrays:
    """Render the first ``count`` calls of call block ``block``.

    Draw layout (one call consumes, in order, from each named
    substream): ``pair`` 1 bounded integer; ``wifi`` and ``pc`` 2
    uniforms each; ``access-loss`` 2 lognormals (drawn for both
    endpoints, applied only to WiFi ones); ``delay`` 1 exponential;
    ``device`` 1 exponential (applied only to non-PC calls);
    ``glitch`` 1 exponential; ``rating-noise`` 1 normal; ``respond`` 1
    uniform.  Each substream is drawn as one whole-block array, and the
    calls are scored with the :mod:`repro.voice.quality` E-model on
    whole arrays.
    """
    router = block_router(seed, block)
    n_subnet_pairs = len(pairs.archetype)
    log_median = np.log(wifi_loss_median)

    pair = router.stream("pair").integers(0, n_subnet_pairs, size=count)
    wifi_u = router.stream("wifi").random(size=(count, 2))
    pc_u = router.stream("pc").random(size=(count, 2))
    access = router.stream("access-loss").lognormal(
        log_median, wifi_loss_sigma, size=(count, 2))
    delay_draw = router.stream("delay").exponential(0.040, size=count)
    device = router.stream("device").exponential(
        device_penalty_scale, size=count)
    glitch = router.stream("glitch").exponential(
        glitch_penalty_scale, size=count)
    noise = router.stream("rating-noise").normal(0.0, 0.55, size=count)
    respond_u = router.stream("respond").random(size=count)

    archetype = pairs.archetype[pair]
    on_wifi = wifi_u < pairs.p_wifi[archetype][:, None]
    pc = pc_u < np.where(on_wifi, pairs.p_pc_wifi[archetype][:, None],
                         _PC_GIVEN_ETHERNET)
    wifi_count = on_wifi.sum(axis=1)
    pc_class = pc[:, 0] & pc[:, 1]

    # Network impairments: backhaul + per-WiFi-endpoint access loss,
    # accumulated as (base + access0) + access1 (adding 0.0 for an
    # Ethernet endpoint is a bitwise no-op, since loss > 0).
    loss = pairs.backhaul_loss[archetype] * pairs.backhaul[pair]
    loss = loss + np.where(on_wifi[:, 0], access[:, 0], 0.0)
    loss = loss + np.where(on_wifi[:, 1], access[:, 1], 0.0)
    loss = np.minimum(loss, 0.6)
    burst = 1.0 + 2.5 * np.minimum(loss * 10.0, 1.0)  # WiFi loss is bursty
    delay = pairs.base_delay[archetype] + delay_draw

    mos = r_to_mos(emodel_r_factor(loss, delay, burst))
    # Cheap hardware degrades what the user *hears*, not the network.
    mos = mos - np.where(pc_class, 0.0, device)
    # Non-network glitches everyone suffers regardless of access type:
    # echo, background noise, far-end problems, app hiccups.  Without
    # this floor the synthetic EE population would be implausibly
    # perfect and every relative delta would saturate.
    mos = mos - glitch
    rating = np.clip(np.round(mos + noise), 1.0, 5.0).astype(np.int64)

    # Response bias: the annoyed rate more readily (disable via
    # ``response_bias=False`` for the robustness ablation).
    if response_bias:
        p_respond = np.where(rating > 2, 0.10, 0.16)
    else:
        p_respond = np.full(count, 0.12)
    rated = respond_u < p_respond
    return ProviderBlockArrays(pair=pair, wifi_count=wifi_count,
                               pc_class=pc_class, mos=mos,
                               rating=rating, rated=rated)


def provider_block_calls(arrays: ProviderBlockArrays) -> List[RatedCall]:
    """The block's rated calls as :class:`RatedCall` objects."""
    return [RatedCall(
        subnet_pair=int(arrays.pair[i]),
        category=_CATEGORIES[int(arrays.wifi_count[i])],
        pc_class=bool(arrays.pc_class[i]),
        rating=int(arrays.rating[i]))
        for i in np.nonzero(arrays.rated)[0]]


def synthesize_provider_year(n_calls: int = 200_000, seed: int = 0,
                             n_subnet_pairs: int = 3000,
                             wifi_loss_median: float = WIFI_LOSS_MEDIAN,
                             wifi_loss_sigma: float = WIFI_LOSS_SIGMA,
                             device_penalty_scale: float =
                             DEVICE_PENALTY_SCALE,
                             glitch_penalty_scale: float =
                             GLITCH_PENALTY_SCALE,
                             response_bias: bool = True
                             ) -> ProviderDataset:
    """Generate the synthetic year of rated calls, block by block."""
    pairs = pair_state(seed, n_subnet_pairs)
    dataset = ProviderDataset()
    for block, count in call_blocks(n_calls):
        dataset.calls.extend(provider_block_calls(render_provider_block(
            block, count, seed, pairs,
            wifi_loss_median=wifi_loss_median,
            wifi_loss_sigma=wifi_loss_sigma,
            device_penalty_scale=device_penalty_scale,
            glitch_penalty_scale=glitch_penalty_scale,
            response_bias=response_bias)))
    return dataset


# ---------------------------------------------------------------------------
# Table 1 analysis (the paper's machinery, verbatim), as exact counters

#: (row label, counter subset) in Table 1 order
TABLE1_SUBSETS = (
    ("All", "all"),
    ("/24s with #E>=#W", "balanced"),
    ("PC", "pc"),
    ("PC, /24s with #E>=#W", "pc_balanced"),
)


@dataclass(frozen=True)
class RatedColumns:
    """Rated calls as columns: the input of every Table 1 reduction."""

    pair: np.ndarray        # subnet pair per call
    wifi_count: np.ndarray  # WiFi endpoints per call: 0=EE, 1=EW, 2=WW
    pc_class: np.ndarray    # both endpoints PC-class?
    poor: np.ndarray        # rating <= 2?

    @classmethod
    def of_block(cls, arrays: ProviderBlockArrays) -> "RatedColumns":
        """The rated calls of one rendered block."""
        rated = arrays.rated
        return cls(pair=arrays.pair[rated],
                   wifi_count=arrays.wifi_count[rated],
                   pc_class=arrays.pc_class[rated],
                   poor=arrays.rating[rated] <= 2)

    @classmethod
    def of_calls(cls, calls: Sequence[RatedCall]) -> "RatedColumns":
        """The calls of an in-memory dataset (all of them rated)."""
        return cls(
            pair=np.array([c.subnet_pair for c in calls], dtype=np.int64),
            wifi_count=np.array([_CATEGORIES.index(c.category)
                                 for c in calls], dtype=np.int64),
            pc_class=np.array([c.pc_class for c in calls], dtype=bool),
            poor=np.array([c.poor for c in calls], dtype=bool))


def _observe_subset(table: LabeledCounts, subset: str,
                    rated: RatedColumns, mask: np.ndarray) -> None:
    """Fold one subset's overall and per-category counters into
    ``table``."""
    table.observe((subset, "all"), int(mask.sum()),
                  int((mask & rated.poor).sum()))
    for code, name in enumerate(_CATEGORIES):
        in_cat = mask & (rated.wifi_count == code)
        table.observe((subset, name), int(in_cat.sum()),
                      int((in_cat & rated.poor).sum()))


def _pair_rows(rated: RatedColumns, mask: np.ndarray) -> List[List[int]]:
    """Sparse ``[pair, #EE, #WW]`` rows over the masked rated calls."""
    n_pairs = int(rated.pair.max()) + 1 if rated.pair.size else 0
    ee = np.bincount(rated.pair[mask & (rated.wifi_count == 0)],
                     minlength=n_pairs)
    ww = np.bincount(rated.pair[mask & (rated.wifi_count == 2)],
                     minlength=n_pairs)
    hot = np.nonzero((ee > 0) | (ww > 0))[0]
    return [[int(p), int(ee[p]), int(ww[p])] for p in hot]


def table1_pass1(rated: RatedColumns
                 ) -> Tuple[LabeledCounts, List[List[int]],
                            List[List[int]]]:
    """The All/PC counters plus the sparse per-pair EE/WW tallies of all
    rated calls and of the PC-class ones."""
    everything = np.ones(rated.pair.shape, dtype=bool)
    table = LabeledCounts()
    _observe_subset(table, "all", rated, everything)
    _observe_subset(table, "pc", rated, rated.pc_class)
    return (table, _pair_rows(rated, everything),
            _pair_rows(rated, rated.pc_class))


@dataclass
class PairTallies:
    """Per-subnet-pair EE/WW rated-call counts, merged from sparse
    ``[pair, #EE, #WW]`` rows in any number of pieces."""

    ee: Dict[int, int] = field(default_factory=dict)
    ww: Dict[int, int] = field(default_factory=dict)

    def add(self, rows: Iterable[Sequence[int]]) -> "PairTallies":
        for pair, n_ee, n_ww in rows:
            if n_ee:
                self.ee[int(pair)] = self.ee.get(int(pair), 0) + int(n_ee)
            if n_ww:
                self.ww[int(pair)] = self.ww.get(int(pair), 0) + int(n_ww)
        return self

    def balanced(self) -> List[int]:
        """The "/24s with #E>=#W" pairs, sorted: pairs with at least one
        EE rated call and at least as many EE as WW rated calls."""
        return sorted(pair for pair, n_ee in self.ee.items()
                      if n_ee >= self.ww.get(pair, 0))


def table1_pass2(rated: RatedColumns, balanced: Sequence[int],
                 pc_balanced: Sequence[int]) -> LabeledCounts:
    """The balanced-/24 rows' counters under the given pair sets."""
    in_balanced = np.isin(rated.pair, np.asarray(balanced, dtype=np.int64))
    in_pc_balanced = rated.pc_class & np.isin(
        rated.pair, np.asarray(pc_balanced, dtype=np.int64))
    table = LabeledCounts()
    _observe_subset(table, "balanced", rated, in_balanced)
    _observe_subset(table, "pc_balanced", rated, in_pc_balanced)
    return table


def _relative_delta(pcr_all: float, pcr_subset: float) -> float:
    """PCR_delta = (PCR_all - PCR_X) / PCR_all * 100 (positive = better)."""
    return (pcr_all - pcr_subset) / pcr_all * 100.0


def table1_rows(table: LabeledCounts) -> List[Table1Row]:
    """The four rows of Table 1 from the merged pass-1 and pass-2
    counters."""
    pcr_all = table.pcr(("all", "all"))
    return [Table1Row(
        label=label,
        delta_ee_pct=_relative_delta(pcr_all, table.pcr((subset, "EE"))),
        delta_ew_pct=_relative_delta(pcr_all, table.pcr((subset, "EW"))),
        delta_ww_pct=_relative_delta(pcr_all, table.pcr((subset, "WW"))),
        n_calls=table.n((subset, "all")))
        for label, subset in TABLE1_SUBSETS]


def analyze_table1(dataset: ProviderDataset) -> List[Table1Row]:
    """The four rows of Table 1."""
    rated = RatedColumns.of_calls(dataset.calls)
    table, pair_rows, pc_pair_rows = table1_pass1(rated)
    table.merge(table1_pass2(rated, PairTallies().add(pair_rows).balanced(),
                             PairTallies().add(pc_pair_rows).balanced()))
    return table1_rows(table)

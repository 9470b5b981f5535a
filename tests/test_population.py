"""Population drivers (repro.studies.population) vs the in-memory paths.

The contract under test: the runner-sharded population studies are
*exactly* equal to ``analyze_table1`` / ``NetTestDataset`` for every
Table 1 / Table 2 row, their batch digests are identical serial vs
``--jobs 2``, and the provider block protocol keeps populations
prefix-stable.  ``tests/test_section3_golden.py`` pins the rendered
calls and both tables' bytes.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.runner import RunnerConfig
from repro.runner.spec import canonical_json
from repro.studies.nettest import run_nettest_study
from repro.studies.population import (
    nettest_population_study,
    provider_population_study,
)
from repro.studies.provider import (
    CALL_BLOCK,
    analyze_table1,
    synthesize_provider_year,
)

# ------------------------------------------------------- block protocol


@pytest.mark.parametrize("n_calls", [1000, CALL_BLOCK + 1000])
def test_population_prefix_property(n_calls):
    """The first ``n`` calls of a population are a prefix of any larger
    population with the same seed, across a block boundary and inside a
    truncated final block."""
    small = synthesize_provider_year(n_calls, seed=4).calls
    large = synthesize_provider_year(2 * CALL_BLOCK + 7, seed=4).calls
    assert 0 < len(small) < len(large)
    assert small == large[:len(small)]


# ------------------------------------------------- Table 1 exact parity


@pytest.mark.parametrize("seed", [0, 3])
def test_table1_exact_parity_vs_scalar(seed):
    """Whole-study equality at small N: same rows (labels, deltas,
    counts), same overall PCR — exactly, not approximately."""
    n_calls = 30_000
    scalar_rows = analyze_table1(
        synthesize_provider_year(n_calls=n_calls, seed=seed))
    tables = provider_population_study(n_calls=n_calls, seed=seed)
    assert len(tables.rows) == len(scalar_rows)
    for got, want in zip(tables.rows, scalar_rows):
        assert got.label == want.label
        assert got.n_calls == want.n_calls
        for field in ("delta_ee_pct", "delta_ew_pct", "delta_ww_pct"):
            g, w = getattr(got, field), getattr(want, field)
            assert g == w or (np.isnan(g) and np.isnan(w))
    assert tables.n_calls == n_calls
    assert tables.n_rated_calls == scalar_rows[0].n_calls
    assert 0.0 <= tables.pcr_wilson[0] <= tables.overall_pcr \
        <= tables.pcr_wilson[1] <= 1.0


def test_provider_population_sketches_cover_rated_calls():
    tables = provider_population_study(n_calls=20_000, seed=2)
    assert tables.mos_cdf.count == tables.n_rated_calls
    assert tables.mos_moments.count == tables.n_rated_calls
    assert 1.0 <= tables.mos_moments.mean <= 4.5


# ------------------------------------------------- Table 2 exact parity


@pytest.mark.parametrize("seed,scale", [(0, 0.05), (5, 0.02)])
def test_nettest_exact_parity_vs_scalar(seed, scale):
    dataset = run_nettest_study(seed=seed, scale=scale)
    tables = nettest_population_study(seed=seed, scale=scale)

    assert tables.rows == dataset.table2()
    assert tables.overall_pcr == dataset.pcr()
    assert tables.n_calls == len(dataset.calls)
    frac_any, frac_20 = dataset.spatial_stats()
    assert tables.frac_users_any_poor == frac_any
    assert tables.frac_users_pcr20 == frac_20
    assert tables.mos_cdf.count == len(dataset.calls)


#: SHA-256 of the merged NetTest tables (seed 0, scale 0.02), recorded
#: while the in-memory and population paths had separate Table 2 rules;
#: the exact-parity test above cannot see a change to a rule both share
NETTEST_TABLES_DIGEST = \
    "53c8e2454636632bc6b8b9fd37a4fff9582bddc57c9fbf81baa6a4d45a66ce3a"


def test_nettest_population_tables_golden():
    t = nettest_population_study(seed=0, scale=0.02)
    payload = {"rows": t.rows, "overall_pcr": t.overall_pcr,
               "pcr_wilson": list(t.pcr_wilson), "n_calls": t.n_calls,
               "frac_users_any_poor": t.frac_users_any_poor,
               "frac_users_pcr20": t.frac_users_pcr20,
               "mos_cdf": t.mos_cdf.to_payload(),
               "mos_moments": t.mos_moments.to_payload()}
    digest = hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()
    assert digest == NETTEST_TABLES_DIGEST


# --------------------------------------- scheduling/caching determinism


def test_provider_population_serial_vs_jobs2_digests(tmp_path):
    """Serial, --jobs 2 and warm-cache runs must merge to identical
    tables AND identical batch digests (the spec-order merge contract).
    """
    n_calls = 40_000          # 3 blocks x 2 passes

    def run(jobs, cache, no_cache=False):
        digests = []
        tables = provider_population_study(
            n_calls=n_calls, seed=0,
            runner_config=RunnerConfig(
                jobs=jobs, cache_dir=cache, no_cache=no_cache,
                on_batch=lambda batch: digests.append(batch.digest)))
        return tables, digests

    serial, serial_digests = run(1, tmp_path / "cache")
    jobs2, jobs2_digests = run(2, None, no_cache=True)
    warm, warm_digests = run(1, tmp_path / "cache")

    for other in (jobs2, warm):
        assert other.rows == serial.rows
        assert other.overall_pcr == serial.overall_pcr
        assert other.mos_moments.to_payload() == \
            serial.mos_moments.to_payload()
    assert jobs2_digests == serial_digests
    assert warm_digests == serial_digests


def test_nettest_population_serial_vs_jobs2_digests(tmp_path):
    def run(jobs):
        digests = []
        tables = nettest_population_study(
            seed=1, scale=0.02,
            runner_config=RunnerConfig(
                jobs=jobs, cache_dir=tmp_path / "cache",
                no_cache=(jobs > 1),
                on_batch=lambda batch: digests.append(batch.digest)))
        return tables, digests

    serial, serial_digests = run(1)
    jobs2, jobs2_digests = run(2)
    assert jobs2.rows == serial.rows
    assert jobs2_digests == serial_digests


# ------------------------------------------------------------ CLI surface


def test_cli_provider_calls_smoke():
    out = io.StringIO()
    assert cli_main(["provider", "--calls", "2000"], out=out) == 0
    text = out.getvalue()
    assert "Table 1 (population backend)" in text
    assert "Wilson" in text
    assert "digest=" in text


def test_cli_provider_counts_each_call_once(tmp_path):
    """Regression: both provider passes bumped ``population.calls``, so
    ``--metrics-out`` reported twice the population size."""
    path = tmp_path / "metrics.json"
    n_calls = CALL_BLOCK + 1000
    assert cli_main(["provider", "--calls", str(n_calls), "--no-cache",
                     "--metrics-out", str(path)], out=io.StringIO()) == 0
    counters = {m["name"]: m["value"]
                for m in json.loads(path.read_text())["metrics"]
                if m["kind"] == "counter"}
    assert counters["population.calls"] == n_calls
    assert 0 < counters["population.rated_calls"] < n_calls


def test_cli_nettest_calls_smoke():
    out = io.StringIO()
    assert cli_main(["nettest", "--calls", "150"], out=out) == 0
    text = out.getvalue()
    assert "Table 2 (population backend)" in text
    assert "digest=" in text


def test_cli_calls_rejected_elsewhere():
    with pytest.raises(SystemExit):
        cli_main(["fig2a", "--runs", "2", "--calls", "100"])


@pytest.mark.parametrize("command,flag", [("provider", "--calls"),
                                          ("nettest", "--calls"),
                                          ("table1", "--runs")])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_cli_population_size_must_be_positive(command, flag, value,
                                              capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be an integer >= 1" in \
        capsys.readouterr().err

"""Tests for ``tools/digest_smoke.py`` (the determinism smoke table).

The smokes themselves run in CI through ``make``; these tests pin the
tool's comparison and output extraction without running the CLI.
"""

import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from digest_smoke import SMOKES, _output, compare  # noqa: E402

DIGEST = b"digest=" + b"ab" * 32


def test_compare_passes_on_identical_bytes():
    compare("serial vs --jobs 2", DIGEST, bytes(DIGEST))


def test_compare_exits_nonzero_on_one_byte_difference():
    changed = DIGEST[:-1] + b"c"
    with pytest.raises(SystemExit) as exit_info:
        compare("serial vs --jobs 2", DIGEST, changed)
    assert exit_info.value.code not in (0, None)
    assert str(exit_info.value.code).endswith(
        f"serial vs --jobs 2 differ at byte {len(DIGEST) - 1}")


def test_output_collects_every_digest_line_in_order():
    stdout = ("[runner fig2a: executed=6 digest=00ff]\n"
              "noise\n[runner fig2b: executed=0 digest=1a2b]\n")
    assert _output(stdout, None) == b"digest=00ff\ndigest=1a2b"


def test_output_without_a_digest_line_fails():
    with pytest.raises(SystemExit) as exit_info:
        _output("[runner fig2a: executed=6]\n", None)
    assert exit_info.value.code not in (0, None)


def test_output_reads_metrics_bytes(tmp_path):
    metrics = tmp_path / "m.json"
    metrics.write_bytes(b'{"counters": []}\n')
    assert _output("no digest here", metrics) == b'{"counters": []}\n'


def test_every_make_smoke_target_is_a_table_row():
    makefile = (REPO / "Makefile").read_text()
    rule = re.search(r"^((?:\S+-smoke ?)+):\n\t(.*)$", makefile,
                     re.MULTILINE)
    assert rule is not None
    assert set(rule.group(1).split()) == set(SMOKES)
    assert rule.group(2) == "$(PYTHON) tools/digest_smoke.py $@"
    for rows in SMOKES.values():
        assert rows and all(kind in ("digest", "metrics")
                            for _, kind in rows)

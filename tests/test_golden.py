"""Golden-output regression: ``compare --fast --with-dp`` and ``dp solve
--fast`` must reproduce the CSVs kept in ``tests/data``.

Text columns and the policy column ``mu0`` must match exactly; numeric
columns must match to rel=1e-9, which leaves room for a numpy build that
rounds exp/log differently in the last bit. A deliberate change of these
outputs regenerates both files from the repository root:

    PYTHONPATH=src python -m stormdp.cli compare --fast --with-dp \\
        --out tests/data/compare_fast_with_dp.csv --timing-out /dev/null
    PYTHONPATH=src python -m stormdp.cli dp solve --fast \\
        --out tests/data/dp_solve_fast.csv
"""

import csv
from pathlib import Path

import pytest

from stormdp.cli import main

DATA = Path(__file__).parent / "data"
EXACT_COLUMNS = {"scenario", "controller", "params", "status", "mu0"}


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("argv, golden", [
    (["compare", "--fast", "--with-dp"], "compare_fast_with_dp.csv"),
    (["dp", "solve", "--fast"], "dp_solve_fast.csv"),
], ids=["compare-fast-with-dp", "dp-solve-fast"])
def test_matches_golden_csv(tmp_path, capsys, argv, golden):
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    header, *rows = _read(out)
    want_header, *want_rows = _read(DATA / golden)
    assert header == want_header
    assert len(rows) == len(want_rows)
    exact = [name in EXACT_COLUMNS for name in header]
    for got, want in zip(rows, want_rows):
        assert ([g if e else float(g) for g, e in zip(got, exact)]
                == [w if e else pytest.approx(float(w), rel=1e-9)
                    for w, e in zip(want, exact)])

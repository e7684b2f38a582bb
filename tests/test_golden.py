"""Golden-output regression: ``compare --fast --with-dp``, ``dp solve``
at ``--fast`` and at the default tau = 1 s, and four ``simulate``
traces, which run the plant step by step (the MPC at tau = 1 s both
deciding every step and holding each control for the default 60 s, and
on/off at ``--fast`` and held at tau = 1 s), must reproduce the CSVs kept
in ``tests/data``.

Text columns, the policy column ``mu0`` and empty cells (a trace's last
row has no per-step values) must match exactly. What takes no exp or
log, only IEEE arithmetic and square roots, must match byte for byte
in every column: the on/off traces, whose ``cost`` squares the x2
column after the loop as one array, which numpy does as ``x * x``; the
``dp solve`` tables, since every successor row of the preset storm has
its atoms on one node, where the backup takes V' itself; and the on/off
and DP rows of the comparison. Other numeric columns, the MPC's, must
match to rel=1e-9, which leaves room for a numpy build that rounds
exp/log/pow differently in the last bit. A deliberate change of these
outputs regenerates the files from the repository root:

    PYTHONPATH=src python -m stormdp.cli compare --fast --with-dp \\
        --out tests/data/compare_fast_with_dp.csv --timing-out /dev/null
    PYTHONPATH=src python -m stormdp.cli dp solve --fast \\
        --out tests/data/dp_solve_fast.csv
    PYTHONPATH=src python -m stormdp.cli dp solve -N 180 \\
        --out tests/data/dp_solve_1s.csv
    PYTHONPATH=src python -m stormdp.cli simulate --controller mpc -N 300 \\
        --start high-low --control-period 1 --out tests/data/simulate_mpc_high_low.csv
    PYTHONPATH=src python -m stormdp.cli simulate --controller mpc -N 300 \\
        --start high-low --out tests/data/simulate_mpc_held_high_low.csv
    PYTHONPATH=src python -m stormdp.cli simulate --fast --controller onoff \\
        --start low-low -N 240 --out tests/data/simulate_fast_onoff_low_low.csv
    PYTHONPATH=src python -m stormdp.cli simulate --controller onoff -N 3600 \\
        --start low-low --out tests/data/simulate_onoff_held_low_low.csv
"""

import csv
from pathlib import Path

import pytest

from stormdp.cli import main

DATA = Path(__file__).parent / "data"
EXACT_COLUMNS = {"scenario", "controller", "params", "status", "mu0"}
ONOFF_EXACT = EXACT_COLUMNS | {"t", "x1", "x2", "u", "w_r", "w_e", "cost", "clamp1",
                               "clamp2"}
DP_SOLVE_EXACT = EXACT_COLUMNS | {"x1", "x2", "V0"}
# comparison rows matched in every column
EXACT_CONTROLLERS = {"onoff", "dp"}


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("argv, golden, exact_columns", [
    (["compare", "--fast", "--with-dp"], "compare_fast_with_dp.csv", EXACT_COLUMNS),
    (["dp", "solve", "--fast"], "dp_solve_fast.csv", DP_SOLVE_EXACT),
    (["dp", "solve", "-N", "180"], "dp_solve_1s.csv", DP_SOLVE_EXACT),
    (["simulate", "--controller", "mpc", "-N", "300", "--start", "high-low",
      "--control-period", "1"], "simulate_mpc_high_low.csv", EXACT_COLUMNS),
    (["simulate", "--controller", "mpc", "-N", "300", "--start", "high-low"],
     "simulate_mpc_held_high_low.csv", EXACT_COLUMNS),
    (["simulate", "--fast", "--controller", "onoff", "--start", "low-low", "-N", "240"],
     "simulate_fast_onoff_low_low.csv", ONOFF_EXACT),
    (["simulate", "--controller", "onoff", "-N", "3600", "--start", "low-low"],
     "simulate_onoff_held_low_low.csv", ONOFF_EXACT),
], ids=["compare-fast-with-dp", "dp-solve-fast", "dp-solve-1s", "simulate-mpc-1s",
        "simulate-mpc-1s-held", "simulate-fast-onoff", "simulate-onoff-1s-held"])
def test_matches_golden_csv(tmp_path, capsys, argv, golden, exact_columns):
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    header, *rows = _read(out)
    want_header, *want_rows = _read(DATA / golden)
    assert header == want_header
    assert len(rows) == len(want_rows)
    controller = header.index("controller") if "controller" in header else None
    for got, want in zip(rows, want_rows):
        whole_row = controller is not None and want[controller] in EXACT_CONTROLLERS
        exact = [whole_row or name in exact_columns for name in header]
        assert ([g if e or g == "" else float(g) for g, e in zip(got, exact)]
                == [w if e or w == "" else pytest.approx(float(w), rel=1e-9)
                    for w, e in zip(want, exact)])

"""Tests for the command-line interface."""

import csv
import io
import json
import re
from dataclasses import fields

import pytest

from stormdp.cli import _parse_grid, build_parser, main
from stormdp.sim import ControllerSpec


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestParsing:
    def test_grid_parser(self):
        assert _parse_grid("41x41") == (41, 41)
        assert _parse_grid("3X5") == (3, 5)
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_grid("41")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_grid("0x4")


class TestSimulate:
    def test_onoff_fast_stdout(self, capsys):
        code, out, _ = run(["simulate", "--fast", "-N", "60",
                            "--controller", "onoff", "--v", "0.5"], capsys)
        assert code == 0
        assert "cumulative_deviation=" in out
        assert "seed=0" in out

    def test_trace_to_file(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        code, _, _ = run(["simulate", "--fast", "-N", "30",
                          "--controller", "mpc", "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("t,x1,x2,u")
        assert len(lines) == 32  # header + N+1 state rows

    def test_config_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plant": {"z_o": 1.29, "a1": 70.0}}))
        code, out, _ = run(["simulate", "--fast", "-N", "30",
                            "--controller", "onoff", "--config", str(cfg)], capsys)
        assert code == 0

    def test_bad_config_reports_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plant": {"bogus_key": 1.0}}))
        code, _, err = run(["simulate", "--fast", "--config", str(cfg)], capsys)
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("argv", [
    ["--horizon", "65"],
    ["--lambda", "0"],
    ["--horizon", "0"],
    ["--controller", "onoff", "--v", "0"],
], ids=["horizon65", "lambda0", "horizon0", "onoff-v0"])
def test_closed_loop_errors_reported(capsys, argv):
    code, _, err = run(["simulate", "--fast", "-N", "5", *argv], capsys)
    assert code == 2
    assert err.startswith("error: ValueError at step 0: ")


@pytest.mark.parametrize("argv, field", [
    (["simulate", "-N", "5", "--controller", "dp", "--actions", "0"], "n_actions"),
    (["dp", "solve", "-N", "5", "--atoms", "0"], "n_atoms"),
    (["simulate", "-N", "-3"], "N"),
    (["simulate", "-N", "5", "--controller", "dp", "--grid", "1x1"], "grid_shape"),
], ids=["actions0", "atoms0", "N-3", "grid1x1"])
def test_bad_counts_name_their_field(capsys, argv, field):
    code, _, err = run([*argv, "--fast"], capsys)
    assert code == 2
    assert re.match(rf"error: ValueError: .*\b{field}\b.* must be at least", err), err


@pytest.mark.parametrize("argv, flags", [
    (["simulate"], {"lam", "horizon", "eps", "v", "theta", "grid_shape", "n_actions"}),
    (["dp", "solve"], {"lam", "theta", "grid_shape", "n_actions", "n_atoms"}),
    (["compare"], {"lam", "horizon", "eps", "theta", "grid_shape", "n_actions"}),
], ids=["simulate", "dp-solve", "compare"])
def test_flag_defaults_are_controller_spec_defaults(argv, flags):
    # each controller flag stores into the ControllerSpec field of its name
    args = vars(build_parser().parse_args(argv))
    defaults = {f.name: f.default for f in fields(ControllerSpec) if f.name != "kind"}
    assert {name for name in defaults if name in args} == flags
    for name in flags:
        assert args[name] == defaults[name], name


class TestDpSolve:
    def test_table_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "dp.csv"
        code, _, _ = run(["dp", "solve", "--fast", "-N", "10", "--grid", "5x5",
                          "--actions", "3", "--theta", "-0.5",
                          "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x1,x2,V0,mu0"
        assert len(lines) == 1 + 25

    def test_rejects_bad_theta(self, capsys):
        code, _, err = run(["dp", "solve", "--fast", "-N", "5",
                            "--grid", "3x3", "--theta", "0.5"], capsys)
        assert code == 2
        assert "theta" in err


class TestCompare:
    def test_grid_runs_and_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["compare", "--fast", "-N", "60", "--onoff-v", "0.5", "1.0"]
        code, _, _ = run(argv + ["--out", str(a)], capsys)
        assert code == 0
        code, _, _ = run(argv + ["--out", str(b)], capsys)
        assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.timing").exists()

    def test_dp_row_uses_lambda(self, capsys):
        # the dp cell must run the same controller as simulate with that flag
        code, out, _ = run(["compare", "--fast", "-N", "30", "--with-dp",
                            "--lambda", "0.01", "--onoff-v", "0.5"], capsys)
        assert code == 0
        dp_row = next(r for r in out.splitlines() if r.startswith("low-low,dp,"))
        code, sim_out, _ = run(["simulate", "--fast", "-N", "30", "--controller", "dp",
                                "--lambda", "0.01", "--start", "low-low"], capsys)
        assert code == 0
        assert dp_row.split(",")[3] == sim_out.split("cumulative_deviation=")[1].strip()

    def test_stdout_mode(self, tmp_path, capsys, monkeypatch):
        # stdout carries the CSV a path gets, header and quoting included
        argv = ["compare", "--fast", "-N", "30", "--onoff-v", "0.5"]
        out_csv = tmp_path / "cmp.csv"
        assert run(argv + ["--out", str(out_csv)], capsys)[0] == 0
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "low-low" in out and "high-high" in out
        rows = list(csv.reader(io.StringIO(out)))
        with open(out_csv, newline="") as fh:
            assert rows == list(csv.reader(fh))
        assert rows[0][0] == "scenario"
        assert rows[1][2] == "mpc(lam=0.001,M=10)"
        # and no timing file next to it
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cmp.csv", "cmp.csv.timing"]

    def test_stdout_mode_writes_the_timing_file_it_is_given(self, tmp_path, capsys):
        timing = tmp_path / "t.csv"
        code, out, _ = run(["compare", "--fast", "-N", "10", "--onoff-v", "0.5",
                            "--out", "-", "--timing-out", str(timing)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        with open(timing, newline="") as fh:
            timings = list(csv.reader(fh))
        assert timings[0] == ["scenario", "controller", "params", "runtime_s"]
        # one timing per CSV row: 3 starts x (mpc, onoff)
        assert len(timings) == 1 + 6
        assert [t[:3] for t in timings[1:]] == [r[:3] for r in rows[1:]]


class TestLint:
    def test_nothing_to_lint(self, capsys):
        code, _, err = run(["lint"], capsys)
        assert code == 1
        assert "nothing to lint" in err

    def test_valid_files(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 60.0}))
        w = tmp_path / "w.csv"
        w.write_text("t_s,w_r_mps,w_e_m3ps\n0,0,0\n60,1e-6,2e-5\n")
        code, out, _ = run(["lint", "--config", str(cfg), "--weather", str(w),
                            "-N", "1"], capsys)
        assert code == 0
        assert "config ok" in out and "weather ok" in out

    def test_invalid_weather(self, tmp_path, capsys):
        w = tmp_path / "w.csv"
        w.write_text("t_s,w_r_mps,w_e_m3ps\n0,-1,0\n60,0,0\n")
        code, _, err = run(["lint", "--weather", str(w)], capsys)
        assert code == 1
        assert "weather" in err

    @pytest.mark.parametrize("text, name", [
        ('{"tau": NaN}', "tau"),
        ('{"a1": Infinity}', "a1"),
        ('{"tau": "60"}', "tau"),
    ], ids=["tau-nan", "a1-inf", "tau-str"])
    def test_non_finite_config(self, tmp_path, capsys, text, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(["lint", "--config", str(cfg)], capsys)
        assert code == 1
        assert "config ok" not in out
        assert f"parameter '{name}' must be a finite number" in err
        code, _, err = run(["simulate", "--config", str(cfg), "-N", "2",
                            "--controller", "onoff"], capsys)
        assert code == 2
        assert f"parameter '{name}' must be a finite number" in err

    @pytest.mark.parametrize("rows, column", [
        ("0,0,4e-5\n60,nan,4e-5\n120,0,4e-5\n", "w_r"),
        ("0,0,4e-5\n60,inf,4e-5\n120,0,4e-5\n", "w_r"),
        ("0,0,4e-5\nnan,0,4e-5\n120,0,4e-5\n", "t"),
    ], ids=["w_r-nan", "w_r-inf", "t-nan"])
    def test_non_finite_weather(self, tmp_path, capsys, rows, column):
        w = tmp_path / "w.csv"
        w.write_text("t_s,w_r_mps,w_e_m3ps\n" + rows)
        common = ["--weather", str(w), "--fast", "-N", "2"]
        code, out, err = run(["lint", *common], capsys)
        assert code == 1
        assert "weather ok" not in out
        assert f"weather column '{column}' must be finite" in err
        code, _, err = run(["simulate", "--controller", "onoff", *common], capsys)
        assert code == 2
        assert f"weather column '{column}' must be finite" in err

    @pytest.mark.parametrize("flag", ["--config", "--weather"])
    def test_bad_horizon_blames_N(self, tmp_path, capsys, flag):
        # simulate -N 0 is refused, whichever files come with it
        path = tmp_path / "input"
        path.write_text(json.dumps({"tau": 60.0}) if flag == "--config"
                        else "t_s,w_r_mps,w_e_m3ps\n0,0,0\n60,1e-6,2e-5\n")
        code, _, err = run(["lint", flag, str(path), "-N", "0"], capsys)
        assert code == 1
        assert err.splitlines() == ["error: -N: horizon N must be at least 1, got 0"]


@pytest.mark.parametrize("argv, ok", [
    (["-N", "600"], True),
    (["-N", "601"], False),
    (["--fast", "-N", "10"], True),
    (["--fast", "-N", "11"], False),
], ids=["N600", "N601", "fast-N10", "fast-N11"])
def test_lint_agrees_with_simulate(tmp_path, capsys, argv, ok):
    # a 10-minute file, 60 s apart: 601 samples at tau = 1 s, 11 at --fast
    w = tmp_path / "w.csv"
    w.write_text("t_s,w_r_mps,w_e_m3ps\n"
                 + "".join(f"{60 * i},1e-6,4e-5\n" for i in range(11)))
    common = ["--weather", str(w), *argv]
    lint, _, _ = run(["lint", *common], capsys)
    onoff, _, _ = run(["simulate", "--controller", "onoff", *common], capsys)
    mpc, _, _ = run(["simulate", "--controller", "mpc", *common], capsys)
    assert (lint == 0) == (onoff == 0) == (mpc == 0) == ok

"""Command-line interface: simulate, dp solve, compare, lint."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from . import sim
from .linearize import NearSingularSystem
from .plant import PlantParams
from .sim import ControllerSpec

FAST_TAU = 60.0
FAST_N = 720
DEFAULT_N = 43200  # 12 h at tau = 1 s


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n1, n2 = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like 41x41") from None
    return n1, n2   # ControllerSpec refuses sizes below 2


def _load_plant(args) -> PlantParams:
    p = PlantParams() if args.config is None else PlantParams.from_json(args.config)
    return replace(p, tau=FAST_TAU) if args.fast else p


def _default_n(args) -> int:
    if args.N is not None:
        return args.N
    return FAST_N if args.fast else DEFAULT_N


def _load_weather(args, p: PlantParams) -> sim.WeatherSeries:
    if args.weather is not None:
        return sim.load_weather_csv(args.weather, tau=p.tau)
    return sim.wet_12h(dt=p.tau)


def _controller_spec(args, **overrides) -> ControllerSpec:
    """The spec from the flags a subcommand has, then ``overrides``; the
    rest keep their defaults."""
    flags = {f.name: getattr(args, f.name)
             for f in fields(ControllerSpec) if hasattr(args, f.name)}
    return ControllerSpec(**{**flags, **overrides})


def _add_common(parser):
    parser.add_argument("--config", help="JSON plant/config file")
    parser.add_argument("--weather", help="weather CSV (t_s,w_r_mps,w_e_m3ps)")
    parser.add_argument("--fast", action="store_true",
                        help="coarse preset: tau = 60 s, N = 720")
    parser.add_argument("-N", "--steps", dest="N", type=int, default=None,
                        help="simulation horizon in steps")


def _add_outputs(parser):
    """Flags of the commands that write outputs: all but ``lint``."""
    parser.add_argument("--out", default="-", help="output path ('-' = stdout)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in outputs (pipeline is deterministic)")


def _add_control_period(parser):
    parser.add_argument("--control-period", type=float, default=None,
                        help="seconds each control is held, a whole multiple of tau "
                             "(default: 60 s, rounded down to whole plant steps, "
                             "at least one)")


def _spec_flag(parser, flag: str, name: str, help: str, type=float):
    """A flag stored into the ControllerSpec field ``name``, defaulting to it."""
    parser.add_argument(flag, dest=name, type=type, default=getattr(ControllerSpec, name),
                        help=help)


def _add_dp_flags(parser):
    """Control weight and DP flags, shared by simulate, dp solve and compare."""
    _spec_flag(parser, "--lambda", "lam", "control weight")
    _spec_flag(parser, "--theta", "theta", "risk aversion (< 0)")
    _spec_flag(parser, "--grid", "grid_shape", "DP grid, e.g. 41x41", _parse_grid)
    _spec_flag(parser, "--actions", "n_actions", "DP action count", int)


def _add_mpc_flags(parser):
    _spec_flag(parser, "--horizon", "horizon", "MPC look-ahead M", int)
    _spec_flag(parser, "--epsilon", "eps", "smoothing scale")


def cmd_simulate(args) -> int:
    p = _load_plant(args)
    weather = _load_weather(args, p)
    n = _default_n(args)
    sc = sim.Scenario(name=args.start, x0=sim.standard_initial_states(p)[args.start], N=n,
                      controller=_controller_spec(args), weather=weather, plant=p,
                      control_period=args.control_period)
    trace = sim.run_scenario(sc)
    if args.out == "-":
        dev = sim.cumulative_deviation(trace, p)
        print(f"scenario={args.start} controller={sc.controller.label} "
              f"N={n} seed={args.seed} cumulative_deviation={dev!r}")
    else:
        sim.write_trace_csv(trace, args.out)
        print(f"trace written to {args.out} (seed={args.seed})")
    return 0


def cmd_dp_solve(args) -> int:
    p = _load_plant(args)
    values, policy = sim.solve_dp(_controller_spec(args, kind="dp"), p,
                                  _load_weather(args, p), _default_n(args))
    grid = policy.grid
    sim.write_csv(args.out, ["x1", "x2", "V0", "mu0"],
                  sim.float_rows(grid.node_x1, grid.node_x2, values.V[0],
                                 policy.actions[policy.mu[0]]))
    if args.out != "-":
        print(f"value/policy table written to {args.out} (seed={args.seed})")
    return 0


def cmd_compare(args) -> int:
    p = _load_plant(args)
    weather = _load_weather(args, p)
    n = _default_n(args)
    controllers = [_controller_spec(args, kind="mpc")]
    controllers += [_controller_spec(args, kind="onoff", v=v) for v in args.onoff_v]
    if args.with_dp:
        controllers.append(_controller_spec(args, kind="dp"))
    rows = sim.compare(sim.standard_initial_states(p), controllers, weather, n, p,
                       args.control_period)
    timing = args.timing_out
    if args.out != "-" and timing is None:
        timing = args.out + ".timing"
    sim.write_comparison_csv(rows, args.out, timing_path=timing)
    if args.out != "-":
        print(f"comparison written to {args.out} (timings: {timing}, seed={args.seed})")
    return 1 if any(r.status != "ok" for r in rows) else 0


def cmd_lint(args) -> int:
    """Validate config and/or weather files; report all problems found.

    The weather is loaded as ``simulate`` loads it (resampled to the
    plant step, honouring ``--config`` and ``--fast``) and must cover the
    horizon, and ``--control-period`` must be whole steps of the loaded
    plant, so lint accepts a file exactly when ``simulate`` would. A
    horizon below 1 is reported against ``-N``, not against a file, and
    a bad period against ``--control-period``.
    """
    problems = []
    if args.config is None and args.weather is None:
        problems.append("nothing to lint: pass --config and/or --weather")
    n = _default_n(args)
    if n < 1:
        problems.append(f"-N: horizon N must be at least 1, got {n}")
    try:
        p = _load_plant(args)
    except Exception as exc:
        problems.append(f"config: {exc}")
        p = None
    else:
        if args.config is not None:
            print(f"config ok: {args.config}")
        try:
            sim.hold_steps(p.tau, args.control_period)
        except ValueError as exc:
            problems.append(f"--control-period: {exc}")
    if args.weather is not None and p is None:
        problems.append("weather: not checked, the plant config did not load")
    elif args.weather is not None:
        try:
            series = _load_weather(args, p)
            if n >= 1:  # Scenario's own length rule: N + 1 samples at the plant step
                sim.Scenario(name="lint", x0=(0.0, 0.0), N=n,
                             controller=ControllerSpec(kind="onoff"),
                             weather=series, plant=p)
            print(f"weather ok: {args.weather} ({len(series)} samples at "
                  f"tau={p.tau:g} s)")
        except Exception as exc:
            problems.append(f"weather: {exc}")
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormdp",
        description="Risk-averse DP, MPC, and on/off control of a two-tank "
                    "stormwater irrigation system.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one closed-loop scenario")
    _add_common(p_sim)
    _add_outputs(p_sim)
    p_sim.add_argument("--controller", dest="kind", choices=["mpc", "onoff", "dp"],
                       default="mpc")
    _add_dp_flags(p_sim)
    _add_mpc_flags(p_sim)
    _spec_flag(p_sim, "--v", "v", "on/off pump rate")
    _add_control_period(p_sim)
    p_sim.add_argument("--start", default="low-low",
                       choices=list(sim.standard_initial_states(PlantParams())))
    p_sim.set_defaults(func=cmd_simulate)

    p_dp = sub.add_parser("dp", help="dynamic-programming tools")
    dp_sub = p_dp.add_subparsers(dest="dp_command", required=True)
    p_solve = dp_sub.add_parser("solve", help="solve the risk-averse DP")
    _add_common(p_solve)
    _add_outputs(p_solve)
    _add_dp_flags(p_solve)
    _spec_flag(p_solve, "--atoms", "n_atoms", "disturbance atoms", int)
    p_solve.set_defaults(func=cmd_dp_solve)

    p_cmp = sub.add_parser("compare", help="controller comparison grid")
    _add_common(p_cmp)
    _add_outputs(p_cmp)
    _add_dp_flags(p_cmp)
    _add_mpc_flags(p_cmp)
    p_cmp.add_argument("--onoff-v", type=float, nargs="+",
                       default=[0.2, 0.5, 1.0, 1.5, 2.0])
    _add_control_period(p_cmp)
    p_cmp.add_argument("--with-dp", action="store_true",
                       help="include the tabulated DP controller")
    p_cmp.add_argument("--timing-out", default=None,
                       help="wall-clock timings CSV, by default <out>.timing and "
                            "none with --out - (kept out of the main CSV so "
                            "repeated runs are byte-identical)")
    p_cmp.set_defaults(func=cmd_compare)

    p_lint = sub.add_parser("lint", help="validate config and weather files")
    _add_common(p_lint)
    _add_control_period(p_lint)
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, NearSingularSystem) as exc:
        print(f"error: {sim.describe_failure(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracer wrapped around the program's public layer
functions, at the module attributes their callers look them up by.

Each call records a span (name, start, end, parent). Self time is a
span's duration minus the durations of its direct children. Nothing in
the program changes; the originals are restored on ``uninstall``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module the caller looks the name up in, attribute, layer name)
LAYERS = [
    ("stormdp.plant", "f_rhs", "plant.f_rhs"),
    ("stormdp.plant", "step", "plant.step"),
    ("stormdp.linearize", "f_eps_rhs", "smooth.f_eps_rhs"),
    ("stormdp.control", "linearize_at", "linearize.linearize_at"),
    ("stormdp.control", "condense", "linearize.condense"),
    ("stormdp.control", "solve_mpc_qp", "linearize.solve_mpc_qp"),
    ("stormdp.control", "mpc_step", "control.mpc_step"),
    ("stormdp.control", "dp_step", "control.dp_step"),
    ("stormdp.control", "onoff_step", "control.onoff_step"),
    ("stormdp.riskdp", "solve", "riskdp.solve"),
    ("stormdp.riskdp", "brute_force_optimal", "riskdp.brute_force_optimal"),
    ("stormdp.riskdp", "evaluate_policy_W", "riskdp.evaluate_policy_W"),
    ("stormdp.sim", "run_scenario", "sim.run_scenario"),
    ("stormdp.sim", "load_weather_csv", "sim.load_weather_csv"),
    ("stormdp.sim", "write_comparison_csv", "sim.write_comparison_csv"),
    ("stormdp.cli", "main", "cli.main"),
]


def _solve_counts(args, kwargs, result):
    N = kwargs["N"] if "N" in kwargs else args[0]
    values, policy = result
    return {"stages": N, "table_bytes": values.V.nbytes + policy.mu.nbytes}


def _qp_counts(args, kwargs, result):
    return {"clamped": int(result.clamped)}


def _scenario_counts(args, kwargs, result):
    sc = kwargs["sc"] if "sc" in kwargs else args[0]
    return {"steps": sc.N}


# Counters read off a layer's arguments and result; ``table_bytes`` keeps
# the largest value seen, every other counter is summed.
COUNTERS = {
    "riskdp.solve": _solve_counts,
    "linearize.solve_mpc_qp": _qp_counts,
    "sim.run_scenario": _scenario_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index]
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    if key == "table_bytes":
                        counts[name][key] = max(counts[name][key], value)
                    else:
                        counts[name][key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                print(f"trace: {module_name}.{attr} not found; layer {name} "
                      "reads 0", file=sys.stderr)
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self):
        """Per layer: (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of ``reps`` traced repetitions, per repetition or
    per call as each name says."""
    calls, self_s = tracer.self_times()
    counts = tracer.counts

    def per_call(name, scale):
        return self_s[name] / calls[name] * scale if calls[name] else 0.0

    stages = counts["riskdp.solve"]["stages"]
    steps = counts["sim.run_scenario"]["steps"]
    return {
        "plant.f_rhs.calls": (calls["plant.f_rhs"] / reps, "count"),
        "plant.f_rhs.self_us": (per_call("plant.f_rhs", 1e6), "us"),
        "plant.step.self_ms": (per_call("plant.step", 1e3), "ms"),
        "smooth.f_eps_rhs.self_us": (per_call("smooth.f_eps_rhs", 1e6), "us"),
        "linearize.linearize_at.self_us": (per_call("linearize.linearize_at", 1e6), "us"),
        "linearize.condense.self_us": (per_call("linearize.condense", 1e6), "us"),
        "linearize.solve_mpc_qp.self_us": (per_call("linearize.solve_mpc_qp", 1e6), "us"),
        "linearize.solve_mpc_qp.clamped":
            (counts["linearize.solve_mpc_qp"]["clamped"] / reps, "count"),
        "control.mpc_step.self_us": (per_call("control.mpc_step", 1e6), "us"),
        "control.dp_step.self_us": (per_call("control.dp_step", 1e6), "us"),
        "control.onoff_step.self_us": (per_call("control.onoff_step", 1e6), "us"),
        "riskdp.solve.calls": (calls["riskdp.solve"] / reps, "count"),
        "riskdp.solve.self_s": (self_s["riskdp.solve"] / reps, "s"),
        "riskdp.stage_us": (self_s["riskdp.solve"] / stages * 1e6 if stages else 0.0, "us"),
        "riskdp.table_mb": (counts["riskdp.solve"]["table_bytes"] / 1e6, "MB"),
        "riskdp.brute_force_optimal.self_s":
            (self_s["riskdp.brute_force_optimal"] / reps, "s"),
        "riskdp.evaluate_policy_W.self_ms":
            (self_s["riskdp.evaluate_policy_W"] / reps * 1e3, "ms"),
        "sim.run_scenario.step_self_us":
            (self_s["sim.run_scenario"] / steps * 1e6 if steps else 0.0, "us"),
        "sim.load_weather_csv.self_ms": (per_call("sim.load_weather_csv", 1e3), "ms"),
        "sim.write_comparison_csv.self_ms":
            (per_call("sim.write_comparison_csv", 1e3), "ms"),
        "cli.main.self_ms": (per_call("cli.main", 1e3), "ms"),
    }

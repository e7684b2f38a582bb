"""Benchmark of the stormdp command line and its DP oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare-fast --seed 1 --seconds 10 --trace 0

One process drives the program, with BLAS limited to one thread. After an
untimed warm-up it repeats the workload's operations until ``--seconds``
of timed work and at least MIN_REPS repetitions are done, checks every
output against ``reference``, and prints one JSON result line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, the
tracing overhead, and writes the spans to ``perfbench/_out``.

The machine's speed drifts by tens of percent over minutes, with CPU
time equal to wall time, so ``run_s`` and ``setup_s`` are wall times
scaled to a fixed machine speed: each timed interval is divided by the
time of ``reference.speed_kernel`` measured right before and after it,
and multiplied by KERNEL_REF_S.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
MIN_REPS = 2
SETUP_PROBES = 3
KERNEL_REF_S = 0.07   # speed_kernel's time at the reference machine speed
KERNEL_MIN_S = 0.2    # a speed sample runs the kernel at least this long,
KERNEL_SHARE = 0.15   # and at least this share of the interval it scales


def import_program(root: Path):
    """Put the checkout's ``src`` first on the path and make sure the
    imported package is that one."""
    src = root / "src"
    if not (src / "stormdp" / "__init__.py").is_file():
        raise SystemExit(f"error: no stormdp sources under {src}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(src))
    import stormdp
    if Path(stormdp.__file__).resolve().parent != (src / "stormdp").resolve():
        raise SystemExit(f"error: imported stormdp from {stormdp.__file__}, not {src}")


class SpeedScale:
    """Scales timed intervals to the reference machine speed by sampling
    ``speed_kernel`` before and after each interval."""

    def __init__(self):
        from reference import speed_kernel
        self.kernel = speed_kernel
        self.last = None
        self.raw: list[float] = []

    def sample(self, interval=0.0) -> float:
        times = []
        end = time.perf_counter() + max(KERNEL_MIN_S, KERNEL_SHARE * interval)
        while not times or time.perf_counter() < end:
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def timed(self, fn) -> float:
        """Run ``fn``, which returns its own timed seconds; return them scaled."""
        before = self.last if self.last is not None else self.sample()
        raw = fn()
        self.last = self.sample(raw)
        self.raw.append(raw)
        return raw * KERNEL_REF_S / ((before + self.last) / 2)


def setup_seconds(args, work: Path) -> float:
    """Median scaled wall time of fresh processes that import numpy, scipy
    and stormdp and generate this workload's inputs."""
    def probe(i):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(work / f"probe{i}")]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    scale = SpeedScale()
    times = [scale.timed(lambda: probe(i)) for i in range(SETUP_PROBES)]
    print(f"set-up probes (s, unscaled): {scale.raw}", file=sys.stderr)
    return statistics.median(times)


class Runner:
    """Times repetitions and counts attempted and failed operations."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, ops, tracer=None) -> float:
        errors = []
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for label, op in ops:
                try:
                    op()
                    errors.append((label, None))
                except Exception as exc:
                    errors.append((label, exc))
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        for label, err in errors:
            self.attempted += 1
            if err is None:
                try:
                    self.wl.check(label)
                except Exception as exc:   # a wrong or unreadable output
                    err = exc
                    self.correct = False
            if err is not None:
                self.failed += 1
                print(f"operation {label!r} failed: {type(err).__name__}: {err}",
                      file=sys.stderr)
        return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(args, work: Path) -> dict:
    import tracer as tr
    from workloads import WORKLOADS

    setup_s = setup_seconds(args, work)
    wl = WORKLOADS[args.workload](args.seed, work)
    print(f"{args.workload}: {wl.describe()}", file=sys.stderr)
    wl.warmup()
    runner = Runner(wl)
    scale = SpeedScale()
    if not args.trace:
        times = []
        while len(times) < MIN_REPS or sum(scale.raw) < args.seconds:
            times.append(scale.timed(lambda: runner.run(wl.ops())))
        runner.run(wl.final_ops())
        print(f"repetitions (s, unscaled): {scale.raw}", file=sys.stderr)
        metrics = {"setup_s": (setup_s, "s"),
                   "run_s": (statistics.median(times), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
    else:
        tracer = tr.Tracer()
        plain, traced = [], []
        while not traced or sum(scale.raw) < args.seconds:
            plain.append(scale.timed(lambda: runner.run(wl.ops())))
            traced.append(scale.timed(lambda: runner.run(wl.ops(), tracer)))
        runner.run(wl.final_ops())
        print(f"untraced, traced (s, unscaled): {scale.raw}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.csv")
        metrics = tr.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain), "s")
        deviations = wl.deviations()
        for name in ("mpc_deviation", "dp_deviation"):
            metrics[name] = (deviations.get(name, 0.0), "m3_steps")
    return {"correct": runner.correct, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compare-fast", "dp-1s", "mpc-1s", "oracle-tiny"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="only import and generate inputs into DIR (times set-up)")
    args = parser.parse_args(argv)

    import_program(Path.cwd())
    if args.setup_probe:
        from workloads import WORKLOADS
        probe = Path(args.setup_probe)
        probe.mkdir(parents=True)
        WORKLOADS[args.workload](args.seed, probe)
        return 0

    work = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

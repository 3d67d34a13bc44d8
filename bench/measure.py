"""Workload process: set up, time passes, check outputs, print one JSON line.

Started by run.py with the benchmark's environment; see run.py for the
command line.  With --setup-only it times `import ecolab` plus input
generation and prints that alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

# On a shared host a core's speed swings by up to 1.8 times, from one
# tenth of a second to the next and over spells of minutes, so a whole
# run can fall in a slow spell.  Each timed pass is therefore preceded by
# `reference_work`, fixed work that shares no code with ecolab, and a
# pass's time is given as a multiple of that reference's time; the run
# reports the median over its passes.  On a 2-core VM, over 20 runs of
# 25 s per workload, the fastest pass of a run spread 25-40% (IQR/median)
# across runs and this median 2-13%.
MIN_PASSES = 3
# setup_s is the median of this many fresh processes, each timing
# `import ecolab` plus input generation.  They start at even intervals
# through the run, so they sample the whole of it.  Their fastest spread
# about twice as much across runs as their median.
SETUP_REPEATS = 9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for working files and the span dump")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def reference_work(steps: int = 60_000) -> float:
    """Fixed work, independent of ecolab, in the mix the workloads use.

    Small-array numpy arithmetic as in the derivative closures, seeded
    random draws, dict updates and float math as in the event loop.
    About 0.13 s on one core of a 2-core Xeon VM.
    """
    import numpy as np  # here, so that setup_s includes ecolab's own numpy import

    rng = random.Random(12345)
    state = np.array([0.5, 1.5])
    counts: dict[int, int] = {}
    total = 0.0
    for _ in range(steps):
        state = state + 0.001 * state * (1.0 - state)
        draw = rng.random()
        key = int(draw * 64)
        counts[key] = counts.get(key, 0) + 1
        total += math.exp(-draw)
    return total + float(state.sum()) + len(counts)


def setup_probe(argv: list[str]) -> float:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *argv, "--setup-only"],
        stdout=subprocess.PIPE, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)["setup_s"]


class Clock:
    """Wall and CPU time of the named operations of one pass."""

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, operation: str):
        wall, cpu = perf_counter(), process_time()
        try:
            yield
        finally:
            self.wall[operation] = self.wall.get(operation, 0.0) + perf_counter() - wall
            self.cpu[operation] = self.cpu.get(operation, 0.0) + process_time() - cpu


class Passes:
    """Wall and CPU time of each timed pass, and of the reference work before it."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.reference_wall: list[float] = []
        self.reference_cpu: list[float] = []

    def __len__(self) -> int:
        return len(self.wall)

    def add(self, clock: Clock, reference: Clock) -> None:
        self.wall.append(sum(clock.wall.values()))
        self.cpu.append(sum(clock.cpu.values()))
        self.reference_wall.append(reference.wall["reference"])
        self.reference_cpu.append(reference.cpu["reference"])

    def wall_ref(self) -> float:
        return statistics.median(p / r for p, r in zip(self.wall, self.reference_wall))

    def cpu_ref(self) -> float:
        return statistics.median(p / r for p, r in zip(self.cpu, self.reference_cpu))

    def record(self) -> dict:
        return {
            "passes": len(self),
            "median_wall_s": statistics.median(self.wall),
            "fastest_wall_s": min(self.wall),
            "median_reference_wall_s": statistics.median(self.reference_wall),
        }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    started = perf_counter()
    from workloads import DEFAULT_SEED, make_workloads

    workload = make_workloads(os.path.join(args.out, "work"))[args.workload]
    inputs = workload.inputs(args.seed)
    setup_s = perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import ecolab
    import numpy
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    units = workload.units(inputs)
    pinned = args.seed == DEFAULT_SEED

    problems: list[str] = []
    attempted = failed = 0
    expected = None
    untraced, traced = Passes(), Passes()
    tracer = Tracer()

    def one_pass(passes: Passes | None, trace: bool = False) -> None:
        """Run, check and (into `passes`) time one pass; the first sets the expected output."""
        nonlocal attempted, failed, expected
        reference, clock = Clock(), Clock()
        with reference("reference"):
            reference_work()
        if trace:
            tracer.install()
        try:
            output = workload.run(inputs, clock)
            if expected is None:
                found = workload.check(inputs, output, pinned)
                expected = workload.fingerprint(output)
            elif workload.fingerprint(output) != expected:
                found = ["output differs from the first pass" + (" (traced)" if trace else "")]
            else:
                found = []
        except Exception as exc:  # a failed operation is counted, not fatal
            found = [f"{type(exc).__name__}: {exc}"]
        finally:
            if trace:
                tracer.uninstall()
        attempted += units
        if found:
            failed += units
            problems.extend(found)
        elif passes is not None:
            passes.add(clock, reference)

    # The first pass warms caches and lazy imports, and is the checked one.
    one_pass(None)
    probes: list[float] = []
    clock_start = perf_counter()
    if args.trace:
        tracer.calibrate()
        while not failed and (len(untraced) < MIN_PASSES or perf_counter() - clock_start < args.seconds):
            one_pass(traced, trace=True)
            one_pass(untraced)
    else:
        while not failed and (len(untraced) < MIN_PASSES or perf_counter() - clock_start < args.seconds):
            if perf_counter() - clock_start >= len(probes) * args.seconds / SETUP_REPEATS:
                probes.append(setup_probe(argv))
            one_pass(untraced)
        while not failed and len(probes) < SETUP_REPEATS:
            probes.append(setup_probe(argv))

    result = {
        "workload": workload.name,
        "unit": workload.unit,
        "units_per_pass": units,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "ecolab_file": ecolab.__file__,
        "numpy": numpy.__version__,
    }
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace and not failed:
        metrics.update(
            (name, (value, LAYER_METRICS[name]))
            for name, value in layer_metrics(tracer.spans, len(traced), tracer.leaf_cost).items()
        )
        metrics["trace.overhead_pct"] = (100.0 * (traced.wall_ref() / untraced.wall_ref() - 1.0), "%")
        result["untraced"], result["traced"] = untraced.record(), traced.record()
        result["trace_calibration_ns"] = {
            "rhs_wrapper": tracer.leaf_cost.total_s * 1e9,
            "rhs_wrapper_timed": tracer.leaf_cost.timed_s * 1e9,
        }
        dump = os.path.join(args.out, f"spans-{workload.name}-seed{args.seed}.json")
        with open(dump, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload.name, "seed": args.seed, "spans": tracer.as_json()}, handle)
        result["spans_file"] = dump
    elif not failed:
        wall_ref = untraced.wall_ref()
        metrics["wall_ref"] = (wall_ref, "ref")
        metrics["work_per_ref"] = (units / wall_ref, "1/ref")
        metrics["cpu_ref"] = (untraced.cpu_ref(), "ref")
        metrics["setup_s"] = (statistics.median(probes), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        result["untraced"] = untraced.record()
        result["setup_probes_s"] = probes
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

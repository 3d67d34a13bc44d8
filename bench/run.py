"""ecolab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload community-sweep --seed 0 --seconds 25 --trace 0

Run from anywhere inside a source checkout; ecolab is imported from the
checkout's `src/`.  The workload runs in a child process whose
environment has ECOLAB_THREADS removed (the default serial path is what
gets measured) and BLAS thread pools capped at one thread.

--trace 0 times untraced passes and prints the end-to-end metrics;
--trace 1 alternates traced and untraced passes and prints the
per-layer metrics (see BENCHMARK.json and bench/README.md).  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the
machine, the environment and every metric by name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("community-sweep", "document-runs", "epidemic-threshold", "epidemic-large")

CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ECOLAB_THREADS", None)
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env: dict[str, str]) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT,
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {done.returncode}")
    return json.loads(lines[-1])


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine(env: dict[str, str], numpy_version: str) -> dict:
    model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    llc, level = "unknown", -1
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        lvl = _read(os.path.join(cache_dir, index, "level"))
        if lvl and lvl.isdigit() and int(lvl) > level:
            level, llc = int(lvl), _read(os.path.join(cache_dir, index, "size")) or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "llc": f"L{level} {llc}" if level > 0 else llc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit(),
        "env": {
            "ECOLAB_THREADS": "(removed)",
            **{name: env[name] for name in BLAS_THREAD_VARS},
            "PYTHONPATH": env["PYTHONPATH"],
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; the output pins hold at 0")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to keep timing passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ecolab", "__init__.py")):
        print(f"error: no ecolab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    try:
        result = run_child(args, env)
        if not result["ecolab_file"].startswith(os.path.join(ROOT, "src")):
            raise RuntimeError(f"ecolab was imported from {result['ecolab_file']}, not this checkout")
        metrics = result["metrics"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("machine: " + json.dumps(machine(env, result["numpy"])))
    print("workload: " + json.dumps({k: v for k, v in result.items() if k != "metrics"}))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':34s} {error_rate:.6g} ratio  ({result['failed']} of {result['attempted']} {result['unit']})")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating before/after pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --out BENCH.json \
        --run document-runs:0:10 --run document-runs:5:5 \
        --run community-sweep:0:3 --trace-run document-runs:0:1

The change is this checkout's tracked files (`git ls-files`, so a new file
counts once it is added) with their contents as they stand, copied into a
temporary directory; the base is a commit (`--base`, default HEAD, so
HEAD~1 once the change is committed), extracted with `git archive` into
another. So neither side runs with this checkout's `__pycache__` or
untracked files. Each `--run WORKLOAD:SEED:PAIRS`
runs each side's own `bench/run.py` on its own `src/` PAIRS times,
alternating which side goes first; `--trace-run` does the same with
`--trace 1`. Every run lasts BENCHMARK.json's `run_seconds`.

The file holds the machine record, both commits, every run's metrics,
and per workload and seed each metric's medians, the base's quartiles,
the change's win count and, for the end-to-end metrics, a verdict against
the bound in BENCHMARK.json:

- `gain`: over at least 10 pairs, the change wins at least 9/10 of them
  (ties count for neither side) and the medians differ, in its favour, by
  more than the base's interquartile range;
- `better, under 10 pairs`: the same, over fewer pairs than a claim needs;
- `worse`: the change's median is worse than the base's by more than the
  bound, relative to the base's median;
- `unresolved`: neither, and the base's own spread (IQR / median) is
  wider than the bound;
- `within bound`: otherwise.

Each group also sums each side's `attempted` and `failed` operations. The
script exits 1, after writing the file, when any run was not `correct`, so
a failed operation cannot sit unnoticed under a `gain` verdict.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600
GAIN_WIN_SHARE = 0.9
GAIN_MIN_PAIRS = 10


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def extract(commit: str, into: str) -> str:
    """Write the committed files of `commit` into the directory `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def copy_tracked(into: str) -> str:
    """Copy the working tree's tracked files, with their current contents, into the directory `into`."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True).stdout
    for name in os.fsdecode(listed).split("\0"):
        source = os.path.join(ROOT, name)
        if name and os.path.isfile(source):  # a tracked file deleted from the working tree is left out
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy(source, target)
    return into


def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run in `checkout`: its machine line and its result line."""
    command = [
        sys.executable, os.path.join(checkout, "bench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {done.returncode}: {done.stderr.strip()}")
    machine = next((json.loads(line[len("machine: "):]) for line in lines if line.startswith("machine: ")), None)
    result = json.loads(lines[-1])
    return {
        "machine": machine,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict], bounds: dict[str, dict]) -> dict:
    """Medians, base quartiles, wins and (for bounded metrics) a verdict per metric."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        meta = bounds.get(name, {})
        lower = meta.get("better", "lower") == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        q1, q3 = quartiles(base)
        base_median, change_median = statistics.median(base), statistics.median(change)
        entry = {
            "base_median": base_median,
            "change_median": change_median,
            "base_q1": q1,
            "base_q3": q3,
            "base_iqr": q3 - q1,
            "change_wins": wins,
            "pairs": len(pairs),
        }
        if "bound" in meta:
            worse_by = (change_median - base_median) if lower else (base_median - change_median)
            relative = worse_by / abs(base_median) if base_median else 0.0
            spread = (q3 - q1) / abs(base_median) if base_median else 0.0
            separated = (max(change) < min(base)) if lower else (min(change) > max(base))
            if wins >= GAIN_WIN_SHARE * len(pairs) and -worse_by > q3 - q1:
                verdict = "gain" if len(pairs) >= GAIN_MIN_PAIRS else "better, under 10 pairs"
            elif relative > meta["bound"]:
                verdict = "worse"
            elif spread > meta["bound"] and not separated:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            entry.update(relative_worsening=relative, bound=meta["bound"], verdict=verdict)
        out[name] = entry
    return out


def group_record(workload: str, seed: int, trace: int, pairs: list[dict], bounds: dict[str, dict]) -> dict:
    """One workload and seed: correctness, each side's summed operations, the summary and the pairs."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "all_correct": all(p[s]["correct"] for p in pairs for s in ("base", "change")),
        "operations": {
            side: {count: sum(p[side][count] for p in pairs) for count in ("attempted", "failed")}
            for side in ("base", "change")
        },
        "summary": summarize(pairs, bounds),
        "pairs": pairs,
    }


def parse_spec(text: str) -> tuple[str, int, int]:
    try:
        workload, seed, pairs = text.split(":")
        spec = workload, int(seed), int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS, got {text!r}") from None
    if spec[2] < 1:
        raise argparse.ArgumentTypeError(f"PAIRS must be at least 1, got {text!r}")
    return spec


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--base", default="HEAD", help="commit to compare this checkout with (default HEAD)")
    parser.add_argument("--run", type=parse_spec, action="append", default=[], metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--trace-run", type=parse_spec, action="append", default=[], metavar="WORKLOAD:SEED:PAIRS")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.run and not args.trace_run:
        print("error: nothing to run; give --run or --trace-run", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    base_commit = _git("rev-parse", args.base)
    record = {
        "machine": None,
        "base": {"commit": base_commit},
        "change": {
            "commit": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        },
        "seconds": declared["run_seconds"],
        "groups": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = {
            "base": extract(base_commit, os.path.join(scratch, "base")),
            "change": copy_tracked(os.path.join(scratch, "change")),
        }
        jobs = [(spec, 0) for spec in args.run] + [(spec, 1) for spec in args.trace_run]
        for (workload, seed, n_pairs), trace in jobs:
            pairs = []
            for index in range(n_pairs):
                order = ("base", "change") if index % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(checkouts[side], workload, seed, declared["run_seconds"], trace)
                    print(f"{workload} seed {seed} trace {trace} pair {index + 1}/{n_pairs} {side}: "
                          f"wall_ref {pair[side]['metrics'].get('wall_ref')}", file=sys.stderr, flush=True)
                if record["machine"] is None:
                    machine = dict(pair["change"]["machine"] or {})
                    machine.pop("commit", None)
                    machine.get("env", {}).pop("PYTHONPATH", None)
                    record["machine"] = machine
                for side in ("base", "change"):
                    del pair[side]["machine"]
                pairs.append(pair)
            record["groups"].append(group_record(workload, seed, trace, pairs, bounds))
            with open(args.out, "w", encoding="utf-8") as handle:  # after each group, so a cut run keeps them
                json.dump(record, handle, indent=1)
                handle.write("\n")
    incorrect = [f"{g['workload']} seed {g['seed']} trace {g['trace']}" for g in record["groups"] if not g["all_correct"]]
    if incorrect:
        print(f"error: runs not correct in {', '.join(incorrect)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

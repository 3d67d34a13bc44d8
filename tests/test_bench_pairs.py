"""The verdicts and records of tools/bench_pairs.py, on synthetic pairs."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BOUNDS = {
    "wall_ref": {"better": "lower", "bound": 0.25},
    "work_per_ref": {"better": "higher", "bound": 0.25},
}


def run(value: float, name: str = "wall_ref", correct: bool = True, attempted: int = 4, failed: int = 0) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {name: value}}


def pairs_of(base: list[float], change: list[float], name: str = "wall_ref") -> list[dict]:
    return [{"base": run(b, name), "change": run(c, name)} for b, c in zip(base, change)]


def verdict(base: list[float], change: list[float], name: str = "wall_ref") -> str:
    return bench_pairs.summarize(pairs_of(base, change, name), BOUNDS)[name]["verdict"]


TIGHT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95]


@pytest.mark.parametrize(
    "base, change, name, expected",
    [
        (TIGHT, [8.0] * 10, "wall_ref", "gain"),
        (TIGHT[:5], [8.0] * 5, "wall_ref", "better, under 10 pairs"),
        (TIGHT, [13.0] * 10, "wall_ref", "worse"),
        ([5.0, 10.0, 15.0, 20.0] * 3, [20.0, 15.0, 10.0, 5.0] * 3, "wall_ref", "unresolved"),
        (TIGHT, list(reversed(TIGHT)), "wall_ref", "within bound"),
        (TIGHT, [12.0] * 10, "work_per_ref", "gain"),
        (TIGHT, [7.0] * 10, "work_per_ref", "worse"),
        (TIGHT, [8.0] * 10, "work_per_ref", "within bound"),
    ],
    ids=["gain", "under-10", "worse", "unresolved", "within", "higher-gain", "higher-worse", "higher-within"],
)
def test_verdicts(base, change, name, expected):
    assert verdict(base, change, name) == expected


def test_wide_base_is_not_unresolved_when_every_change_run_is_better():
    # the base's IQR (30) is wider than the bound and than the medians' distance (16)
    base = [10.0, 10.0, 40.0, 40.0]
    assert verdict(base, [9.0] * 4) == "within bound"
    assert verdict(base, [9.0, 41.0] * 2) == "unresolved"


def test_ties_count_for_neither_side():
    base = [10.0] * 10
    one_tie = bench_pairs.summarize(pairs_of(base, [8.0] * 9 + [10.0]), BOUNDS)["wall_ref"]
    assert one_tie["change_wins"] == 9
    assert one_tie["verdict"] == "gain"
    two_ties = bench_pairs.summarize(pairs_of(base, [8.0] * 8 + [10.0] * 2), BOUNDS)["wall_ref"]
    assert two_ties["change_wins"] == 8
    assert two_ties["verdict"] == "within bound"


def test_summary_fields_and_unbounded_metric():
    summary = bench_pairs.summarize(pairs_of([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], "steps"), BOUNDS)["steps"]
    assert summary == {
        "base_median": 2.0,
        "change_median": 2.0,
        "base_q1": 1.5,
        "base_q3": 2.5,
        "base_iqr": 1.0,
        "change_wins": 1,
        "pairs": 3,
    }


def test_group_record_sums_each_sides_operations():
    pairs = [
        {"base": run(1.0, attempted=5, failed=0), "change": run(1.0, attempted=6, failed=1, correct=False)},
        {"base": run(1.0, attempted=7, failed=2, correct=False), "change": run(1.0, attempted=8, failed=0)},
    ]
    group = bench_pairs.group_record("w", 0, 0, pairs, BOUNDS)
    assert group["operations"] == {"base": {"attempted": 12, "failed": 2}, "change": {"attempted": 14, "failed": 1}}
    assert group["all_correct"] is False
    assert bench_pairs.group_record("w", 0, 0, [{"base": run(1.0), "change": run(1.0)}], BOUNDS)["all_correct"]


@pytest.mark.parametrize("change_correct, code", [(True, 0), (False, 1)])
def test_main_exits_1_after_writing_when_a_run_is_not_correct(tmp_path, monkeypatch, change_correct, code):
    checkouts = {}

    def fake_run(checkout, workload, seed, seconds, trace):
        ok = checkout != checkouts["change"] or change_correct
        return dict(run(2.0, correct=ok, failed=0 if ok else 1), machine={"commit": "x", "env": {}})

    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "extract", lambda commit, into: checkouts.setdefault("base", into))
    monkeypatch.setattr(bench_pairs, "copy_tracked", lambda into: checkouts.setdefault("change", into))
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--out", str(out), "--run", "document-runs:0:2"]) == code
    # each side runs from its own temporary directory, neither from this checkout
    assert len({checkouts["base"], checkouts["change"], bench_pairs.ROOT}) == 3
    group = json.loads(out.read_text())["groups"][0]
    assert group["all_correct"] is change_correct
    assert group["operations"] == {
        "base": {"attempted": 8, "failed": 0},
        "change": {"attempted": 8, "failed": 0 if change_correct else 2},
    }


@pytest.mark.parametrize("spec", ["community-sweep:0:0", "community-sweep:0:-2"])
def test_a_run_of_no_pairs_is_a_usage_error(spec, capsys):
    # summarize needs a pair to read the metric names from
    for option in ("--run", "--trace-run"):
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.parse_args(["--out", "x.json", option, spec])
        assert exit_info.value.code == 2
        assert f"PAIRS must be at least 1, got '{spec}'" in capsys.readouterr().err
    assert bench_pairs.parse_spec("community-sweep:11:1") == ("community-sweep", 11, 1)


def test_the_change_side_is_a_copy_of_the_tracked_files(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    (repo / "pkg" / "kept.py").write_text("committed\n")
    (repo / "gone.py").write_text("deleted\n")
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "pkg/kept.py", "gone.py"], cwd=repo, check=True)
    (repo / "pkg" / "kept.py").write_text("edited\n")  # an unstaged edit is copied as it stands
    (repo / "gone.py").unlink()  # a tracked file deleted from the working tree is not
    (repo / "untracked.py").write_text("new\n")
    (repo / "pkg" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"\0")
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    copy = Path(bench_pairs.copy_tracked(str(tmp_path / "change")))
    assert sorted(p.relative_to(copy).as_posix() for p in copy.rglob("*") if p.is_file()) == ["pkg/kept.py"]
    assert (copy / "pkg" / "kept.py").read_text() == "edited\n"

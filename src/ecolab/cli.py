"""Command-line surface: run, sweep, stability, threshold, demo.

Exit codes: 0 success, 1 validation or input error, 2 runtime failure.
All file outputs are written atomically (temp file + rename) and are
byte-identical for identical inputs, seeds and flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from .analysis import SweepReport, analyze_scenario, sweep, sweep_epidemic
from .continuous import integrate_report
from .core import Scenario, Trajectory
from .demos import DEMO_NAMES, demo_document, mimicry_table
from .discrete import iterate_map, nicholson_bailey_map
from .epidemic import estimate_threshold, mean_field_threshold, simulate_epidemic
from .scenario_io import (
    DiscreteBundle,
    Document,
    EpidemicBundle,
    SelectionBundle,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
    write_csv,
)
from .selection import iterate_selection
from .svg import polyline_chart, render_svg

__all__ = ["main", "cli_main"]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ecolab-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # name the path asked for, not the temporary file's random name
        raise type(exc)(exc.errno, exc.strerror, path) from None


def _load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"scenario file not found: {path}") from None
    return parse_scenario(text)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_outputs(args, trajectory: Trajectory, title: str) -> None:
    # both texts first, so a trajectory that cannot be drawn leaves no CSV behind
    csv = write_csv(trajectory) if args.csv else None
    svg = render_svg(trajectory, title=title) if args.svg else None
    if csv is not None:
        _atomic_write(args.csv, csv)
    if svg is not None:
        _atomic_write(args.svg, svg)


def _run_document(document: Document, args) -> None:
    digest = scenario_digest(document)
    started = time.perf_counter()
    extinctions: tuple[tuple[str, float], ...] = ()
    final_label = None  # the epidemic branch writes its own summary

    if isinstance(document, Scenario):
        result = integrate_report(document)
        trajectory, extinctions = result.trajectory, result.extinctions
        title, final_label = "community densities", "final densities"
    elif isinstance(document, EpidemicBundle):
        model = document.model
        if args.seed is not None:
            model = replace(model, seed=args.seed)
        trajectory = simulate_epidemic(model, document.horizon, document.sample_dt)
        title = "epidemic prevalence"
        if trajectory.extinction_time is None:
            summary = f"infection alive at horizon, final prevalence {trajectory.infected_fraction[-1]:.4f}"
        else:
            summary = f"infection extinct at t={trajectory.extinction_time:.4g}"
    elif isinstance(document, SelectionBundle):
        trajectory = iterate_selection(document.state, document.steps)
        title, final_label = "trait means", "final trait means"
    elif isinstance(document, DiscreteBundle):
        trajectory = iterate_map(
            nicholson_bailey_map(document.params),
            (document.initial_host, document.initial_parasitoid),
            document.generations,
            variable_names=("host", "parasitoid"),
        )
        title, final_label = "host-parasitoid generations", "final generation"
    else:
        raise TypeError(f"cannot run document {document!r}")
    if final_label is not None:
        final = ", ".join(
            f"{name}={value:.6g}" for name, value in zip(trajectory.variable_names, trajectory.final_state())
        )
        summary = f"{final_label}: {final}"

    _write_outputs(args, trajectory, title)
    duration = time.perf_counter() - started
    _say(args, f"digest: {digest}")
    _say(args, summary)
    if extinctions:
        listed = ", ".join(f"{name} at t={when:.6g}" for name, when in extinctions)
        _say(args, f"extinctions: {listed}")
    _say(args, f"wall clock: {duration * 1000:.1f} ms")


def _cmd_run(args) -> int:
    document = _load_document(args.file)
    _run_document(document, args)
    return 0


def _print_sweep(args, report: SweepReport) -> None:
    _say(args, f"sweep over {report.parameter_path} ({len(report.grid)} points)")
    for point in report.points:
        fields = [f"{report.parameter_path}={point.value:.6g}"]
        if point.classification is not None:
            fields.append(point.classification.value)
        if point.final_state is not None:
            fields.append("final=" + "/".join(f"{v:.4g}" for v in point.final_state))
        if point.metric is not None:
            fields.append(f"metric={point.metric:.4g}")
        if point.extinctions:
            fields.append("extinct:" + ",".join(name for name, _ in point.extinctions))
        _say(args, "  " + "  ".join(fields))
    if report.transitions:
        for low, high in report.transitions:
            _say(args, f"classification transition inside [{low:.6g}, {high:.6g}]")
    else:
        _say(args, "no classification transitions detected")


def _sweep_csv(report: SweepReport) -> str:
    lines = ["value,classification,metric"]
    for point in report.points:
        cls = point.classification.value if point.classification else ""
        metric = repr(point.metric) if point.metric is not None else ""
        lines.append(f"{point.value!r},{cls},{metric}")
    return "\n".join(lines) + "\n"


def _community_metric(spec: str, document: Scenario):
    if spec.startswith("final:"):
        species_id = spec.split(":", 1)[1]
        if species_id not in document.species_ids:
            raise ValueError(f"unknown species '{species_id}' in metric '{spec}'")
        return lambda scenario, trajectory: float(trajectory.column(species_id)[-1])
    raise ValueError(f"unknown metric '{spec}' (community sweeps support final:<species_id>)")


def _cmd_sweep(args) -> int:
    document = _load_document(args.file)
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ValueError(f"sweep bounds must be finite, got --from {args.start!r} --to {args.stop!r}")
    if args.points < 2:
        raise ValueError("grid needs at least two points")
    grid = np.linspace(args.start, args.stop, args.points)
    if isinstance(document, Scenario):
        metric = _community_metric(args.metric, document) if args.metric else None
        report = sweep(document, args.param, grid, metric=metric)
    elif isinstance(document, EpidemicBundle):
        if args.metric:
            raise ValueError("epidemic sweeps always report the persistence metric")
        report = sweep_epidemic(
            document.model,
            args.param,
            grid,
            horizon=document.horizon,
            runs_per_point=args.runs,
            master_seed=args.seed if args.seed is not None else 0,
        )
    else:
        raise ValueError("sweep supports community and epidemic documents")
    _print_sweep(args, report)
    if args.csv:
        _atomic_write(args.csv, _sweep_csv(report))
    return 0


def _cmd_stability(args) -> int:
    document = _load_document(args.file)
    if not isinstance(document, Scenario):
        raise ValueError("stability analysis needs a community document")
    names = document.species_ids
    for report in analyze_scenario(document):
        point = ", ".join(f"{n}={v:.8g}" for n, v in zip(names, report.fixed_point))
        eigen = ", ".join(f"{v.real:+.6g}{v.imag:+.6g}j" for v in report.eigenvalues)
        _say(args, f"fixed point ({point})")
        _say(args, f"  eigenvalues: {eigen}")
        _say(args, f"  classification: {report.classification.value}")
    return 0


def _cmd_threshold(args) -> int:
    document = _load_document(args.file)
    if not isinstance(document, EpidemicBundle):
        raise ValueError("threshold analysis needs an epidemic document")
    model = document.model
    critical = mean_field_threshold(model.graph, model.gamma)
    _say(args, f"mean-field threshold beta_c = {critical!r}")
    if args.empirical:
        low = args.beta_min if args.beta_min is not None else critical / 10.0
        high = args.beta_max if args.beta_max is not None else critical * 10.0
        estimate = estimate_threshold(
            model.graph,
            model.gamma,
            (low, high),
            runs_per_point=args.runs,
            persistence_horizon=args.horizon,
            n_bisections=args.bisections,
            master_seed=args.seed if args.seed is not None else 0,
        )
        _say(
            args,
            f"empirical threshold beta ~ {estimate.beta:.6g} "
            f"(bracket [{estimate.bracket[0]:.6g}, {estimate.bracket[1]:.6g}], "
            f"width {estimate.bracket_width:.3g})",
        )
    return 0


def _cmd_demo(args) -> int:
    if args.name == "mimicry" and not args.emit:
        names, densities, values = mimicry_table()
        if args.csv:
            text = "mimic_density," + ",".join(names) + "\n"
            rows = []
            for x, row in zip(densities, values):
                rows.append(",".join(repr(float(v)) for v in [x, *row]))
            _atomic_write(args.csv, text + "\n".join(rows) + "\n")
        if args.svg:
            _atomic_write(
                args.svg,
                polyline_chart(names, densities, values, title="mimicry payoffs", x_label="mimic density"),
            )
        # the demo parameters put the flip at 3.05, inside the grid
        flip = next(float(x) for x, row in zip(densities, values) if row[1] > 0)
        _say(args, "mimicry payoff sweep (venom_cost=3, prey_value=1)")
        _say(args, f"predator starts attacking at mimic density {flip:.4g} (frequency {flip/(1+flip):.4g})")
        return 0
    document = demo_document(args.name)
    if args.emit:
        print(serialize_scenario(document), end="")
        return 0
    _run_document(document, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecolab",
        description="Simulate and analyze ecological interaction models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed_help: str | None, with_outputs: bool = True) -> None:
        if seed_help is not None:
            p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.add_argument("--quiet", action="store_true", help="suppress the run report")
        if with_outputs:
            p.add_argument("--csv", metavar="PATH", help="write samples as CSV")
            p.add_argument("--svg", metavar="PATH", help="write a line chart as SVG")

    run = sub.add_parser("run", help="simulate a scenario file")
    run.add_argument("file")
    common(run, "epidemic seed (default: the document's seed)")
    run.set_defaults(fn=_cmd_run)

    swp = sub.add_parser("sweep", help="re-analyze a scenario across a parameter grid")
    swp.add_argument("file")
    swp.add_argument("--param", required=True, help="parameter path, e.g. interaction.a:b.alpha")
    swp.add_argument("--from", dest="start", type=float, required=True)
    swp.add_argument("--to", dest="stop", type=float, required=True)
    swp.add_argument("--points", type=int, required=True)
    swp.add_argument("--metric", default=None, help="extra summary, e.g. final:<species_id>")
    swp.add_argument("--runs", type=int, default=20, help="Monte Carlo runs per point (epidemic)")
    common(swp, "master seed of the Monte Carlo runs (default 0)", with_outputs=False)
    swp.add_argument("--csv", metavar="PATH", help="write one CSV row per grid point")
    swp.set_defaults(fn=_cmd_sweep)

    stab = sub.add_parser("stability", help="fixed points and local stability")
    stab.add_argument("file")
    common(stab, None, with_outputs=False)  # the analysis draws no random numbers
    stab.set_defaults(fn=_cmd_stability)

    thr = sub.add_parser("threshold", help="epidemic transmission threshold")
    thr.add_argument("file")
    thr.add_argument(
        "--empirical",
        action="store_true",
        help="bisect the Monte Carlo persistence threshold; every run starts from a tenth of the "
        "nodes (at least one) infected, not from the document's initial_infected",
    )
    thr.add_argument("--runs", type=int, default=40)
    thr.add_argument("--bisections", type=int, default=6)
    thr.add_argument("--horizon", type=float, default=60.0)
    thr.add_argument("--beta-min", type=float, default=None)
    thr.add_argument("--beta-max", type=float, default=None)
    common(thr, "master seed of the Monte Carlo runs (default 0)", with_outputs=False)
    thr.set_defaults(fn=_cmd_threshold)

    demo = sub.add_parser("demo", help="run or emit a built-in demo scenario")
    demo.add_argument("name", help=", ".join(DEMO_NAMES))
    demo.add_argument("--emit", action="store_true", help="print the scenario document instead of running")
    common(demo, "epidemic seed (default: the document's seed)")
    demo.set_defaults(fn=_cmd_demo)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def cli_main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())

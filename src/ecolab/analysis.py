"""Fixed points, local stability, oscillation diagnostics and parameter sweeps."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import (
    InteractionKind,
    LinearResponse,
    Role,
    Scenario,
    Trajectory,
    _count,
)
from ._kernel import _Kernel, _kernel, _norm_margin
from .continuous import _all_finite, _integrate_report
from .epidemic import EpidemicModel, persistence_fraction, run_seed
from .scenario_io import set_parameter

__all__ = [
    "Classification",
    "classify",
    "jacobian_of",
    "jacobian_at",
    "find_fixed_points",
    "StabilityReport",
    "stability_report",
    "analyze_scenario",
    "oscillation_period",
    "PointSummary",
    "SweepReport",
    "sweep",
    "sweep_epidemic",
]

#: Per-axis central-difference step of the stability Jacobian, times max(1, |x_i|).
_FD_STEP = 1e-5
#: Eigenvalue parts within +-_CLASSIFY_TOL of zero count as zero.
_CLASSIFY_TOL = 1e-7
#: A root's residual norm is below _RESIDUAL_TOL, roots within _DEDUPE_TOL
#: (times the state scale) are one, and Newton makes at most _MAX_ITERATIONS steps.
_RESIDUAL_TOL = 1e-10
_DEDUPE_TOL = 1e-8
_MAX_ITERATIONS = 50
#: The arguments of the kernel's `roots` between the starts and the
#: de-duplication distance, in its order (see `_kernel._emit_roots`).
_ROOTS_ARGS = (
    range(_MAX_ITERATIONS),
    1e-7,
    _RESIDUAL_TOL * 1e-2,
    tuple(itertools.takewhile(lambda lam: lam > 1e-4, (0.5**k for k in itertools.count()))),
    -1e-9,
    1e-12,
    _RESIDUAL_TOL,
)


#: np.linalg.solve's own errstate around its gufunc, but for a singular matrix,
#: which raises FloatingPointError where np.linalg.solve raises LinAlgError.
#: Newton's residual norms that overflow are inf under it, without a warning.
_SOLVE_ERRSTATE = {"invalid": "raise", "over": "ignore", "divide": "ignore", "under": "ignore"}


class Classification(str, Enum):
    STABLE_NODE = "stable_node"
    STABLE_FOCUS = "stable_focus"
    CENTER_LIKE = "center_like"
    UNSTABLE_NODE = "unstable_node"
    UNSTABLE_FOCUS = "unstable_focus"
    SADDLE = "saddle"
    UNDETERMINED = "undetermined"


def classify(eigenvalues: Sequence[complex]) -> Classification:
    """Label a fixed point from the eigenvalues of its Jacobian.

    Real parts beyond +-1e-7 decide stable/unstable (opposite signs give
    a saddle); any imaginary part beyond 1e-7 marks a focus.  When the
    largest real part sits inside the tolerance band and imaginary parts
    are present the honest answer is "center_like": finite precision
    cannot tell a true center from a very weak focus.  A NaN part is a
    ValueError: no label follows from it.
    """
    ev = [complex(v) for v in eigenvalues]
    if not ev:
        raise ValueError("need at least one eigenvalue")
    if any(math.isnan(v.real) or math.isnan(v.imag) for v in ev):
        raise ValueError(f"eigenvalues must not be NaN, got {ev}")
    re = [v.real for v in ev]
    rotating = any(abs(v.imag) > _CLASSIFY_TOL for v in ev)
    re_max, re_min = max(re), min(re)
    if re_max < -_CLASSIFY_TOL:
        return Classification.STABLE_FOCUS if rotating else Classification.STABLE_NODE
    if re_max > _CLASSIFY_TOL:
        if re_min < -_CLASSIFY_TOL:
            return Classification.SADDLE
        return Classification.UNSTABLE_FOCUS if rotating else Classification.UNSTABLE_NODE
    return Classification.CENTER_LIKE if rotating else Classification.UNDETERMINED


def _central_jacobian(
    rhs: Callable[[list[float]], list[float]], x: list[float], fd_step: float
) -> np.ndarray:
    """Central-difference Jacobian of `rhs` at the float list x.

    Column i is (rhs(x + h e_i) - rhs(x - h e_i)) / 2h with the per-axis
    step h = fd_step*max(1, |x_i|); a non-finite evaluation is a ValueError.
    It serves `jacobian_of`'s arbitrary functions and `jacobian_at`'s
    compiled community derivative; the compiled root search inlines the
    same computation for its Newton steps.
    """
    columns = []
    for i, xi in enumerate(x):
        h = fd_step * max(1.0, abs(xi))
        forward = list(x)
        backward = list(x)
        forward[i] = xi + h
        backward[i] = xi - h
        f_plus = rhs(forward)
        f_minus = rhs(backward)
        if not (_all_finite(f_plus) and _all_finite(f_minus)):
            raise ValueError(f"non-finite derivative evaluation near axis {i}")
        two_h = 2.0 * h
        columns.append([(p - m) / two_h for p, m in zip(f_plus, f_minus)])
    return np.array(columns).T


def jacobian_of(fn: Callable[[np.ndarray], np.ndarray], point: Sequence[float]) -> np.ndarray:
    """Central-difference Jacobian with per-axis step 1e-5*max(1, |x_i|)."""

    def rhs(x: list[float]) -> list[float]:
        return np.asarray(fn(np.array(x)), dtype=float).tolist()

    return _central_jacobian(rhs, np.asarray(point, dtype=float).tolist(), _FD_STEP)


def jacobian_at(scenario: Scenario, point: Sequence[float]) -> np.ndarray:
    """Jacobian of the community derivative at a state vector.

    The central differences of `jacobian_of`, step 1e-5*max(1, |x_i|),
    over the compiled derivative of the scenario, validated first.
    """
    return _central_jacobian(_kernel(scenario).rhs, _state_of(scenario, point).tolist(), _FD_STEP)


def _state_of(scenario: Scenario, point: Sequence[float]) -> np.ndarray:
    """The point as a float array, checked to hold one density per species."""
    point = np.asarray(point, dtype=float)
    if point.shape != (len(scenario.species),):
        raise ValueError(
            f"point has shape {point.shape}, scenario declares {len(scenario.species)} species"
        )
    return point


def _as_classical_pair(scenario: Scenario):
    """Recognize the two-species predation configuration solved in closed form.

    Returns (prey_index, predator_index, growth, encounter, decline, gain)
    or None when the scenario is anything richer.
    """
    if len(scenario.species) != 2 or len(scenario.interactions) != 1:
        return None
    entry = scenario.interactions[0]
    if entry.kind not in (InteractionKind.PREDATION, InteractionKind.PARASITISM):
        return None
    if not isinstance(entry.response, LinearResponse):
        return None
    if any(sp.self_limitation != 0.0 for sp in scenario.species):
        return None
    predator = scenario.species_by_id(entry.species_i)
    prey = scenario.species_by_id(entry.species_j)
    if predator.role != Role.CONSUMER or prey.role != Role.PRODUCER:
        return None
    if entry.response.rate <= 0 or entry.coeff_i <= 0:
        return None
    if prey.growth_rate <= 0 or predator.growth_rate <= 0:
        return None
    ids = scenario.species_ids
    return (
        ids.index(prey.id),
        ids.index(predator.id),
        prey.growth_rate,
        entry.response.rate,
        predator.growth_rate,
        entry.coeff_i * entry.response.rate,
    )


def _newton_starts(scenario: Scenario) -> list[list[float]]:
    n = len(scenario.species)
    guesses = []
    for sp in scenario.species:
        if sp.self_limitation > 0 and sp.growth_rate > 0:
            guesses.append(sp.growth_rate / sp.self_limitation)
        else:
            guesses.append(float(max(scenario.initial_densities.get(sp.id, 1.0), 1.0)))
    starts = [[0.0] * n, scenario.initial_state().tolist()]
    if n <= 6:
        axes = [(0.1 * g, g, 10.0 * g) for g in guesses]
        starts.extend(list(combo) for combo in itertools.product(*axes))
        # boundary candidates: each species absent in turn
        for k in range(n):
            v = list(guesses)
            v[k] = 0.0
            starts.append(v)
    else:
        starts.append(guesses)
    return starts


def find_fixed_points(
    scenario: Scenario, extra_starts: Sequence[Sequence[float]] | None = None
) -> list[np.ndarray]:
    """Nonnegative equilibria of the community derivative, the origin always among them.

    The two-species predation configuration is answered in closed form:
    the origin plus the analytic coexistence point.  Everything else runs
    damped Newton from a small lattice of starting points (plus any
    `extra_starts`, e.g. the tail of a trajectory), keeps roots with
    residual norm below 1e-10, and de-duplicates within 1e-8 (times the
    largest initial density, if above 1).  Every term of the derivative
    carries a density factor, so the origin start always converges.

    The search is the scenario's compiled `roots` (`_kernel._emit_roots`),
    which runs every start in generated code.  Newton makes at most 50
    steps, each solving with the central-difference Jacobian of step 1e-7
    and halving the step, down to 1e-4 of it, until the residual norm
    drops; a start stops early once the norm is below 1e-12.  A root
    below -1e-9 in any density is dropped, densities below 1e-12 snap to
    0, and the snapped root is re-checked against 1e-10.  Each of those
    norm decisions is np.linalg.norm's, unless the float norm is clear of
    the bound by `_norm_margin(n)`, relative.  All starts run inside one
    np.errstate, np.linalg.solve's own, under which a singular Jacobian
    ends a start and an overflowing norm is quietly inf.
    """
    return _find_fixed_points(scenario, _kernel(scenario), extra_starts)


def _find_fixed_points(
    scenario: Scenario, kernel: _Kernel, extra_starts: Sequence[Sequence[float]] | None = None
) -> list[np.ndarray]:
    """`find_fixed_points` of a validated scenario, searched by its bound kernel."""
    n = len(scenario.species)

    classical = _as_classical_pair(scenario)
    if classical is not None:
        prey_idx, pred_idx, growth, encounter, decline, gain = classical
        interior = np.zeros(n)
        interior[prey_idx] = decline / gain
        interior[pred_idx] = growth / encounter
        return [np.zeros(n), interior]

    scale = max(1.0, max((abs(g) for g in scenario.initial_state()), default=1.0))
    starts = _newton_starts(scenario)
    if extra_starts is not None:
        for extra in extra_starts:
            extra = np.asarray(extra, dtype=float)
            if extra.shape != (n,):
                raise ValueError(f"extra start has shape {extra.shape}, scenario declares {n} species")
            starts.append(extra.tolist())
    with np.errstate(**_SOLVE_ERRSTATE):
        roots = kernel.roots(starts, *_ROOTS_ARGS, _DEDUPE_TOL * scale, _norm_margin(n))
    roots.sort(key=tuple)
    return [np.array(r) for r in roots]


@dataclass(frozen=True)
class StabilityReport:
    """Local linearization summary at one fixed point."""

    fixed_point: np.ndarray
    jacobian: np.ndarray
    eigenvalues: tuple[complex, ...]
    classification: Classification


def stability_report(scenario: Scenario, point: Sequence[float]) -> StabilityReport:
    """Jacobian (as `jacobian_at` computes it), eigenvalues and classification at a point."""
    return _stability_report(_kernel(scenario), _state_of(scenario, point))


def _stability_report(kernel: _Kernel, point: np.ndarray) -> StabilityReport:
    """`stability_report` at a float array of one density per species, through a bound kernel."""
    jac = _central_jacobian(kernel.rhs, point.tolist(), _FD_STEP)
    ev = np.linalg.eigvals(jac)
    order = np.lexsort((ev.imag, ev.real))
    eigenvalues = tuple(complex(v) for v in ev[order])
    return StabilityReport(
        fixed_point=point,
        jacobian=jac,
        eigenvalues=eigenvalues,
        classification=classify(eigenvalues),
    )


def analyze_scenario(scenario: Scenario) -> list[StabilityReport]:
    """Stability report for every fixed point found, with one kernel bound for the search and every report."""
    kernel = _kernel(scenario)
    return [_stability_report(kernel, point) for point in _find_fixed_points(scenario, kernel)]


def oscillation_period(
    trajectory: Trajectory, variable: str, reference: float
) -> float:
    """Mean oscillation period from upcrossings of a reference level.

    Crossing times are linearly interpolated between samples, which makes
    the estimate robust to the sampling grid.  Needs at least two
    upcrossings.
    """
    values = trajectory.column(variable)
    times = trajectory.times
    crossings = []
    for k in range(len(values) - 1):
        if values[k] < reference <= values[k + 1]:
            frac = (reference - values[k]) / (values[k + 1] - values[k])
            crossings.append(times[k] + frac * (times[k + 1] - times[k]))
    if len(crossings) < 2:
        raise ValueError(
            f"need at least two upcrossings of {reference:g} to estimate a period, "
            f"found {len(crossings)}"
        )
    return float(np.mean(np.diff(crossings)))


@dataclass(frozen=True)
class PointSummary:
    """What one sweep grid point produced."""

    value: float
    classification: Classification | None
    final_state: tuple[float, ...] | None = None
    extinctions: tuple[tuple[str, float], ...] = ()
    metric: float | None = None


@dataclass(frozen=True)
class SweepReport:
    """Per-point summaries over a monotone parameter grid.

    `transitions` lists the bracketing grid intervals whose endpoint
    classifications differ.
    """

    parameter_path: str
    grid: tuple[float, ...]
    points: tuple[PointSummary, ...]
    transitions: tuple[tuple[float, float], ...]


def _attractor_classification(scenario: Scenario, kernel: _Kernel, final: np.ndarray) -> Classification:
    points = _find_fixed_points(scenario, kernel, extra_starts=[final])
    nearest = min(points, key=lambda pt: float(np.linalg.norm(pt - final)))
    return _stability_report(kernel, nearest).classification


def _monotone_grid(grid: Sequence[float]) -> tuple[float, ...]:
    """The grid as floats, checked to hold two or more strictly monotone points."""
    grid = tuple(float(g) for g in grid)
    if len(grid) < 2:
        raise ValueError("grid needs at least two points")
    diffs = np.diff(grid)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("grid must be strictly monotone")
    return grid


def sweep(
    scenario: Scenario,
    parameter_path: str,
    grid: Sequence[float],
    metric: Callable[[Scenario, Trajectory], float] | None = None,
) -> SweepReport:
    """Re-validate and re-analyze a scenario across a parameter grid.

    Each point integrates the updated scenario, classifies the fixed
    point nearest the trajectory's final state (the attractor the run
    settled toward) and evaluates the optional user metric.  Points are
    independent; they run, and are reported, in grid order.  Each
    updated scenario's kernel is bound once, which validates it, and the
    integration, the root search and the attractor's Jacobian share it.
    """
    grid = _monotone_grid(grid)
    points = []
    for value in grid:
        updated = set_parameter(scenario, parameter_path, value)
        kernel = _kernel(updated)
        result = _integrate_report(updated, kernel)
        final = result.trajectory.final_state()
        classification = _attractor_classification(updated, kernel, final)
        metric_value = None
        if metric is not None:
            metric_value = float(metric(updated, result.trajectory))
        points.append(
            PointSummary(
                value=value,
                classification=classification,
                final_state=tuple(float(v) for v in final),
                extinctions=result.extinctions,
                metric=metric_value,
            )
        )
    transitions = tuple(
        (grid[k], grid[k + 1])
        for k in range(len(grid) - 1)
        if points[k].classification != points[k + 1].classification
    )
    return SweepReport(
        parameter_path=parameter_path,
        grid=grid,
        points=tuple(points),
        transitions=transitions,
    )


def sweep_epidemic(
    model: EpidemicModel,
    parameter_path: str,
    grid: Sequence[float],
    horizon: float,
    runs_per_point: int = 20,
    master_seed: int = 0,
) -> SweepReport:
    """Monte Carlo persistence fraction across an epidemic rate grid.

    The metric per grid point is the fraction of seeded runs with
    infection alive at the horizon; classifications do not apply, so the
    report never contains transitions.
    """
    if not isinstance(model, EpidemicModel):
        raise TypeError("sweep_epidemic expects an EpidemicModel")
    if parameter_path not in ("beta", "gamma"):
        raise ValueError(
            f"unresolvable parameter path '{parameter_path}' for an epidemic (beta, gamma)"
        )
    runs_per_point = _count("runs_per_point", runs_per_point, 1)
    grid = _monotone_grid(grid)
    points = []
    for idx, value in enumerate(grid):
        updated = replace(model, **{parameter_path: value})
        fraction = persistence_fraction(
            updated.graph,
            updated.beta,
            updated.gamma,
            horizon,
            runs_per_point,
            master_seed=run_seed(master_seed, idx),
            kind=updated.kind,
            initial_infected=updated.initial_infected,
        )
        points.append(PointSummary(value=value, classification=None, metric=fraction))
    return SweepReport(
        parameter_path=parameter_path,
        grid=grid,
        points=tuple(points),
        transitions=(),
    )

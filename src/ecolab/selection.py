"""Within-species and informational interactions.

The trait-selection recursion over (display, preference, residual
fitness), the kin-selection rule for cooperation, and a
frequency-dependent mimicry payoff model with a rational-predator
attack rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import Trajectory, _count

__all__ = [
    "TRAIT_NAMES",
    "GradientSpec",
    "SelectionState",
    "make_g_matrix",
    "selection_step",
    "iterate_selection",
    "constant_gradient",
    "linear_gradient",
    "KinSelectionParams",
    "hamilton_favored",
    "MimicryParams",
    "MimicryPayoffs",
    "mimic_frequency",
    "mimicry_payoffs",
]

TRAIT_NAMES = ("display", "preference", "fitness")

#: Eigenvalue floor below which a trait covariance matrix is rejected;
#: slightly negative to tolerate floating-point noise in user input.
PSD_FLOOR = -1e-10

GradientFn = Callable[[np.ndarray], np.ndarray]


def _vector3(name: str, values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have exactly 3 entries (display, preference, fitness)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _gradient_sum(natural: GradientFn, sexual: GradientFn, means: np.ndarray) -> np.ndarray:
    """natural(means) + sexual(means), each checked to hold 3 finite numbers; the sum may overflow."""
    return _vector3("natural_gradient", natural(means)) + _vector3("sexual_gradient", sexual(means))


@dataclass(frozen=True, eq=False)
class SelectionState:
    """Trait means, their covariance structure and the forcing that moves them.

    `g_matrix` is the 3x3 trait variance/covariance matrix over
    (display, preference, fitness).  It is symmetrized at construction,
    so supplying only an upper triangle transposed or not gives the same
    state, and must be positive semi-definite up to floating-point noise.
    `natural` and `sexual` are the selection gradients as functions of
    the means, a `GradientSpec` or any callable returning 3 numbers; both
    must be finite at `means`.
    """

    means: np.ndarray
    g_matrix: np.ndarray
    natural: GradientFn
    sexual: GradientFn
    mutation_step: np.ndarray

    def __post_init__(self) -> None:
        means = _vector3("means", self.means)
        g = np.asarray(self.g_matrix, dtype=float)
        if g.shape != (3, 3):
            raise ValueError("g_matrix must be 3x3")
        with np.errstate(over="ignore", invalid="ignore"):
            g = (g + g.T) / 2.0
        # checked after the sum, which overflows on finite entries near the float limit
        if not np.all(np.isfinite(g)):
            raise ValueError("g_matrix must be finite")
        eigenvalues = np.linalg.eigvalsh(g)
        if eigenvalues.min() < PSD_FLOOR:
            raise ValueError(
                f"g_matrix is not positive semi-definite (min eigenvalue {eigenvalues.min():.3e})"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            _gradient_sum(self.natural, self.sexual, means)
        g.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "g_matrix", g)
        object.__setattr__(self, "mutation_step", _vector3("mutation_step", self.mutation_step))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SelectionState):
            return NotImplemented
        return (self.natural, self.sexual) == (other.natural, other.sexual) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in ("means", "g_matrix", "mutation_step")
        )


def make_g_matrix(
    v_display: float,
    v_preference: float,
    v_fitness: float,
    c_display_preference: float = 0.0,
    c_display_fitness: float = 0.0,
    c_preference_fitness: float = 0.0,
) -> np.ndarray:
    """Covariance matrix from its six independent entries."""
    return np.array(
        [
            [v_display, c_display_preference, c_display_fitness],
            [c_display_preference, v_preference, c_preference_fitness],
            [c_display_fitness, c_preference_fitness, v_fitness],
        ],
        dtype=float,
    )


def selection_step(state: SelectionState) -> tuple[np.ndarray, SelectionState]:
    """One generation of the trait-mean recursion.

    delta = G @ (natural(means) + sexual(means)) + mutation_step

    The covariance matrix couples the response across traits: a
    display-preference covariance channels selection on display into a
    correlated shift of preference, which is what fuels runaway dynamics.
    Returns the mean shift and the advanced state, whose means must be
    finite and whose gradients must be finite there; covariance,
    gradient functions and mutation are carried over unchanged.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        delta = state.g_matrix @ _gradient_sum(state.natural, state.sexual, state.means) + state.mutation_step
        advanced = replace(state, means=state.means + delta)
    return delta, advanced


@dataclass(frozen=True)
class GradientSpec:
    """A selection gradient, as a document stores it and as the recursion calls it:
    on the trait means, "constant" returns `value`, "linear" `intercept + matrix @ means`.
    An overflow gives inf or NaN without a warning; the caller checks finiteness.
    """

    type: str  # "constant" | "linear"
    value: tuple[float, ...] = (0.0, 0.0, 0.0)
    intercept: tuple[float, ...] = (0.0, 0.0, 0.0)
    matrix: tuple[tuple[float, ...], ...] = ((0.0,) * 3,) * 3

    def __post_init__(self) -> None:
        if self.type not in ("constant", "linear"):
            raise ValueError(f"unknown gradient type {self.type!r} (constant, linear)")

    def __call__(self, means: np.ndarray) -> np.ndarray:
        if self.type == "constant":
            return np.array(self.value, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.array(self.intercept, dtype=float) + np.array(self.matrix, dtype=float) @ means


def constant_gradient(values: Sequence[float]) -> GradientSpec:
    """Gradient that ignores the trait means."""
    return GradientSpec(type="constant", value=tuple(map(float, _vector3("gradient", values))))


def linear_gradient(intercept: Sequence[float], coefficients) -> GradientSpec:
    """Gradient affine in the trait means: intercept + coefficients @ means."""
    base = _vector3("intercept", intercept)
    matrix = np.asarray(coefficients, dtype=float)
    if matrix.shape != (3, 3):
        raise ValueError("coefficients must be 3x3")
    rows = tuple(tuple(map(float, row)) for row in matrix)
    return GradientSpec(type="linear", intercept=tuple(map(float, base)), matrix=rows)


def iterate_selection(state: SelectionState, n_steps: int) -> Trajectory:
    """Run the recursion, evaluating the state's gradients each generation.

    Returns the trait means of generations 0..n_steps, one column per
    name in TRAIT_NAMES; they may go negative.  Each generation checks
    only what changes, the gradients at the current means and then the
    new means.
    """
    n_steps = _count("n_steps", n_steps, 0)
    g, natural, sexual, mutation = state.g_matrix, state.natural, state.sexual, state.mutation_step
    means = state.means
    rows = [means]
    # an overflow is reported by the finiteness check of the value it reaches
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            means = _vector3("means", means + (g @ _gradient_sum(natural, sexual, means) + mutation))
            rows.append(means)
    return Trajectory(TRAIT_NAMES, np.arange(len(rows), dtype=float), np.array(rows))


@dataclass(frozen=True)
class KinSelectionParams:
    """Relatedness-weighted costs and benefits of a helping act."""

    relatedness: float
    benefit: float
    cost: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.relatedness) and 0.0 <= self.relatedness <= 1.0):
            raise ValueError("relatedness must lie in [0, 1]")
        if not (math.isfinite(self.benefit) and self.benefit >= 0):
            raise ValueError("benefit must be >= 0")
        if not (math.isfinite(self.cost) and self.cost >= 0):
            raise ValueError("cost must be >= 0")


def hamilton_favored(p: KinSelectionParams) -> bool:
    """True iff relatedness * benefit strictly exceeds the donor's cost.

    Ties count against the helping act.
    """
    return p.relatedness * p.benefit > p.cost


@dataclass(frozen=True)
class MimicryParams:
    """Densities and payoffs of a defended model and its harmless mimic."""

    model_density: float
    mimic_density: float
    venom_cost: float
    prey_value: float
    model_weapon_cost: float
    mimic_signal_cost: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "model_density",
            "mimic_density",
            "venom_cost",
            "prey_value",
            "mimic_signal_cost",
            "model_weapon_cost",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.model_density <= 0:
            raise ValueError("model_density must be > 0")
        if self.mimic_density < 0:
            raise ValueError("mimic_density must be >= 0")
        if self.venom_cost <= 0 or self.prey_value <= 0 or self.model_weapon_cost <= 0:
            raise ValueError("venom_cost, prey_value and model_weapon_cost must be > 0")
        if self.mimic_signal_cost < 0:
            raise ValueError("mimic_signal_cost must be >= 0")


@dataclass(frozen=True)
class MimicryPayoffs:
    attack_probability: float
    mimic_net_payoff: float
    model_net_payoff: float
    predator_expected_payoff: float


def mimic_frequency(p: MimicryParams) -> float:
    """Fraction of warning-signal carriers that are mimics."""
    return p.mimic_density / (p.mimic_density + p.model_density)


def mimicry_payoffs(p: MimicryParams) -> MimicryPayoffs:
    """Frequency-dependent payoffs under a rational-predator step rule.

    The predator attacks signal carriers exactly when the expected payoff
    f*prey_value - (1-f)*venom_cost of an attack is strictly positive,
    where f is the mimic frequency.  Protection is perfect while mimics
    are rare and collapses once f crosses
    venom_cost / (venom_cost + prey_value).

    The mimic pays only its signalling cost, the model carries its
    weapon cost unconditionally; with a cheaper signal than weapon the
    rare mimic free-rides on the model's costly honest signal.
    """
    f = mimic_frequency(p)
    expected = f * p.prey_value - (1.0 - f) * p.venom_cost
    attack = 1.0 if expected > 0.0 else 0.0
    survives = 1.0 - attack
    return MimicryPayoffs(
        attack_probability=attack,
        mimic_net_payoff=survives * p.prey_value - p.mimic_signal_cost,
        model_net_payoff=survives * p.prey_value - p.model_weapon_cost,
        predator_expected_payoff=expected,
    )

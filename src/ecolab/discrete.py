"""Discrete-generation antagonistic dynamics.

The classical host-parasitoid map for non-overlapping generations plus a
generic map-iteration driver that shares the Trajectory type with the
continuous module (generation indices are stored as real times so one
CSV/plot path serves both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Trajectory, _count

__all__ = [
    "NicholsonBaileyParams",
    "nicholson_bailey_step",
    "nicholson_bailey_equilibrium",
    "nicholson_bailey_map",
    "iterate_map",
]


@dataclass(frozen=True)
class NicholsonBaileyParams:
    """Host-parasitoid map parameters.

    H' = growth_factor * H * exp(-search_efficiency * P)
    P' = conversion * H * (1 - exp(-search_efficiency * P))

    A coexistence fixed point exists only for growth_factor > 1.
    """

    growth_factor: float
    search_efficiency: float
    conversion: float

    def __post_init__(self) -> None:
        for name in ("growth_factor", "search_efficiency", "conversion"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite value > 0, got {value!r}")


def nicholson_bailey_step(
    host: float, parasitoid: float, p: NicholsonBaileyParams
) -> tuple[float, float]:
    """Advance host and parasitoid densities by one generation."""
    if not (math.isfinite(host) and math.isfinite(parasitoid)):
        raise ValueError("densities must be finite")
    if host < 0 or parasitoid < 0:
        raise ValueError("densities must be >= 0")
    escaped = math.exp(-p.search_efficiency * parasitoid)
    return (
        p.growth_factor * host * escaped,
        p.conversion * host * (1.0 - escaped),
    )


def nicholson_bailey_equilibrium(p: NicholsonBaileyParams) -> tuple[float, float]:
    """Coexistence fixed point (H*, P*); requires growth_factor > 1.

    H* = R ln(R) / (a c (R - 1)) and P* = ln(R) / a with
    R = growth_factor, a = search_efficiency, c = conversion.
    """
    r = p.growth_factor
    if r <= 1.0:
        raise ValueError("coexistence equilibrium requires growth_factor > 1")
    p_star = math.log(r) / p.search_efficiency
    h_star = r * math.log(r) / (p.search_efficiency * p.conversion * (r - 1.0))
    return h_star, p_star


def nicholson_bailey_map(p: NicholsonBaileyParams) -> Callable[[Sequence[float]], tuple[float, float]]:
    """Step function over (host, parasitoid) state tuples for iterate_map."""

    def step(state: Sequence[float]) -> tuple[float, float]:
        return nicholson_bailey_step(state[0], state[1], p)

    return step


def iterate_map(
    step_fn: Callable[[Sequence[float]], Sequence[float]],
    initial: Sequence[float],
    n_generations: int,
    variable_names: Sequence[str] | None = None,
) -> Trajectory:
    """Iterate a map for n generations; times are the indices 0..n.

    Raises ValueError (naming the generation) if the step function ever
    returns a non-finite value, and if any state, the initial one
    included, holds a negative density.
    """
    n_generations = _count("n_generations", n_generations, 0)
    state = tuple(float(v) for v in initial)
    if variable_names is None:
        variable_names = tuple(f"x{k}" for k in range(len(state)))
    rows = [state]
    for generation in range(n_generations):
        state = tuple(float(v) for v in step_fn(state))
        if not all(math.isfinite(v) for v in state):
            raise ValueError(f"step function returned a non-finite value at generation {generation + 1}")
        rows.append(state)
    values = np.array(rows, dtype=float)
    if np.any(values < 0):
        raise ValueError("trajectory values must be >= 0")
    return Trajectory(tuple(variable_names), np.arange(len(rows), dtype=float), values)

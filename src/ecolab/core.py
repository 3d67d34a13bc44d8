"""Shared domain types, the continuum dial and scenario validation.

Everything here is a passive container: the dynamics live in the
`continuous`, `discrete` and `epidemic` modules.  The one derivation is
the mutualism-parasitism dial: `continuum_interaction` turns a
`ContinuumParams` into the `InteractionSpec` that carries it, and
`validate_scenario` derives it again to check each such entry.  The
dataclasses are frozen and `Trajectory` holds read-only copies of its
arrays, but `Scenario.initial_densities` stays a plain, mutable dict.

Units are dimensionless throughout (both time and density).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "InteractionKind",
    "Role",
    "SpeciesSpec",
    "LinearResponse",
    "HollingTypeII",
    "IvlevResponse",
    "FunctionalResponse",
    "InteractionSpec",
    "ContinuumParams",
    "continuum_interaction",
    "IntegratorConfig",
    "Scenario",
    "Trajectory",
    "ScenarioValidationError",
    "validate_scenario",
]


class Role(str, Enum):
    """Where a species sits in the flow of resources."""

    PRODUCER = "producer"
    CONSUMER = "consumer"


class InteractionKind(str, Enum):
    """Pairwise interaction vocabulary with a fixed sign structure.

    predation / parasitism: (+) to the aggressor, (-) to the victim.
    competition: (-, -).  symbiosis / cooperation: (+, +).
    sexual: within-species only; it is handled exclusively by the
    `selection` module and is rejected inside a community matrix.
    """

    PREDATION = "predation"
    PARASITISM = "parasitism"
    COMPETITION = "competition"
    SYMBIOSIS = "symbiosis"
    COOPERATION = "cooperation"
    SEXUAL = "sexual"


#: Kinds whose victim-side loss runs through a functional response.
TROPHIC_KINDS = frozenset({InteractionKind.PREDATION, InteractionKind.PARASITISM})


@dataclass(frozen=True)
class SpeciesSpec:
    """One species of a community scenario.

    `growth_rate` is the intrinsic per-capita rate: producers grow at
    +growth_rate, consumers decline at -growth_rate when left alone.
    `self_limitation` is the logistic crowding coefficient (0 disables it).
    """

    id: str
    name: str = ""
    role: Role = Role.PRODUCER
    trophic_level: int = 0
    growth_rate: float = 0.0
    self_limitation: float = 0.0


@dataclass(frozen=True)
class LinearResponse:
    """Mass-action encounter: consumption per predator is rate * prey."""

    rate: float


@dataclass(frozen=True)
class HollingTypeII:
    """Saturating response with handling time: rate*x / (1 + rate*handling*x).

    With handling == 0 this degenerates to LinearResponse(rate).
    """

    rate: float
    handling: float


@dataclass(frozen=True)
class IvlevResponse:
    """Exponentially saturating response: rate * (1 - exp(-saturation*x))."""

    rate: float
    saturation: float


FunctionalResponse = Union[LinearResponse, HollingTypeII, IvlevResponse]


@dataclass(frozen=True)
class InteractionSpec:
    """One undirected pair entry of the community matrix.

    Conventions, fixed so a two-species predation entry reduces to the
    classical predator-prey equations:

    * For predation/parasitism, `species_i` is the aggressor and
      `species_j` the victim.  The victim's loss is set entirely by the
      functional response; `coeff_i` is the aggressor's conversion
      efficiency and `coeff_j` must stay 0.
    * For competition, `coeff_i`/`coeff_j` are the rates at which each
      side suffers from the joint encounter term.
    * For symbiosis/cooperation, they are the rates at which each side
      benefits.

    Entries produced by `continuum_interaction` carry their
    mutualism-parasitism dial in `continuum_alpha`/`continuum_strength`
    so that parameter sweeps can re-derive the entry.  The dial is what
    a document stores, so `validate_scenario` requires an entry that
    carries one to equal the entry its dial derives.
    """

    species_i: str
    species_j: str
    kind: InteractionKind
    coeff_i: float = 0.0
    coeff_j: float = 0.0
    response: FunctionalResponse = LinearResponse(0.0)
    continuum_alpha: float | None = None
    continuum_strength: float | None = None


@dataclass(frozen=True)
class ContinuumParams:
    """Dial for the mutualism-parasitism continuum of one species pair.

    alpha = +1 is pure mutualism (+, +), alpha = -1 pure parasitism
    (+ to the beneficiary, - to the partner), 0 is commensalism.  The
    mutualistic end diverges without crowding, so `validate_scenario`
    also requires positive self-limitation on both species of the pair.
    """

    alpha: float
    base_strength: float

    def __post_init__(self) -> None:
        if not (_finite(self.alpha) and -1.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [-1, 1], got {self.alpha!r}")
        if not (_finite(self.base_strength) and self.base_strength > 0):
            raise ValueError("base_strength must be > 0")
        # continuum_interaction stores a negative alpha as 1/|alpha| and |alpha|*base_strength
        if self.alpha < 0.0 and (math.isinf(1.0 / -self.alpha) or -self.alpha * self.base_strength == 0.0):
            raise ValueError(
                f"alpha {self.alpha!r} is too close to 0 for base_strength {self.base_strength!r}: "
                "1/|alpha| overflows or |alpha|*base_strength underflows to 0"
            )


def continuum_interaction(species_i: str, species_j: str, p: ContinuumParams) -> InteractionSpec:
    """Community-matrix entry for one pair on the mutualism-parasitism dial.

    Species i is the fixed beneficiary: it always gains
    base_strength * x_i * x_j.  The partner's term interpolates linearly
    from +base_strength (alpha = 1) through 0 (commensalism at alpha = 0)
    to -base_strength (alpha = -1).

    Nonnegative alpha is stored as a symbiosis entry.  Negative alpha
    becomes a parasitism entry whose victim-side harm rate
    |alpha|*base_strength lives in the linear response, with the
    conversion coefficient 1/|alpha| restoring the beneficiary's gain.
    """
    s = p.base_strength
    if p.alpha >= 0.0:
        return InteractionSpec(
            species_i=species_i,
            species_j=species_j,
            kind=InteractionKind.SYMBIOSIS,
            coeff_i=s,
            coeff_j=p.alpha * s,
            continuum_alpha=p.alpha,
            continuum_strength=s,
        )
    harm = -p.alpha * s
    return InteractionSpec(
        species_i=species_i,
        species_j=species_j,
        kind=InteractionKind.PARASITISM,
        coeff_i=1.0 / -p.alpha,
        coeff_j=0.0,
        response=LinearResponse(harm),
        continuum_alpha=p.alpha,
        continuum_strength=s,
    )


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical integration settings for community scenarios.

    `step` is the fixed step for rk4_fixed and the initial step for
    rk45_adaptive.  Densities that drop below `extinction_epsilon` are
    clamped to exactly 0 and reported as extinctions, which keeps
    negative-density drift out of long integrations.
    """

    method: str = "rk4_fixed"
    step: float = 0.01
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    extinction_epsilon: float = 1e-9


METHODS = ("rk4_fixed", "rk45_adaptive")


@dataclass(frozen=True)
class Scenario:
    """A complete declarative description of one community simulation.

    The order in which species are declared fixes the column layout of
    every state vector, trajectory and CSV produced from the scenario.
    """

    species: tuple[SpeciesSpec, ...]
    interactions: tuple[InteractionSpec, ...]
    initial_densities: dict[str, float]
    integrator: IntegratorConfig = IntegratorConfig()
    horizon: float = 100.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "species", tuple(self.species))
        object.__setattr__(self, "interactions", tuple(self.interactions))
        object.__setattr__(self, "initial_densities", dict(self.initial_densities))

    @property
    def species_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.species)

    def species_by_id(self, species_id: str) -> SpeciesSpec:
        for s in self.species:
            if s.id == species_id:
                return s
        raise KeyError(species_id)

    def initial_state(self) -> np.ndarray:
        """Initial densities as a vector in declaration order."""
        return np.array(
            [self.initial_densities[s.id] for s in self.species], dtype=float
        )


class ScenarioValidationError(ValueError):
    """Raised with the complete list of invariant violations found."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _count(name: str, value, minimum: int) -> int:
    """A count argument as an int >= minimum; an integer type such as numpy's passes, 2.5 or 2.0 does not."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def _response_errors(response: FunctionalResponse, where: str) -> list[str]:
    if not isinstance(response, FunctionalResponse):
        return [f"{where}: unknown functional response {response!r}"]
    errors = []
    for f in fields(response):
        value = getattr(response, f.name)
        if not _finite(value) or value < 0:
            errors.append(f"{where}: response {f.name} must be a finite value >= 0")
    return errors


def validate_scenario(scenario: Scenario) -> Scenario:
    """Check every type invariant and return the scenario unchanged.

    All violations are collected before raising, so one failed run names
    everything that needs fixing.  Validating an already valid scenario
    is a no-op and returns the identical object.

    Raises:
        ScenarioValidationError: with the full list of violations.
    """
    errors: list[str] = []
    if not scenario.species:
        errors.append("scenario needs at least one species")
    ids: dict[str, None] = {}  # declaration order, for the messages
    for sp in scenario.species:
        if not sp.id:
            errors.append("species id must not be empty")
        if sp.id in ids:
            errors.append(f"duplicate species id '{sp.id}'")
        ids[sp.id] = None
        if sp.role == Role.PRODUCER and sp.trophic_level != 0:
            errors.append(f"producer '{sp.id}' must have trophic_level 0")
        if sp.trophic_level < 0:
            errors.append(f"species '{sp.id}' has negative trophic_level")
        if not _finite(sp.growth_rate):
            errors.append(f"species '{sp.id}' has non-finite growth rate")
        if not _finite(sp.self_limitation) or sp.self_limitation < 0:
            errors.append(f"species '{sp.id}' needs self_limitation >= 0 and finite")

    for sp_id in ids:
        if sp_id not in scenario.initial_densities:
            errors.append(f"missing initial density for '{sp_id}'")
    for sp_id, density in scenario.initial_densities.items():
        if sp_id not in ids:
            errors.append(f"dangling reference: initial density for unknown species '{sp_id}'")
        if not _finite(density) or density < 0:
            errors.append(f"negative density for '{sp_id}'" if _finite(density) else f"non-finite density for '{sp_id}'")

    pairs: set[frozenset[str]] = set()
    for entry in scenario.interactions:
        label = f"interaction {entry.species_i}:{entry.species_j}"
        if entry.species_i == entry.species_j:
            errors.append(f"self-interaction entry for '{entry.species_i}'")
            continue
        for sp_id in (entry.species_i, entry.species_j):
            if sp_id not in ids:
                errors.append(f"dangling reference: {label} names unknown species '{sp_id}'")
        pair = frozenset((entry.species_i, entry.species_j))
        if pair in pairs:
            errors.append(f"duplicate {label}: at most one entry per unordered pair")
        pairs.add(pair)
        if entry.kind == InteractionKind.SEXUAL:
            errors.append(
                f"{label}: sexual interactions are within-species and belong to a selection document"
            )
            continue
        for side, coeff in (("coeff_i", entry.coeff_i), ("coeff_j", entry.coeff_j)):
            if not _finite(coeff) or coeff < 0:
                errors.append(f"{label}: {side} must be a finite value >= 0")
        if entry.kind in TROPHIC_KINDS:
            if entry.coeff_j != 0.0:
                errors.append(
                    f"{label}: victim-side coefficient must be 0 for {entry.kind.value} "
                    "(the loss is set by the functional response)"
                )
            errors.extend(_response_errors(entry.response, label))
        if entry.continuum_alpha is not None or entry.continuum_strength is not None:
            try:
                dial = ContinuumParams(entry.continuum_alpha, entry.continuum_strength)
            except ValueError as exc:
                errors.append(f"{label}: {exc}")
            else:
                if continuum_interaction(entry.species_i, entry.species_j, dial) != entry:
                    errors.append(f"{label}: entry differs from what its continuum dial derives")
            for sp_id in (entry.species_i, entry.species_j):
                if sp_id in ids and scenario.species_by_id(sp_id).self_limitation <= 0:
                    errors.append(
                        f"{label}: continuum interaction requires positive self_limitation on '{sp_id}'"
                    )

    if not _finite(scenario.horizon) or scenario.horizon <= 0:
        errors.append("horizon must be > 0")

    cfg = scenario.integrator
    if cfg.method not in METHODS:
        errors.append(f"unknown integrator method '{cfg.method}' (choose from {', '.join(METHODS)})")
    if not _finite(cfg.step) or cfg.step <= 0:
        errors.append("integrator step must be > 0")
    for name, tol in (("rel_tol", cfg.rel_tol), ("abs_tol", cfg.abs_tol)):
        if not _finite(tol) or tol <= 0:
            errors.append(f"integrator {name} must be > 0")
    if not _finite(cfg.extinction_epsilon) or cfg.extinction_epsilon < 0:
        errors.append("extinction_epsilon must be >= 0")

    if errors:
        raise ScenarioValidationError(errors)
    return scenario


@dataclass(frozen=True)
class Trajectory:
    """Named variables sampled at times from 0, one column per variable.

    Every sampled run is one: community densities, epidemic fractions,
    host-parasitoid generations and trait means, which may be negative.
    The invariants (at least one variable, distinct non-empty names, at
    least one sample, matching shapes, finite and strictly increasing
    times starting at 0, finite values) are enforced here so that every
    trajectory is safe to serialize or plot as-is; ranges are the
    producers' business.
    """

    variable_names: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.variable_names)
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if not names:
            raise ValueError("trajectory needs at least one variable")
        if "" in names:
            raise ValueError("variable names must not be empty")
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct, got {names}")
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if values.shape != (times.shape[0], len(names)):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"{times.shape[0]} samples x {len(names)} variables"
            )
        if times.shape[0] == 0:
            raise ValueError("trajectory needs at least one sample")
        if times[0] != 0.0:
            raise ValueError("times must start at 0")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.isfinite(times[-1]):  # the largest; nan already failed the order check
            raise ValueError("times must be finite")
        if not np.all(np.isfinite(values)):
            raise ValueError("trajectory values must be finite")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.variable_names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable '{name}'") from None
        return self.values[:, idx]

    def final_state(self) -> np.ndarray:
        return self.values[-1].copy()

"""Continuous-time community dynamics.

The classical two-species predator-prey system, its multi-species
extension over the full interaction vocabulary, functional responses,
and the fixed/adaptive Runge-Kutta integrators that drive them through
the compiled kernel of `_kernel`.  The mutualism-parasitism dial lives
in `core`, beside the `InteractionSpec` fields it fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._kernel import _Kernel, _kernel, _response_fn
from .core import (
    FunctionalResponse,
    IntegratorConfig,
    InteractionKind,
    InteractionSpec,
    LinearResponse,
    Role,
    Scenario,
    SpeciesSpec,
    Trajectory,
)

__all__ = [
    "LotkaVolterraParams",
    "lv_derivative",
    "lv_equilibrium",
    "lv_first_integral",
    "lv_scenario",
    "functional_response",
    "community_rhs",
    "glv_derivative",
    "IntegrationResult",
    "integrate",
    "integrate_report",
    "DivergenceError",
    "StepSizeUnderflowError",
    "NonFiniteDerivativeError",
    "DIVERGENCE_LIMIT",
]

#: Integration aborts once any density exceeds this bound (unbounded
#: mutualism without self-limitation is the textbook way to get here).
DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """A density ran away past DIVERGENCE_LIMIT."""

    def __init__(self, time: float, state: np.ndarray):
        self.time = time
        self.state = np.asarray(state)
        super().__init__(f"divergence at t={time:g}: state={np.asarray(state)}")


class StepSizeUnderflowError(RuntimeError):
    """The adaptive controller could not find an acceptable step."""


class NonFiniteDerivativeError(RuntimeError):
    """The right-hand side produced NaN or infinity."""

    def __init__(self, time: float, state: np.ndarray):
        self.time = time
        self.state = np.asarray(state)
        super().__init__(f"non-finite derivative at t={time:g}: state={np.asarray(state)}")


@dataclass(frozen=True)
class LotkaVolterraParams:
    """Parameters of the classical predator-prey pair.

    dx/dt = prey_growth*x - encounter_rate*x*y
    dy/dt = -predator_decline*y + predator_gain*x*y
    """

    prey_growth: float
    encounter_rate: float
    predator_decline: float
    predator_gain: float

    def __post_init__(self) -> None:
        for name in ("prey_growth", "encounter_rate", "predator_decline", "predator_gain"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite value > 0, got {value!r}")


def _check_density(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def lv_derivative(x: float, y: float, p: LotkaVolterraParams) -> tuple[float, float]:
    """Vector field of the two-species predator-prey system.

    The terms are evaluated in the same grouping that the generalized
    community derivative uses, so the two agree bit for bit on the
    matching configuration.
    """
    x = _check_density("prey density", x)
    y = _check_density("predator density", y)
    dx = p.prey_growth * x - p.encounter_rate * x * y
    dy = -p.predator_decline * y + p.predator_gain * x * y
    return dx, dy


def lv_equilibrium(p: LotkaVolterraParams) -> tuple[float, float]:
    """Interior coexistence equilibrium (prey, predator)."""
    return p.predator_decline / p.predator_gain, p.prey_growth / p.encounter_rate


def lv_first_integral(x: float, y: float, p: LotkaVolterraParams) -> float:
    """Conserved quantity of the predator-prey flow.

    V(x, y) = predator_gain*x - predator_decline*ln(x)
              + encounter_rate*y - prey_growth*ln(y)

    V is constant along exact orbits and attains its global minimum over
    the open positive quadrant at the interior equilibrium, which makes
    it the natural drift oracle for integrator accuracy checks.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("densities must be finite")
    if x <= 0 or y <= 0:
        raise ValueError("first integral requires x > 0 and y > 0")
    return (
        p.predator_gain * x
        - p.predator_decline * math.log(x)
        + p.encounter_rate * y
        - p.prey_growth * math.log(y)
    )


def functional_response(fr: FunctionalResponse, x: float) -> float:
    """Per-predator consumption rate at prey density x.

    All variants are 0 at x = 0 and monotone non-decreasing in x.
    """
    x = _check_density("prey density", x)
    return _response_fn(fr)(x)


def community_rhs(scenario: Scenario) -> Callable[[Sequence[float]], list[float]]:
    """Compile the scenario into a derivative function over state vectors.

    Each species i follows

        dx_i/dt = (+-) r_i x_i - s_i x_i^2 + coupling terms,

    with + for producers and - for consumers.  Predation and parasitism
    subtract response(x_victim) * x_aggressor from the victim and add
    conversion * response(x_victim) * x_aggressor to the aggressor;
    competition subtracts and symbiosis/cooperation adds the mass-action
    term coeff * x_i * x_j on each side with its own coefficient.

    The compiled function takes a sequence of exactly one Python float
    per species and returns a list of floats; callers that hold arrays
    convert at the boundary.  Terms are added in a fixed order (growth,
    self-limitation, trophic entries in declaration order, then
    mass-action entries).  Scenarios of the same structure share one
    compiled code object.

    On a two-species predation pair with a linear response and no
    self-limitation this reproduces `lv_derivative` exactly.  The scenario
    is validated first, as `integrate_report` does.
    """
    return _kernel(scenario).rhs


def glv_derivative(state: Sequence[float], scenario: Scenario) -> np.ndarray:
    """Generalized community derivative at one state vector."""
    state = np.asarray(state, dtype=float)
    if state.shape != (len(scenario.species),):
        raise ValueError(
            f"state has {state.shape[0] if state.ndim == 1 else state.shape} entries, "
            f"scenario declares {len(scenario.species)} species"
        )
    if np.any(state < 0):
        raise ValueError("state densities must be >= 0")
    return np.asarray(community_rhs(scenario)(state.tolist()))


@dataclass(frozen=True)
class IntegrationResult:
    """Trajectory plus the bookkeeping the run produced."""

    trajectory: Trajectory
    extinctions: tuple[tuple[str, float], ...] = ()


def _clamp_extinctions(state, t, epsilon, names, first):
    """Clamp sub-epsilon or negative densities to exactly 0; `first` keeps each species' first clamp time."""
    for k, v in enumerate(state):
        if v != 0.0 and v < epsilon:
            state[k] = 0.0
            first.setdefault(names[k], t)


def _all_finite(values) -> bool:
    # a finite sum proves every term finite; an overflowing sum falls back to the per-value test
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _max_exceeds(values, bound: float) -> bool:
    """np.max(values) > bound: a NaN anywhere makes the maximum NaN, which exceeds nothing."""
    return max(values) > bound and not any(map(math.isnan, values))


def _min_below(values, bound: float) -> bool:
    """np.min(values) < bound, with the same NaN rule as `_max_exceeds`."""
    return min(values) < bound and not any(map(math.isnan, values))


def _rms(values: list[float]) -> float:
    """float(np.sqrt(np.mean([v * v for v in values]))), bit for bit.

    numpy sums fewer than eight terms one after another, so those are added
    here in a plain loop (not `sum`, which compensates from Python 3.12 on);
    from eight terms on numpy adds in its own pairwise order.
    """
    n = len(values)
    if n >= 8:
        return float(np.sqrt(np.mean([v * v for v in values])))
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total / n)


#: Steps (horizon / step) an RK4 run may make.  The run keeps every state in
#: one float64 buffer and builds its time grid first, so this bounds its memory
#: (8*n MB for n species at the budget) and time before a step is made: a
#: horizon of 1e300 would otherwise ask for about 1e302 samples.
_RK4_STEP_BUDGET = 1_000_000


def _integrate_rk4(run, y, cfg, horizon, settle):
    """Fixed-step RK4 through a kernel's compiled step loop `run`: times and flat states.

    The states are one flat float64 buffer, allocated once for the run's
    n_steps + 1 states; `run` (a kernel's `rk4_run`) writes each through a
    memoryview at the offsets its `count` gives, n apart: the full steps,
    then the remainder step that ends on the horizon.  A state it refuses
    raises if a stage was non-finite, or is settled, written and run from.
    """
    h = cfg.step
    if not horizon / h <= _RK4_STEP_BUDGET:  # an overflowing quotient is inf
        raise ValueError(f"rk4_fixed horizon / step must be <= {_RK4_STEP_BUDGET} steps, got {horizon / h:g}")
    n_full = int(math.floor(horizon / h + 1e-9))
    remainder = horizon - n_full * h
    if remainder < 1e-12 * max(1.0, horizon):
        remainder = 0.0
    n_steps = n_full + (remainder > 0.0)
    times = np.arange(n_steps + 1) * h  # bit-equal to [k * h for k in range(n_steps + 1)]
    if n_steps:
        times[-1] = horizon
    epsilon = cfg.extinction_epsilon
    n = len(y)
    flat = np.empty((n_steps + 1) * n)
    flat[:n] = y
    view = memoryview(flat)
    k = 0
    while k < n_steps:
        hk, end = (h, n_full) if k < n_full else (remainder, n_steps)
        half, sixth = 0.5 * hk, hk / 6.0
        refused = run(y, hk, half, sixth, range((k + 1) * n, (end + 1) * n, n), epsilon, DIVERGENCE_LIMIT, view)
        if refused is None:
            k = end
            y = view[k * n : (k + 1) * n].tolist()
            continue
        offset, y_next, stages_finite = refused
        k = offset // n - 1
        # a non-finite stage makes the new state non-finite, so only a refused step can have one
        if not stages_finite:
            raise NonFiniteDerivativeError(k * h, view[offset - n : offset].tolist())
        settle(y_next, float(times[k + 1]))
        flat[offset : offset + n] = y_next
        y = y_next
        k += 1
    return times, flat


# Runge-Kutta-Fehlberg 4(5) tableau, without the nodes c: the derivative does not depend on t.
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)

#: Attempted RKF45 steps (accepted, rejected and halved) before a run is
#: given up.  A finite-time blow-up can hold the controller at a tiny but
#: acceptable step indefinitely, far above the underflow floor.
_RK45_STEP_BUDGET = 50_000


def _integrate_rk45(f, y, cfg, horizon, settle):
    """Adaptive RKF45 through the derivative f: times and flat states, each accepted one settled first."""
    t = 0.0
    h = min(cfg.step, horizon)
    epsilon = cfg.extinction_epsilon
    times = [0.0]
    out = list(y)
    err_prev = 1.0
    attempts = 0
    while t < horizon * (1.0 - 1e-14):
        h = min(h, horizon - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(f"step size underflow at t={t:g}")
        if attempts == _RK45_STEP_BUDGET:
            raise StepSizeUnderflowError(
                f"step budget of {_RK45_STEP_BUDGET} attempted steps spent at t={t:g}, h={h:g}"
            )
        attempts += 1
        ks = []
        for row in _RKF_A:
            ys = y
            for a, k in zip(row, ks):
                ha = h * a
                ys = [v + ha * d for v, d in zip(ys, k)]
            k = f(ys)
            if not _all_finite(k):
                raise NonFiniteDerivativeError(t, ys)
            ks.append(k)
        y5 = y
        y4 = y
        for b5, b4, k in zip(_RKF_B5, _RKF_B4, ks):
            hb5, hb4 = h * b5, h * b4
            y5 = [v + hb5 * d for v, d in zip(y5, k)]
            y4 = [v + hb4 * d for v, d in zip(y4, k)]
        if _min_below(y5, -epsilon):
            h *= 0.5
            continue
        scaled = [
            (v5 - v4) / (cfg.abs_tol + cfg.rel_tol * max(abs(v), abs(v5)))
            for v, v5, v4 in zip(y, y5, y4)
        ]
        err = _rms(scaled)
        if err <= 1.0:
            t = t + h
            y = y5
            settle(y, t)
            times.append(t)
            out.extend(y)
            factor = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, factor))
    if times[-1] != horizon:
        times[-1] = horizon
    return times, out


def integrate_report(scenario: Scenario) -> IntegrationResult:
    """Integrate a scenario, validated first, and report extinctions alongside.

    Samples sit at the integrator's accepted steps (every `step` for
    rk4_fixed, the accepted adaptive steps plus the horizon endpoint for
    rk45_adaptive).  The run is deterministic for identical inputs.
    Clamping every density below `extinction_epsilon` to 0 keeps the
    samples nonnegative.
    """
    return _integrate_report(scenario, _kernel(scenario))


def _integrate_report(scenario: Scenario, kernel: _Kernel) -> IntegrationResult:
    """`integrate_report` of a validated scenario through its bound kernel.

    It owns the extinction record and the settle step, which clamps each
    state `rk4_run` refuses or RKF45 accepts, records first clamps and
    raises `DivergenceError` past `DIVERGENCE_LIMIT`.  States come flat.
    """
    y0 = scenario.initial_state().tolist()
    names = scenario.species_ids
    cfg = scenario.integrator
    first: dict[str, float] = {}  # each species' first clamp time, in clamp order

    def settle(y, t):
        _clamp_extinctions(y, t, cfg.extinction_epsilon, names, first)
        if _max_exceeds(y, DIVERGENCE_LIMIT):
            raise DivergenceError(t, y)

    _clamp_extinctions(y0, 0.0, cfg.extinction_epsilon, names, first)
    if cfg.method == "rk4_fixed":
        times, flat = _integrate_rk4(kernel.rk4_run, y0, cfg, scenario.horizon, settle)
    else:
        times, flat = _integrate_rk45(kernel.rhs, y0, cfg, scenario.horizon, settle)
    trajectory = Trajectory(names, times, np.asarray(flat).reshape(-1, len(names)))
    return IntegrationResult(trajectory=trajectory, extinctions=tuple(first.items()))


def integrate(scenario: Scenario) -> Trajectory:
    """Integrate a validated scenario; see `integrate_report` for details."""
    return integrate_report(scenario).trajectory


def lv_scenario(
    p: LotkaVolterraParams,
    initial: tuple[float, float],
    horizon: float = 100.0,
    prey_id: str = "prey",
    predator_id: str = "predator",
) -> Scenario:
    """Two-species community scenario equivalent to the classical pair, as RK4 with step 0.01.

    The predator's gain coefficient factors as conversion * encounter.
    The conversion stored here is the float quotient, so the scenario
    reproduces `lv_derivative` to roundoff; for bit-exact reduction pick
    parameters whose conversion is a power of two.
    """
    conversion = p.predator_gain / p.encounter_rate
    return Scenario(
        species=(
            SpeciesSpec(id=prey_id, role=Role.PRODUCER, growth_rate=p.prey_growth),
            SpeciesSpec(
                id=predator_id, role=Role.CONSUMER, trophic_level=1, growth_rate=p.predator_decline
            ),
        ),
        interactions=(
            InteractionSpec(
                species_i=predator_id,
                species_j=prey_id,
                kind=InteractionKind.PREDATION,
                coeff_i=conversion,
                response=LinearResponse(p.encounter_rate),
            ),
        ),
        initial_densities={prey_id: initial[0], predator_id: initial[1]},
        integrator=IntegratorConfig(method="rk4_fixed", step=0.01),
        horizon=horizon,
    )

"""Shared scenario builders and reference implementations for the test suite."""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import replace
from xml.sax.saxutils import escape

import numpy as np
from hypothesis import strategies as st

from ecolab import (
    DivergenceError,
    EpidemicKind,
    EpidemicModel,
    Graph,
    HollingTypeII,
    IntegrationResult,
    IntegratorConfig,
    InteractionKind,
    InteractionSpec,
    IvlevResponse,
    LinearResponse,
    NonFiniteDerivativeError,
    PrevalenceTrajectory,
    Role,
    Scenario,
    SpeciesSpec,
    StepSizeUnderflowError,
    Trajectory,
    validate_scenario,
)
from ecolab.analysis import (
    _DEDUPE_TOL,
    _MAX_ITERATIONS,
    _RESIDUAL_TOL,
    _SOLVE_ERRSTATE,
    _as_classical_pair,
    _central_jacobian,
)
from ecolab._kernel import _solve1
from ecolab.continuous import _RK45_STEP_BUDGET, DIVERGENCE_LIMIT, _all_finite
from ecolab.core import METHODS, TROPHIC_KINDS, ContinuumParams, continuum_interaction
from ecolab.scenario_io import _split_path
from ecolab.selection import TRAIT_NAMES, SelectionState, _vector3
from ecolab.svg import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, PALETTE, WIDTH, _fmt, _nice_step


def predation_scenario(
    prey_growth=1.0,
    encounter=0.1,
    predator_decline=0.5,
    conversion=0.2,
    initial=(30.0, 8.0),
    horizon=10.0,
    step=0.01,
    method="rk4_fixed",
) -> Scenario:
    return Scenario(
        species=(
            SpeciesSpec(id="prey", role=Role.PRODUCER, growth_rate=prey_growth),
            SpeciesSpec(id="pred", role=Role.CONSUMER, trophic_level=1, growth_rate=predator_decline),
        ),
        interactions=(
            InteractionSpec(
                species_i="pred",
                species_j="prey",
                kind=InteractionKind.PREDATION,
                coeff_i=conversion,
                response=LinearResponse(encounter),
            ),
        ),
        initial_densities={"prey": initial[0], "pred": initial[1]},
        integrator=IntegratorConfig(method=method, step=step),
        horizon=horizon,
    )


def single_species(growth=1.0, limit=0.0, initial=5.0, role=Role.PRODUCER, horizon=10.0, step=0.01) -> Scenario:
    return Scenario(
        species=(SpeciesSpec(id="only", role=role, growth_rate=growth, self_limitation=limit),),
        interactions=(),
        initial_densities={"only": initial},
        integrator=IntegratorConfig(step=step),
        horizon=horizon,
    )


def chain_scenario(initial=(6.0, 2.0, 1.0), horizon=60.0) -> Scenario:
    """Three-level chain with a positive interior equilibrium."""
    return Scenario(
        species=(
            SpeciesSpec(id="plant", role=Role.PRODUCER, growth_rate=1.0, self_limitation=0.1),
            SpeciesSpec(id="grazer", role=Role.CONSUMER, trophic_level=1, growth_rate=0.2, self_limitation=0.05),
            SpeciesSpec(id="top", role=Role.CONSUMER, trophic_level=2, growth_rate=0.1, self_limitation=0.05),
        ),
        interactions=(
            InteractionSpec(
                species_i="grazer",
                species_j="plant",
                kind=InteractionKind.PREDATION,
                coeff_i=0.5,
                response=LinearResponse(0.2),
            ),
            InteractionSpec(
                species_i="top",
                species_j="grazer",
                kind=InteractionKind.PREDATION,
                coeff_i=0.4,
                response=LinearResponse(0.25),
            ),
        ),
        initial_densities={"plant": initial[0], "grazer": initial[1], "top": initial[2]},
        integrator=IntegratorConfig(step=0.01),
        horizon=horizon,
    )


def chain_equilibrium_oracle() -> np.ndarray:
    """Interior equilibrium of chain_scenario from a direct linear solve.

    Per-capita balance of the chain gives a linear system in the three
    densities; solving it is independent of the Newton path under test.
    """
    a = np.array(
        [
            [-0.1, -0.2, 0.0],
            [0.5 * 0.2, -0.05, -0.25],
            [0.0, 0.4 * 0.25, -0.05],
        ]
    )
    b = np.array([-1.0, 0.2, 0.1])
    return np.linalg.solve(a, b)


def sis_complete_persistence(n: int, beta: float, gamma: float) -> float:
    """Probability that SIS on the complete graph K_n, started from one
    infected node, reaches n infected before 0.

    On K_n every susceptible has each infected as a neighbour, so the
    infected count I is a birth-death chain on 0..n with rates
    lambda_i = beta * i * (n - i) up and mu_i = gamma * i down, and 0 is
    absorbing.  With rho_k = prod_{i=1..k} mu_i / lambda_i
    = prod_{i=1..k} gamma / (beta * (n - i)), the gambler's-ruin hitting
    probability from I = 1 is 1 / (1 + sum_{k=1..n-1} rho_k).  Once at n
    the chain lingers near its quasi-stationary level for a time that grows
    exponentially in n, so above threshold this is also the probability of
    being alive at any moderate horizon (Nasell 1996).  Computed from the
    rates alone, independent of the simulator under test.
    """
    total = 0.0
    rho = 1.0
    for k in range(1, n):
        rho *= gamma / (beta * (n - k))
        total += rho
    return 1.0 / (1.0 + total)


def binomial_band(n_runs: int, p: float, tail: float) -> tuple[int, int]:
    """Narrowest count band [low, high] of Binomial(n_runs, p) whose lower
    tail P(X < low) and upper tail P(X > high) are each at most `tail`, for 0 < p < 1.

    Each term is taken through logarithms, so that counts in the thousands
    neither overflow the binomial coefficient nor underflow p**k."""
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n_runs + 1)
    pmf = [
        math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n_runs - k + 1) + k * log_p + (n_runs - k) * log_q)
        for k in range(n_runs + 1)
    ]
    low, below = 0, 0.0
    while below + pmf[low] <= tail:
        below += pmf[low]
        low += 1
    high, above = n_runs, 0.0
    while above + pmf[high] <= tail:
        above += pmf[high]
        high -= 1
    return low, high


# Competition at rates of 1e200: Newton's residual norms overflow to inf.
HUGE_RATES = {
    "kind": "community",
    "species": [
        {"id": "a", "role": "producer", "growth_rate": 1e200, "self_limitation": 1e200},
        {"id": "b", "role": "producer", "growth_rate": 1e200, "self_limitation": 1e200},
    ],
    "interactions": [{"species_i": "a", "species_j": "b", "kind": "competition", "coeff_i": 1e200, "coeff_j": 1e200}],
    "initial_densities": {"a": 1.0, "b": 1.0},
    "horizon": 1.0,
}


_RATES = st.floats(0.0, 2.0)
_DENSITIES = st.sampled_from([0.0, 1e-12, 5e-10]) | st.floats(0.1, 10.0)
_RESPONSES = st.one_of(
    st.builds(LinearResponse, _RATES),
    st.builds(HollingTypeII, _RATES, _RATES),
    st.builds(IvlevResponse, _RATES, _RATES),
)
_KINDS = [kind for kind in InteractionKind if kind != InteractionKind.SEXUAL]


@st.composite
def community_scenarios(draw):
    """Communities of 1-5 species over every interaction kind, response and method."""
    n = draw(st.integers(1, 5))
    species = []
    for k in range(n):
        role = draw(st.sampled_from(Role))
        species.append(
            SpeciesSpec(
                id=f"s{k}",
                role=role,
                trophic_level=0 if role == Role.PRODUCER else 1,
                growth_rate=draw(_RATES),
                self_limitation=draw(st.just(0.0) | _RATES),
            )
        )
    interactions = []
    for i, j in itertools.combinations(range(n), 2):
        kind = draw(st.none() | st.sampled_from(_KINDS))
        if kind is None:
            continue
        if draw(st.booleans()):
            i, j = j, i
        if kind in TROPHIC_KINDS:
            entry = InteractionSpec(f"s{i}", f"s{j}", kind, coeff_i=draw(_RATES), response=draw(_RESPONSES))
        else:
            entry = InteractionSpec(f"s{i}", f"s{j}", kind, coeff_i=draw(_RATES), coeff_j=draw(_RATES))
        interactions.append(entry)
    method = draw(st.sampled_from(METHODS))
    return Scenario(
        species=tuple(species),
        interactions=tuple(interactions),
        initial_densities={sp.id: draw(_DENSITIES) for sp in species},
        integrator=IntegratorConfig(method=method, step=draw(st.sampled_from([0.01, 0.07]))),
        horizon=draw(st.sampled_from([0.5, 2.0, 2.05])),
    )


# Reference integration path: the array-based derivative and Runge-Kutta
# loops that the float step loop in ecolab.continuous replaced, kept
# verbatim so equivalence tests can compare the two bit for bit.


def _reference_response_value(fr, x):
    if isinstance(fr, LinearResponse):
        return fr.rate * x
    if isinstance(fr, HollingTypeII):
        try:
            return fr.rate * x / (1.0 + fr.rate * fr.handling * x)
        except ZeroDivisionError:
            return fr.rate * x * math.inf
    if isinstance(fr, IvlevResponse):
        try:
            return fr.rate * (1.0 - math.exp(-fr.saturation * x))
        except OverflowError:
            return fr.rate * -math.inf
    raise TypeError(f"unknown functional response {fr!r}")


def reference_community_rhs(scenario: Scenario):
    index = {sp.id: k for k, sp in enumerate(scenario.species)}
    n = len(scenario.species)
    growth = [
        (sp.growth_rate if sp.role == Role.PRODUCER else -sp.growth_rate)
        for sp in scenario.species
    ]
    limit = [sp.self_limitation for sp in scenario.species]
    trophic = []
    mass_action = []
    for entry in scenario.interactions:
        i, j = index[entry.species_i], index[entry.species_j]
        if entry.kind in TROPHIC_KINDS:
            trophic.append((i, j, entry.coeff_i, entry.response))
        elif entry.kind == InteractionKind.COMPETITION:
            mass_action.append((i, j, -entry.coeff_i, -entry.coeff_j))
        else:
            mass_action.append((i, j, entry.coeff_i, entry.coeff_j))

    def rhs(state: np.ndarray) -> np.ndarray:
        x = [float(v) for v in state]
        d = [0.0] * n
        for k in range(n):
            d[k] = growth[k] * x[k]
            if limit[k] != 0.0:
                d[k] -= limit[k] * x[k] * x[k]
        for agg, victim, conversion, response in trophic:
            consumed = _reference_response_value(response, x[victim])
            d[victim] -= consumed * x[agg]
            d[agg] += conversion * consumed * x[agg]
        for i, j, ci, cj in mass_action:
            d[i] += ci * x[i] * x[j]
            d[j] += cj * x[i] * x[j]
        return np.array(d, dtype=float)

    return rhs


def _clamp_extinctions(state, t, epsilon, names, extinct, extinctions):
    """Clamp sub-epsilon or negative densities to exactly 0, once per species."""
    for k in range(state.shape[0]):
        v = state[k]
        if v != 0.0 and v < epsilon:
            state[k] = 0.0
            if k not in extinct:
                extinct.add(k)
                extinctions.append((names[k], t))


def _rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + (0.5 * h) * k1)
    k3 = f(y + (0.5 * h) * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (k1, k2, k3, k4)


def _integrate_rk4(f, y0, cfg, horizon, names):
    h = cfg.step
    n_full = int(math.floor(horizon / h + 1e-9))
    remainder = horizon - n_full * h
    if remainder < 1e-12 * max(1.0, horizon):
        remainder = 0.0
    extinct: set[int] = set()
    extinctions: list[tuple[str, float]] = []
    y = y0.copy()
    _clamp_extinctions(y, 0.0, cfg.extinction_epsilon, names, extinct, extinctions)
    times = [0.0]
    states = [y.copy()]
    steps = [(k, h) for k in range(n_full)]
    if remainder > 0.0:
        steps.append((n_full, remainder))
    for k, hk in steps:
        t_next = horizon if (hk != h or (k + 1 == n_full and remainder == 0.0)) else (k + 1) * h
        y_next, ks = _rk4_step(f, y, hk)
        for stage in ks:
            if not np.all(np.isfinite(stage)):
                raise NonFiniteDerivativeError(k * h, y)
        _clamp_extinctions(y_next, t_next, cfg.extinction_epsilon, names, extinct, extinctions)
        if np.max(y_next) > DIVERGENCE_LIMIT:
            raise DivergenceError(t_next, y_next)
        times.append(t_next)
        states.append(y_next.copy())
        y = y_next
    return times, states, extinctions


# Runge-Kutta-Fehlberg 4(5) tableau.
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
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


def _integrate_rk45(f, y0, cfg, horizon, names):
    t = 0.0
    y = y0.copy()
    h = min(cfg.step, horizon)
    extinct: set[int] = set()
    extinctions: list[tuple[str, float]] = []
    _clamp_extinctions(y, 0.0, cfg.extinction_epsilon, names, extinct, extinctions)
    times = [0.0]
    states = [y.copy()]
    err_prev = 1.0
    attempts = 0
    while t < horizon * (1.0 - 1e-14):
        h = min(h, horizon - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(f"step size underflow at t={t:g}")
        # added with the same cap on attempted steps as the float path
        if attempts == _RK45_STEP_BUDGET:
            raise StepSizeUnderflowError(
                f"step budget of {_RK45_STEP_BUDGET} attempted steps spent at t={t:g}, h={h:g}"
            )
        attempts += 1
        ks = []
        for s in range(6):
            ys = y.copy()
            for j, a in enumerate(_RKF_A[s]):
                ys = ys + (h * a) * ks[j]
            k = f(ys)
            if not np.all(np.isfinite(k)):
                raise NonFiniteDerivativeError(t, ys)
            ks.append(k)
        y5 = y.copy()
        y4 = y.copy()
        for b5, b4, k in zip(_RKF_B5, _RKF_B4, ks):
            y5 = y5 + (h * b5) * k
            y4 = y4 + (h * b4) * k
        if np.any(y5 < 0.0) and np.min(y5) < -cfg.extinction_epsilon:
            h *= 0.5
            continue
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            t = t + h
            y = y5
            _clamp_extinctions(y, t, cfg.extinction_epsilon, names, extinct, extinctions)
            if np.max(y) > DIVERGENCE_LIMIT:
                raise DivergenceError(t, y)
            times.append(t)
            states.append(y.copy())
            factor = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, factor))
    if times[-1] != horizon:
        times[-1] = horizon
    return times, states, extinctions


def reference_integrate_report(scenario: Scenario, derivative_fn=None) -> IntegrationResult:
    validate_scenario(scenario)
    f = derivative_fn if derivative_fn is not None else reference_community_rhs(scenario)
    y0 = scenario.initial_state()
    names = tuple(sp.id for sp in scenario.species)
    cfg = scenario.integrator
    if cfg.method == "rk4_fixed":
        times, states, extinctions = _integrate_rk4(f, y0, cfg, scenario.horizon, names)
    else:
        times, states, extinctions = _integrate_rk45(f, y0, cfg, scenario.horizon, names)
    trajectory = Trajectory(names, np.array(times), np.array(states))
    return IntegrationResult(trajectory=trajectory, extinctions=tuple(extinctions))


def stagewise_rk4_run(f):
    """An `rk4_run` that makes each step stage by stage through the float derivative `f`.

    It keeps the compiled loop's protocol: one step per item of `count`,
    each new state written through the memoryview `yw` from the offset
    that item gives, and the first state outside `lo <= z <= hi` that is
    not 0.0 returned unwritten, after its offset and before whether every
    stage value is finite.
    """

    def rk4_run(y, h, half, sixth, count, lo, hi, yw):
        for i in count:
            k1 = f(y)
            k2 = f([v + half * d for v, d in zip(y, k1)])
            k3 = f([v + half * d for v, d in zip(y, k2)])
            k4 = f([v + h * d for v, d in zip(y, k3)])
            y = [v + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4) for v, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]
            if not all(lo <= v <= hi or v == 0.0 for v in y):
                return i, y, all(map(math.isfinite, k1 + k2 + k3 + k4))
            for k, v in enumerate(y):
                yw[i + k] = v
        return None

    return rk4_run


# Reference fixed-point search: the array-based damped Newton and
# central-difference Jacobian that the float versions in ecolab.analysis
# replaced, kept verbatim but for the derivative, which is the array
# reference above.


def reference_jacobian_of(fn, point, fd_step=1e-5):
    """Central-difference Jacobian with per-axis step fd_step*max(1, |x_i|)."""
    x = np.asarray(point, dtype=float)
    n = x.shape[0]
    jac = np.empty((n, n))
    for i in range(n):
        h = fd_step * max(1.0, abs(x[i]))
        forward = x.copy()
        backward = x.copy()
        forward[i] += h
        backward[i] -= h
        f_plus = np.asarray(fn(forward), dtype=float)
        f_minus = np.asarray(fn(backward), dtype=float)
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise ValueError(f"non-finite derivative evaluation near axis {i}")
        jac[:, i] = (f_plus - f_minus) / (2.0 * h)
    return jac


def _reference_newton_starts(scenario):
    n = len(scenario.species)
    guesses = []
    for sp in scenario.species:
        if sp.self_limitation > 0 and sp.growth_rate > 0:
            guesses.append(sp.growth_rate / sp.self_limitation)
        else:
            guesses.append(max(scenario.initial_densities.get(sp.id, 1.0), 1.0))
    starts = [np.zeros(n), scenario.initial_state()]
    if n <= 6:
        axes = [(0.1 * g, g, 10.0 * g) for g in guesses]
        starts.extend(np.array(combo) for combo in itertools.product(*axes))
        # boundary candidates: each species absent in turn
        for k in range(n):
            v = np.array(guesses)
            v[k] = 0.0
            starts.append(v)
    else:
        starts.append(np.array(guesses))
    return starts


def reference_find_fixed_points(
    scenario,
    residual_tol=1e-10,
    dedupe_tol=1e-8,
    max_iterations=50,
    extra_starts=None,
):
    validate_scenario(scenario)
    n = len(scenario.species)

    classical = _as_classical_pair(scenario)
    if classical is not None:
        prey_idx, pred_idx, growth, encounter, decline, gain = classical
        interior = np.zeros(n)
        interior[prey_idx] = decline / gain
        interior[pred_idx] = growth / encounter
        return [np.zeros(n), interior]

    f = reference_community_rhs(scenario)
    roots = []
    scale = max(1.0, max((abs(g) for g in scenario.initial_state()), default=1.0))
    converged_any = False
    starts = _reference_newton_starts(scenario)
    if extra_starts is not None:
        starts.extend(np.asarray(s, dtype=float) for s in extra_starts)
    for start in starts:
        x = np.asarray(start, dtype=float).copy()
        ok = False
        for _ in range(max_iterations):
            fx = f(x)
            if not np.all(np.isfinite(fx)):
                break
            norm = np.linalg.norm(fx)
            if norm < residual_tol * 1e-2:
                ok = True
                break
            try:
                jac = reference_jacobian_of(f, x, fd_step=1e-7)
                step = np.linalg.solve(jac, -fx)
            except (np.linalg.LinAlgError, ValueError):
                break
            lam = 1.0
            while lam > 1e-4:
                candidate = x + lam * step
                fc = f(candidate)
                if np.all(np.isfinite(fc)) and np.linalg.norm(fc) < norm:
                    x = candidate
                    break
                lam *= 0.5
            else:
                break
        if not ok:
            fx = f(x)
            ok = np.all(np.isfinite(fx)) and np.linalg.norm(fx) < residual_tol
        if not ok:
            continue
        converged_any = True
        if np.any(x < -1e-9):
            continue
        x = np.where(np.abs(x) < 1e-12, 0.0, np.clip(x, 0.0, None))
        if np.linalg.norm(f(x)) >= residual_tol:
            continue
        if any(np.max(np.abs(x - r)) <= dedupe_tol * scale for r in roots):
            continue
        roots.append(x)
    if not converged_any:
        warnings.warn("Newton iteration did not converge from any starting point", stacklevel=2)
    roots.sort(key=lambda r: tuple(r))
    return roots


# Reference float Newton: the damped Newton of ecolab.analysis before it
# called numpy's solve and norm kernels without their Python wrappers,
# kept verbatim but for its name.  It runs under its caller's errstate:
# find_fixed_points' over="ignore" keeps an overflowing norm quiet.


def reference_newton(rhs, x: list[float]) -> tuple[list[float], bool]:
    """Damped Newton from x: the last iterate and whether its residual norm is below _RESIDUAL_TOL.

    Each iteration solves J step = -f(x) with the central-difference
    Jacobian (fd_step 1e-7) and halves the step, down to 1e-4 of it,
    until the residual norm drops.  Stops early once the norm is below
    _RESIDUAL_TOL * 1e-2.
    """
    for _ in range(_MAX_ITERATIONS):
        fx = rhs(x)
        if not _all_finite(fx):
            break
        norm = np.linalg.norm(fx)
        if norm < _RESIDUAL_TOL * 1e-2:
            return x, True
        try:
            step = np.linalg.solve(_central_jacobian(rhs, x, 1e-7), [-v for v in fx]).tolist()
        except (np.linalg.LinAlgError, ValueError):
            break
        lam = 1.0
        while lam > 1e-4:
            candidate = [v + lam * d for v, d in zip(x, step)]
            fc = rhs(candidate)
            if _all_finite(fc) and np.linalg.norm(fc) < norm:
                x = candidate
                break
            lam *= 0.5
        else:
            break
    fx = rhs(x)
    return x, bool(_all_finite(fx) and np.linalg.norm(fx) < _RESIDUAL_TOL)


# Reference unwrapped Newton: the damped Newton of ecolab.analysis before
# the community kernel generated it, kept verbatim but for its name.  It
# calls numpy's solve and norm kernels without their Python wrappers, as
# the generated one does, but evaluates the derivative through `rhs`,
# evaluates the residual at each iterate afresh, and enters the errstate
# once per start.


def _norm(values: list[float]) -> float:
    """np.linalg.norm(values) of a float list: the same dot, without the wrapper."""
    a = np.array(values)
    return math.sqrt(a.dot(a))


def reference_unwrapped_newton(rhs, jacobian, x: list[float]) -> tuple[list[float], bool]:
    """Damped Newton from x: the last iterate and whether its residual norm is below _RESIDUAL_TOL.

    Each iteration solves J step = -f(x) with the central-difference
    Jacobian `jacobian(x, 1e-7)` (callers pass `_central_jacobian` over
    `rhs`, the computation the kernel inlines) and halves the step,
    down to 1e-4 of it, until the residual norm drops.  Stops early once
    the norm is below _RESIDUAL_TOL * 1e-2.  The solve is
    np.linalg.solve's own gufunc, `solve1`, called without the wrapper; a
    singular Jacobian ends the iteration, as do a non-finite derivative
    and a failed line search.
    """
    with np.errstate(**_SOLVE_ERRSTATE):
        for _ in range(_MAX_ITERATIONS):
            fx = rhs(x)
            if not _all_finite(fx):
                break
            norm = _norm(fx)
            if norm < _RESIDUAL_TOL * 1e-2:
                return x, True
            try:
                step = _solve1(jacobian(x, 1e-7), [-v for v in fx], signature="dd->d").tolist()
            except (FloatingPointError, ValueError):
                break
            lam = 1.0
            while lam > 1e-4:
                candidate = [v + lam * d for v, d in zip(x, step)]
                fc = rhs(candidate)
                if _all_finite(fc) and _norm(fc) < norm:
                    x = candidate
                    break
                lam *= 0.5
            else:
                break
        fx = rhs(x)
        return x, bool(_all_finite(fx) and _norm(fx) < _RESIDUAL_TOL)


# Reference root search: the loop of ecolab.analysis.find_fixed_points
# before the community kernel generated it, kept verbatim but for its name
# and the Newton it calls, which is reference_unwrapped_newton, the Python
# form of the per-start Newton the kernel generated until then.


def reference_roots(rhs, jacobian, starts, scale: float) -> list[list[float]]:
    """The roots that damped Newton finds from `starts`, filtered and de-duplicated, in start order.

    A start is kept when Newton converges from it, no density lies below
    -1e-9, and after densities below 1e-12 snap to 0 the residual norm is
    not >= _RESIDUAL_TOL; it is dropped if it lies within
    _DEDUPE_TOL * scale (largest density difference) of a root kept before.
    """
    roots = []
    with np.errstate(**_SOLVE_ERRSTATE):
        for start in starts:
            x, ok = reference_unwrapped_newton(rhs, jacobian, start)
            if not ok:
                continue
            if any(v < -1e-9 for v in x):
                continue
            # |x| < 1e-12 snaps to 0, and the rest of [-1e-9, 0) clips to it
            x = [v if v >= 1e-12 else 0.0 for v in x]
            if _norm(rhs(x)) >= _RESIDUAL_TOL:
                continue
            if any(max(abs(a - b) for a, b in zip(x, r)) <= _DEDUPE_TOL * scale for r in roots):
                continue
            roots.append(x)
    return roots


# Reference parameter edit: the case-by-case set_parameter that
# ecolab.analysis replaced with edits of the document form, kept verbatim
# but for its name, so an equivalence test can compare the two.


def reference_set_parameter(scenario: Scenario, path: str, value: float) -> Scenario:
    """Functionally update one named parameter of a scenario.

    Paths:
        horizon
        species.<id>.growth_rate | self_limitation | trophic_level
        initial.<id>
        interaction.<i>:<j>.alpha | base_strength (continuum entries)
        interaction.<i>:<j>.coeff_i | coeff_j (any other entry)
        interaction.<i>:<j>.response.rate | handling | saturation (predation, parasitism)
    """
    parts = _split_path(path)
    head = parts[0]
    if head == "horizon" and len(parts) == 1:
        return replace(scenario, horizon=float(value))
    if head == "species" and len(parts) == 3:
        _, sp_id, field_name = parts
        if field_name in ("growth_rate", "self_limitation", "trophic_level"):
            found = False
            species = []
            for sp in scenario.species:
                if sp.id == sp_id:
                    found = True
                    cast = int if field_name == "trophic_level" else float
                    sp = replace(sp, **{field_name: cast(value)})
                species.append(sp)
            if found:
                return replace(scenario, species=tuple(species))
            raise ValueError(f"unresolvable parameter path '{path}': no species '{sp_id}'")
    if head == "initial" and len(parts) == 2:
        sp_id = parts[1]
        if sp_id not in scenario.initial_densities:
            raise ValueError(f"unresolvable parameter path '{path}': no species '{sp_id}'")
        densities = dict(scenario.initial_densities)
        densities[sp_id] = float(value)
        return replace(scenario, initial_densities=densities)
    if head == "interaction" and len(parts) >= 3:
        pair = parts[1].split(":")
        if len(pair) != 2:
            raise ValueError(f"unresolvable parameter path '{path}': expected interaction.<i>:<j>")
        entries = []
        found = False
        for entry in scenario.interactions:
            if {entry.species_i, entry.species_j} == set(pair):
                found = True
                entry = _reference_update_entry(scenario, entry, parts[2:], float(value), path)
            entries.append(entry)
        if found:
            return replace(scenario, interactions=tuple(entries))
        raise ValueError(f"unresolvable parameter path '{path}': no entry for pair {parts[1]}")
    raise ValueError(
        f"unresolvable parameter path '{path}' "
        "(roots: horizon, species.<id>, initial.<id>, interaction.<i>:<j>)"
    )


def _reference_update_entry(
    scenario: Scenario,
    entry: InteractionSpec,
    fields: list[str],
    value: float,
    path: str,
) -> InteractionSpec:
    dial = fields in (["alpha"], ["base_strength"])
    if dial and entry.continuum_alpha is not None:
        alpha = value if fields == ["alpha"] else entry.continuum_alpha
        strength = value if fields == ["base_strength"] else entry.continuum_strength
        return continuum_interaction(entry.species_i, entry.species_j, ContinuumParams(alpha, strength))
    # a continuum entry's document form is its dial, which a coefficient edit would not update
    if entry.continuum_alpha is not None:
        reason = ": entry is a continuum interaction (alpha, base_strength)"
    elif dial:
        reason = ": entry is not a continuum interaction"
    elif fields in (["coeff_i"], ["coeff_j"]):
        return replace(entry, **{fields[0]: value})
    elif len(fields) != 2 or fields[0] != "response":
        reason = ""
    elif entry.kind not in TROPHIC_KINDS:
        reason = f": {entry.kind.value} entries have no response"
    elif hasattr(entry.response, fields[1]):
        return replace(entry, response=replace(entry.response, **{fields[1]: value}))
    else:
        reason = f": response has no field '{fields[1]}'"
    raise ValueError(f"unresolvable parameter path '{path}'{reason}")


def saturating_chain_scenario(method="rk4_fixed") -> Scenario:
    """Three-level chain fed through a Holling II and an Ivlev response."""
    chain = chain_scenario(horizon=120.0)
    grazing, hunting = chain.interactions
    return replace(
        chain,
        interactions=(
            replace(grazing, response=HollingTypeII(0.2, 0.5)),
            replace(hunting, response=IvlevResponse(0.25, 1.0)),
        ),
        integrator=IntegratorConfig(method=method, step=0.01),
    )


# Reference epidemic samplers: the linear-scan generator and simulator that
# the Fenwick tree and the block sums in ecolab.epidemic replaced, kept
# verbatim (but for the horizon fill noted below) so equivalence tests can
# compare the two bit for bit.  The simulator reads `graph.adjacency`, so
# the sorted-edge build that `Graph.adjacency` replaced is kept here too.


def reference_adjacency(graph: Graph) -> tuple[tuple[int, ...], ...]:
    neighbors: list[list[int]] = [[] for _ in range(graph.n_nodes)]
    for u, v in sorted(graph.edges):
        neighbors[u].append(v)
        neighbors[v].append(u)
    return tuple(tuple(ns) for ns in neighbors)


def reference_barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential attachment growth, deterministic for a given seed.

    Starts from a clique on m+1 nodes; every later node attaches exactly
    m edges to distinct targets drawn proportionally to degree (sampling
    without replacement, degrees taken as of the node's arrival).
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    degree = [0] * n
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    total = 2 * len(edges)
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            pick = rng.random() * total
            acc = 0.0
            for node in range(new):
                acc += degree[node]
                if pick < acc:
                    targets.add(node)
                    break
        for t in targets:
            edges.add((t, new) if t < new else (new, t))
            degree[t] += 1
            degree[new] += 1
            total += 2
    return Graph(n_nodes=n, edges=frozenset(edges))


def reference_simulate_epidemic(model: EpidemicModel, horizon: float, sample_dt: float = 1.0) -> PrevalenceTrajectory:
    """Exact continuous-time simulation sampled on a uniform grid.

    Waiting times are exponential in the total event rate; each event is
    an infection across a uniformly chosen susceptible-infected edge or
    the recovery of a uniformly chosen infected node.  No discretization
    enters anywhere, so threshold experiments see no step-size bias.
    Identical (model, seed) pairs give bit-identical trajectories.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be > 0")
    if not (math.isfinite(sample_dt) and sample_dt > 0):
        raise ValueError("sample_dt must be > 0")
    graph = model.graph
    n = graph.n_nodes
    adjacency = graph.adjacency
    rng = random.Random(model.seed)
    sir = model.kind == EpidemicKind.SIR

    S, I, R = 0, 1, 2
    status = [S] * n
    infected: list[int] = []
    position = [-1] * n
    for node in sorted(model.initial_infected):
        status[node] = I
        position[node] = len(infected)
        infected.append(node)
    sus_count = [0] * n
    total_si = 0
    for node in infected:
        count = sum(1 for nb in adjacency[node] if status[nb] == S)
        sus_count[node] = count
        total_si += count

    n_samples = int(math.floor(horizon / sample_dt + 1e-9)) + 1
    sample_times = np.arange(n_samples) * sample_dt
    infected_counts = np.empty(n_samples, dtype=float)
    recovered_counts = np.empty(n_samples, dtype=float) if sir else None

    beta, gamma = model.beta, model.gamma
    t = 0.0
    k = 0
    n_infected = len(infected)
    n_recovered = 0
    extinction_time: float | None = None

    def emit_until(limit: float) -> None:
        nonlocal k
        while k < n_samples and sample_times[k] <= limit:
            infected_counts[k] = n_infected
            if sir:
                recovered_counts[k] = n_recovered
            k += 1

    while True:
        if n_infected == 0:
            extinction_time = t
            break
        total_rate = beta * total_si + gamma * n_infected
        t_next = t + rng.expovariate(total_rate)
        if t_next > horizon:
            emit_until(horizon)
            break
        emit_until(math.nextafter(t_next, -math.inf))
        pick = rng.random() * total_rate
        if pick < beta * total_si:
            # infection: weighted choice of an infected node by its
            # susceptible-neighbor count, then a uniform susceptible neighbor
            target_weight = rng.random() * total_si
            acc = 0
            source = -1
            for node in infected:
                acc += sus_count[node]
                if target_weight < acc:
                    source = node
                    break
            if source < 0:
                # unreachable with exact integer weights; guard roundoff anyway
                source = next(nd for nd in reversed(infected) if sus_count[nd] > 0)
            which = rng.randrange(sus_count[source])
            new = -1
            for nb in adjacency[source]:
                if status[nb] == S:
                    if which == 0:
                        new = nb
                        break
                    which -= 1
            status[new] = I
            position[new] = len(infected)
            infected.append(new)
            n_infected += 1
            count = 0
            for nb in adjacency[new]:
                nb_status = status[nb]
                if nb_status == S:
                    count += 1
                elif nb_status == I:
                    sus_count[nb] -= 1
                    total_si -= 1
            sus_count[new] = count
            total_si += count
        else:
            node = infected[rng.randrange(n_infected)]
            last = infected[-1]
            infected[position[node]] = last
            position[last] = position[node]
            infected.pop()
            position[node] = -1
            n_infected -= 1
            total_si -= sus_count[node]
            sus_count[node] = 0
            if sir:
                status[node] = R
                n_recovered += 1
            else:
                status[node] = S
                for nb in adjacency[node]:
                    if status[nb] == I:
                        sus_count[nb] += 1
                        total_si += 1
        t = t_next

    # fixed: a last grid time rounded past the horizon was left unset, and
    # labelled with a time after the horizon
    emit_until(math.inf)
    sample_times[-1] = min(sample_times[-1], horizon)
    if not sir:
        return PrevalenceTrajectory(("infected_fraction",), sample_times, infected_counts / n, extinction_time)
    values = np.column_stack((infected_counts, recovered_counts)) / n
    return PrevalenceTrajectory(("infected_fraction", "recovered_fraction"), sample_times, values, extinction_time)


# ---------------------------------------------------------------------------
# The per-value CSV and SVG writers that the block writers replaced.


def _reference_format_value(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def reference_write_csv(trajectory: Trajectory) -> str:
    """The per-cell `ecolab.write_csv`, without its check on variable names."""
    lines = ["time," + ",".join(trajectory.variable_names)]
    for t, row in zip(trajectory.times.tolist(), trajectory.values.tolist()):
        lines.append(",".join([_reference_format_value(t)] + [_reference_format_value(v) for v in row]))
    return "\n".join(lines) + "\n"


def reference_ticks(low: float, high: float) -> list[float]:
    """The accumulating tick loop alone: raises where a step cannot move a tick."""
    step = _nice_step(high - low)
    first = math.ceil(low / step - 1e-9) * step
    values = []
    v = first
    while v <= high + 1e-9 * step:
        values.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:
            raise ValueError(f"cannot place ticks on [{low!r}, {high!r}]: too narrow for the size of its values")
        v += step
    return values


def reference_polyline_chart(
    names: tuple[str, ...],
    xs: np.ndarray,
    ys: np.ndarray,
    title: str | None = None,
    x_label: str = "time",
) -> str:
    """The per-point `ecolab.svg.polyline_chart`: two closures and one f-string per point.

    Its ticks come from `reference_ticks`, so it raises where the chart
    falls back to ticks at the ends of a range.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    if xs.shape[0] < 2:
        raise ValueError("need at least two samples to draw a chart")
    if ys.shape != (xs.shape[0], len(names)):
        raise ValueError("ys shape must be (len(xs), len(names))")

    x_low, x_high = float(xs.min()), float(xs.max())
    y_low, y_high = float(ys.min()), float(ys.max())
    if y_high == y_low:
        y_low -= 1.0
        y_high += 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_low) / (x_high - x_low) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_high - y) / (y_high - y_low) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{MARGIN_LEFT}" y="16" font-family="sans-serif" font-size="13" '
            f'font-weight="bold">{escape(title)}</text>'
        )
    axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for tick in reference_ticks(x_low, x_high):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{escape(_fmt(tick))}</text>'
        )
    for tick in reference_ticks(y_low, y_high):
        y = py(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" y2="{y:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{escape(_fmt(tick))}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 6}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{escape(x_label)}</text>'
    )
    for col, name in enumerate(names):
        color = PALETTE[col % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys[:, col]))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        legend_y = MARGIN_TOP + 14 + 18 * col
        legend_x = MARGIN_LEFT + plot_w + 12
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y - 4}" x2="{legend_x + 22}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="11">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# The selection recursion as it was before gradients were `GradientSpec`
# records: closures for the gradients, and a loop that rebuilds (and so
# re-checks) the whole state three times per generation.


def reference_constant_gradient(values):
    """The closure that `constant_gradient` returned."""
    fixed = _vector3("gradient", values)

    def fn(means: np.ndarray) -> np.ndarray:
        return fixed

    return fn


def reference_linear_gradient(intercept, coefficients):
    """The closure that `linear_gradient` returned."""
    base = _vector3("intercept", intercept)
    matrix = np.asarray(coefficients, dtype=float)
    if matrix.shape != (3, 3):
        raise ValueError("coefficients must be 3x3")

    def fn(means: np.ndarray) -> np.ndarray:
        return base + matrix @ means

    return fn


def reference_iterate_selection(state: SelectionState, n_steps: int) -> Trajectory:
    """`ecolab.iterate_selection` through `dataclasses.replace`, with the old step inline.

    Each generation rebuilds the state with its gradients frozen at the
    current means, so the constructor re-checks them, and then again with
    the new means.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    natural, sexual = state.natural, state.sexual
    rows = [state.means.copy()]
    for _ in range(int(n_steps)):
        natural_now, sexual_now = natural(state.means), sexual(state.means)
        state = replace(state, natural=lambda _, v=natural_now: v, sexual=lambda _, v=sexual_now: v)
        delta = state.g_matrix @ (state.natural(state.means) + state.sexual(state.means)) + state.mutation_step
        state = replace(state, means=state.means + delta)
        rows.append(state.means.copy())
    return Trajectory(TRAIT_NAMES, np.arange(len(rows), dtype=float), np.array(rows))

"""Continuous-time community dynamics.

The classical two-species predator-prey system, its multi-species
extension over the full interaction vocabulary, functional responses,
the mutualism-parasitism continuum, and the fixed/adaptive Runge-Kutta
integrators that drive them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from .core import (
    FunctionalResponse,
    HollingTypeII,
    IntegratorConfig,
    InteractionKind,
    InteractionSpec,
    IvlevResponse,
    LinearResponse,
    Role,
    Scenario,
    SpeciesSpec,
    Trajectory,
    TROPHIC_KINDS,
    validate_scenario,
)

__all__ = [
    "LotkaVolterraParams",
    "ContinuumParams",
    "lv_derivative",
    "lv_equilibrium",
    "lv_first_integral",
    "functional_response",
    "continuum_interaction",
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


def _response_fn(fr: FunctionalResponse) -> Callable[[float], float]:
    """The response as a one-argument function of prey density.

    Bare formula, no domain check: root finding and finite differences
    probe slightly negative states.
    """
    if isinstance(fr, LinearResponse):
        rate = fr.rate
        return lambda x: rate * x
    if isinstance(fr, HollingTypeII):
        rate, rate_handling = fr.rate, fr.rate * fr.handling

        def holling(x):
            try:
                return rate * x / (1.0 + rate_handling * x)
            except ZeroDivisionError:  # x = -1/(rate*handling), the pole: +-inf, as in IEEE
                return rate * x * math.inf

        return holling
    if isinstance(fr, IvlevResponse):
        rate, neg_saturation = fr.rate, -fr.saturation

        def ivlev(x):
            try:
                return rate * (1.0 - math.exp(neg_saturation * x))
            except OverflowError:  # a diverging stage far below 0: exp is +inf, as in IEEE
                return rate * -math.inf

        return ivlev
    raise TypeError(f"unknown functional response {fr!r}")


def functional_response(fr: FunctionalResponse, x: float) -> float:
    """Per-predator consumption rate at prey density x.

    All variants are 0 at x = 0 and monotone non-decreasing in x.
    """
    x = _check_density("prey density", x)
    return _response_fn(fr)(x)


@dataclass(frozen=True)
class ContinuumParams:
    """Dial for the mutualism-parasitism continuum of one species pair.

    alpha = +1 is pure mutualism (+, +), alpha = -1 pure parasitism
    (+ to the beneficiary, - to the partner), 0 is commensalism.
    Positive self-limitation on both species is required because the
    mutualistic end diverges without it.
    """

    alpha: float
    base_strength: float
    self_limitation_i: float
    self_limitation_j: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and -1.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [-1, 1], got {self.alpha!r}")
        if not (math.isfinite(self.base_strength) and self.base_strength > 0):
            raise ValueError("base_strength must be > 0")
        # continuum_interaction stores a negative alpha as 1/|alpha| and |alpha|*base_strength
        if self.alpha < 0.0 and (math.isinf(1.0 / -self.alpha) or -self.alpha * self.base_strength == 0.0):
            raise ValueError(
                f"alpha {self.alpha!r} is too close to 0 for base_strength {self.base_strength!r}: "
                "1/|alpha| overflows or |alpha|*base_strength underflows to 0"
            )
        for name in ("self_limitation_i", "self_limitation_j"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be > 0 (needed for boundedness)")


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


# A scenario is compiled into Python source with one local per species, so
# one derivative evaluation runs as straight-line float arithmetic.  Only
# indices and these fixed names enter the source; every coefficient and
# response closure is bound by name in the namespace the source runs in:
#   g<k>  signed growth rate of species k     s<k>  its self-limitation
#   v<m>  conversion of trophic entry m       f<m>  its linear rate, or its response
#   p<m>  coefficient of mass-action entry m on its i side, q<m> on its j side
#   empty  numpy.empty      isfinite  math.isfinite      sqrt  math.sqrt
#   solve1  the gufunc np.linalg.solve calls, numpy.linalg._umath_linalg.solve1
# Generated locals never take one of these names: a local p<m> would shadow
# the coefficient of mass-action entry m.

#: Compiled structures kept at once; a sweep over one scenario needs one or two.
_KERNEL_CACHE_SIZE = 64


class _Kernel(NamedTuple):
    """A scenario's derivative, RK4 step loop and fixed-point search, all over floats."""

    rhs: Callable[[Sequence[float]], list[float]]
    rk4_run: Callable[..., tuple[list[float], bool] | None]
    roots: Callable[..., list[list[float]]]


def _derivative_lines(structure, x: str, d: str) -> list[str]:
    """Statements setting d<k> to the derivative at the state held in x<k>.

    Terms are added in a fixed order: growth, self-limitation, trophic
    entries, then mass-action entries, each in declaration order.
    """
    n, limited, trophic, mass_action = structure
    lines = [f"{d}{k} = g{k} * {x}{k}" for k in range(n)]
    lines += [f"{d}{k} -= s{k} * {x}{k} * {x}{k}" for k in limited]
    for m, (agg, victim, response) in enumerate(trophic):
        consumed = f"f{m} * {x}{victim}" if response is LinearResponse else f"f{m}({x}{victim})"
        lines += [
            f"c = {consumed}",
            f"{d}{victim} -= c * {x}{agg}",
            f"{d}{agg} += v{m} * c * {x}{agg}",
        ]
    for m, (i, j) in enumerate(mass_action):
        lines += [f"{d}{i} += p{m} * {x}{i} * {x}{j}", f"{d}{j} += q{m} * {x}{i} * {x}{j}"]
    return lines


def _names(prefix: str, n: int) -> str:
    return ", ".join(f"{prefix}{k}" for k in range(n))


def _finite_test(values: list[str]) -> str:
    """`_all_finite` of the named values, as an expression."""
    return f"isfinite({' + '.join(values)}) or {' and '.join(f'isfinite({v})' for v in values)}"


def _squares(prefix: str, n: int) -> str:
    """The sum of squares of prefix<k>, added left to right, as an expression."""
    return " + ".join(f"{prefix}{k} * {prefix}{k}" for k in range(n))


# The range of float norms whose relative bound `roots` trusts, as source that compiles to constants.
_TINY, _HUGE = "2.0 ** -400", "2.0 ** 400"


@functools.lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _compile_structure(structure):
    """Code object defining `rhs`, `rk4_run` and `roots` for one scenario structure.

    The structure is (species count, self-limited indices, (aggressor,
    victim, response type) per trophic entry, (i, j) per mass-action
    entry), so scenarios that differ only in values or ids share it.

    `rk4_run(y, h, half, sixth, count, lo, hi, out)` keeps the state in
    one local per species and makes one RK4 step per item of `count`,
    inlining the derivative once per stage and combining the stages as
    y + sixth * (d1 + 2.0*d2 + 2.0*d3 + d4).  It extends the flat float
    list `out` by each new state and returns None once `count` runs
    out.  It refuses the first new state with a density z outside
    `lo <= z <= hi` that is not 0.0: a NaN, an infinity, a density the
    extinction clamp would change (lo is `extinction_epsilon`) or one
    above the divergence bound (hi).  That state is not added; it is
    returned as a list, with whether all 4n stage values are finite.

    `roots(starts, iterations, fd_step, stop, keep, fractions, neg, snap,
    tol, dedupe, margin)` is `analysis.find_fixed_points`' search over
    the float lists `starts`, one local per species.  From each start it
    runs damped Newton with the derivative inlined at the iterate and at
    each line-search candidate.  Each item of `iterations` makes one
    step: it stops once the residual norm is below `stop`, solves
    J t = -f(x) with `solve1`, and moves to the first candidate
    x + lam*t, lam in `fractions`, whose residual is finite and of lower
    norm.  J is `analysis._central_jacobian(rhs, x, fd_step)` with the
    derivative inlined: column i is (f(x + h e_i) - f(x - h e_i)) / 2h,
    with h = fd_step*max(1, |x_i|).  A non-finite derivative at a probe,
    a FloatingPointError from `solve1` (a singular J, under the caller's
    errstate) and a failed line search end the iteration early.  A start
    is dropped unless its first residual is finite and its last norm is
    below `keep` (at least `stop`).  A root is then dropped if a density
    is below `neg`; every density below `snap` becomes 0.0; the root is
    dropped if the residual norm there is `>= tol` (a NaN norm is not),
    or if it is within `dedupe` (the largest density difference) of a
    root kept before.  The kept roots are returned in start order.

    The residual norm of every one of those decisions is numpy's,
    sqrt(a.dot(a)) of the residual a (the dot np.linalg.norm takes), but
    numpy is asked only when the float norm P, math.sqrt of the squares
    added left to right, cannot decide.  To first order in u = 2^-53,
    each of the two lies within (n/2 + 1)*u of the exact norm: a sum of
    n non-negative terms in any order, one rounding per square and one
    per square root (Higham 2002, sections 3-4).  So they differ by at
    most (n+2)*u*P, plus 2^-500 where squares fall below the normal
    range, as long as P <= 2^400 keeps every sum of squares finite.
    `margin` is 8 times that relative bound (`analysis._norm_margin`),
    which also covers the rounding of the comparisons themselves.  A
    comparison of P with a bound c (`stop`, `keep` or `tol`, each between
    2^-400 and 2^399) is taken from P when P < c*(1 - margin) or
    P*(1 - margin) >= c; a P above 2^400 means a numpy norm of at least
    2^399.  `trial < norm` is taken from the two float norms when both
    lie in [2^-400, 2^400] and one is below the other times
    (1 - margin).  Otherwise, and for a NaN, the residuals are written
    into the residual buffer and numpy's norms decide.  These are the
    filtered predicates of Shewchuk 1997, with numpy as the exact
    fallback: every decision, and so every root bit, is the one numpy's
    norms give, and a margin of 1 sends every decision to numpy.

    The Jacobian, the right-hand side -f(x) and the residual are
    written, and the solution t read, item by item through memoryviews
    of four float64 buffers that `empty` allocates once per call
    (a flat view of the Jacobian, in C order); `solve1(jac, b, sol)`
    writes t into its buffer with the dd->d loop that float64 inputs
    select.  The accepted candidate's residual and float norm are kept
    for the next step, not evaluated again.
    """
    n = structure[0]
    indent = "\n    "
    rhs = [f"[{_names('x', n)}] = x", *_derivative_lines(structure, "x", "d"), f"return [{_names('d', n)}]"]
    step = _derivative_lines(structure, "y", "k1_")
    for stage, scale in ((2, "half"), (3, "half"), (4, "h")):
        step += [f"x{k} = y{k} + {scale} * k{stage - 1}_{k}" for k in range(n)]
        step += _derivative_lines(structure, "x", f"k{stage}_")
    step += [f"y{k} = y{k} + sixth * (k1_{k} + 2.0 * k2_{k} + 2.0 * k3_{k} + k4_{k})" for k in range(n)]
    in_bounds = " and ".join(f"(lo <= y{k} <= hi or y{k} == 0.0)" for k in range(n))
    stages = [f"k{stage}_{k}" for stage in range(1, 5) for k in range(n)]
    step += [f"if not ({in_bounds}):", f"    return [{_names('y', n)}], {_finite_test(stages)}"]
    step += [f"extend(({_names('y', n)},))"]
    run = [f"[{_names('y', n)}] = y", "extend = out.extend", "for _ in count:"]
    run += [f"    {line}" for line in step]
    # the iterate is x<k> with residual d<k> and float norm `norm`; the Jacobian's probe x + h e_i, then
    # x - h e_i, is held in y<k> (h = fd_step*max(1, |x_i|)) with derivatives e<k> and u<k>; the step is
    # t<k>; the candidate is y<k> with residual e<k> and float norm `trial`
    newton = []
    for i in range(n):
        newton += [f"h = fd_step * (x{i} if x{i} > 1.0 else -x{i} if x{i} < -1.0 else 1.0)"]
        newton += [f"y{k} = x{k} + h" if k == i else f"y{k} = x{k}" for k in range(n)]
        newton += _derivative_lines(structure, "y", "e")
        newton += [f"y{i} = x{i} - h", *_derivative_lines(structure, "y", "u")]
        newton += [
            f"if not ({_finite_test([f'{v}{k}' for v in 'eu' for k in range(n)])}):",
            "    break",
            "two_h = 2.0 * h",
            *(f"jw[{k * n + i}] = (e{k} - u{k}) / two_h" for k in range(n)),
        ]
    # each decision on a residual norm is taken from the float norms when they are clear of the other
    # side by the margin, and from numpy's norms of the residuals written into `res` otherwise
    def exact(v: str, name: str = "exact") -> list[str]:  # numpy's norm of v<k>, set into `name`
        return [*(f"rw[{k}] = {v}{k}" for k in range(n)), f"{name} = sqrt(res.dot(res))"]

    def drop_unless_below(bound: str, dropped: str) -> list[str]:  # `dropped` is numpy's test of `exact`
        return [
            f"if not norm < {bound}_clear:",
            f"    if norm * clear >= {bound}:",
            "        continue",
            *(f"    {line}" for line in exact("d")),
            f"    if {dropped}:",
            "        continue",
        ]

    newton += [
        *(f"bw[{k}] = -d{k}" for k in range(n)),
        "try:",
        "    solve1(jac, b, sol)",
        "except FloatingPointError:",
        "    break",
        f"[{_names('t', n)}] = sw",
        "for lam in fractions:",
        *(f"    y{k} = x{k} + lam * t{k}" for k in range(n)),
        *(f"    {line}" for line in _derivative_lines(structure, "y", "e")),
        f"    if {_finite_test([f'e{k}' for k in range(n)])}:",
        f"        trial = sqrt({_squares('e', n)})",
        f"        if not (trial < norm * clear and {_TINY} <= trial and norm <= {_HUGE}):",
        f"            if trial * clear >= norm and {_TINY} <= norm and trial <= {_HUGE}:",
        "                continue",
        *(f"            {line}" for line in exact("d")),
        *(f"            {line}" for line in exact("e", "exact_trial")),
        "            if not exact_trial < exact:",
        "                continue",
        *(f"        x{k} = y{k}" for k in range(n)),
        *(f"        d{k} = e{k}" for k in range(n)),
        "        norm = trial",
        "        break",
        "else:",
        "    break",
    ]
    # a kept root is held in y<k> while the new one, x<k>, is compared with it
    distance = ", ".join(f"abs(x{k} - y{k})" for k in range(n))
    if n > 1:
        distance = f"max({distance})"
    per_start = [
        f"[{_names('x', n)}] = x",
        *_derivative_lines(structure, "x", "d"),
        f"if not ({_finite_test([f'd{k}' for k in range(n)])}):",
        "    continue",
        f"norm = sqrt({_squares('d', n)})",
        "for _ in iterations:",
        "    if norm < stop_clear:",
        "        break",
        "    if not norm * clear >= stop:",
        *(f"        {line}" for line in exact("d")),
        "        if exact < stop:",
        "            break",
        *(f"    {line}" for line in newton),
        *drop_unless_below("keep", "not exact < keep"),
        f"if {' or '.join(f'x{k} < neg' for k in range(n))}:",
        "    continue",
        *(f"x{k} = x{k} if x{k} >= snap else 0.0" for k in range(n)),
        *_derivative_lines(structure, "x", "d"),
        f"norm = sqrt({_squares('d', n)})",
        *drop_unless_below("tol", "exact >= tol"),
        "for r in found:",
        f"    [{_names('y', n)}] = r",
        f"    if {distance} <= dedupe:",
        "        break",
        "else:",
        f"    found.append([{_names('x', n)}])",
    ]
    roots = [
        f"jac = empty(({n}, {n}))",
        'jw = memoryview(jac).cast("B").cast("d")',
        f"b = empty({n})",
        "bw = memoryview(b)",
        f"sol = empty({n})",
        "sw = memoryview(sol)",
        f"res = empty({n})",
        "rw = memoryview(res)",
        "clear = 1.0 - margin",
        "stop_clear = stop * clear",
        "keep_clear = keep * clear",
        "tol_clear = tol * clear",
        "found = []",
    ]
    roots += ["for x in starts:", *(f"    {line}" for line in per_start), "return found"]
    source = (
        f"def rhs(x):{indent}{indent.join(rhs)}\n\n"
        f"def rk4_run(y, h, half, sixth, count, lo, hi, out):{indent}{indent.join(run)}\n\n"
        f"def roots(starts, iterations, fd_step, stop, keep, fractions, neg, snap, tol, dedupe, margin):"
        f"{indent}{indent.join(roots)}\n"
    )
    return compile(source, "<ecolab community kernel>", "exec")


def _kernel(scenario: Scenario) -> _Kernel:
    """Bind the scenario's values into the compiled code of its structure."""
    index = {sp.id: k for k, sp in enumerate(scenario.species)}
    namespace = {"empty": np.empty, "isfinite": math.isfinite, "sqrt": math.sqrt, "solve1": _solve1}
    limited = []
    for k, sp in enumerate(scenario.species):
        namespace[f"g{k}"] = sp.growth_rate if sp.role == Role.PRODUCER else -sp.growth_rate
        if sp.self_limitation != 0.0:
            limited.append(k)
            namespace[f"s{k}"] = sp.self_limitation
    trophic = []
    mass_action = []
    for entry in scenario.interactions:
        i, j = index[entry.species_i], index[entry.species_j]
        if entry.kind in TROPHIC_KINDS:
            m = len(trophic)
            response = entry.response
            trophic.append((i, j, type(response)))
            namespace[f"v{m}"] = entry.coeff_i
            namespace[f"f{m}"] = response.rate if type(response) is LinearResponse else _response_fn(response)
        else:
            m = len(mass_action)
            mass_action.append((i, j))
            if entry.kind == InteractionKind.COMPETITION:
                namespace[f"p{m}"], namespace[f"q{m}"] = -entry.coeff_i, -entry.coeff_j
            else:
                namespace[f"p{m}"], namespace[f"q{m}"] = entry.coeff_i, entry.coeff_j
    code = _compile_structure((len(scenario.species), tuple(limited), tuple(trophic), tuple(mass_action)))
    exec(code, namespace)
    return _Kernel(namespace["rhs"], namespace["rk4_run"], namespace["roots"])


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
    validate_scenario(scenario)
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


def _clamp_extinctions(state, t, epsilon, names, extinct, extinctions):
    """Clamp sub-epsilon or negative densities to exactly 0, once per species."""
    for k, v in enumerate(state):
        if v != 0.0 and v < epsilon:
            state[k] = 0.0
            if k not in extinct:
                extinct.add(k)
                extinctions.append((names[k], t))


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


#: Steps (horizon / step) an RK4 run may make.  The run keeps every state and
#: builds its time grid first, so this bounds its memory and time before a
#: step is made: a horizon of 1e300 would otherwise ask for about 1e302 samples.
_RK4_STEP_BUDGET = 1_000_000


def _integrate_rk4(run, y0, cfg, horizon, names):
    """Fixed-step RK4 through a kernel's compiled step loop `run`: times, flat states, extinctions.

    `run` (a kernel's `rk4_run`) makes the full steps, then the remainder
    step that ends on the horizon.  The state it refuses (one that is not
    finite, needs clamping or exceeds DIVERGENCE_LIMIT) is checked here:
    it raises, or is clamped with its extinctions reported and added,
    and `run` goes on from it.  The states are one flat float list,
    sample after sample.
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
    extinct: set[int] = set()
    extinctions: list[tuple[str, float]] = []
    out = list(y0)
    _clamp_extinctions(out, 0.0, epsilon, names, extinct, extinctions)
    n = len(out)
    k = 0
    while k < n_steps:
        hk, end = (h, n_full) if k < n_full else (remainder, n_steps)
        half, sixth = 0.5 * hk, hk / 6.0
        refused = run(out[-n:], hk, half, sixth, range(end - k), epsilon, DIVERGENCE_LIMIT, out)
        k = len(out) // n - 1
        if refused is None:
            continue
        y_next, stages_finite = refused
        # a non-finite stage makes the new state non-finite, so only a refused step can have one
        if not stages_finite:
            raise NonFiniteDerivativeError(k * h, out[-n:])
        t = float(times[k + 1])
        _clamp_extinctions(y_next, t, epsilon, names, extinct, extinctions)
        if _max_exceeds(y_next, DIVERGENCE_LIMIT):
            raise DivergenceError(t, y_next)
        out.extend(y_next)
        k += 1
    return times, out, extinctions


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


def _integrate_rk45(f, y0, cfg, horizon, names):
    """Adaptive RKF45 through the derivative f: times, flat states, extinctions."""
    t = 0.0
    y = list(y0)
    h = min(cfg.step, horizon)
    epsilon = cfg.extinction_epsilon
    extinct: set[int] = set()
    extinctions: list[tuple[str, float]] = []
    _clamp_extinctions(y, 0.0, epsilon, names, extinct, extinctions)
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
            _clamp_extinctions(y, t, epsilon, names, extinct, extinctions)
            if _max_exceeds(y, DIVERGENCE_LIMIT):
                raise DivergenceError(t, y)
            times.append(t)
            out.extend(y)
            factor = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, factor))
    if times[-1] != horizon:
        times[-1] = horizon
    return times, out, extinctions


def integrate_report(scenario: Scenario) -> IntegrationResult:
    """Integrate a validated scenario and report extinctions alongside.

    Samples sit at the integrator's accepted steps (every `step` for
    rk4_fixed, the accepted adaptive steps plus the horizon endpoint for
    rk45_adaptive).  The run is deterministic for identical inputs.
    The step loop runs on Python floats through the scenario's compiled
    derivative.  Every RK4 step, the remainder step that ends on the
    horizon included, is made once, in the compiled step loop.  It hands
    back a new state that is not finite, needs clamping or exceeds
    DIVERGENCE_LIMIT, with whether its stages were finite, and the
    integrator raises or clamps it.  Clamping every density below
    `extinction_epsilon` to 0 keeps the samples nonnegative.  Both integrators collect the
    samples in one flat float list, which becomes the `values` array in
    one conversion.
    """
    validate_scenario(scenario)
    return _integrate_report(scenario, _kernel(scenario))


def _integrate_report(scenario: Scenario, kernel: _Kernel) -> IntegrationResult:
    """`integrate_report` of a validated scenario through its bound kernel."""
    y0 = scenario.initial_state().tolist()
    names = tuple(sp.id for sp in scenario.species)
    cfg = scenario.integrator
    if cfg.method == "rk4_fixed":
        times, flat, extinctions = _integrate_rk4(kernel.rk4_run, y0, cfg, scenario.horizon, names)
    else:
        times, flat, extinctions = _integrate_rk45(kernel.rhs, y0, cfg, scenario.horizon, names)
    trajectory = Trajectory(names, times, np.array(flat).reshape(-1, len(names)))
    return IntegrationResult(trajectory=trajectory, extinctions=tuple(extinctions))


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

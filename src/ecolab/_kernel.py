"""The community kernel: each scenario structure compiled once into straight-line float code.

`_kernel` validates a scenario and binds its values into the code of its
structure: the derivative `rhs`, the RK4 step loop `rk4_run` and the
fixed-point search `roots`, each generated by its own emitter.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from .core import (
    FunctionalResponse,
    HollingTypeII,
    InteractionKind,
    IvlevResponse,
    LinearResponse,
    Role,
    Scenario,
    TROPHIC_KINDS,
    validate_scenario,
)

__all__ = ["_Kernel", "_kernel", "_norm_margin", "_response_fn", "_solve1"]

# Only indices and these fixed names enter the generated source, one local per species; every
# coefficient and response closure is bound by name in the namespace the source runs in:
#   g<k>  signed growth rate of species k     s<k>  its self-limitation
#   v<m>  conversion of trophic entry m       f<m>  its linear rate, or its response
#   p<m>  coefficient of mass-action entry m on its i side, q<m> on its j side
#   empty  numpy.empty      isfinite  math.isfinite      sqrt  math.sqrt
#   solve1  the gufunc np.linalg.solve calls, numpy.linalg._umath_linalg.solve1
# Generated locals never take one of these names: a local p<m> would shadow
# the coefficient of mass-action entry m.  `rhs` reads each bound name once
# per call as it is; the loops `rk4_run` and `roots` first copy each bound
# name they read into the local `_<name>` (`_g0 = g0`), once per call, and
# then read only that local, a fast local in place of a namespace lookup.

#: Compiled structures kept at once; a sweep over one scenario needs one or two.
_KERNEL_CACHE_SIZE = 64


class _Kernel(NamedTuple):
    """A scenario's derivative, RK4 step loop and fixed-point search, all over floats."""

    rhs: Callable[[Sequence[float]], list[float]]
    rk4_run: Callable[..., tuple[int, list[float], bool] | None]
    roots: Callable[..., list[list[float]]]


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


def _derivative_lines(structure, x: str, d: str, bound: str = "") -> list[str]:
    """Statements setting d<k> to the derivative at the state held in x<k>.

    Terms are added in a fixed order: growth, self-limitation, trophic
    entries, then mass-action entries, each in declaration order.  Each
    coefficient is read as `bound` followed by its bound name.
    """
    n, limited, trophic, mass_action = structure
    g, s, v, f, p, q = (bound + name for name in "gsvfpq")
    lines = [f"{d}{k} = {g}{k} * {x}{k}" for k in range(n)]
    lines += [f"{d}{k} -= {s}{k} * {x}{k} * {x}{k}" for k in limited]
    for m, (agg, victim, response) in enumerate(trophic):
        consumed = f"{f}{m} * {x}{victim}" if response is LinearResponse else f"{f}{m}({x}{victim})"
        lines += [
            f"c = {consumed}",
            f"{d}{victim} -= c * {x}{agg}",
            f"{d}{agg} += {v}{m} * c * {x}{agg}",
        ]
    for m, (i, j) in enumerate(mass_action):
        lines += [f"{d}{i} += {p}{m} * {x}{i} * {x}{j}", f"{d}{j} += {q}{m} * {x}{i} * {x}{j}"]
    return lines


def _local_copies(structure, fixed: tuple[str, ...]) -> list[str]:
    """`_<name> = <name>` for each coefficient the structure binds, then for each name of `fixed`."""
    n, limited, trophic, mass_action = structure
    names = [f"g{k}" for k in range(n)] + [f"s{k}" for k in limited]
    names += [f"{c}{m}" for m in range(len(trophic)) for c in "vf"]
    names += [f"{c}{m}" for m in range(len(mass_action)) for c in "pq"]
    return [f"_{name} = {name}" for name in (*names, *fixed)]


def _names(prefix: str, n: int) -> str:
    return ", ".join(f"{prefix}{k}" for k in range(n))


def _finite_test(prefixes, n: int) -> str:
    """`_all_finite` of the values p<k>, prefix by prefix, as an expression of the local `_isfinite`."""
    values = [f"{p}{k}" for p in prefixes for k in range(n)]
    return f"_isfinite({' + '.join(values)}) or {' and '.join(f'_isfinite({v})' for v in values)}"


def _squares(prefix: str, n: int) -> str:
    """The sum of squares of prefix<k>, added left to right, as an expression."""
    return " + ".join(f"{prefix}{k} * {prefix}{k}" for k in range(n))


def _function(signature: str, body: list[str]) -> str:
    """The source of `def signature:` with the body's lines one level in."""
    return f"def {signature}:\n    " + "\n    ".join(body) + "\n"


def _emit_rhs(structure) -> str:
    """`rhs(x)`: the derivative at the float sequence x, one local per species, as a list."""
    n = structure[0]
    body = [f"[{_names('x', n)}] = x", *_derivative_lines(structure, "x", "d"), f"return [{_names('d', n)}]"]
    return _function("rhs(x)", body)


def _emit_rk4_run(structure) -> str:
    """`rk4_run(y, h, half, sixth, count, lo, hi, yw)`: RK4 steps from the float list y.

    It keeps the state in one local per species and makes one RK4 step
    per item of `count`, inlining the derivative once per stage and
    combining the stages as y + sixth * (d1 + 2.0*d2 + 2.0*d3 + d4).  Each
    item of `count` is the offset at which the new state is written, item
    by item, through `yw`, a memoryview of a float64 buffer; it returns
    None once `count` runs out.  It refuses the first new state with a
    density z outside `lo <= z <= hi` that is not 0.0: a NaN, an infinity,
    a density the extinction clamp would change (lo is
    `extinction_epsilon`) or one above the divergence bound (hi).  That
    state is not written; it is returned as a list, after its offset and
    before whether all 4n stage values are finite.  Before its first step
    it copies each bound value it reads, the coefficients and `isfinite`,
    into a local (`_local_copies`), so the steps read only locals.
    """
    n = structure[0]
    step = _derivative_lines(structure, "y", "k1_", "_")
    for stage, scale in ((2, "half"), (3, "half"), (4, "h")):
        step += [f"x{k} = y{k} + {scale} * k{stage - 1}_{k}" for k in range(n)]
        step += _derivative_lines(structure, "x", f"k{stage}_", "_")
    step += [f"y{k} = y{k} + sixth * (k1_{k} + 2.0 * k2_{k} + 2.0 * k3_{k} + k4_{k})" for k in range(n)]
    in_bounds = " and ".join(f"(lo <= y{k} <= hi or y{k} == 0.0)" for k in range(n))
    stages_finite = _finite_test(("k1_", "k2_", "k3_", "k4_"), n)
    step += [f"if not ({in_bounds}):", f"    return i, [{_names('y', n)}], {stages_finite}"]
    step += [f"yw[i + {k}] = y{k}" if k else "yw[i] = y0" for k in range(n)]
    run = [*_local_copies(structure, ("isfinite",)), f"[{_names('y', n)}] = y", "for i in count:"]
    run += [f"    {line}" for line in step]
    return _function("rk4_run(y, h, half, sixth, count, lo, hi, yw)", run)


def _emit_roots(structure) -> str:
    """`roots(starts, iterations, fd_step, stop, fractions, neg, snap, tol, dedupe, margin)`.

    It is `analysis.find_fixed_points`' search over the float lists
    `starts`, one local per species.  From each start it runs damped
    Newton with the derivative inlined at the iterate and at each
    line-search candidate.  Each item of `iterations` makes one step: it
    stops once the residual norm is below `stop`, solves J t = -f(x) with
    `solve1`, and moves to the first candidate x + lam*t, lam in
    `fractions`, whose residual is finite and of lower norm.  J is
    `analysis._central_jacobian(rhs, x, fd_step)`, the derivative
    inlined.  A non-finite derivative at a probe, a FloatingPointError
    from `solve1` (a singular J, under the caller's errstate) and a
    failed line search end the iteration early.  A start is dropped
    unless its first residual is finite and its last norm is below `tol`
    (at least `stop`).  A root is then dropped if a density is below
    `neg`; every density below `snap` becomes 0.0; the root is dropped if
    the residual norm there is `>= tol` (a NaN norm is not), or if it is
    within `dedupe` (the largest density difference) of a root kept
    before.  The kept roots are returned in start order.

    The residual norm of every one of those decisions is numpy's,
    sqrt(a.dot(a)) of the residual a (the dot np.linalg.norm takes), but
    numpy is asked only when the float norm P, math.sqrt of the squares
    added left to right, cannot decide.  To first order in u = 2^-53,
    each of the two lies within (n/2 + 1)*u of the exact norm: a sum of
    n non-negative terms in any order, one rounding per square and one
    per square root (Higham 2002, sections 3-4).  So they differ by at
    most (n+2)*u*P, plus 2^-500 where squares fall below the normal
    range, as long as P <= 2^400 keeps every sum of squares finite.
    `margin` is 8 times that relative bound (`_norm_margin`), which also
    covers the rounding of the comparisons themselves.  A comparison of P
    with a bound c (`stop` or `tol`, each between 2^-400 and 2^399) is
    taken from P when P < c*(1 - margin) or P*(1 - margin) >= c;
    a P above 2^400 means a numpy norm of at least 2^399.  `trial < norm`
    is taken from the two float norms when both lie in [2^-400, 2^400]
    and one is below the other times (1 - margin).  Otherwise, and for a
    NaN, the residuals are written into the residual buffer and numpy's
    norms decide.  These are the filtered predicates of Shewchuk 1997,
    with numpy as the exact fallback: every decision, and so every root
    bit, is the one numpy's norms give, and a margin of 1 sends every
    decision to numpy.

    The Jacobian, the right-hand side -f(x) and the residual are
    written, and the solution t read, item by item through memoryviews
    of four float64 buffers that `empty` allocates once per call
    (a flat view of the Jacobian, in C order); `solve1(jac, b, sol)`
    writes t into its buffer with the dd->d loop that float64 inputs
    select.  The accepted candidate's residual and float norm are kept
    for the next step, not evaluated again.  Before its first start it
    copies each bound value it reads, the coefficients, `empty`,
    `isfinite`, `sqrt` and `solve1`, into a local (`_local_copies`), so
    the search reads only locals.
    """
    n = structure[0]
    # the range of float norms whose relative bound `roots` trusts, as source that compiles to constants
    tiny, huge = "2.0 ** -400", "2.0 ** 400"
    # the iterate is x<k> with residual d<k> and float norm `norm`; the Jacobian's probe x + h e_i, then
    # x - h e_i, is held in y<k> (h = fd_step*max(1, |x_i|)) with derivatives e<k> and u<k>; the step is
    # t<k>; the candidate is y<k> with residual e<k> and float norm `trial`
    newton = []
    for i in range(n):
        newton += [f"h = fd_step * (x{i} if x{i} > 1.0 else -x{i} if x{i} < -1.0 else 1.0)"]
        newton += [f"y{k} = x{k} + h" if k == i else f"y{k} = x{k}" for k in range(n)]
        newton += _derivative_lines(structure, "y", "e", "_")
        newton += [f"y{i} = x{i} - h", *_derivative_lines(structure, "y", "u", "_")]
        newton += [
            f"if not ({_finite_test('eu', n)}):",
            "    break",
            "two_h = 2.0 * h",
            *(f"jw[{k * n + i}] = (e{k} - u{k}) / two_h" for k in range(n)),
        ]
    # each decision on a residual norm is taken from the float norms when they are clear of the other
    # side by the margin, and from numpy's norms of the residuals written into `res` otherwise
    def exact(v: str, name: str = "exact") -> list[str]:  # numpy's norm of v<k>, set into `name`
        return [*(f"rw[{k}] = {v}{k}" for k in range(n)), f"{name} = _sqrt(res.dot(res))"]

    def drop_unless_below_tol(dropped: str) -> list[str]:  # `dropped` is numpy's test of `exact`
        return [
            "if not norm < tol_clear:",
            "    if norm * clear >= tol:",
            "        continue",
            *(f"    {line}" for line in exact("d")),
            f"    if {dropped}:",
            "        continue",
        ]

    newton += [
        *(f"bw[{k}] = -d{k}" for k in range(n)),
        "try:",
        "    _solve1(jac, b, sol)",
        "except FloatingPointError:",
        "    break",
        f"[{_names('t', n)}] = sw",
        "for lam in fractions:",
        *(f"    y{k} = x{k} + lam * t{k}" for k in range(n)),
        *(f"    {line}" for line in _derivative_lines(structure, "y", "e", "_")),
        f"    if {_finite_test('e', n)}:",
        f"        trial = _sqrt({_squares('e', n)})",
        f"        if not (trial < norm * clear and {tiny} <= trial and norm <= {huge}):",
        f"            if trial * clear >= norm and {tiny} <= norm and trial <= {huge}:",
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
        *_derivative_lines(structure, "x", "d", "_"),
        f"if not ({_finite_test('d', n)}):",
        "    continue",
        f"norm = _sqrt({_squares('d', n)})",
        "for _ in iterations:",
        "    if norm < stop_clear:",
        "        break",
        "    if not norm * clear >= stop:",
        *(f"        {line}" for line in exact("d")),
        "        if exact < stop:",
        "            break",
        *(f"    {line}" for line in newton),
        *drop_unless_below_tol("not exact < tol"),
        f"if {' or '.join(f'x{k} < neg' for k in range(n))}:",
        "    continue",
        *(f"x{k} = x{k} if x{k} >= snap else 0.0" for k in range(n)),
        *_derivative_lines(structure, "x", "d", "_"),
        f"norm = _sqrt({_squares('d', n)})",
        *drop_unless_below_tol("exact >= tol"),
        "for r in found:",
        f"    [{_names('y', n)}] = r",
        f"    if {distance} <= dedupe:",
        "        break",
        "else:",
        f"    found.append([{_names('x', n)}])",
    ]
    roots = [
        *_local_copies(structure, ("empty", "isfinite", "sqrt", "solve1")),
        f"jac = _empty(({n}, {n}))",
        'jw = memoryview(jac).cast("B").cast("d")',
        f"b = _empty({n})",
        "bw = memoryview(b)",
        f"sol = _empty({n})",
        "sw = memoryview(sol)",
        f"res = _empty({n})",
        "rw = memoryview(res)",
        "clear = 1.0 - margin",
        "stop_clear = stop * clear",
        "tol_clear = tol * clear",
        "found = []",
    ]
    roots += ["for x in starts:", *(f"    {line}" for line in per_start), "return found"]
    return _function("roots(starts, iterations, fd_step, stop, fractions, neg, snap, tol, dedupe, margin)", roots)


def _norm_margin(n: int) -> float:
    """`roots`' margin for n species: 8 times the bound (n+2)*2^-53 of `_emit_roots` on the norms."""
    return (n + 2) * 2.0**-50


@functools.lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _compile_structure(structure):
    """Code object defining `rhs`, `rk4_run` and `roots` for one scenario structure.

    The structure is (species count, self-limited indices, (aggressor,
    victim, response type) per trophic entry, (i, j) per mass-action
    entry), so scenarios that differ only in values or ids share it.
    """
    source = "\n".join(emit(structure) for emit in (_emit_rhs, _emit_rk4_run, _emit_roots))
    return compile(source, "<ecolab community kernel>", "exec")


def _kernel(scenario: Scenario) -> _Kernel:
    """Validate the scenario, then bind its values into the compiled code of its structure."""
    validate_scenario(scenario)
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

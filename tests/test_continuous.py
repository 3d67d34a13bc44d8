import dis
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ecolab import (
    ContinuumParams,
    DivergenceError,
    HollingTypeII,
    IntegratorConfig,
    InteractionKind,
    InteractionSpec,
    IvlevResponse,
    LinearResponse,
    LotkaVolterraParams,
    NonFiniteDerivativeError,
    Role,
    Scenario,
    ScenarioValidationError,
    SpeciesSpec,
    StepSizeUnderflowError,
    community_rhs,
    continuum_interaction,
    find_fixed_points,
    functional_response,
    glv_derivative,
    integrate,
    integrate_report,
    lv_derivative,
    lv_equilibrium,
    lv_first_integral,
    lv_scenario,
    set_parameter,
    stability_report,
    sweep,
    validate_scenario,
)
from ecolab import continuous
from ecolab._kernel import _Kernel, _compile_structure, _kernel
from ecolab.continuous import (
    DIVERGENCE_LIMIT,
    _RK4_STEP_BUDGET,
    _RK45_STEP_BUDGET,
    _all_finite,
    _clamp_extinctions,
    _integrate_report,
    _max_exceeds,
    _rms,
)
from ecolab.core import METHODS
from ecolab.demos import DEMO_NAMES, demo_document
from helpers import (
    chain_equilibrium_oracle,
    chain_scenario,
    community_scenarios,
    predation_scenario,
    reference_integrate_report,
    saturating_chain_scenario,
    single_species,
    stagewise_rk4_run,
)

CANONICAL = LotkaVolterraParams(
    prey_growth=1.0, encounter_rate=0.1, predator_decline=0.5, predator_gain=0.02
)


class TestLvDerivative:
    def test_zero_at_canonical_equilibrium(self):
        assert lv_derivative(25.0, 10.0, CANONICAL) == (0.0, 0.0)

    def test_zero_at_computed_equilibrium(self):
        x, y = lv_equilibrium(CANONICAL)
        assert (x, y) == (25.0, 10.0)
        assert lv_derivative(x, y, CANONICAL) == (0.0, 0.0)

    def test_equilibrium_exactness_power_of_two_rates(self):
        # Exact cancellation at the float equilibrium holds whenever the
        # encounter and gain rates are powers of two (division and
        # product are then exact); general rates cancel only to roundoff.
        rng = random.Random(2024)
        for _ in range(100):
            p = LotkaVolterraParams(
                prey_growth=rng.uniform(0.01, 10.0),
                encounter_rate=2.0 ** rng.randint(-8, 3),
                predator_decline=rng.uniform(0.01, 10.0),
                predator_gain=2.0 ** rng.randint(-8, 3),
            )
            x, y = lv_equilibrium(p)
            assert lv_derivative(x, y, p) == (0.0, 0.0)

    def test_equilibrium_near_zero_general_rates(self):
        rng = random.Random(7)
        for _ in range(200):
            p = LotkaVolterraParams(
                prey_growth=rng.uniform(0.01, 10.0),
                encounter_rate=rng.uniform(0.001, 5.0),
                predator_decline=rng.uniform(0.01, 10.0),
                predator_gain=rng.uniform(0.001, 5.0),
            )
            x, y = lv_equilibrium(p)
            dx, dy = lv_derivative(x, y, p)
            assert abs(dx) <= 1e-12 * max(1.0, p.prey_growth * x)
            assert abs(dy) <= 1e-12 * max(1.0, p.predator_decline * y)

    def test_predator_free_axis(self):
        dx, dy = lv_derivative(7.0, 0.0, CANONICAL)
        assert dx == 1.0 * 7.0
        assert dy == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lv_derivative(float("nan"), 1.0, CANONICAL)
        with pytest.raises(ValueError):
            lv_derivative(1.0, float("inf"), CANONICAL)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lv_derivative(-1.0, 1.0, CANONICAL)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            LotkaVolterraParams(0.0, 0.1, 0.5, 0.02)


class TestFirstIntegral:
    def test_golden_value(self):
        # frozen from a 50-digit evaluation of the formula
        assert lv_first_integral(30.0, 8.0, CANONICAL) == pytest.approx(
            -2.380040232510914, abs=1e-15
        )

    def test_minimum_at_equilibrium(self):
        x0, y0 = lv_equilibrium(CANONICAL)
        v0 = lv_first_integral(x0, y0, CANONICAL)
        for angle in np.linspace(0, 2 * math.pi, 17):
            x = x0 * (1 + 0.2 * math.cos(angle))
            y = y0 * (1 + 0.2 * math.sin(angle))
            assert lv_first_integral(x, y, CANONICAL) > v0

    def test_requires_positive_densities(self):
        with pytest.raises(ValueError):
            lv_first_integral(0.0, 1.0, CANONICAL)
        with pytest.raises(ValueError):
            lv_first_integral(1.0, -1.0, CANONICAL)


class TestFunctionalResponse:
    def test_holling_asymptote(self):
        value = functional_response(HollingTypeII(rate=2.0, handling=0.5), 1e6)
        assert value == pytest.approx(2.0, rel=1e-3)

    def test_zero_prey_means_zero_consumption(self):
        for fr in (LinearResponse(1.3), HollingTypeII(2.0, 0.5), IvlevResponse(3.0, 1.0)):
            assert functional_response(fr, 0.0) == 0.0

    def test_ivlev_half_saturation(self):
        assert functional_response(IvlevResponse(3.0, 1.0), math.log(2.0)) == pytest.approx(1.5)

    def test_holling_zero_handling_equals_linear(self):
        for x in (0.0, 0.5, 3.0, 100.0):
            assert functional_response(HollingTypeII(2.0, 0.0), x) == functional_response(
                LinearResponse(2.0), x
            )

    def test_rejects_negative_prey(self):
        with pytest.raises(ValueError):
            functional_response(LinearResponse(1.0), -0.1)

    @given(
        rate=st.floats(0.0, 50.0),
        second=st.floats(0.0, 10.0),
        x1=st.floats(0.0, 1e6),
        x2=st.floats(0.0, 1e6),
        variant=st.sampled_from(["linear", "holling2", "ivlev"]),
    )
    def test_monotone_in_prey(self, rate, second, x1, x2, variant):
        lo, hi = sorted((x1, x2))
        if variant == "linear":
            fr = LinearResponse(rate)
        elif variant == "holling2":
            fr = HollingTypeII(rate, second)
        else:
            fr = IvlevResponse(rate, second)
        assert functional_response(fr, lo) <= functional_response(fr, hi)


class TestCommunityDerivative:
    def test_reduces_exactly_to_classical_pair(self):
        # conversion 0.25 is a power of two, so gain = conversion * rate
        # is exact and the generalized accumulation reproduces the
        # classical arithmetic bit for bit.
        scenario = predation_scenario(conversion=0.25)
        p = LotkaVolterraParams(1.0, 0.1, 0.5, 0.25 * 0.1)
        rng = random.Random(99)
        for _ in range(200):
            x, y = rng.uniform(0, 60), rng.uniform(0, 30)
            expected = lv_derivative(x, y, p)
            got = glv_derivative([x, y], scenario)
            assert (got[0], got[1]) == expected

    def test_zero_state_gives_zero_vector(self):
        scenario = chain_scenario()
        assert np.all(glv_derivative([0.0, 0.0, 0.0], scenario) == 0.0)

    def test_chain_interior_equilibrium_is_a_root(self):
        scenario = chain_scenario()
        equilibrium = chain_equilibrium_oracle()
        assert np.all(equilibrium > 0)
        residual = glv_derivative(equilibrium, scenario)
        assert np.max(np.abs(residual)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="species"):
            glv_derivative([1.0, 2.0, 3.0], predation_scenario())

    def test_competition_and_cooperation_signs(self):
        species = (
            SpeciesSpec(id="a", role=Role.PRODUCER, growth_rate=0.0, self_limitation=0.0),
            SpeciesSpec(id="b", role=Role.PRODUCER, growth_rate=0.0, self_limitation=0.0),
        )
        comp = Scenario(
            species=species,
            interactions=(
                InteractionSpec("a", "b", InteractionKind.COMPETITION, coeff_i=0.2, coeff_j=0.3),
            ),
            initial_densities={"a": 1.0, "b": 1.0},
            horizon=1.0,
        )
        coop = Scenario(
            species=species,
            interactions=(
                InteractionSpec("a", "b", InteractionKind.COOPERATION, coeff_i=0.2, coeff_j=0.3),
            ),
            initial_densities={"a": 1.0, "b": 1.0},
            horizon=1.0,
        )
        x = [2.0, 5.0]
        d_comp = glv_derivative(x, comp)
        d_coop = glv_derivative(x, coop)
        assert d_comp[0] == -0.2 * 2.0 * 5.0 and d_comp[1] == -0.3 * 2.0 * 5.0
        assert d_coop[0] == +0.2 * 2.0 * 5.0 and d_coop[1] == +0.3 * 2.0 * 5.0


class TestContinuum:
    def test_pure_mutualism_endpoint(self):
        entry = continuum_interaction("a", "b", ContinuumParams(1.0, 0.5))
        assert entry.kind == InteractionKind.SYMBIOSIS
        assert (entry.coeff_i, entry.coeff_j) == (0.5, 0.5)

    def test_pure_parasitism_endpoint(self):
        entry = continuum_interaction("a", "b", ContinuumParams(-1.0, 0.5))
        assert entry.kind == InteractionKind.PARASITISM
        assert entry.coeff_i == 1.0
        assert entry.response == LinearResponse(0.5)

    def test_commensalism_midpoint(self):
        entry = continuum_interaction("a", "b", ContinuumParams(0.0, 0.5))
        assert entry.kind == InteractionKind.SYMBIOSIS
        assert (entry.coeff_i, entry.coeff_j) == (0.5, 0.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            ContinuumParams(1.5, 0.5)

    def test_self_limitation_required(self):
        species = (
            SpeciesSpec(id="a", role=Role.PRODUCER, growth_rate=1.0, self_limitation=0.0),
            SpeciesSpec(id="b", role=Role.PRODUCER, growth_rate=1.0, self_limitation=1.0),
        )
        scenario = Scenario(
            species=species,
            interactions=(continuum_interaction("a", "b", ContinuumParams(0.5, 0.5)),),
            initial_densities={"a": 1.0, "b": 1.0},
            horizon=1.0,
        )
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(scenario)
        assert err.value.errors == ["interaction a:b: continuum interaction requires positive self_limitation on 'a'"]

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, -0.25, 0.0, 0.5, 1.0])
    def test_coupling_terms_interpolate(self, alpha):
        strength = 0.5
        entry = continuum_interaction("a", "b", ContinuumParams(alpha, strength))
        species = (
            SpeciesSpec(id="a", role=Role.PRODUCER, growth_rate=0.0, self_limitation=1.0),
            SpeciesSpec(id="b", role=Role.PRODUCER, growth_rate=0.0, self_limitation=1.0),
        )
        scenario = Scenario(
            species=species,
            interactions=(entry,),
            initial_densities={"a": 1.0, "b": 1.0},
            horizon=1.0,
        )
        xa, xb = 2.0, 3.0
        d = glv_derivative([xa, xb], scenario)
        coupling_a = d[0] + 1.0 * xa * xa
        coupling_b = d[1] + 1.0 * xb * xb
        assert coupling_a == pytest.approx(strength * xa * xb, rel=1e-12)
        assert coupling_b == pytest.approx(alpha * strength * xa * xb, rel=1e-12, abs=1e-12)


class TestIntegrate:
    def test_constant_trajectory_for_zero_dynamics(self):
        traj = integrate(single_species(growth=0.0, initial=5.0, horizon=3.0))
        assert np.all(traj.values == 5.0)

    def test_exponential_growth_matches_closed_form(self):
        scenario = single_species(growth=1.0, initial=1.0, horizon=1.0, step=0.001)
        traj = integrate(scenario)
        assert traj.values[-1, 0] == pytest.approx(math.e, rel=1e-6)

    def test_exponential_growth_adaptive(self):
        scenario = Scenario(
            species=(SpeciesSpec(id="only", role=Role.PRODUCER, growth_rate=1.0),),
            interactions=(),
            initial_densities={"only": 1.0},
            integrator=IntegratorConfig(method="rk45_adaptive", step=0.1, rel_tol=1e-9, abs_tol=1e-12),
            horizon=1.0,
        )
        traj = integrate(scenario)
        assert traj.times[-1] == 1.0
        assert traj.values[-1, 0] == pytest.approx(math.e, rel=1e-7)

    def test_orbit_closes_within_one_percent(self):
        scenario = predation_scenario(initial=(30.0, 8.0), horizon=20.0)
        traj = integrate(scenario)
        start = traj.values[0]
        distances = np.linalg.norm(traj.values - start, axis=1) / np.linalg.norm(start)
        later = traj.times > 2.0
        assert distances[later].min() < 0.01

    def test_first_integral_conserved_short_run(self):
        scenario = predation_scenario(initial=(30.0, 8.0), horizon=20.0)
        traj = integrate(scenario)
        v = [lv_first_integral(x, y, CANONICAL) for x, y in traj.values]
        drift = np.max(np.abs(np.array(v) - v[0])) / abs(v[0])
        assert drift < 1e-4

    def test_sampling_grid_fixed_step(self):
        traj = integrate(single_species(growth=0.0, horizon=1.0, step=0.25))
        assert list(traj.times) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_partial_final_step_lands_on_horizon(self):
        traj = integrate(single_species(growth=0.0, horizon=1.1, step=0.25))
        assert traj.times[-1] == 1.1
        assert traj.n_samples == 6

    def test_divergence_detected_for_unbounded_mutualism(self):
        species = (
            SpeciesSpec(id="a", role=Role.PRODUCER, growth_rate=1.0),
            SpeciesSpec(id="b", role=Role.PRODUCER, growth_rate=1.0),
        )
        scenario = Scenario(
            species=species,
            interactions=(
                InteractionSpec("a", "b", InteractionKind.SYMBIOSIS, coeff_i=2.0, coeff_j=2.0),
            ),
            initial_densities={"a": 10.0, "b": 10.0},
            integrator=IntegratorConfig(step=0.01),
            horizon=50.0,
        )
        with pytest.raises(DivergenceError, match="divergence"):
            integrate(scenario)

    def test_extinction_clamped_and_reported(self):
        scenario = single_species(
            growth=1.0, initial=1.0, role=Role.CONSUMER, horizon=30.0, step=0.01
        )
        result = integrate_report(scenario)
        assert result.extinctions and result.extinctions[0][0] == "only"
        when = result.extinctions[0][1]
        assert 19.0 < when < 22.0  # exp(-t) crosses 1e-9 near t = 20.7
        assert result.trajectory.values[-1, 0] == 0.0

    def test_step_overshooting_below_zero_is_clamped(self):
        # Trajectory does not check signs: one RK4 step of x' = -2x^2 from
        # x = 1 with h = 1 lands on -1/3, and the clamp must catch it
        result = integrate_report(single_species(growth=0.0, limit=2.0, initial=1.0, horizon=3.0, step=1.0))
        assert list(result.trajectory.values[:, 0]) == [1.0, 0.0, 0.0, 0.0]
        assert result.extinctions == (("only", 1.0),)

    def test_no_negative_values_anywhere(self):
        result = integrate_report(chain_scenario(horizon=80.0))
        assert np.all(result.trajectory.values >= 0.0)

    def test_deterministic(self):
        scenario = predation_scenario(horizon=5.0)
        a = integrate(scenario)
        b = integrate(scenario)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.times, b.times)

    def test_adaptive_orbit_and_endpoint(self):
        scenario = predation_scenario(initial=(30.0, 8.0), horizon=12.0, method="rk45_adaptive")
        scenario = Scenario(
            species=scenario.species,
            interactions=scenario.interactions,
            initial_densities=scenario.initial_densities,
            integrator=IntegratorConfig(method="rk45_adaptive", step=0.01, rel_tol=1e-8, abs_tol=1e-10),
            horizon=12.0,
        )
        traj = integrate(scenario)
        assert traj.times[-1] == 12.0
        fixed = integrate(predation_scenario(initial=(30.0, 8.0), horizon=12.0))
        assert traj.values[-1] == pytest.approx(fixed.values[-1], rel=1e-4)


class TestIntegratorFailureModes:
    def test_non_finite_derivative_reports_time_and_state(self):
        from ecolab import NonFiniteDerivativeError

        scenario = single_species(growth=0.0, initial=1.0, horizon=1.0, step=0.1)
        with pytest.raises(NonFiniteDerivativeError) as err:
            _report_through(scenario, lambda s: [float("nan")])
        assert err.value.state is not None
        assert "t=" in str(err.value)

    def test_adaptive_step_underflow(self):
        from ecolab import StepSizeUnderflowError

        scenario = Scenario(
            species=(SpeciesSpec(id="only", role=Role.PRODUCER, growth_rate=0.0),),
            interactions=(),
            initial_densities={"only": 1.0},
            integrator=IntegratorConfig(method="rk45_adaptive", step=0.01),
            horizon=10.0,
        )
        # a constant strongly negative field forces the step below the
        # floor once the density is pinned at zero
        with pytest.raises(StepSizeUnderflowError, match="underflow"):
            _report_through(scenario, lambda s: [-1e6])

    def test_adaptive_negative_guard_halves_not_fails(self):
        scenario = Scenario(
            species=(SpeciesSpec(id="only", role=Role.CONSUMER, growth_rate=5.0),),
            interactions=(),
            initial_densities={"only": 1.0},
            integrator=IntegratorConfig(method="rk45_adaptive", step=1.0, rel_tol=1e-6, abs_tol=1e-9),
            horizon=4.0,
        )
        result = integrate_report(scenario)
        assert np.all(result.trajectory.values >= 0.0)
        assert result.trajectory.times[-1] == 4.0

    def test_sub_epsilon_initial_density_flagged_and_stored_clamped(self):
        scenario = single_species(growth=0.0, initial=1e-12, horizon=1.0, step=0.5)
        result = integrate_report(scenario)
        assert result.extinctions == (("only", 0.0),)
        assert result.trajectory.values[0, 0] == 0.0


def test_lv_scenario_roundtrip_parameters():
    scenario = lv_scenario(CANONICAL, (30.0, 8.0), horizon=5.0)
    rhs = community_rhs(scenario)
    d = rhs(np.array([25.0, 10.0]))
    assert d == pytest.approx([0.0, 0.0], abs=1e-14)


# The float step loop against the array-based reference path it replaced
# (tests/helpers.py): every sample, extinction and error must be identical.

_RUN_ERRORS = (DivergenceError, NonFiniteDerivativeError, StepSizeUnderflowError, ValueError)


def _report_through(scenario, f):
    """What `integrate_report` gives with `f` in place of the compiled derivative."""
    return _integrate_report(scenario, _Kernel(f, stagewise_rk4_run(f), None))


def _outcome(run):
    try:
        result = run()
    except _RUN_ERRORS as exc:
        return type(exc), str(exc), getattr(exc, "time", None), getattr(exc, "state", None)
    return result


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple), f"reference raised {want[0].__name__}, got a result"
        assert got[:3] == want[:3]
        assert np.array_equal(got[3], want[3], equal_nan=True) if want[3] is not None else got[3] is None
        return
    assert not isinstance(got, tuple), f"raised {got[0].__name__}: {got[1]}"
    assert np.array_equal(got.trajectory.times, want.trajectory.times)
    assert np.array_equal(got.trajectory.values, want.trajectory.values)
    assert got.extinctions == want.extinctions


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(community_scenarios())
def test_float_loop_matches_reference_path(scenario):
    got = _outcome(lambda: integrate_report(scenario))
    _assert_same_outcome(got, _outcome(lambda: reference_integrate_report(scenario)))
    # the integrators alone keep the samples nonnegative; Trajectory does not check it
    if not isinstance(got, tuple):
        assert np.all(got.trajectory.values >= 0)


def test_rk45_error_norm_matches_reference_path_on_many_species():
    # from eight terms on, numpy's mean adds in a different order from Python's sum
    rng = random.Random(3)
    n = 9
    species = tuple(
        SpeciesSpec(
            id=f"s{k}",
            role=Role.PRODUCER if k % 3 == 0 else Role.CONSUMER,
            trophic_level=0 if k % 3 == 0 else 1,
            growth_rate=rng.uniform(0.1, 1.0),
            self_limitation=rng.uniform(0.05, 0.2),
        )
        for k in range(n)
    )
    interactions = tuple(
        InteractionSpec(f"s{k + 1}", f"s{k}", InteractionKind.PREDATION, coeff_i=0.5, response=LinearResponse(0.3))
        if k % 3 != 2
        else InteractionSpec(f"s{k}", f"s{k + 1}", InteractionKind.COMPETITION, coeff_i=0.1, coeff_j=0.2)
        for k in range(n - 1)
    )
    scenario = Scenario(
        species=species,
        interactions=interactions,
        initial_densities={sp.id: rng.uniform(0.5, 5.0) for sp in species},
        integrator=IntegratorConfig(method="rk45_adaptive", step=0.1),
        horizon=30.0,
    )
    got = integrate_report(scenario)
    want = reference_integrate_report(scenario)
    assert want.trajectory.n_samples > 20
    _assert_same_outcome(got, want)


@pytest.mark.parametrize("n", range(1, 10))
def test_rk45_error_norm_is_numpys_per_species_count(n):
    # below eight terms a plain loop adds in numpy's order; from eight on
    # numpy's pairwise order differs from it on about a fifth of these vectors
    rng = random.Random(n)
    for _ in range(4000):
        values = [rng.uniform(-3.0, 3.0) * 10.0 ** rng.uniform(-12.0, 4.0) for _ in range(n)]
        assert repr(_rms(values)) == repr(float(np.sqrt(np.mean([v * v for v in values])))), values
    for special in ([0.0] * n, [1e200] * n, [5e-324] * n, [float("nan")] + [1.0] * (n - 1)):
        assert repr(_rms(special)) == repr(float(np.sqrt(np.mean([v * v for v in special]))))


def _symbiosis_pair(method):
    return Scenario(
        species=(
            SpeciesSpec(id="a", role=Role.PRODUCER, growth_rate=1.0),
            SpeciesSpec(id="b", role=Role.PRODUCER, growth_rate=1.0),
        ),
        interactions=(InteractionSpec("a", "b", InteractionKind.SYMBIOSIS, coeff_i=3.0, coeff_j=1.0),),
        initial_densities={"a": 1.0, "b": 1.0},
        integrator=IntegratorConfig(method=method, step=0.01),
        horizon=10.0,
    )


@pytest.mark.parametrize("method", METHODS)
def test_divergence_matches_reference_path(method):
    scenario = _symbiosis_pair(method)
    got = _outcome(lambda: integrate_report(scenario))
    want = _outcome(lambda: reference_integrate_report(scenario))
    assert want[0] is DivergenceError
    _assert_same_outcome(got, want)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "derivative",
    [
        lambda s: np.full(s.shape, np.nan),
        lambda s: np.where(s > 40.0, np.inf, s),  # finite until the prey passes 40
    ],
    ids=["nan-everywhere", "inf-after-growth"],
)
def test_non_finite_derivative_matches_reference_path(method, derivative):
    scenario = predation_scenario(method=method)
    got = _outcome(lambda: _report_through(scenario, lambda y: derivative(np.array(y)).tolist()))
    want = _outcome(lambda: reference_integrate_report(scenario, derivative))
    assert want[0] is NonFiniteDerivativeError
    _assert_same_outcome(got, want)


@pytest.mark.parametrize("method", METHODS)
def test_overflowing_step_matches_reference_path(method):
    # every stage is finite but the step overflows: no derivative error, the
    # divergence check sees the infinite state
    scenario = predation_scenario(method=method, step=1.0)
    derivative = lambda s: np.full(s.shape, 1e308)
    got = _outcome(lambda: _report_through(scenario, lambda y: derivative(np.array(y)).tolist()))
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(lambda: reference_integrate_report(scenario, derivative))
    _assert_same_outcome(got, want)


def _ivlev_overflow():
    # The symbiosis pair s2-s3 diverges; s3 preys on s4 through an Ivlev
    # response, so an RK4 stage drives s4 far below 0 and exp(-saturation*x)
    # overflows.  That is a non-finite derivative, not an OverflowError.
    species = tuple(SpeciesSpec(id=f"s{k}", role=Role.PRODUCER) for k in range(3))
    return Scenario(
        species=species,
        interactions=(
            InteractionSpec("s0", "s1", InteractionKind.SYMBIOSIS, coeff_i=1.0, coeff_j=1.0),
            InteractionSpec("s1", "s2", InteractionKind.PREDATION, response=IvlevResponse(1.0, 1.0)),
        ),
        initial_densities={"s0": 1.0, "s1": 1.0, "s2": 1.0},
        integrator=IntegratorConfig(method="rk4_fixed", step=0.07),
        horizon=2.0,
    )


def test_ivlev_overflow_is_a_non_finite_derivative():
    scenario = _ivlev_overflow()
    got = _outcome(lambda: integrate_report(scenario))
    want = _outcome(lambda: reference_integrate_report(scenario))
    assert want[0] is NonFiniteDerivativeError
    _assert_same_outcome(got, want)


# The generated RK4 loop hands back the new state it refuses, with whether
# its stages were finite, when that state is not finite, needs a clamp or
# exceeds DIVERGENCE_LIMIT; the careful checks (non-finite stages, clamp,
# divergence) on it must then give what the reference gives for every step.

_EPSILON = IntegratorConfig().extinction_epsilon
_SPECIAL = (
    _EPSILON, math.nextafter(_EPSILON, -math.inf), math.nextafter(_EPSILON, math.inf),
    0.0, -0.0, 5e-324, -5e-324, -1.0, 1.0,
    DIVERGENCE_LIMIT, math.nextafter(DIVERGENCE_LIMIT, math.inf), math.nextafter(DIVERGENCE_LIMIT, -math.inf),
    math.inf, -math.inf, math.nan,
)


def _with_epsilon(scenario, epsilon):
    return replace(scenario, integrator=replace(scenario.integrator, extinction_epsilon=epsilon))


def _decay():
    """x' = -x from 1, 30 steps of 0.1: no extinction at the default epsilon."""
    return single_species(growth=1.0, initial=1.0, role=Role.CONSUMER, horizon=3.0, step=0.1)


def _decay_to(horizon, step=0.1):
    """x' = -x from 1 up to `horizon`."""
    return single_species(growth=1.0, initial=1.0, role=Role.CONSUMER, horizon=horizon, step=step)


def _grow_to(horizon):
    """x' = x from DIVERGENCE_LIMIT / 2.8 up to `horizon`, in steps of 0.1."""
    return single_species(growth=1.0, initial=DIVERGENCE_LIMIT / 2.8, horizon=horizon, step=0.1)


def _decay_value(k):
    return float(integrate_report(_decay()).trajectory.values[k, 0])


def _logistic_to(capacity):
    """Logistic growth from capacity/4 whose RK4 steps of 1.0 reach `capacity` exactly.

    With self-limitation 2**-40 and growth capacity * 2**-40 the derivative
    is exactly 0 at the capacity.
    """
    return single_species(growth=capacity * 2.0**-40, limit=2.0**-40, initial=capacity / 4, horizon=80.0, step=1.0)


def _pair_with_zero(zero):
    species = (
        SpeciesSpec(id="held", role=Role.PRODUCER, growth_rate=0.5),
        SpeciesSpec(id="grows", role=Role.PRODUCER, growth_rate=0.5),
    )
    return Scenario(
        species=species,
        interactions=(),
        initial_densities={"held": zero, "grows": 1.0},
        integrator=IntegratorConfig(step=0.1),
        horizon=2.0,
    )


# scenario, then the steps each `rk4_run` call made, and the error the run ends in
_HANDOFFS = {
    # x' = -x crosses the default epsilon on step 2073, near t = 20.7
    "extinction": (lambda: single_species(growth=1.0, initial=1.0, role=Role.CONSUMER, horizon=30.0, step=0.01),
                   [2072, 927], None),
    "on-epsilon": (lambda: _with_epsilon(_decay(), _decay_value(10)), [10, 19], None),
    "below-epsilon": (lambda: _with_epsilon(_decay(), math.nextafter(_decay_value(10), math.inf)), [9, 20], None),
    "zero": (lambda: _pair_with_zero(0.0), [20], None),
    "negative-zero": (lambda: _pair_with_zero(-0.0), [20], None),
    "on-limit": (lambda: _logistic_to(DIVERGENCE_LIMIT), [80], None),
    "above-limit": (lambda: _logistic_to(math.nextafter(DIVERGENCE_LIMIT, math.inf)), [42], DivergenceError),
    "ivlev-overflow": (_ivlev_overflow, [15], NonFiniteDerivativeError),
    "remainder": (lambda: predation_scenario(horizon=1.05, step=0.1), [10, 1], None),
    # x' = -x stays above 0.36 for 10 steps of 0.1, then the remainder step of 0.05 clamps it
    "clamp-in-remainder": (lambda: _with_epsilon(_decay_to(1.05), 0.36), [10, 0], None),
    # x' = x from DIVERGENCE_LIMIT / 2.8 passes the limit only in the remainder step
    "divergence-in-remainder": (lambda: _grow_to(1.05), [10, 0], DivergenceError),
    "extinction-then-remainder": (lambda: _decay_to(30.005, step=0.01), [2072, 927, 1], None),
    # 3 * 0.1 is not 0.3, but the last sample of a run without a remainder is the horizon
    "no-remainder": (lambda: predation_scenario(horizon=0.3, step=0.1), [3], None),
    # every stage is finite (near 4e307), but their weighted sum overflows: the new state is inf
    "overflowing-step": (lambda: single_species(growth=4e297, initial=1e10, horizon=1e-299, step=1e-300),
                         [0], DivergenceError),
}


@pytest.mark.parametrize("case", list(_HANDOFFS))
def test_rk4_run_hands_off_to_the_careful_step(case, monkeypatch):
    build, run_steps, error = _HANDOFFS[case]
    scenario = build()
    made = []

    def counting_kernel(scenario):
        kernel = _kernel(scenario)
        run = kernel.rk4_run

        def counted_run(y, h, half, sixth, count, lo, hi, yw):
            refused = run(y, h, half, sixth, count, lo, hi, yw)
            # one step per offset of `count` up to the refused state's, whose step is not counted
            end = count.stop if refused is None else refused[0]
            made.append(len(range(count.start, end, count.step)))
            return refused

        return kernel._replace(rk4_run=counted_run)

    monkeypatch.setattr(continuous, "_kernel", counting_kernel)
    got = _outcome(lambda: integrate_report(scenario))
    monkeypatch.undo()
    with np.errstate(over="ignore"):  # the reference's arrays warn on the overflowing step
        want = _outcome(lambda: reference_integrate_report(scenario))
    _assert_same_outcome(got, want)
    assert made == run_steps
    if error is not None:
        assert want[0] is error
        return
    values = got.trajectory.values
    assert np.array_equal(np.signbit(values), np.signbit(want.trajectory.values))
    if case == "on-epsilon":
        assert values[10, 0] == scenario.integrator.extinction_epsilon
        assert got.extinctions == (("only", got.trajectory.times[11]),)
    if case == "below-epsilon":
        assert got.extinctions == (("only", got.trajectory.times[10]),)
    if case == "clamp-in-remainder":
        assert got.extinctions == (("only", 1.05),) and values[-1, 0] == 0.0 and values[-2, 0] > 0.36
    if case == "negative-zero":
        assert np.all(np.signbit(values[:, 0]))
    if case == "on-limit":
        assert values.max() == DIVERGENCE_LIMIT


def test_rk4_run_hand_off_predicate_is_the_careful_checks():
    # one step of zero growth leaves a finite density as it is, -0.0 included
    scenario = Scenario(
        species=(SpeciesSpec(id="a", role=Role.PRODUCER, growth_rate=0.0),
                 SpeciesSpec(id="b", role=Role.PRODUCER, growth_rate=0.0)),
        interactions=(),
        initial_densities={"a": 1.0, "b": 1.0},
    )
    run = _kernel(scenario).rk4_run
    for v in _SPECIAL:
        clamped = [v]
        _clamp_extinctions(clamped, 0.0, _EPSILON, ("a",), {})
        careful_passes = (
            _all_finite([v]) and repr(clamped[0]) == repr(v) and not _max_exceeds([v], DIVERGENCE_LIMIT)
        )
        for state in ([v, 1.0], [1.0, v]):
            # the one step writes at offset 2 of a buffer whose other cells hold a value no step writes
            buffer = np.full(6, 0.125)
            refused = run(state, 0.1, 0.05, 0.1 / 6.0, range(2, 4, 2), _EPSILON, DIVERGENCE_LIMIT, memoryview(buffer))
            written = buffer[2:4].tolist()
            assert (written != [0.125, 0.125]) == careful_passes == (refused is None), v
            assert buffer[:2].tolist() == buffer[4:].tolist() == [0.125, 0.125]
            if refused is None:
                assert repr(tuple(written)) == repr(tuple(state))
            else:  # a stage is 0.0 * v, which is finite exactly when v is
                assert refused[0] == 2
                assert refused[2] == math.isfinite(v)
                if refused[2]:
                    assert repr(tuple(refused[1])) == repr(tuple(state))


def _cooperation_blowup():
    """Five species whose s1-s3 cooperation loop blows up in finite time near t = 1.741.

    Drawn by the equivalence test above with --hypothesis-seed=9: the RKF45
    controller then holds h near 1e-8, far above the underflow floor, and
    without a step budget kept stepping for good.
    """
    producer, consumer = Role.PRODUCER, Role.CONSUMER
    rates = [
        ("s0", producer, 1.8148972396687686e-45, 1.2878530314242134),
        ("s1", consumer, 1.3898799013309115, 0.0),
        ("s2", consumer, 1.822819113961906, 0.5),
        ("s3", producer, 1.8519848048399594, 0.0),
        ("s4", consumer, 0.8206605417153849, 0.0),
    ]
    coop, comp = InteractionKind.COOPERATION, InteractionKind.COMPETITION
    return Scenario(
        species=tuple(
            SpeciesSpec(id=sid, role=role, trophic_level=0 if role == producer else 1, growth_rate=g, self_limitation=s)
            for sid, role, g, s in rates
        ),
        interactions=(
            InteractionSpec("s1", "s0", coop, coeff_i=4.942962845147978e-48, coeff_j=1.1779871047179273),
            InteractionSpec("s0", "s4", comp, coeff_i=0.45181909327432745, coeff_j=1.0453998746644702),
            InteractionSpec("s3", "s1", coop, coeff_i=1e-05, coeff_j=0.45606242905378436),
            InteractionSpec("s2", "s4", comp, coeff_i=0.7619325678517705, coeff_j=0.6112976156324247),
            InteractionSpec(
                "s4", "s3", InteractionKind.PARASITISM, coeff_i=3.1221527213098185e-109,
                response=IvlevResponse(0.853770512566405, 1.5398179562733874),
            ),
        ),
        initial_densities={"s0": 3.143471301328938, "s1": 9.4383408192074, "s2": 5e-10, "s3": 2.4916234644988102, "s4": 0.0},
        integrator=IntegratorConfig(method="rk45_adaptive", step=0.01),
        horizon=2.05,
    )


def test_rk45_step_budget_ends_a_finite_time_blowup():
    with pytest.raises(StepSizeUnderflowError, match=r"step budget of \d+ attempted steps spent at t=") as err:
        integrate_report(_cooperation_blowup())
    t, h = (float(part.split("=")[1]) for part in str(err.value).rsplit(" at ", 1)[1].split(", "))
    assert 1.7 < t < 1.741
    assert 1e-12 < h < 1e-5  # a tiny step, but far above the underflow floor


def test_rk45_bench_document_stays_far_below_the_step_budget(monkeypatch):
    # the document-runs bench's food-chain-rk45 document
    scenario = _relabel(saturating_chain_scenario("rk45_adaptive"), ("plant", "grazer", "carnivore"))
    calls = 0

    def counting_kernel(scenario):
        kernel = _kernel(scenario)

        def counted(x):
            nonlocal calls
            calls += 1
            return kernel.rhs(x)

        return kernel._replace(rhs=counted)

    monkeypatch.setattr(continuous, "_kernel", counting_kernel)
    result = integrate_report(scenario)
    assert result.trajectory.n_samples - 1 == 64
    attempts = calls // 6  # six stages per attempted step
    assert 100 * attempts < _RK45_STEP_BUDGET

def test_rk4_step_budget_refuses_a_run_before_its_first_step(monkeypatch):
    monkeypatch.setattr(continuous, "_RK4_STEP_BUDGET", 100)
    assert integrate(single_species(horizon=1.0, step=0.01)).n_samples == 101
    # the adaptive integrator has its own budget, of attempted steps
    adaptive = single_species(horizon=1.01, step=0.01)
    adaptive = replace(adaptive, integrator=replace(adaptive.integrator, method="rk45_adaptive"))
    assert integrate(adaptive).times[-1] == 1.01
    calls = []

    def recording_kernel(scenario):
        return _Kernel(lambda x: calls.append("rhs"), lambda *args: calls.append("rk4_run"), None)

    monkeypatch.setattr(continuous, "_kernel", recording_kernel)
    with pytest.raises(ValueError, match=r"^rk4_fixed horizon / step must be <= 100 steps, got 101$"):
        integrate_report(single_species(horizon=1.01, step=0.01))
    # a horizon / step that overflows is refused too
    with pytest.raises(ValueError, match=r"^rk4_fixed horizon / step must be <= 100 steps, got inf$"):
        integrate_report(single_species(horizon=1e300, step=1e-10))
    assert calls == []


def test_rk4_documents_stay_far_below_the_step_budget():
    documents = [demo_document(name) for name in DEMO_NAMES if name != "mimicry"]
    steps = [
        doc.horizon / doc.integrator.step
        for doc in documents
        if isinstance(doc, Scenario) and doc.integrator.method == "rk4_fixed"
    ]
    assert max(steps) == 12000  # food-chain
    assert 50 * max(steps) < _RK4_STEP_BUDGET


# The RK4 time grid is numpy's arange times the step; the times a run
# reports from it (extinctions and errors) stay Python floats.


@pytest.mark.parametrize("step", [0.01, 0.07, 0.1, 1 / 3])
def test_arange_time_grid_is_k_times_h_bit_for_bit(step):
    n = 10**5
    assert (np.arange(n) * step).tobytes() == np.array([k * step for k in range(n)]).tobytes()


@pytest.mark.parametrize("case", ["extinction", "clamp-in-remainder", "above-limit", "divergence-in-remainder",
                                  "ivlev-overflow"])
def test_reported_times_are_python_floats(case):
    build, _, error = _HANDOFFS[case]
    outcome = _outcome(lambda: integrate_report(build()))
    if error is None:
        times = [t for _, t in outcome.extinctions]
    else:
        assert outcome[0] is error
        times = [outcome[2]]
    assert times and all(type(t) is float for t in times)


# Independent oracle: scipy's DOP853 at tight tolerances, sampled where
# the integrator sampled.  Error is relative to max(1, |y|).
_ORACLE_BOUND = {"rk4_fixed": 1e-8, "rk45_adaptive": 1e-5}


def _oracle_scenarios():
    arms = demo_document("arms-race")
    path = "interaction.attacker:victim.alpha"
    return {
        "food-chain": demo_document("food-chain"),
        "arms-race+0.5": set_parameter(arms, path, 0.5),
        "arms-race-0.5": set_parameter(arms, path, -0.5),
        "holling-ivlev-chain": saturating_chain_scenario(),
    }


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", list(_oracle_scenarios()))
def test_integrators_match_dop853(name, method):
    integrate_ivp = pytest.importorskip("scipy.integrate")
    scenario = _oracle_scenarios()[name]
    scenario = replace(scenario, integrator=replace(scenario.integrator, method=method))
    result = integrate_report(scenario)
    assert result.extinctions == ()
    times = result.trajectory.times
    rhs = community_rhs(scenario)
    solution = integrate_ivp.solve_ivp(
        lambda t, y: rhs(y.tolist()),
        (0.0, scenario.horizon),
        scenario.initial_state(),
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        t_eval=times,
    )
    assert solution.success
    expected = solution.y.T
    error = np.max(np.abs(result.trajectory.values - expected) / np.maximum(1.0, np.abs(expected)))
    assert error < _ORACLE_BOUND[method]


# Volterra's first integral at n species (Hofbauer & Sigmund 1998, "Evolutionary Games and Population
# Dynamics"): with linear predation entries that form a tree and no self-limitation, the weights
# D_aggressor = D_victim / conversion make D A skew-symmetric, so V = sum_i D_i (x_i - x*_i ln x_i) is
# conserved.  Each tree: producer count, (aggressor, victim) entries, the equilibrium the growth rates
# are set from, the entries' rates and their conversions.
_VOLTERRA_TREES = {
    4: (2, [(2, 0), (2, 1), (3, 1)], [3.0, 5.0, 2.0, 1.5], [0.2, 0.1, 0.3], [0.5, 0.25, 0.4]),
    6: (
        3,
        [(3, 0), (3, 1), (4, 1), (4, 2), (5, 2)],
        [3.0, 5.0, 4.0, 2.0, 1.5, 1.0],
        [0.2, 0.1, 0.3, 0.15, 0.25],
        [0.5, 0.25, 0.4, 0.3, 0.6],
    ),
}


@pytest.mark.parametrize("n", sorted(_VOLTERRA_TREES))
def test_volterra_first_integral_is_conserved_at_n_species(n):
    producers, entries, target, rates, conversions = _VOLTERRA_TREES[n]
    a = np.zeros((n, n))
    for (i, j), rate, conversion in zip(entries, rates, conversions):
        a[j, i] -= rate
        a[i, j] += conversion * rate
    r = -a @ np.array(target)
    weights = {entries[0][1]: 1.0}
    while len(weights) < n:  # out along the tree from one producer
        for (i, j), conversion in zip(entries, conversions):
            if j in weights:
                weights.setdefault(i, weights[j] / conversion)
            elif i in weights:
                weights[j] = weights[i] * conversion
    d = np.array([weights[k] for k in range(n)])
    np.testing.assert_allclose(d[:, None] * a, -(d[:, None] * a).T, rtol=0, atol=1e-15)
    ids = [f"s{k}" for k in range(n)]
    scenario = Scenario(
        species=tuple(
            SpeciesSpec(ids[k], role=Role.PRODUCER, growth_rate=r[k]) if k < producers
            else SpeciesSpec(ids[k], role=Role.CONSUMER, trophic_level=1, growth_rate=-r[k])
            for k in range(n)
        ),
        interactions=tuple(
            InteractionSpec(ids[i], ids[j], InteractionKind.PREDATION, conversion, response=LinearResponse(rate))
            for (i, j), rate, conversion in zip(entries, rates, conversions)
        ),
        initial_densities={ids[k]: x * f for k, (x, f) in enumerate(zip(target, [1.3, 0.8, 1.1, 0.7, 1.2, 0.9]))},
        horizon=100.0,
    )
    x_star = np.linalg.solve(a, -r)
    interior = [point for point in find_fixed_points(scenario) if np.all(point > 0)]
    assert len(interior) == 1
    np.testing.assert_allclose(interior[0], x_star, rtol=1e-9, atol=0)

    def drift(**config):
        values = integrate(replace(scenario, integrator=IntegratorConfig(**config))).values
        v = (d * (values - x_star * np.log(values))).sum(axis=1)
        return np.max(np.abs(v - v[0]))

    coarse, fine = drift(method="rk4_fixed", step=0.05), drift(method="rk4_fixed", step=0.01)
    # V is about 1 on both trees; RK4 drifted 3.9e-9 (n = 4) and 1.7e-8 (n = 6) at step 0.05
    assert coarse < 1e-7
    # fourth order: a fifth of the step leaves 5**-4 = 1/625 of the drift (1/726 and 1/790 observed)
    assert fine < 2 * coarse / 5**4
    # RKF45 drifted 8.5e-8 and 1.1e-7
    assert drift(method="rk45_adaptive", step=0.01, rel_tol=1e-8) < 1e-6


# The compiled kernel: one code object per scenario structure, with every
# value and id kept out of the source.

_KERNEL_NAME = re.compile(
    r"(?:[xydegsvfpqtu]|k[1-4]_)\d+|[xycbri_]|h|two_h|half|sixth|lo|hi|count|fd_step"
    r"|starts|iterations|stop|fractions|neg|snap|tol|dedupe|margin|norm|trial|exact|exact_trial|lam"
    r"|jac|sol|res|[jbsry]w|clear|(?:stop|tol)_clear|found"
    r"|solve1|sqrt|dot|memoryview|cast|append|max|abs|isfinite|empty|FloatingPointError"
    r"|_(?:[gsvfpq]\d+|empty|isfinite|sqrt|solve1)"
)
# the names `_kernel` binds in the namespace the code runs in, and the functions the code defines
# there: a local of one of these would shadow it
_BOUND_NAME = re.compile(r"[gsvfpq]\d+|empty|isfinite|sqrt|solve1|rhs|rk4_run|roots")


def _bound_loads(code) -> tuple[list[str], int]:
    """The bound names `code` loads from its namespace, in order, and how many it loads before its first loop."""
    loads, before_loop = [], None
    for instruction in dis.get_instructions(code):
        if instruction.opname == "FOR_ITER" and before_loop is None:
            before_loop = len(loads)
        if instruction.opname == "LOAD_GLOBAL" and _BOUND_NAME.fullmatch(instruction.argval):
            loads.append(instruction.argval)
    return loads, len(loads) if before_loop is None else before_loop


def _relabel(scenario, ids):
    """The scenario with its species renamed, in declaration order."""
    rename = dict(zip(scenario.species_ids, ids))
    return replace(
        scenario,
        species=tuple(replace(sp, id=rename[sp.id]) for sp in scenario.species),
        interactions=tuple(
            replace(e, species_i=rename[e.species_i], species_j=rename[e.species_j])
            for e in scenario.interactions
        ),
        initial_densities={rename[k]: v for k, v in scenario.initial_densities.items()},
    )


def test_one_structure_shares_one_code_object():
    first = predation_scenario()
    second = lv_scenario(
        LotkaVolterraParams(2.0, 0.3, 0.7, 0.09), (5.0, 1.0), prey_id="rabbit", predator_id="fox"
    )
    _compile_structure.cache_clear()
    a, b = _kernel(first), _kernel(second)
    assert _compile_structure.cache_info().misses == 1
    assert a.rhs.__code__ is b.rhs.__code__
    assert a.rk4_run.__code__ is b.rk4_run.__code__
    assert a.roots.__code__ is b.roots.__code__
    assert a.rhs([3.0, 2.0]) != b.rhs([3.0, 2.0])  # the values are bound apart from the code
    # the root search's: max(1, |x_i|) as comparisons with +-1.0, the range [2^-400, 2^400] of the float
    # norms it trusts, the formats of its flat Jacobian view, and its buffers' sizes and indices, which only
    # the species count sets; every other number comes in as an argument (a list: in a set, 1 is 1.0)
    roots_consts = [1.0, -1.0, 2.0**-400, 2.0**400, "B", "d", 2, (2, 2), 0, 1, 3]
    roots = a.roots.__code__
    assert roots.co_varnames[: roots.co_argcount] == (
        "starts", "iterations", "fd_step", "stop", "fractions", "neg", "snap", "tol", "dedupe", "margin"
    )
    # the Jacobian, right-hand side, solution and residual buffers are written and read through memoryviews
    assert {"jw", "bw", "sw", "rw", "memoryview"} <= set(roots.co_varnames + roots.co_names)
    # the RK4 loop's: the write offset of each species after the first, which only the species count sets
    rk4_consts = [1]
    rk4 = a.rk4_run.__code__
    assert rk4.co_varnames[: rk4.co_argcount] == ("y", "h", "half", "sixth", "count", "lo", "hi", "yw")
    # each state is written through the memoryview the caller gives, never collected in a list
    assert not {"extend", "append", "memoryview"} & set(rk4.co_names)
    states, stagewise = np.zeros(6), np.zeros(6)
    for run, buffer in ((a.rk4_run, states), (stagewise_rk4_run(a.rhs), stagewise)):
        assert run([3.0, 2.0], 0.1, 0.05, 0.1 / 6.0, range(2, 6, 2), 1e-9, 1e12, memoryview(buffer)) is None
    assert states.tolist() == stagewise.tolist() and states[:2].tolist() == [0.0, 0.0] and states[2:].all()

    def typed(values):  # constants with their types, since 0.0 == False and 1.0 == True
        return {(type(v), v) for v in values}

    for code, own in (
        (a.rhs.__code__, set()),
        (a.rk4_run.__code__, rk4_consts),
        (a.roots.__code__, roots_consts),
    ):
        assert all(_KERNEL_NAME.fullmatch(name) for name in code.co_names + code.co_varnames)
        assert not any(_BOUND_NAME.fullmatch(name) for name in code.co_varnames)
        assert typed(code.co_consts) <= typed([None, 0.0, 2.0]) | typed(own)
    # every fixed name `_kernel` binds is read by some generated function: a binding left unused fails here
    bound = set(a.rhs.__globals__) - {"__builtins__", *a._fields}
    fixed = {name for name in bound if not re.fullmatch(r"[gsvfpq]\d+", name)}
    assert fixed == {"empty", "isfinite", "sqrt", "solve1"}
    assert fixed <= {name for function in a for name in function.__code__.co_names}
    # the loops read each bound name once per call, before their first loop, into the local `_<name>`
    # and from then on only that local; `rhs`, with no loop, reads each bound name where it uses it
    coefficients = {name for name in bound if re.fullmatch(r"[gsvfpq]\d+", name)}
    for function, reads in ((a.rk4_run, coefficients | {"isfinite"}), (a.roots, coefficients | fixed)):
        loads, before_loop = _bound_loads(function.__code__)
        assert sorted(loads) == sorted(reads) and before_loop == len(loads)
        assert {f"_{name}" for name in reads} <= set(function.__code__.co_varnames)
    loads, _ = _bound_loads(a.rhs.__code__)
    assert sorted(loads) == sorted(coefficients)
    assert not any(name.startswith("_") for name in a.rhs.__code__.co_varnames)
    assert not any(i.opname == "FOR_ITER" for i in dis.get_instructions(a.rhs.__code__))


@pytest.mark.parametrize("method", METHODS)
def test_hostile_species_ids_never_reach_the_source(method):
    hostile = ('a"b\'c', "x); import os #", "line\nbreak\\")
    scenario = _relabel(saturating_chain_scenario(method), hostile)
    scenario = replace(scenario, horizon=20.0)
    got = integrate_report(scenario)
    want = reference_integrate_report(scenario)
    _assert_same_outcome(got, want)
    assert got.trajectory.variable_names == hostile
    assert _kernel(scenario).rhs.__code__ is _kernel(saturating_chain_scenario()).rhs.__code__


def test_binding_an_invalid_scenario_is_a_validation_error():
    scenario = predation_scenario()
    ghost = replace(scenario, interactions=(replace(scenario.interactions[0], species_j="ghost"),))
    with pytest.raises(ScenarioValidationError, match="names unknown species 'ghost'"):
        _kernel(ghost)


def test_arms_race_sweep_compiles_two_structures():
    # symbiosis for alpha >= 0, parasitism through a linear response below
    arms = replace(demo_document("arms-race"), horizon=6.0)
    _compile_structure.cache_clear()
    report = sweep(arms, "interaction.attacker:victim.alpha", np.linspace(1.0, -1.0, 21))
    assert len(report.points) == 21
    info = _compile_structure.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.hits > 0


def test_repeated_analysis_compiles_nothing_more():
    scenario = chain_scenario()
    equilibrium = chain_equilibrium_oracle()
    glv_derivative(equilibrium, scenario)
    stability_report(scenario, equilibrium)
    misses = _compile_structure.cache_info().misses
    for _ in range(50):
        glv_derivative(equilibrium, scenario)
        stability_report(scenario, equilibrium)
    assert _compile_structure.cache_info().misses == misses

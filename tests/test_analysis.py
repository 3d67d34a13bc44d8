import functools
import json
import math
import random
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ecolab import (
    Classification,
    HollingTypeII,
    InteractionKind,
    InteractionSpec,
    LinearResponse,
    LotkaVolterraParams,
    ParseError,
    Role,
    Scenario,
    SpeciesSpec,
    analyze_scenario,
    classify,
    community_rhs,
    find_fixed_points,
    integrate,
    integrate_report,
    jacobian_at,
    jacobian_of,
    lv_derivative,
    lv_scenario,
    oscillation_period,
    parse_scenario,
    serialize_scenario,
    set_parameter,
    stability_report,
    sweep,
    sweep_epidemic,
)
from ecolab import EpidemicModel, complete_graph
from ecolab import _kernel as kernel_module
from ecolab import analysis, continuous
from ecolab.analysis import (
    _DEDUPE_TOL,
    _ROOTS_ARGS,
    _SOLVE_ERRSTATE,
    _as_classical_pair,
    _central_jacobian,
    _newton_starts,
)
from ecolab._kernel import _kernel, _norm_margin, _solve1
from ecolab.core import TROPHIC_KINDS
from ecolab.demos import DEMO_NAMES, demo_document
from helpers import (
    HUGE_RATES,
    _norm,
    chain_equilibrium_oracle,
    chain_scenario,
    community_scenarios,
    predation_scenario,
    reference_community_rhs,
    reference_find_fixed_points,
    reference_jacobian_of,
    reference_newton,
    reference_roots,
    reference_set_parameter,
    reference_unwrapped_newton,
    saturating_chain_scenario,
    single_species,
)

CANONICAL = LotkaVolterraParams(1.0, 0.1, 0.5, 0.02)


class TestClassify:
    def test_purely_imaginary_pair_is_center_like(self):
        root = math.sqrt(0.5)
        assert classify([complex(0, root), complex(0, -root)]) == Classification.CENTER_LIKE

    def test_stable_node(self):
        assert classify([-1.0, -2.0]) == Classification.STABLE_NODE

    def test_saddle(self):
        assert classify([-1.0, 0.5]) == Classification.SADDLE

    def test_stable_focus(self):
        assert classify([complex(-0.5, 2.0), complex(-0.5, -2.0)]) == Classification.STABLE_FOCUS

    def test_unstable_node_and_focus(self):
        assert classify([1.0, 2.0]) == Classification.UNSTABLE_NODE
        assert classify([complex(0.5, 1.0), complex(0.5, -1.0)]) == Classification.UNSTABLE_FOCUS

    def test_undetermined_when_flat_and_real(self):
        assert classify([0.0, -1e-9]) == Classification.UNDETERMINED

    def test_needs_input(self):
        with pytest.raises(ValueError):
            classify([])

    @pytest.mark.parametrize("nan", [complex(math.nan, 0.0), complex(0.0, math.nan)], ids=["real", "imag"])
    def test_a_nan_part_is_refused_in_either_order(self, nan):
        # max and min over a NaN depend on where it sits: [1, nan] read as unstable_node, [nan, 1] as undetermined
        for eigenvalues in ([1 + 0j, nan], [nan, 1 + 0j]):
            with pytest.raises(ValueError, match="eigenvalues must not be NaN"):
                classify(eigenvalues)

    @given(
        reals=st.lists(
            st.floats(min_value=-100.0, max_value=100.0).filter(lambda v: abs(v) >= 1e-6),
            min_size=1,
            max_size=5,
        ),
        imags=st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=5),
        factor=st.floats(1e-3, 1e3),
    )
    def test_scaling_never_flips_stability(self, reals, imags, factor):
        ev = [complex(re, im) for re, im in zip(reals, imags)]
        stable = {Classification.STABLE_NODE, Classification.STABLE_FOCUS}
        unstable = {
            Classification.UNSTABLE_NODE,
            Classification.UNSTABLE_FOCUS,
            Classification.SADDLE,
        }
        before = classify(ev)
        after = classify([factor * v for v in ev])
        assert not (before in stable and after in unstable)
        assert not (before in unstable and after in stable)


class TestJacobian:
    def test_classical_equilibrium_jacobian(self):
        scenario = predation_scenario(conversion=0.2)
        jac = jacobian_at(scenario, [25.0, 10.0])
        assert jac == pytest.approx(np.array([[0.0, -2.5], [0.2, 0.0]]), abs=1e-6)

    def test_zero_dynamics_zero_matrix(self):
        scenario = single_species(growth=0.0)
        assert jacobian_at(scenario, [3.0]) == pytest.approx(np.zeros((1, 1)), abs=1e-9)

    def test_logistic_at_carrying_capacity(self):
        scenario = single_species(growth=1.0, limit=0.1)
        assert jacobian_at(scenario, [10.0])[0, 0] == pytest.approx(-1.0, abs=1e-6)

    def test_matches_analytic_lotka_volterra(self):
        rng = random.Random(42)
        for _ in range(100):
            p = LotkaVolterraParams(
                rng.uniform(0.1, 3.0),
                rng.uniform(0.01, 1.0),
                rng.uniform(0.1, 3.0),
                rng.uniform(0.01, 1.0),
            )
            x, y = rng.uniform(0.5, 40.0), rng.uniform(0.5, 40.0)
            fn = lambda s: np.array(lv_derivative(s[0], s[1], p))
            jac = jacobian_of(fn, [x, y])
            analytic = np.array(
                [
                    [p.prey_growth - p.encounter_rate * y, -p.encounter_rate * x],
                    [p.predator_gain * y, -p.predator_decline + p.predator_gain * x],
                ]
            )
            assert np.max(np.abs(jac - analytic)) < 1e-6

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            jacobian_at(predation_scenario(), [1.0])

    def test_holling_pole_is_a_non_finite_value_not_a_zero_division(self):
        # rate 0.5 and handling 4 put the pole of rate*x / (1 + rate*handling*x) at prey = -0.5
        scenario = _predation_with(response=HollingTypeII(0.5, 4.0))
        pole = [-0.5, 1.0]
        assert community_rhs(scenario)(pole) == [math.inf, -math.inf]
        assert reference_community_rhs(scenario)(np.array(pole)).tolist() == [math.inf, -math.inf]
        # the probes along the prey's axis miss the pole; those along the predator's keep prey at -0.5
        with pytest.raises(ValueError, match=r"^non-finite derivative evaluation near axis 1$"):
            jacobian_at(scenario, pole)
        with pytest.raises(ValueError, match=r"^non-finite derivative evaluation near axis 1$"):
            reference_jacobian_of(reference_community_rhs(scenario), pole)
        # a start whose residual is not finite is dropped
        got = find_fixed_points(scenario, extra_starts=[pole])
        want = reference_find_fixed_points(scenario, extra_starts=[pole])
        without = find_fixed_points(scenario)
        assert len(got) == len(want) == len(without) > 0
        assert all(np.array_equal(a, b) and np.array_equal(a, c) for a, b, c in zip(got, want, without))


class TestFixedPoints:
    def test_classical_pair_analytic(self):
        from ecolab import lv_scenario

        scenario = lv_scenario(CANONICAL, (30.0, 8.0))
        points = find_fixed_points(scenario)
        assert len(points) == 2
        assert np.array_equal(points[0], [0.0, 0.0])
        assert np.array_equal(points[1], [25.0, 10.0])

    def test_single_logistic_species(self):
        scenario = single_species(growth=1.0, limit=0.1, initial=3.0)
        points = find_fixed_points(scenario)
        values = sorted(float(p[0]) for p in points)
        assert values == pytest.approx([0.0, 10.0], abs=1e-8)

    def test_chain_matches_independent_solve(self):
        scenario = chain_scenario()
        oracle = chain_equilibrium_oracle()
        points = find_fixed_points(scenario)
        best = min(np.max(np.abs(p - oracle)) for p in points)
        assert best < 1e-8

    def test_eigenvalues_at_classical_equilibrium(self):
        from ecolab import lv_scenario

        scenario = lv_scenario(CANONICAL, (30.0, 8.0))
        report = stability_report(scenario, [25.0, 10.0])
        root = math.sqrt(CANONICAL.prey_growth * CANONICAL.predator_decline)
        imag = sorted(v.imag for v in report.eigenvalues)
        assert imag == pytest.approx([-root, root], abs=1e-6)
        assert max(abs(v.real) for v in report.eigenvalues) < 1e-6
        assert report.classification == Classification.CENTER_LIKE

    def test_analyze_scenario_reports_everything(self):
        reports = analyze_scenario(single_species(growth=1.0, limit=0.1))
        labels = {r.classification for r in reports}
        assert Classification.STABLE_NODE in labels  # carrying capacity
        assert Classification.UNSTABLE_NODE in labels  # empty state


class TestPeriod:
    def test_near_equilibrium_period_matches_linearization(self):
        scenario = predation_scenario(initial=(26.0, 10.0), horizon=100.0)
        traj = integrate(scenario)
        period = oscillation_period(traj, "prey", 25.0)
        expected = 2.0 * math.pi / math.sqrt(0.5)
        assert abs(period - expected) / expected < 0.05

    def test_period_scaling_with_other_rates(self):
        p = LotkaVolterraParams(2.0, 0.2, 1.0, 0.05)  # equilibrium (20, 10)
        traj = integrate(lv_scenario(p, (20.6, 10.0), horizon=40.0))
        period = oscillation_period(traj, "prey", 20.0)
        expected = 2.0 * math.pi / math.sqrt(2.0)
        assert abs(period - expected) / expected < 0.05

    def test_needs_two_upcrossings(self):
        traj = integrate(single_species(growth=0.0, horizon=2.0))
        with pytest.raises(ValueError, match="upcrossings"):
            oscillation_period(traj, "only", 5.0)


class TestSetParameter:
    def test_species_field(self):
        updated = set_parameter(predation_scenario(), "species.prey.growth_rate", 2.5)
        assert updated.species_by_id("prey").growth_rate == 2.5

    def test_initial_density(self):
        updated = set_parameter(predation_scenario(), "initial.pred", 4.0)
        assert updated.initial_densities["pred"] == 4.0

    def test_response_rate(self):
        updated = set_parameter(predation_scenario(), "interaction.pred:prey.response.rate", 0.3)
        assert updated.interactions[0].response.rate == 0.3

    def test_continuum_alpha_rebuilds_entry(self):
        scenario = demo_document("arms-race")
        updated = set_parameter(scenario, "interaction.attacker:victim.alpha", 1.0)
        entry = updated.interactions[0]
        assert entry.continuum_alpha == 1.0
        assert entry.kind.value == "symbiosis"
        assert (entry.coeff_i, entry.coeff_j) == (0.5, 0.5)

    def test_alpha_on_plain_entry_fails(self):
        # only a continuum entry's document form holds the dial
        message = ("unresolvable parameter path 'interaction.pred:prey.alpha': interaction pred:prey "
                   "has no number 'alpha' (its numbers: coeff_i, response.rate)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            set_parameter(predation_scenario(), "interaction.pred:prey.alpha", 0.0)

    @pytest.mark.parametrize("path, value, message", [
        ("interaction.attacker:victim.alpha", 2.0, "interaction attacker:victim: alpha must lie in [-1, 1], got 2.0"),
        ("interaction.victim:attacker.base_strength", math.inf,
         "interaction victim:attacker.base_strength: must be finite"),
    ])
    def test_bad_entry_value_gets_the_document_message(self, path, value, message):
        # the edited entry is read back like a document entry, labelled with the path's pair
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            set_parameter(demo_document("arms-race"), path, value)

    def test_unresolvable_paths(self):
        for path in ("nope", "species.ghost.growth_rate", "interaction.a:b.coeff_i", "initial.ghost"):
            with pytest.raises(ValueError, match="unresolvable"):
                set_parameter(predation_scenario(), path, 1.0)

    def test_horizon(self):
        assert set_parameter(predation_scenario(), "horizon", 7.0).horizon == 7.0

    @pytest.mark.parametrize("field", ["coeff_i", "coeff_j"])
    def test_interaction_coefficient(self, field):
        # a predation entry's document form has the predator's coeff_i; the prey's loss is the response
        scenario = predation_scenario()
        path = f"interaction.prey:pred.{field}"
        if field == "coeff_j":
            message = (f"unresolvable parameter path '{path}': interaction prey:pred has no number 'coeff_j' "
                       "(its numbers: coeff_i, response.rate)")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                set_parameter(scenario, path, 0.75)
            return
        updated = set_parameter(scenario, path, 0.75)
        assert updated.interactions[0] == replace(scenario.interactions[0], **{field: 0.75})
        assert updated.species == scenario.species

    @pytest.mark.parametrize("path, reason", [
        ("interaction.pred.coeff_i", ": expected interaction.<i>:<j>"),
        *((f"interaction.pred:prey.{field}",
           f": interaction pred:prey has no number '{field}' (its numbers: coeff_i, response.rate)")
          for field in ("response.handling", "response", "nope")),
    ])
    def test_unresolvable_interaction_paths(self, path, reason):
        with pytest.raises(ValueError, match=f"^{re.escape(f'unresolvable parameter path {path!r}{reason}')}$"):
            set_parameter(predation_scenario(), path, 1.0)

    @pytest.mark.parametrize("path, reason", [
        ("interaction.a:c.response.rate",
         ": interaction a:c has no number 'response.rate' (its numbers: coeff_i, coeff_j)"),
        *((f"interaction.c:d.{field}",
           f": interaction c:d has no number '{field}' (its numbers: alpha, base_strength)")
          for field in ("coeff_i", "coeff_j", "response.rate")),
    ])
    def test_fields_the_document_does_not_carry_are_unresolvable(self, path, reason):
        with pytest.raises(ValueError, match=f"^{re.escape(f'unresolvable parameter path {path!r}{reason}')}$"):
            set_parameter(_EVERY_ENTRY_FORM, path, 0.3)

    @pytest.mark.parametrize("value, shown", [(1.5, "1.5"), (math.inf, "inf"), (math.nan, "nan"), (-0.5, "-0.5")])
    def test_trophic_level_takes_only_an_integral_value(self, value, shown):
        # an int() cast ran 1.5 at level 1 and raised OverflowError on inf
        message = f"species.b.trophic_level must be an integer, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            set_parameter(_EVERY_ENTRY_FORM, "species.b.trophic_level", value)
        assert set_parameter(_EVERY_ENTRY_FORM, "species.b.trophic_level", 3.0).species_by_id("b").trophic_level == 3

    @pytest.mark.parametrize("path, value", [
        ("horizon", 7.0),
        ("species.a.growth_rate", 2.5),
        ("species.b.self_limitation", 0.3),
        ("species.b.trophic_level", 2),
        ("initial.c", 4.0),
        ("interaction.a:b.coeff_i", 0.75),
        ("interaction.b:a.response.rate", 0.3),
        ("interaction.b:a.response.handling", 0.9),
        ("interaction.a:c.coeff_i", 0.2),
        ("interaction.c:a.coeff_j", 0.3),
        ("interaction.c:d.alpha", 0.5),
        ("interaction.d:c.base_strength", 0.4),
    ])
    def test_every_edit_survives_the_document_form(self, path, value):
        updated = set_parameter(_EVERY_ENTRY_FORM, path, value)
        assert serialize_scenario(updated) != serialize_scenario(_EVERY_ENTRY_FORM)
        assert parse_scenario(serialize_scenario(updated)) == updated


# A trophic entry with a Holling response, a mass-action entry and a continuum entry
_EVERY_ENTRY_FORM = parse_scenario(json.dumps({
    "kind": "community",
    "species": [
        {"id": "a", "role": "producer", "growth_rate": 1.0, "self_limitation": 0.1},
        {"id": "b", "role": "consumer", "trophic_level": 1, "growth_rate": 0.5},
        {"id": "c", "role": "producer", "growth_rate": 0.8, "self_limitation": 0.2},
        {"id": "d", "role": "producer", "growth_rate": 0.6, "self_limitation": 0.1},
    ],
    "interactions": [
        {"species_i": "b", "species_j": "a", "kind": "predation", "coeff_i": 0.4,
         "response": {"type": "holling2", "rate": 0.2, "handling": 0.5}},
        {"species_i": "a", "species_j": "c", "kind": "competition", "coeff_i": 0.1, "coeff_j": 0.05},
        {"species_i": "c", "species_j": "d", "kind": "continuum", "alpha": -0.5, "base_strength": 0.2},
    ],
    "initial_densities": {"a": 5.0, "b": 1.0, "c": 3.0, "d": 2.0},
    "horizon": 10.0,
}))


# Paths to try on a scenario: every number of its document form, fields that
# form does not carry, and names that resolve to nothing.
_SPECIES_FIELDS = ("growth_rate", "self_limitation", "trophic_level", "id", "name", "role", "nope", "growth_rate.x")
_ENTRY_FIELDS = (
    "coeff_i", "coeff_j", "alpha", "base_strength", "kind", "species_i", "response", "response.type",
    "response.rate", "response.handling", "response.saturation", "response.rate.x", "nope",
)


def _candidate_paths(scenario):
    paths = ["horizon", "horizon.x", "nope", "species.ghost", "initial", "interaction.ghost", "species..x",
             "species.ghost.growth_rate", "initial.ghost", "interaction.ghost:x.coeff_i", "interaction.x.coeff_i"]
    for sp in scenario.species:
        paths.append(f"initial.{sp.id}")
        paths.extend(f"species.{sp.id}.{field}" for field in _SPECIES_FIELDS)
    for entry in scenario.interactions:
        for pair in (f"{entry.species_i}:{entry.species_j}", f"{entry.species_j}:{entry.species_i}"):
            paths.extend(f"interaction.{pair}.{field}" for field in _ENTRY_FIELDS)
    return paths


def _edit_or_none(edit, scenario, path, value):
    try:
        return edit(scenario, path, value)
    except ValueError:
        return None


def _assert_edits_match_reference(scenario):
    """set_parameter accepts what the reference accepts, with an equal result, but two edits.

    Those are coeff_j on a trophic entry and a trophic level that is not an integer, which
    the reference truncates.
    """
    for path in _candidate_paths(scenario):
        for value in (0.3, -0.5, 2.0):
            want = _edit_or_none(reference_set_parameter, scenario, path, value)
            got = _edit_or_none(set_parameter, scenario, path, value)
            if want is None or got is not None:
                assert got == want, (path, value)
                continue
            if path.endswith(".trophic_level") and not value.is_integer():
                continue
            # the one edit the document form cannot hold: a predation or parasitism entry has no coeff_j
            pair = set(path.split(".")[1].split(":"))
            entry = next(e for e in scenario.interactions if {e.species_i, e.species_j} == pair)
            assert path.endswith(".coeff_j") and entry.kind in TROPHIC_KINDS, (path, value)


def test_edits_match_the_reference_on_every_entry_form_and_demo():
    demos = [demo_document(name) for name in DEMO_NAMES if name != "mimicry"]
    for scenario in (_EVERY_ENTRY_FORM, *(d for d in demos if isinstance(d, Scenario)), saturating_chain_scenario()):
        _assert_edits_match_reference(scenario)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(community_scenarios())
def test_edits_match_the_reference(scenario):
    _assert_edits_match_reference(scenario)


# Both sweeps share their grid checks.
_GRID_SWEEPS = {
    "sweep": lambda grid: sweep(predation_scenario(horizon=2.0), "horizon", grid),
    "sweep_epidemic": lambda grid: sweep_epidemic(
        EpidemicModel(graph=complete_graph(5), beta=0.1, gamma=1.0), "beta", grid, horizon=2.0
    ),
}


class TestSweep:
    def test_inert_parameter_changes_nothing(self):
        scenario = predation_scenario(horizon=5.0)
        report = sweep(scenario, "species.pred.trophic_level", [1.0, 2.0, 3.0])
        summaries = {
            (p.classification, p.final_state, p.extinctions, p.metric) for p in report.points
        }
        assert len(summaries) == 1
        assert report.transitions == ()

    def test_arms_race_alpha_sweep_has_transition(self):
        scenario = demo_document("arms-race")
        grid = np.linspace(1.0, -1.0, 21)
        report = sweep(scenario, "interaction.attacker:victim.alpha", grid)
        assert len(report.transitions) >= 1
        by_value = {p.value: p.classification for p in report.points}
        for low, high in report.transitions:
            assert by_value[low] != by_value[high]
        # the node-to-focus switch sits between alpha = -0.3 and -0.4
        low, high = report.transitions[0]
        assert math.isclose(low, -0.3, abs_tol=1e-9)
        assert math.isclose(high, -0.4, abs_tol=1e-9)

    @pytest.mark.parametrize("run", _GRID_SWEEPS.values(), ids=_GRID_SWEEPS)
    def test_monotone_grid_required(self, run):
        with pytest.raises(ValueError, match="grid must be strictly monotone"):
            run([1.0, 3.0, 2.0])

    @pytest.mark.parametrize("run", _GRID_SWEEPS.values(), ids=_GRID_SWEEPS)
    def test_grid_needs_two_points(self, run):
        with pytest.raises(ValueError, match="grid needs at least two points"):
            run([1.0])

    def test_descending_grid_allowed(self):
        report = sweep(predation_scenario(horizon=2.0), "initial.prey", [30.0, 20.0])
        assert report.grid == (30.0, 20.0)

    def test_metric_recorded(self):
        report = sweep(
            predation_scenario(horizon=2.0),
            "initial.prey",
            [20.0, 30.0],
            metric=lambda scenario, traj: traj.values[-1, 0],
        )
        assert all(p.metric is not None for p in report.points)

    def test_bad_path_fails_fast(self):
        with pytest.raises(ValueError, match="unresolvable"):
            sweep(predation_scenario(horizon=2.0), "bogus.path", [1.0, 2.0])


class TestSweepEpidemic:
    def test_beta_sweep_crosses_mean_field_threshold(self):
        from ecolab import mean_field_threshold

        graph = complete_graph(50)
        critical = mean_field_threshold(graph, 1.0)
        model = EpidemicModel(
            graph=graph,
            beta=critical,
            gamma=1.0,
            initial_infected=frozenset(range(5)),
        )
        report = sweep_epidemic(
            model,
            "beta",
            [critical / 4, critical, critical * 4],
            horizon=60.0,
            runs_per_point=20,
            master_seed=3,
        )
        assert report.points[0].metric < 0.1
        assert report.points[-1].metric > 0.9
        assert report.transitions == ()

    def test_path_restricted(self):
        model = EpidemicModel(graph=complete_graph(5), beta=0.1, gamma=1.0)
        with pytest.raises(ValueError, match="unresolvable"):
            sweep_epidemic(model, "alpha", [0.1, 0.2], horizon=5.0)


def test_sweep_is_deterministic():
    scenario = predation_scenario(horizon=5.0)
    first = sweep(scenario, "initial.prey", [20.0, 25.0, 30.0])
    second = sweep(scenario, "initial.prey", [20.0, 25.0, 30.0])
    assert first == second


_ARMS_RACE_DIAL = "interaction.attacker:victim.alpha"


def _count_calls(monkeypatch, names=("validate_scenario", "_kernel")):
    """Count the calls of each named function, through the binder's module and its callers' modules."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(kernel_module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        for module in (kernel_module, continuous, analysis):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_a_sweep_validates_and_binds_each_point_once(monkeypatch):
    arms = replace(demo_document("arms-race"), horizon=6.0)
    grid = np.linspace(1.0, -1.0, 21)
    calls = _count_calls(monkeypatch)
    report = sweep(arms, _ARMS_RACE_DIAL, grid)
    assert calls == {"validate_scenario": 21, "_kernel": 21}
    monkeypatch.undo()
    # the points the public functions give, each validating and binding on its own
    for value, point in zip(grid, report.points):
        updated = set_parameter(arms, _ARMS_RACE_DIAL, value)
        result = integrate_report(updated)
        final = result.trajectory.final_state()
        nearest = min(find_fixed_points(updated, extra_starts=[final]), key=lambda pt: float(np.linalg.norm(pt - final)))
        assert point.classification == stability_report(updated, nearest).classification
        assert point.final_state == tuple(final.tolist())
        assert point.extinctions == result.extinctions


def test_analyze_scenario_validates_and_binds_once(monkeypatch):
    scenario = demo_document("food-chain")
    want = [(r.fixed_point.tobytes(), r.jacobian.tobytes(), r.eigenvalues, r.classification)
            for r in (stability_report(scenario, point) for point in find_fixed_points(scenario))]
    assert len(want) > 1
    calls = _count_calls(monkeypatch)
    got = analyze_scenario(scenario)
    assert calls == {"validate_scenario": 1, "_kernel": 1}
    assert [(r.fixed_point.tobytes(), r.jacobian.tobytes(), r.eigenvalues, r.classification) for r in got] == want


# The float Newton and Jacobian against the array versions they replaced
# (tests/helpers.py): the same roots, bit for bit and in the same order,
# and the same warning or error.


def _fixed_point_outcome(find, scenario):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            roots = find(scenario)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)
    return roots, [str(w.message) for w in caught if w.category is UserWarning]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(community_scenarios())
def test_float_newton_matches_reference(scenario):
    got = _fixed_point_outcome(find_fixed_points, scenario)
    want = _fixed_point_outcome(reference_find_fixed_points, scenario)
    if isinstance(want[0], type):
        assert got == want
        return
    (got_roots, got_warned), (want_roots, want_warned) = got, want
    assert len(got_roots) == len(want_roots)
    assert all(np.array_equal(a, b) for a, b in zip(got_roots, want_roots))
    assert got_warned == want_warned


# states whose probes go negative, whose derivative overflows, and infinities and NaNs
_PROBES = st.sampled_from([0.0, -0.0, -1e-9, 1.0, -1.0, 1e155, -1e155, 1e300, math.inf, math.nan])


@settings(max_examples=100, deadline=None)
@given(community_scenarios(), st.data())
def test_jacobian_at_matches_reference(scenario, data):
    n = len(scenario.species)
    point = data.draw(st.lists(_PROBES | st.floats(-2.0, 20.0), min_size=n, max_size=n))

    def outcome(jacobian):
        try:
            return jacobian()
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)

    got = outcome(lambda: jacobian_at(scenario, point))
    # the reference's numpy scalars warn where the floats of jacobian_at quietly give inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        want = outcome(lambda: reference_jacobian_of(reference_community_rhs(scenario), point))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)


def test_float_newton_matches_reference_on_demos():
    arms = demo_document("arms-race")
    for scenario in (
        chain_scenario(),
        demo_document("food-chain"),
        *(set_parameter(arms, "interaction.attacker:victim.alpha", a) for a in np.linspace(1.0, -1.0, 21)),
    ):
        got = find_fixed_points(scenario, extra_starts=[[0.3, 0.7]] if len(scenario.species) == 2 else None)
        want = reference_find_fixed_points(
            scenario, extra_starts=[[0.3, 0.7]] if len(scenario.species) == 2 else None
        )
        assert len(got) == len(want) > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(community_scenarios())
def test_the_origin_is_always_a_fixed_point(scenario):
    # every term of the derivative carries a density factor, so the origin
    # start converges whatever the rates
    roots = find_fixed_points(scenario)
    assert any(not root.any() for root in roots)


def test_extra_start_of_the_wrong_length_is_rejected():
    with pytest.raises(ValueError, match="extra start"):
        find_fixed_points(chain_scenario(), extra_starts=[[1.0, 2.0]])


def _seven_species() -> Scenario:
    """A chain of producers competing in pairs, every third species a consumer eating the one before."""
    species, entries = [], []
    for k in range(7):
        consumer = k % 3 == 2
        species.append(SpeciesSpec(
            id=f"s{k}",
            role=Role.CONSUMER if consumer else Role.PRODUCER,
            trophic_level=1 if consumer else 0,
            growth_rate=0.3 + 0.1 * k,
            self_limitation=0.0 if consumer else 0.1 + 0.02 * k,
        ))
        if k == 0:
            continue
        if consumer:
            entries.append(InteractionSpec(f"s{k}", f"s{k - 1}", InteractionKind.PREDATION, coeff_i=0.3,
                                           response=LinearResponse(0.2)))
        else:
            entries.append(InteractionSpec(f"s{k - 1}", f"s{k}", InteractionKind.COMPETITION, coeff_i=0.05,
                                           coeff_j=0.04))
    return Scenario(tuple(species), tuple(entries), {sp.id: 1.0 + k for k, sp in enumerate(species)}, horizon=10.0)


def _predation_with(prey=(), pred=(), **entry_fields) -> Scenario:
    """predation_scenario() with fields of the prey, the predator and the entry replaced."""
    scenario = predation_scenario()
    return replace(
        scenario,
        species=(replace(scenario.species[0], **dict(prey)), replace(scenario.species[1], **dict(pred))),
        interactions=(replace(scenario.interactions[0], **entry_fields),),
    )


_NEWTON_FALLBACKS = {
    "seven-species": _seven_species(),
    # what _as_classical_pair hands back to Newton: a producer as aggressor, a rate or a conversion of 0,
    # and a growth rate <= 0
    "producer-aggressor": _predation_with(pred={"role": Role.PRODUCER, "trophic_level": 0}),
    "rate-0": _predation_with(response=LinearResponse(0.0)),
    "conversion-0": _predation_with(coeff_i=0.0),
    "decline-negative": _predation_with(pred={"growth_rate": -0.5}),
    "prey-growth-0": _predation_with(prey={"growth_rate": 0.0}),
}


@pytest.mark.parametrize("scenario", _NEWTON_FALLBACKS.values(), ids=_NEWTON_FALLBACKS.keys())
def test_newton_fallbacks_match_reference(scenario):
    assert _as_classical_pair(scenario) is None
    if len(scenario.species) > 6:
        # past 6 species Newton starts only from the origin, the initial state and the guesses
        assert len(_newton_starts(scenario)) == 3
    got = find_fixed_points(scenario)
    want = reference_find_fixed_points(scenario)
    assert len(got) == len(want) > 0
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_overflowing_norms_find_the_reference_roots_without_a_warning():
    scenario = parse_scenario(json.dumps(HUGE_RATES))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = find_fixed_points(scenario)
    with np.errstate(over="ignore"):
        want = reference_find_fixed_points(scenario)
    assert len(got) == len(want) == 3
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# The kernel's generated root search against the references in
# tests/helpers.py: reference_roots, the Python loop it replaced, which
# runs reference_unwrapped_newton from each start; that Newton calls
# np.linalg.solve's gufunc and takes np.linalg.norm's dot without the
# Python wrappers, and reference_newton is its wrapped form.  The search
# must keep the same roots, bit for bit and in the same order, from every
# start alone and from the whole start list, and must warn of nothing
# under find_fixed_points' errstate; the two Newtons must stop at the same
# iterate from every start.


def _outcome(call):
    try:
        result = call()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [np.array(x).tobytes() for x in result]


def _assert_roots_match_reference(scenario, starts):
    kernel = _kernel(scenario)
    jacobian = functools.partial(_central_jacobian, kernel.rhs)
    scale = max(1.0, max((abs(g) for g in scenario.initial_state()), default=1.0))
    # the real margin, and a margin of 1 under which numpy's norm takes every decision
    margins = (_norm_margin(len(scenario.species)), 1.0)
    for some in [[start] for start in starts] + [starts]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(**_SOLVE_ERRSTATE):
                got = [_outcome(lambda: kernel.roots(some, *_ROOTS_ARGS, _DEDUPE_TOL * scale, m)) for m in margins]
            want = _outcome(lambda: reference_roots(kernel.rhs, jacobian, some, scale))
        assert got == [want, want]


def _newton_outcome(newton, start):
    try:
        x, ok = newton(list(start))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return np.array(x).tobytes(), ok


def _assert_newton_matches_reference(scenario):
    starts = _newton_starts(scenario)
    _assert_roots_match_reference(scenario, starts)
    kernel = _kernel(scenario)
    jacobian = functools.partial(_central_jacobian, kernel.rhs)
    for start in starts:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unwrapped = _newton_outcome(lambda x: reference_unwrapped_newton(kernel.rhs, jacobian, x), start)
        # the wrapped reference's norms overflow quietly only under find_fixed_points' errstate
        with np.errstate(over="ignore"):
            want = _newton_outcome(lambda x: reference_newton(kernel.rhs, x), start)
        assert unwrapped == want


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(community_scenarios())
def test_unwrapped_newton_matches_reference(scenario):
    _assert_newton_matches_reference(scenario)


@pytest.mark.parametrize(
    "scenario",
    [parse_scenario(json.dumps(HUGE_RATES)), *_NEWTON_FALLBACKS.values()],
    ids=["huge-rates", *_NEWTON_FALLBACKS.keys()],
)
def test_unwrapped_newton_matches_reference_on_the_fallbacks(scenario):
    _assert_newton_matches_reference(scenario)


# extra starts as find_fixed_points takes them: near-roots, points the snap and the negativity test
# act on, repeats that de-duplication drops, and states whose residual is not finite
_START_VALUES = st.sampled_from(
    [0.0, -0.0, -1e-10, -1e-9, -1e-3, 1e-13, 1e-11, 0.5, 1.0, 3.0, 1e155, math.inf, math.nan]
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(community_scenarios(), st.data())
def test_generated_roots_match_reference(scenario, data):
    n = len(scenario.species)
    extra = data.draw(st.lists(st.lists(_START_VALUES | st.floats(-1.0, 20.0), min_size=n, max_size=n), max_size=4))
    starts = _newton_starts(scenario) + extra
    # a repeated start finds the same root again, which de-duplication drops
    _assert_roots_match_reference(scenario, starts + starts[-2:])


def test_generated_roots_match_reference_on_the_arms_race_dial():
    arms = replace(demo_document("arms-race"), horizon=6.0)
    for alpha in np.linspace(1.0, -1.0, 21):
        scenario = set_parameter(arms, _ARMS_RACE_DIAL, alpha)
        starts = _newton_starts(scenario) + [integrate(scenario).final_state().tolist()]
        _assert_roots_match_reference(scenario, starts)
        # the float norm is `sqrt` of a float, numpy's of a numpy float; count each
        kernel = _kernel(scenario)
        taken = {"float": 0, "numpy": 0}

        def counted(value, _sqrt=math.sqrt):
            taken["numpy" if isinstance(value, np.floating) else "float"] += 1
            return _sqrt(value)

        kernel.roots.__globals__["sqrt"] = counted
        with np.errstate(**_SOLVE_ERRSTATE):
            kernel.roots(starts, *_ROOTS_ARGS, _DEDUPE_TOL, 1.0)
            # under a margin of 1 every decision on a float norm is numpy's
            assert taken["numpy"] >= taken["float"] > 0
            taken.update(float=0, numpy=0)
            kernel.roots(starts, *_ROOTS_ARGS, _DEDUPE_TOL, _norm_margin(2))
            assert taken["numpy"] * 20 < taken["float"]


def _competing_pair(eps: float) -> Scenario:
    """Two competing producers with an equilibrium at about (eps, 1).

    At (0, 1) the derivative of b is about 1000*eps, so that root fails the
    residual re-check once its density of a snaps to 0.
    """
    return Scenario(
        species=(
            SpeciesSpec(id="a", role=Role.PRODUCER, growth_rate=1.0 + eps, self_limitation=1.0),
            SpeciesSpec(id="b", role=Role.PRODUCER, growth_rate=1.0 + 1000.0 * eps, self_limitation=1.0),
        ),
        interactions=(InteractionSpec("a", "b", InteractionKind.COMPETITION, coeff_i=1.0, coeff_j=1000.0),),
        initial_densities={"a": 1.0, "b": 1.0},
        horizon=1.0,
    )


@pytest.mark.parametrize(
    "eps, kept",
    [(1e-10, True), (5e-13, False), (-5e-10, False), (-5e-9, False)],
    ids=["kept", "snapped-then-dropped", "clipped-then-dropped", "negative"],
)
def test_generated_roots_filter_as_the_reference_does(eps, kept):
    scenario = _competing_pair(eps)
    _assert_roots_match_reference(scenario, [[eps, 1.0]])
    kernel = _kernel(scenario)
    with np.errstate(**_SOLVE_ERRSTATE):
        x, ok = reference_unwrapped_newton(kernel.rhs, functools.partial(_central_jacobian, kernel.rhs), [eps, 1.0])
        got = kernel.roots([[eps, 1.0]], *_ROOTS_ARGS, _DEDUPE_TOL, _norm_margin(2))
    # Newton converges from every one of these starts: the negativity test, the snap and the re-check decide
    assert ok
    assert got == ([x] if kept else [])


def _singular_at_the_start() -> Scenario:
    """A prey eaten by a self-limited predator whose Jacobian at (0, 2) is singular: about [[0, 0], [0.5, -1.5]]."""
    return Scenario(
        species=(
            SpeciesSpec(id="prey", role=Role.PRODUCER, growth_rate=1.0),
            SpeciesSpec(id="predator", role=Role.CONSUMER, trophic_level=1, growth_rate=0.5, self_limitation=0.25),
        ),
        interactions=(
            InteractionSpec("predator", "prey", InteractionKind.PREDATION, coeff_i=0.5, response=LinearResponse(0.5)),
        ),
        initial_densities={"prey": 0.0, "predator": 2.0},
        horizon=1.0,
    )


@pytest.mark.parametrize("caller_errstate", [{}, {"all": "raise"}, {"all": "warn"}], ids=["default", "raise", "warn"])
def test_a_singular_jacobian_ends_newton_without_a_warning(caller_errstate):
    scenario = _singular_at_the_start()
    kernel = _kernel(scenario)
    jacobian = _central_jacobian(kernel.rhs, [0.0, 2.0], _ROOTS_ARGS[1])
    # the prey's row is exactly 0: its growth x and its loss 0.5 * x * 2 cancel on every probe
    assert jacobian[0].tolist() == [0.0, 0.0]
    np.testing.assert_allclose(jacobian[1], [0.5, -1.5], rtol=1e-8)
    with warnings.catch_warnings(), np.errstate(**caller_errstate):
        warnings.simplefilter("error")
        # find_fixed_points' own errstate, inside whatever its caller set
        with np.errstate(**_SOLVE_ERRSTATE):
            assert kernel.roots([[0.0, 2.0]], *_ROOTS_ARGS, _DEDUPE_TOL * 2.0, _norm_margin(2)) == []
        got = find_fixed_points(scenario)
    central = functools.partial(_central_jacobian, kernel.rhs)
    assert reference_roots(kernel.rhs, central, [[0.0, 2.0]], 2.0) == []
    assert reference_unwrapped_newton(kernel.rhs, central, [0.0, 2.0]) == ([0.0, 2.0], False)
    assert reference_newton(kernel.rhs, [0.0, 2.0]) == ([0.0, 2.0], False)
    want = reference_find_fixed_points(scenario)
    assert len(got) == len(want) > 0
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# numpy.linalg._umath_linalg is private to numpy.  These guards fail if a
# numpy upgrade changes what solve1 computes, how it reports a singular
# matrix, or the dot np.linalg.norm takes of a real vector.


@pytest.mark.parametrize("n", [2, 3, 5])
def test_solve1_computes_what_linalg_solve_computes(n):
    rng = np.random.default_rng(n)
    for _ in range(2000):
        a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
        b = (rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)).tolist()
        # a C-ordered matrix, and a transposed one as _central_jacobian builds
        for matrix in (a, a.T):
            with np.errstate(**_SOLVE_ERRSTATE):
                got = _solve1(matrix, b, signature="dd->d")
            assert got.dtype == np.float64
            assert got.tobytes() == np.linalg.solve(matrix, b).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_solve1_writes_what_linalg_solve_computes_into_its_out_buffer(n):
    # the buffers the generated root search reuses: written item by item, solved in place
    rng = np.random.default_rng(n)
    jac, b, sol = np.empty((n, n)), np.empty(n), np.empty(n)
    # written through memoryviews, and solved with the loop that float64 inputs select, as the search does
    jw, bw = memoryview(jac).cast("B").cast("d"), memoryview(b)
    # numpy picks the first loop that both inputs cast to safely
    assert next(t for t in _solve1.types if all(np.can_cast(np.float64, c) for c in t[:2])) == "dd->d"
    for _ in range(2000):
        for k, v in enumerate(rng.normal(size=n * n) * 10.0 ** rng.integers(-3, 4)):
            jw[k] = float(v)
        for k, v in enumerate(rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)):
            bw[k] = float(v)
        with np.errstate(**_SOLVE_ERRSTATE):
            assert _solve1(jac, b, sol) is sol
        assert sol.tobytes() == np.linalg.solve(jac, b).tobytes()
        assert list(memoryview(sol)) == sol.tolist()
    # a zero row, as the Jacobian of `_singular_at_the_start` has
    jac[0] = 0.0
    with np.errstate(**_SOLVE_ERRSTATE), pytest.raises(FloatingPointError):
        _solve1(jac, b, sol)


def test_a_singular_matrix_raises_floating_point_error_where_linalg_solve_raises_linalg_error():
    a, b = [[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]
    with np.errstate(**_SOLVE_ERRSTATE), pytest.raises(FloatingPointError):
        _solve1(a, b, signature="dd->d")
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.solve(a, b)
    # without that errstate the gufunc only marks the result: all NaN
    with np.errstate(invalid="ignore"):
        assert np.isnan(_solve1(a, b, signature="dd->d")).all()


def test_the_norm_computes_what_linalg_norm_computes():
    rng = np.random.default_rng(0)
    for _ in range(5000):
        n = int(rng.integers(1, 9))
        v = (rng.normal(size=n) * 10.0 ** rng.integers(-150, 150, size=n)).tolist()
        assert _norm(v).hex() == float(np.linalg.norm(v)).hex()
    # squares that overflow
    with np.errstate(over="ignore"):
        assert _norm([1e200, -1e200]) == np.linalg.norm([1e200, -1e200]) == math.inf


def _float_norm(values) -> float:
    """The generated root search's float norm: the squares added left to right, then `math.sqrt`."""
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total)


def _norm_test_vectors(rng: random.Random, n: int):
    for _ in range(150):
        yield [rng.uniform(-1.0, 1.0) for _ in range(n)]
        yield [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-170.0, 150.0) for _ in range(n)]
        # squares at and below the subnormal threshold
        yield [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-163.0, -150.0) for _ in range(n)]
        start = rng.uniform(0.5, 2.0) * 10.0 ** rng.randint(-100, 100)
        run = [start]
        while len(run) < n:
            run.append(math.nextafter(run[-1], math.inf))
        yield run


@pytest.mark.parametrize("n", range(1, 41))
def test_numpy_norm_stays_within_the_margin_of_the_float_norm(n):
    # The root search decides on the float norm P when it is clear of the other side by
    # _norm_margin(n), 8 times this bound; numpy's BLAS dot, whose order of summation is its own,
    # must keep sqrt(a.dot(a)) within (n+2)*2^-53*P + 2^-500 of P whenever P <= 2^400.
    rng = random.Random(n)
    for values in _norm_test_vectors(rng, n):
        p = _float_norm(values)
        a = np.array(values)
        got = math.sqrt(a.dot(a))
        if p <= 2.0**400:
            assert abs(got - p) <= (n + 2) * 2.0**-53 * p + 2.0**-500, values
    assert _norm_margin(n) == 8 * (n + 2) * 2.0**-53

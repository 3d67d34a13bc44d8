import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ecolab
from ecolab import (
    ContinuumParams,
    InteractionKind,
    InteractionSpec,
    LinearResponse,
    Role,
    Scenario,
    ScenarioValidationError,
    SpeciesSpec,
    Trajectory,
    continuum_interaction,
    validate_scenario,
)
from helpers import predation_scenario


def test_valid_scenario_passes_and_is_identical():
    scenario = predation_scenario()
    assert validate_scenario(scenario) is scenario


def test_validate_is_idempotent():
    scenario = validate_scenario(predation_scenario())
    assert validate_scenario(scenario) is scenario


def _errors(scenario) -> list[str]:
    with pytest.raises(ScenarioValidationError) as err:
        validate_scenario(scenario)
    return err.value.errors


def test_negative_density_reported():
    scenario = predation_scenario(initial=(-1.0, 8.0))
    assert any("negative density" in e for e in _errors(scenario))


def test_dangling_reference_reported():
    scenario = predation_scenario()
    bad = scenario.interactions[0]
    bad = InteractionSpec(
        species_i=bad.species_i,
        species_j="ghost",
        kind=bad.kind,
        coeff_i=bad.coeff_i,
        response=bad.response,
    )
    scenario = Scenario(
        species=scenario.species,
        interactions=(bad,),
        initial_densities=scenario.initial_densities,
        integrator=scenario.integrator,
        horizon=scenario.horizon,
    )
    assert any("dangling reference" in e for e in _errors(scenario))


def test_duplicate_species_id():
    base = predation_scenario()
    scenario = Scenario(
        species=base.species + (SpeciesSpec(id="prey", role=Role.PRODUCER),),
        interactions=base.interactions,
        initial_densities=base.initial_densities,
        horizon=base.horizon,
    )
    assert any("duplicate species id" in e for e in _errors(scenario))


def test_empty_species_id():
    # an empty id would become an empty CSV column name
    scenario = Scenario(
        species=(SpeciesSpec(id="", role=Role.PRODUCER, growth_rate=1.0),),
        interactions=(),
        initial_densities={"": 1.0},
        horizon=1.0,
    )
    assert "species id must not be empty" in _errors(scenario)


def test_self_interaction_rejected():
    base = predation_scenario()
    entry = InteractionSpec(
        species_i="prey",
        species_j="prey",
        kind=InteractionKind.COMPETITION,
        coeff_i=0.1,
        coeff_j=0.1,
    )
    scenario = Scenario(
        species=base.species,
        interactions=(entry,),
        initial_densities=base.initial_densities,
        horizon=base.horizon,
    )
    assert any("self-interaction" in e for e in _errors(scenario))


def test_all_violations_collected_not_just_first():
    base = predation_scenario(initial=(-1.0, 8.0))
    scenario = Scenario(
        species=base.species + (SpeciesSpec(id="prey", role=Role.PRODUCER),),
        interactions=base.interactions,
        initial_densities=base.initial_densities,
        horizon=-1.0,
    )
    errors = _errors(scenario)
    assert len(errors) >= 3
    joined = " | ".join(errors)
    assert "duplicate species id" in joined
    assert "negative density" in joined
    assert "horizon" in joined


def test_producer_with_nonzero_trophic_level():
    scenario = Scenario(
        species=(SpeciesSpec(id="x", role=Role.PRODUCER, trophic_level=2, growth_rate=1.0),),
        interactions=(),
        initial_densities={"x": 1.0},
        horizon=1.0,
    )
    assert any("trophic_level 0" in e for e in _errors(scenario))


def test_sexual_kind_rejected_in_community_matrix():
    base = predation_scenario()
    entry = InteractionSpec(species_i="pred", species_j="prey", kind=InteractionKind.SEXUAL)
    scenario = Scenario(
        species=base.species,
        interactions=(entry,),
        initial_densities=base.initial_densities,
        horizon=base.horizon,
    )
    assert any("within-species" in e for e in _errors(scenario))


def test_duplicate_pair_rejected():
    base = predation_scenario()
    extra = InteractionSpec(
        species_i="prey",
        species_j="pred",
        kind=InteractionKind.COMPETITION,
        coeff_i=0.1,
        coeff_j=0.1,
    )
    scenario = Scenario(
        species=base.species,
        interactions=base.interactions + (extra,),
        initial_densities=base.initial_densities,
        horizon=base.horizon,
    )
    assert any("at most one entry per unordered pair" in e for e in _errors(scenario))


def test_victim_side_coefficient_must_be_zero_for_predation():
    base = predation_scenario()
    entry = base.interactions[0]
    bad = InteractionSpec(
        species_i=entry.species_i,
        species_j=entry.species_j,
        kind=entry.kind,
        coeff_i=entry.coeff_i,
        coeff_j=0.3,
        response=entry.response,
    )
    scenario = Scenario(
        species=base.species,
        interactions=(bad,),
        initial_densities=base.initial_densities,
        horizon=base.horizon,
    )
    assert any("victim-side coefficient" in e for e in _errors(scenario))


def test_missing_initial_density():
    base = predation_scenario()
    densities = dict(base.initial_densities)
    del densities["pred"]
    scenario = Scenario(
        species=base.species,
        interactions=base.interactions,
        initial_densities=densities,
        horizon=base.horizon,
    )
    assert any("missing initial density" in e for e in _errors(scenario))


def _species(scenario, sp_id, **changes) -> Scenario:
    species = tuple(replace(sp, **changes) if sp.id == sp_id else sp for sp in scenario.species)
    return replace(scenario, species=species)


def _entry(scenario, **changes) -> Scenario:
    return replace(scenario, interactions=(replace(scenario.interactions[0], **changes),))


def _continuum(scenario, pred_limitation=0.1, **changes) -> Scenario:
    """The scenario with its entry replaced by the symbiosis entry of the dial (0.5, 0.1), then changed."""
    scenario = _species(_species(scenario, "prey", self_limitation=0.1), "pred", self_limitation=pred_limitation)
    entry = continuum_interaction("pred", "prey", ContinuumParams(0.5, 0.1))
    return replace(scenario, interactions=(replace(entry, **changes),))


def _integrator(scenario, **changes) -> Scenario:
    return replace(scenario, integrator=replace(scenario.integrator, **changes))


@pytest.mark.parametrize("change, message", [
    (lambda s: replace(s, species=(), interactions=(), initial_densities={}), "scenario needs at least one species"),
    (lambda s: _species(s, "pred", trophic_level=-1), "species 'pred' has negative trophic_level"),
    (lambda s: _species(s, "prey", growth_rate=float("nan")), "species 'prey' has non-finite growth rate"),
    (lambda s: _species(s, "prey", self_limitation=-0.5), "species 'prey' needs self_limitation >= 0 and finite"),
    (lambda s: replace(s, initial_densities={**s.initial_densities, "ghost": 1.0}),
     "dangling reference: initial density for unknown species 'ghost'"),
    (lambda s: _entry(s, coeff_i=-0.2), "interaction pred:prey: coeff_i must be a finite value >= 0"),
    (lambda s: _entry(s, kind=InteractionKind.COMPETITION, coeff_i=0.1, coeff_j=float("inf")),
     "interaction pred:prey: coeff_j must be a finite value >= 0"),
    (lambda s: _entry(s, response=LinearResponse(-0.1)),
     "interaction pred:prey: response rate must be a finite value >= 0"),
    (lambda s: _entry(s, response="holling"), "interaction pred:prey: unknown functional response 'holling'"),
    (lambda s: _continuum(s, continuum_alpha=1.5), "interaction pred:prey: alpha must lie in [-1, 1], got 1.5"),
    (lambda s: _continuum(s, continuum_strength=None), "interaction pred:prey: base_strength must be > 0"),
    (lambda s: _continuum(s, pred_limitation=0.0),
     "interaction pred:prey: continuum interaction requires positive self_limitation on 'pred'"),
    (lambda s: _integrator(s, method="euler"),
     "unknown integrator method 'euler' (choose from rk4_fixed, rk45_adaptive)"),
    (lambda s: _integrator(s, step=0.0), "integrator step must be > 0"),
    (lambda s: _integrator(s, rel_tol=0.0), "integrator rel_tol must be > 0"),
    (lambda s: _integrator(s, abs_tol=float("nan")), "integrator abs_tol must be > 0"),
    (lambda s: _integrator(s, extinction_epsilon=-1e-9), "extinction_epsilon must be >= 0"),
], ids=[
    "no-species", "trophic-level", "growth-rate", "self-limitation", "unknown-density", "coeff-i", "coeff-j",
    "response-field", "unknown-response", "continuum-alpha", "continuum-strength", "continuum-self-limitation",
    "method", "step", "rel-tol", "abs-tol", "extinction-epsilon",
])
def test_each_violation_has_its_message(change, message):
    base = predation_scenario()
    assert validate_scenario(base) is base
    assert _errors(change(base)) == [message]


_NEAR_ZERO_DIAL = ("interaction pred:prey: alpha -1e-300 is too close to 0 for base_strength 1e-30: "
                   "1/|alpha| overflows or |alpha|*base_strength underflows to 0")


@pytest.mark.parametrize("change, message", [
    # written as its dial, a competition entry would read back as symbiosis
    (lambda s: _continuum(s, kind=InteractionKind.COMPETITION),
     "interaction pred:prey: entry differs from what its continuum dial derives"),
    # written as its dial, coeff_j 5.0 would read back as 0.1 * 0.1
    (lambda s: _continuum(s, coeff_j=5.0, continuum_alpha=0.1),
     "interaction pred:prey: entry differs from what its continuum dial derives"),
    # the parasitism entry of this dial cannot be stored, so its document would not parse
    (lambda s: _continuum(s, kind=InteractionKind.PARASITISM, coeff_i=1e300, coeff_j=0.0,
                          response=LinearResponse(0.0), continuum_alpha=-1e-300, continuum_strength=1e-30),
     _NEAR_ZERO_DIAL),
    (lambda s: _continuum(s, continuum_strength="x"), "interaction pred:prey: base_strength must be > 0"),
    (lambda s: _continuum(s, continuum_alpha=None), "interaction pred:prey: alpha must lie in [-1, 1], got None"),
    (lambda s: _continuum(s, continuum_alpha=True), "interaction pred:prey: alpha must lie in [-1, 1], got True"),
], ids=["competition-kind", "coeff-j", "near-zero-alpha", "strength-type", "strength-without-alpha", "alpha-bool"])
def test_continuum_entry_must_equal_what_its_dial_derives(change, message):
    assert validate_scenario(_continuum(predation_scenario())).interactions[0].kind == InteractionKind.SYMBIOSIS
    assert _errors(change(predation_scenario())) == [message]


def test_violations_reported_together_in_declaration_order():
    scenario = _species(predation_scenario(), "prey", growth_rate=float("inf"))
    scenario = _species(scenario, "pred", trophic_level=-2)
    scenario = _entry(scenario, coeff_i=-1.0, response=LinearResponse(float("nan")))
    scenario = _integrator(replace(scenario, horizon=0.0), step=-0.01, extinction_epsilon=float("nan"))
    assert _errors(scenario) == [
        "species 'prey' has non-finite growth rate",
        "species 'pred' has negative trophic_level",
        "interaction pred:prey: coeff_i must be a finite value >= 0",
        "interaction pred:prey: response rate must be a finite value >= 0",
        "horizon must be > 0",
        "integrator step must be > 0",
        "extinction_epsilon must be >= 0",
    ]


class TestTrajectory:
    def test_accepts_valid(self):
        traj = Trajectory(("a", "b"), [0.0, 1.0, 2.0], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert traj.n_samples == 3
        assert traj.column("b")[2] == 6.0
        assert list(traj.final_state()) == [5.0, 6.0]

    def test_accepts_negative_values(self):
        # trait means are signed; nonnegativity is checked by the producers that need it
        traj = Trajectory(("a",), [0.0, 1.0], [[1.0], [-0.5]])
        assert list(traj.column("a")) == [1.0, -0.5]

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(("a",), [0.0, 1.0, 1.0], [[1.0], [1.0], [1.0]])

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError, match="start at 0"):
            Trajectory(("a",), [1.0, 2.0], [[1.0], [1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            Trajectory(("a", "b"), [0.0, 1.0], [[1.0], [1.0]])

    @pytest.mark.parametrize(
        "names, message",
        [(("a", "a"), "must be distinct"), (("a", ""), "must not be empty"),
         ((), "^trajectory needs at least one variable$")],
        ids=["duplicate", "empty", "none"],
    )
    def test_rejects_bad_variable_names(self, names, message):
        with pytest.raises(ValueError, match=message):
            Trajectory(names, [0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(("a",), [0.0, 1.0], [[1.0], [float("nan")]])

    def test_arrays_are_read_only(self):
        traj = Trajectory(("a",), [0.0, 1.0], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            traj.values[0, 0] = 9.0
        with pytest.raises(ValueError):
            traj.times[0] = 9.0

    @pytest.mark.parametrize("values", [[[1.0], [2.0]], [1.0, 2.0]], ids=["2d", "1d"])
    def test_copies_the_callers_arrays(self, values):
        times, values = np.array([0.0, 1.0]), np.array(values)
        traj = Trajectory(("a",), times, values)
        times[1] = 5.0
        values[0] = 7.0
        assert times.flags.writeable and values.flags.writeable
        assert traj.times.tolist() == [0.0, 1.0]
        assert traj.values.tolist() == [[1.0], [2.0]]
        assert not traj.values.flags.writeable

    def test_unknown_column(self):
        traj = Trajectory(("a",), [0.0, 1.0], [[1.0], [2.0]])
        with pytest.raises(KeyError):
            traj.column("zz")


_PARSE_FOOD_CHAIN_WITHOUT_DENSITIES = """
import json
from ecolab import ScenarioValidationError, parse_scenario, serialize_scenario
from ecolab.demos import demo_document
document = json.loads(serialize_scenario(demo_document("food-chain")))
document["initial_densities"] = {}
try:
    parse_scenario(json.dumps(document))
except ScenarioValidationError as exc:
    print(exc)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_errors_reported_in_declaration_order_whatever_the_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(ecolab.__file__)), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _PARSE_FOOD_CHAIN_WITHOUT_DENSITIES],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == (
        "missing initial density for 'plant'; missing initial density for 'grazer'; "
        "missing initial density for 'carnivore'\n"
    )

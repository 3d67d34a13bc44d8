import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ecolab
from ecolab import (
    EpidemicModel,
    ScenarioValidationError,
    SelectionState,
    community_rhs,
    complete_graph,
    constant_gradient,
    estimate_threshold,
    glv_derivative,
    iterate_map,
    iterate_selection,
    jacobian_at,
    persistence_fraction,
    stability_report,
    sweep_epidemic,
)
from helpers import predation_scenario

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(ecolab.__path__, "ecolab."))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# the modules whose __all__ ecolab republishes, in import order
_PUBLISHED = [f"ecolab.{name}" for name in (
    "core", "continuous", "discrete", "epidemic", "selection", "analysis", "scenario_io", "svg", "cli"
)]


def test_top_level_names_are_the_modules_lists():
    # a public name is stated once, in its module's __all__, and ecolab republishes the lists
    owners = [(name, module) for module in map(importlib.import_module, _PUBLISHED) for name in module.__all__]
    assert ecolab.__all__ == [name for name, _ in owners]
    assert len(set(ecolab.__all__)) == len(ecolab.__all__)
    assert [name for name, module in owners if getattr(ecolab, name) is not getattr(module, name)] == []
    public = {name for name, value in vars(ecolab).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(ecolab.__all__)


_DOCUMENT_FORM = ("_entry_to_json", "_parse_entry", "_record_json", "_set_number", "_number_paths", "_split_path")


def test_document_form_helpers_stay_in_scenario_io():
    # parameter edits live beside the document form they edit, and no
    # other module reaches into its private helpers
    assert ecolab.set_parameter is ecolab.analysis.set_parameter is ecolab.scenario_io.set_parameter
    bound = [
        (name, helper)
        for name in ["ecolab", *MODULES] if name != "ecolab.scenario_io"
        for helper in _DOCUMENT_FORM if hasattr(importlib.import_module(name), helper)
    ]
    assert bound == []


def test_import_leaves_urllib_unloaded():
    # xml.sax.saxutils imports urllib.request, and with it http.client, ssl and email
    src = os.path.dirname(os.path.dirname(ecolab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ecolab; print(ecolab.__file__); print('urllib.request' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == f"{ecolab.__file__}\nFalse\n"


_SELECTION = SelectionState(
    means=np.zeros(3),
    g_matrix=np.eye(3),
    natural=constant_gradient((0.1, 0.0, 0.0)),
    sexual=constant_gradient((0.0, 0.0, 0.0)),
    mutation_step=np.zeros(3),
)
# on K20 with these runs the range (0.005, 0.4) brackets the persistence threshold
_THRESHOLD = dict(runs_per_point=10, persistence_horizon=20.0, n_bisections=3, master_seed=9)


@pytest.mark.parametrize("name, call", [
    ("n_generations", lambda count: iterate_map(lambda s: (2.0 * s[0],), (1.0,), count).values.tolist()),
    ("n_steps", lambda count: iterate_selection(_SELECTION, count).values.tolist()),
    ("n_runs", lambda count: persistence_fraction(complete_graph(10), 0.5, 1.0, 5.0, count)),
    ("runs_per_point", lambda count: estimate_threshold(
        complete_graph(20), 1.0, (0.005, 0.4), **dict(_THRESHOLD, runs_per_point=count))),
    ("n_bisections", lambda count: estimate_threshold(
        complete_graph(20), 1.0, (0.005, 0.4), **dict(_THRESHOLD, n_bisections=count))),
    pytest.param("runs_per_point", lambda count: sweep_epidemic(
        EpidemicModel(graph=complete_graph(10), beta=0.5, gamma=1.0), "beta", [0.4, 0.6], horizon=5.0,
        runs_per_point=count), id="sweep_epidemic"),
])
def test_counts_must_be_integers(name, call):
    # int() would have run 2 of 2.5 generations, and islice() named no argument
    for count in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {count!r}$"):
            call(count)
    assert call(np.int64(2)) == call(2)


# predation_scenario()'s entry with one field replaced, and the one violation that names
_INVALID_ENTRIES = [
    ({"species_j": "prye"}, "dangling reference: interaction pred:prye names unknown species 'prye'"),
    ({"coeff_i": -0.2}, "interaction pred:prey: coeff_i must be a finite value >= 0"),
]


@pytest.mark.parametrize("call", [
    pytest.param(lambda scenario: community_rhs(scenario)([1.0, 1.0]), id="community_rhs"),
    pytest.param(lambda scenario: glv_derivative([1.0, 1.0], scenario), id="glv_derivative"),
    pytest.param(lambda scenario: jacobian_at(scenario, [1.0, 1.0]), id="jacobian_at"),
    pytest.param(lambda scenario: stability_report(scenario, [1.0, 1.0]), id="stability_report"),
])
def test_derivative_and_jacobian_validate_the_scenario(call):
    # as integrate_report and find_fixed_points do: an unknown id was a bare KeyError, and a
    # negative conversion went through
    scenario = predation_scenario()
    for fields, error in _INVALID_ENTRIES:
        invalid = replace(scenario, interactions=(replace(scenario.interactions[0], **fields),))
        with pytest.raises(ScenarioValidationError) as err:
            call(invalid)
        assert err.value.errors == [error]

"""ecolab: simulation and analysis of ecological interaction models.

Continuous and discrete antagonistic dynamics, epidemic spreading on
contact networks with transmission thresholds, cooperation and mimicry
payoff rules, and the multivariate trait-selection recursion, behind a
scenario-file driven CLI (`ecolab`).
"""

from .core import (
    ContinuumParams,
    FunctionalResponse,
    HollingTypeII,
    IntegratorConfig,
    InteractionKind,
    InteractionSpec,
    IvlevResponse,
    LinearResponse,
    Role,
    Scenario,
    ScenarioValidationError,
    SpeciesSpec,
    Trajectory,
    continuum_interaction,
    validate_scenario,
)
from .continuous import (
    DivergenceError,
    IntegrationResult,
    LotkaVolterraParams,
    NonFiniteDerivativeError,
    StepSizeUnderflowError,
    community_rhs,
    functional_response,
    glv_derivative,
    integrate,
    integrate_report,
    lv_derivative,
    lv_equilibrium,
    lv_first_integral,
    lv_scenario,
)
from .discrete import (
    NicholsonBaileyParams,
    iterate_map,
    nicholson_bailey_equilibrium,
    nicholson_bailey_map,
    nicholson_bailey_step,
)
from .epidemic import (
    EpidemicKind,
    EpidemicModel,
    Graph,
    PrevalenceTrajectory,
    ThresholdBracketError,
    ThresholdEstimate,
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    estimate_threshold,
    from_edges,
    mean_field_threshold,
    persistence_fraction,
    read_edge_list,
    run_seed,
    simulate_epidemic,
)
from .selection import (
    GradientSpec,
    KinSelectionParams,
    MimicryParams,
    MimicryPayoffs,
    SelectionState,
    constant_gradient,
    hamilton_favored,
    iterate_selection,
    linear_gradient,
    make_g_matrix,
    mimic_frequency,
    mimicry_payoffs,
    selection_step,
)
from .analysis import (
    Classification,
    PointSummary,
    StabilityReport,
    SweepReport,
    analyze_scenario,
    classify,
    find_fixed_points,
    jacobian_at,
    jacobian_of,
    oscillation_period,
    set_parameter,
    stability_report,
    sweep,
    sweep_epidemic,
)
from .scenario_io import (
    DiscreteBundle,
    Document,
    EpidemicBundle,
    ParseError,
    SelectionBundle,
    parse_scenario,
    read_csv,
    scenario_digest,
    serialize_scenario,
    write_csv,
)
from .svg import render_svg
from .cli import cli_main

__version__ = "0.1.0"

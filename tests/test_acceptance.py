"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion asserts at its stated tolerance; the Monte Carlo criteria use
frozen master seeds so the whole suite is reproducible.  Criterion 06 accepts
its supercritical persistence count only inside the binomial band of 100 runs
around the exact SIS establishment probability on K50, with each tail at most
5e-4.
"""

import math
import random
import time

import numpy as np
import pytest

from ecolab import (
    Classification,
    EpidemicModel,
    LotkaVolterraParams,
    NicholsonBaileyParams,
    classify,
    cli_main,
    complete_graph,
    estimate_threshold,
    glv_derivative,
    integrate,
    iterate_map,
    jacobian_at,
    lv_derivative,
    lv_first_integral,
    lv_scenario,
    mean_field_threshold,
    nicholson_bailey_equilibrium,
    nicholson_bailey_map,
    nicholson_bailey_step,
    oscillation_period,
    parse_scenario,
    run_seed,
    serialize_scenario,
    simulate_epidemic,
    stability_report,
    sweep,
)
from ecolab.demos import DEMO_NAMES, demo_document
from ecolab.selection import (
    KinSelectionParams,
    MimicryParams,
    SelectionState,
    constant_gradient,
    hamilton_favored,
    iterate_selection,
    linear_gradient,
    make_g_matrix,
    mimicry_payoffs,
    selection_step,
)
from helpers import binomial_band, predation_scenario, sis_complete_persistence

CANONICAL = LotkaVolterraParams(1.0, 0.1, 0.5, 0.02)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_01_first_integral_conservation():
    started = time.perf_counter()
    scenario = predation_scenario(initial=(30.0, 8.0), horizon=100.0, step=0.01)
    traj = integrate(scenario)
    values = np.array([lv_first_integral(x, y, CANONICAL) for x, y in traj.values])
    drift = float(np.max(np.abs(values - values[0])) / abs(values[0]))
    elapsed = time.perf_counter() - started
    ok = drift < 1e-4 and elapsed < 1.0
    report(1, "first-integral drift", ok, f"max relative drift {drift:.3e} (< 1e-4), {elapsed:.2f}s (< 1s)")
    assert drift < 1e-4
    assert elapsed < 1.0


def test_criterion_02_equilibrium_and_linearization():
    derivative = lv_derivative(25.0, 10.0, CANONICAL)
    exact_zero = derivative == (0.0, 0.0)

    scenario = lv_scenario(CANONICAL, (30.0, 8.0))
    rep = stability_report(scenario, [25.0, 10.0])
    root = math.sqrt(0.5)
    imag = sorted(v.imag for v in rep.eigenvalues)
    eigen_ok = (
        max(abs(v.real) for v in rep.eigenvalues) < 1e-6
        and abs(imag[0] + root) < 1e-6
        and abs(imag[1] - root) < 1e-6
    )
    class_ok = rep.classification == Classification.CENTER_LIKE
    ok = exact_zero and eigen_ok and class_ok
    report(
        2,
        "equilibrium and linearization",
        ok,
        f"derivative {derivative} (exact zero), eigenvalues {rep.eigenvalues} "
        f"(+-i*sqrt(0.5) within 1e-6), classified {rep.classification.value}",
    )
    assert exact_zero and eigen_ok and class_ok


def test_criterion_03_oscillation_period():
    scenario = predation_scenario(initial=(26.0, 10.0), horizon=100.0, step=0.01)
    traj = integrate(scenario)
    period = oscillation_period(traj, "prey", 25.0)
    expected = 2.0 * math.pi / math.sqrt(0.5)
    error = abs(period - expected) / expected
    ok = error < 0.05
    report(3, "oscillation period", ok, f"measured {period:.4f} vs {expected:.4f}, error {error:.2%} (< 5%)")
    assert error < 0.05


def test_criterion_04_generalized_reduction_exact():
    # conversion 0.25 is a power of two so the configured gain
    # 0.25 * 0.1 is exact and both code paths share every rounding step
    scenario = predation_scenario(conversion=0.25)
    params = LotkaVolterraParams(1.0, 0.1, 0.5, 0.25 * 0.1)
    rng = random.Random(12345)
    mismatches = 0
    for _ in range(1000):
        x, y = rng.uniform(0.0, 80.0), rng.uniform(0.0, 40.0)
        expected = lv_derivative(x, y, params)
        got = glv_derivative([x, y], scenario)
        if (got[0], got[1]) != expected:
            mismatches += 1
    ok = mismatches == 0
    report(4, "generalized reduction", ok, f"{mismatches}/1000 states deviate (exact equality required)")
    assert mismatches == 0


def test_criterion_05_host_parasitoid_fixed_point_and_divergence():
    rng = random.Random(321)
    worst = 0.0
    for _ in range(100):
        params = NicholsonBaileyParams(
            growth_factor=rng.uniform(1.0001, 5.0),
            search_efficiency=rng.uniform(0.01, 2.0),
            conversion=rng.uniform(0.1, 3.0),
        )
        h_star, p_star = nicholson_bailey_equilibrium(params)
        h_next, p_next = nicholson_bailey_step(h_star, p_star, params)
        worst = max(worst, abs(h_next - h_star) / h_star, abs(p_next - p_star) / p_star)
    fixed_ok = worst < 1e-10

    canonical = NicholsonBaileyParams(2.0, 0.1, 1.0)
    h_star, p_star = nicholson_bailey_equilibrium(canonical)
    traj = iterate_map(nicholson_bailey_map(canonical), (h_star * 1.01, p_star), 50)
    series = traj.values[:, 0]
    peaks = [
        series[k]
        for k in range(1, len(series) - 1)
        if series[k] > series[k - 1] and series[k] > series[k + 1]
    ]
    growth_ok = len(peaks) >= 3 and all(a < b for a, b in zip(peaks, peaks[1:]))
    ok = fixed_ok and growth_ok
    report(
        5,
        "host-parasitoid map",
        ok,
        f"worst fixed-point error {worst:.2e} (< 1e-10); "
        f"{len(peaks)} peaks growing monotonically: {growth_ok}",
    )
    assert fixed_ok and growth_ok


def test_criterion_06_epidemic_threshold_monte_carlo():
    started = time.perf_counter()
    graph = complete_graph(50)

    persist = 0
    for k in range(100):
        model = EpidemicModel(
            graph=graph, beta=0.08, gamma=1.0, initial_infected=frozenset({0}), seed=run_seed(0, k)
        )
        if simulate_epidemic(model, 200.0, sample_dt=200.0).extinction_time is None:
            persist += 1
    expected = sis_complete_persistence(50, 0.08, 1.0)
    low, high = binomial_band(100, expected, 5e-4)
    supercritical_ok = low <= persist <= high

    extinct = 0
    for k in range(100):
        model = EpidemicModel(
            graph=graph, beta=0.005, gamma=1.0, initial_infected=frozenset({0}), seed=run_seed(1, k)
        )
        if simulate_epidemic(model, 200.0, sample_dt=200.0).extinction_time is not None:
            extinct += 1
    subcritical_ok = extinct >= 95

    critical = mean_field_threshold(graph, 1.0)
    meanfield_ok = abs(critical - 1.0 / 49.0) < 1e-12

    elapsed = time.perf_counter() - started
    ok = supercritical_ok and subcritical_ok and meanfield_ok and elapsed < 120.0
    report(
        6,
        "epidemic threshold",
        ok,
        f"supercritical persistence {persist}/100 (oracle expects {100 * expected:.1f}/100, "
        f"band [{low}, {high}]), "
        f"subcritical extinction {extinct}/100 (needs >= 95), "
        f"mean-field |beta_c - 1/49| = {abs(critical - 1/49):.1e} (< 1e-12), "
        f"{elapsed:.0f}s (< 120s)",
    )
    assert subcritical_ok
    assert meanfield_ok
    assert elapsed < 120.0
    assert supercritical_ok, (
        f"supercritical persistence {persist}/100 outside the band [{low}, {high}] around the "
        f"exact establishment probability {expected:.5f} (oracle expects {100 * expected:.1f}/100)"
    )


def test_criterion_07_empirical_threshold():
    started = time.perf_counter()
    estimate = estimate_threshold(
        complete_graph(50),
        1.0,
        (0.005, 0.1),
        runs_per_point=60,
        persistence_horizon=60.0,
        n_bisections=6,
        master_seed=0,
    )
    critical = 1.0 / 49.0
    ratio = estimate.beta / critical
    elapsed = time.perf_counter() - started
    ok = 0.5 < ratio < 2.0 and elapsed < 300.0
    report(
        7,
        "empirical threshold",
        ok,
        f"estimate {estimate.beta:.4f} vs mean-field {critical:.4f} (ratio {ratio:.2f}, "
        f"needs factor 2), bracket width {estimate.bracket_width:.4f}, {elapsed:.0f}s (< 300s)",
    )
    assert 0.5 < ratio < 2.0
    assert elapsed < 300.0


def test_criterion_08_continuum_transition():
    scenario = demo_document("arms-race")
    grid = np.linspace(1.0, -1.0, 21)
    swept = sweep(scenario, "interaction.attacker:victim.alpha", grid)
    by_value = {p.value: p.classification for p in swept.points}
    endpoints_differ = all(by_value[lo] != by_value[hi] for lo, hi in swept.transitions)
    ok = len(swept.transitions) >= 1 and endpoints_differ
    shown = ", ".join(
        f"[{lo:.2f}, {hi:.2f}] {by_value[lo].value}->{by_value[hi].value}"
        for lo, hi in swept.transitions
    )
    report(8, "continuum transition", ok, f"{len(swept.transitions)} transition(s): {shown}")
    assert len(swept.transitions) >= 1
    assert endpoints_differ


def test_criterion_09_selection_recursion():
    zeros = np.zeros(3)
    identity_state = SelectionState(
        means=np.array([1.0, 2.0, 3.0]),
        g_matrix=np.eye(3),
        natural=constant_gradient(zeros),
        sexual=constant_gradient(zeros),
        mutation_step=zeros,
    )
    delta_zero, _ = selection_step(identity_state)
    zero_ok = np.array_equal(delta_zero, zeros)

    forced = SelectionState(
        means=zeros,
        g_matrix=np.eye(3),
        natural=constant_gradient((1.0, 0.5, 3.0)),
        sexual=constant_gradient((0.0, 1.5, 0.0)),
        mutation_step=np.array([0.1, 0.2, 0.3]),
    )
    delta_identity, _ = selection_step(forced)
    identity_ok = np.allclose(delta_identity, [1.1, 2.2, 3.3], atol=1e-15)

    runaway_state = SelectionState(
        means=np.array([1.0, 1.0, 0.0]),
        g_matrix=make_g_matrix(1.0, 1.0, 0.0, c_display_preference=0.9),
        natural=constant_gradient((-0.05, 0.0, 0.0)),
        sexual=linear_gradient(
            (0.0, 0.0, 0.0), [[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        ),
        mutation_step=zeros,
    )
    history = iterate_selection(runaway_state, 100)
    display = history.column("display")
    preference = history.column("preference")
    runaway_ok = bool(np.all(np.diff(display) > 0) and np.all(np.diff(preference) > 0))

    ok = zero_ok and identity_ok and runaway_ok
    report(
        9,
        "selection recursion",
        ok,
        f"zero forcing -> {tuple(float(v) for v in delta_zero)}; "
        f"identity response {tuple(round(float(v), 12) for v in delta_identity)}; "
        f"runaway monotone over 100 steps: {runaway_ok} "
        f"(display {display[0]:.2f}->{display[-1]:.2f})",
    )
    assert zero_ok and identity_ok and runaway_ok


def test_criterion_10_hamilton_and_mimicry():
    table = [
        (KinSelectionParams(0.5, 2.0, 0.9), True),
        (KinSelectionParams(0.5, 2.0, 1.0), False),  # strict boundary
        (KinSelectionParams(0.0, 100.0, 0.5), False),
        (KinSelectionParams(1.0, 1.0, 0.999), True),
        (KinSelectionParams(0.25, 4.0, 1.0), False),  # exactly rb == c
    ]
    hamilton_ok = all(hamilton_favored(p) is expected for p, expected in table)

    def payoff(n_mimic: float):
        return mimicry_payoffs(
            MimicryParams(
                model_density=1.0,
                mimic_density=n_mimic,
                venom_cost=3.0,
                prey_value=1.0,
                model_weapon_cost=0.4,
                mimic_signal_cost=0.05,
            )
        )

    at_star = payoff(3.0)  # frequency exactly 0.75
    above = payoff(3.0 + 1e-9)
    below = payoff(3.0 - 1e-9)
    flip_ok = (
        at_star.predator_expected_payoff == 0.0
        and at_star.attack_probability == 0.0
        and below.attack_probability == 0.0
        and above.attack_probability == 1.0
    )
    ok = hamilton_ok and flip_ok
    report(
        10,
        "cooperation rule and mimicry",
        ok,
        f"truth table with strict boundary: {hamilton_ok}; attack flips exactly at "
        f"frequency 0.75: {flip_ok}",
    )
    assert hamilton_ok and flip_ok


def test_criterion_11_end_to_end_determinism(tmp_path):
    csv_a, svg_a = tmp_path / "a.csv", tmp_path / "a.svg"
    csv_b, svg_b = tmp_path / "b.csv", tmp_path / "b.svg"
    code_a = cli_main(
        ["demo", "lv-classic", "--seed", "0", "--csv", str(csv_a), "--svg", str(svg_a), "--quiet"]
    )
    code_b = cli_main(
        ["demo", "lv-classic", "--seed", "0", "--csv", str(csv_b), "--svg", str(svg_b), "--quiet"]
    )
    identical = csv_a.read_bytes() == csv_b.read_bytes() and svg_a.read_bytes() == svg_b.read_bytes()

    documents = [name for name in DEMO_NAMES if name != "mimicry"]
    round_trips = all(
        parse_scenario(serialize_scenario(demo_document(name))) == demo_document(name)
        for name in documents
    )
    ok = code_a == 0 and code_b == 0 and identical and round_trips
    report(
        11,
        "end-to-end determinism",
        ok,
        f"byte-identical CSV+SVG across repeated runs: {identical}; "
        f"{len(documents)} demo documents round-trip: {round_trips}",
    )
    assert code_a == 0 and code_b == 0
    assert identical
    assert round_trips

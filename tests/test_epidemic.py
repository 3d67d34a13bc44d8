import hashlib
import itertools
import math
import random
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import helpers

from ecolab import (
    EpidemicKind,
    EpidemicModel,
    Graph,
    PrevalenceTrajectory,
    ThresholdBracketError,
    Trajectory,
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
from ecolab import epidemic
from ecolab.epidemic import _half_persist, _runs_alive
from helpers import (
    binomial_band,
    reference_adjacency,
    reference_barabasi_albert,
    reference_simulate_epidemic,
    sis_complete_persistence,
)


class TestGraphs:
    def test_complete_graph_edge_count(self):
        assert complete_graph(5).n_edges == 10

    def test_erdos_renyi_extremes(self):
        assert erdos_renyi(100, 0.0, seed=1).n_edges == 0
        assert erdos_renyi(20, 1.0, seed=1).n_edges == 190

    def test_erdos_renyi_deterministic(self):
        assert erdos_renyi(50, 0.1, seed=7).edges == erdos_renyi(50, 0.1, seed=7).edges
        assert erdos_renyi(50, 0.1, seed=7).edges != erdos_renyi(50, 0.1, seed=8).edges

    def test_preferential_attachment_structure(self):
        graph = barabasi_albert(1000, 3, seed=42)
        # seed clique of m+1 nodes plus exactly m edges per later node
        assert graph.n_edges == 6 + 3 * (1000 - 4)
        degrees = graph.degrees()
        assert degrees.mean() == pytest.approx(6.0, rel=0.05)
        assert degrees.max() > 5 * degrees.mean()

    def test_preferential_attachment_deterministic(self):
        assert barabasi_albert(200, 2, seed=3).edges == barabasi_albert(200, 2, seed=3).edges

    def test_a_graph_is_its_nodes_and_edges(self):
        graph = barabasi_albert(60, 2, seed=5)
        assert graph == from_edges(60, graph.edges)
        assert complete_graph(4) == from_edges(4, [(1, 0), (0, 2), (0, 3), (1, 2), (3, 1), (2, 3)])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert(5, 5)
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5)
        for empty in (lambda: complete_graph(0), lambda: erdos_renyi(0, 0.5)):
            with pytest.raises(ValueError, match="^n_nodes must be positive$"):
                empty()

    def test_graph_invariants(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edges(3, [(0, 0)])
        with pytest.raises(ValueError, match="outside node range"):
            from_edges(3, [(0, 5)])

    @pytest.mark.parametrize(
        "n, edges", [(3, [(0, 1.0)]), (3, [(0.0, 2)]), (3.0, [(0, 1)])], ids=["float-node", "float-first", "float-n"]
    )
    def test_node_indices_are_integers(self, n, edges):
        with pytest.raises(TypeError):
            from_edges(n, edges)

    def test_int_like_nodes_become_ints(self):
        graph = from_edges(np.int64(4), [(True, np.int64(3)), (np.int64(2), 0)])
        assert graph.edges == frozenset({(1, 3), (0, 2)})
        assert all(type(x) is int for x in [graph.n_nodes, *itertools.chain(*graph.edges)])

    @pytest.mark.parametrize(
        "build, plain",
        [
            (lambda: complete_graph(np.int64(4)), lambda: complete_graph(4)),
            (lambda: erdos_renyi(np.int64(9), 0.5, seed=1), lambda: erdos_renyi(9, 0.5, seed=1)),
            (lambda: barabasi_albert(np.int64(50), 3), lambda: barabasi_albert(50, 3)),
            (lambda: barabasi_albert(50, np.int64(3)), lambda: barabasi_albert(50, 3)),
        ],
        ids=["complete-n", "erdos-renyi-n", "barabasi-albert-n", "barabasi-albert-m"],
    )
    def test_numpy_int_counts_build_the_plain_graph_and_recipe(self, build, plain):
        graph, expected = build(), plain()
        assert graph == expected
        assert graph.recipe == expected.recipe
        assert [type(x) for x in graph.recipe[1]] == [type(x) for x in expected.recipe[1]]

    def test_a_float_node_count_is_refused(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            barabasi_albert(10.0, 2)

    def test_duplicate_and_reversed_edges_normalize(self):
        graph = from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
        assert graph.edges == frozenset({(0, 1), (1, 2)})
        assert list(graph.degrees()) == [1.0, 2.0, 1.0]

    def test_edge_list_round_trip(self):
        text = "# comment\n0 1\n1 2\n\n2 3\n"
        graph = read_edge_list(text)
        assert graph.n_nodes == 4
        assert graph.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_edge_list_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            read_edge_list("0 1 2\n")
        with pytest.raises(ValueError, match="integers"):
            read_edge_list("a b\n")
        with pytest.raises(ValueError, match="empty"):
            read_edge_list("\n")


def k_model(n=30, beta=0.05, gamma=1.0, infected=(0,), kind=EpidemicKind.SIS, seed=0):
    return EpidemicModel(
        graph=complete_graph(n),
        kind=kind,
        beta=beta,
        gamma=gamma,
        initial_infected=frozenset(infected),
        seed=seed,
    )


class TestSimulation:
    def test_beta_zero_shrinks_to_extinction(self):
        for seed in range(5):
            traj = simulate_epidemic(k_model(beta=0.0, infected=(0, 1, 2), seed=seed), 50.0, 1.0)
            assert traj.extinction_time is not None
            assert np.all(np.diff(traj.infected_fraction) <= 0)

    def test_huge_recovery_rate_collapses_immediately(self):
        for seed in range(5):
            traj = simulate_epidemic(k_model(beta=1.0, gamma=1e6, seed=seed), 5.0, 0.1)
            assert traj.infected_fraction[1] == 0.0

    def test_identical_seed_bit_identical(self):
        a = simulate_epidemic(k_model(beta=0.06, seed=99), 30.0, 0.5)
        b = simulate_epidemic(k_model(beta=0.06, seed=99), 30.0, 0.5)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.infected_fraction, b.infected_fraction)
        assert a.extinction_time == b.extinction_time

    def test_different_seed_differs(self):
        a = simulate_epidemic(k_model(beta=0.06, seed=1), 30.0, 0.5)
        b = simulate_epidemic(k_model(beta=0.06, seed=2), 30.0, 0.5)
        assert not np.array_equal(a.infected_fraction, b.infected_fraction)

    def test_sir_monotonicity(self):
        n = 30
        model = k_model(n=n, beta=0.2, kind=EpidemicKind.SIR, infected=(0, 1), seed=11)
        traj = simulate_epidemic(model, 30.0, 0.25)
        infected = np.rint(traj.infected_fraction * n).astype(int)
        recovered = np.rint(traj.recovered_fraction * n).astype(int)
        susceptible = n - infected - recovered
        assert np.all(np.diff(recovered) >= 0)
        assert np.all(np.diff(susceptible) <= 0)
        assert np.all(traj.infected_fraction + traj.recovered_fraction <= 1.0 + 1e-12)

    def test_absorbing_state(self):
        traj = simulate_epidemic(k_model(beta=0.01, seed=5), 100.0, 1.0)
        assert traj.extinction_time is not None
        after = traj.times >= traj.extinction_time
        assert np.all(traj.infected_fraction[after] == 0.0)

    def test_sampling_grid(self):
        traj = simulate_epidemic(k_model(seed=1), 10.0, 2.5)
        assert list(traj.times) == [0.0, 2.5, 5.0, 7.5, 10.0]
        assert traj.infected_fraction[0] == 1 / 30

    def test_rate_rescaling_is_a_time_rescaling(self):
        base = k_model(beta=0.06, gamma=1.0, infected=(0, 1), seed=77)
        fast = replace(base, beta=0.12, gamma=2.0)
        slow_traj = simulate_epidemic(base, 40.0, 1.0)
        fast_traj = simulate_epidemic(fast, 20.0, 0.5)
        # doubling both rates is an exact power-of-two rescaling of every
        # waiting time, so matched seeds give identical curves in scaled time
        assert np.array_equal(slow_traj.infected_fraction, fast_traj.infected_fraction)
        if slow_traj.extinction_time is not None:
            assert fast_traj.extinction_time == slow_traj.extinction_time / 2.0

    def test_rate_rescaling_in_distribution_for_odd_factor(self):
        # factor 3 is not an exact float rescaling, so compare Monte
        # Carlo summary statistics on the scaled time grid instead
        def mean_final(beta, gamma, horizon, master):
            total = 0.0
            for k in range(40):
                model = k_model(n=40, beta=beta, gamma=gamma, infected=(0, 1), seed=run_seed(master, k))
                total += simulate_epidemic(model, horizon, horizon / 10.0).infected_fraction[-1]
            return total / 40

        slow = mean_final(0.05, 1.0, 30.0, master=11)
        fast = mean_final(0.15, 3.0, 10.0, master=11)
        assert fast == pytest.approx(slow, abs=0.1)

    @pytest.mark.parametrize("names, values", [
        (("infected_fraction",), [0.5, 0.25]),
        (("infected_fraction", "recovered_fraction"), [[0.5, 0.0], [0.25, 0.5]]),
    ], ids=["sis", "sir"])
    def test_prevalence_copies_the_callers_arrays(self, names, values):
        times, values = np.array([0.0, 1.0]), np.array(values)
        traj = PrevalenceTrajectory(names, times, values, None)
        for array in (times, values):
            assert array.flags.writeable
            array[1] = 0.125
        assert traj.times.tolist() == [0.0, 1.0]
        assert traj.infected_fraction.tolist() == [0.5, 0.25]
        if len(names) == 1:
            assert traj.recovered_fraction is None
        else:
            assert traj.recovered_fraction.tolist() == [0.0, 0.5]
            assert not traj.recovered_fraction.flags.writeable
        assert not traj.infected_fraction.flags.writeable
        assert not traj.times.flags.writeable

    @pytest.mark.parametrize("kind", list(EpidemicKind))
    def test_simulation_is_a_trajectory(self, kind):
        traj = simulate_epidemic(k_model(beta=0.2, kind=kind, infected=(0, 1), seed=3), 10.0, 0.5)
        names = ("infected_fraction",) if kind == EpidemicKind.SIS else ("infected_fraction", "recovered_fraction")
        assert isinstance(traj, Trajectory)
        assert traj.variable_names == names
        assert traj.infected_fraction.tobytes() == traj.column("infected_fraction").tobytes()
        if kind == EpidemicKind.SIR:
            assert traj.recovered_fraction.tobytes() == traj.column("recovered_fraction").tobytes()
        with pytest.raises(AttributeError):
            traj.extinction_time = 1.0

    @pytest.mark.parametrize("names, values, message", [
        (("infected_fraction",), [0.5, 1.5], "infected fractions must lie in [0, 1]"),
        (("infected_fraction", "recovered_fraction"), [[0.5, 0.0], [0.25, -0.5]],
         "recovered fractions must lie in [0, 1]"),
        (("infected_fraction", "recovered_fraction"), [[0.5, 0.0], [0.5, 0.75]],
         "infected + recovered must stay <= 1"),
        (("recovered_fraction",), [0.5, 0.25],
         "prevalence variables must be infected_fraction[, recovered_fraction], got ('recovered_fraction',)"),
        (("infected_fraction",), [[0.5, 0.0], [0.25, 0.5]],
         "values shape (2, 2) does not match 2 samples x 1 variables"),
    ], ids=["infected", "recovered", "sum", "names", "shape"])
    def test_prevalence_checks(self, names, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PrevalenceTrajectory(names, [0.0, 1.0], values, None)

    def test_int_like_seeds_become_ints(self):
        assert type(EpidemicModel(complete_graph(3), seed=np.int64(3)).seed) is int
        flag = EpidemicModel(complete_graph(20), beta=0.3, seed=True)
        assert type(flag.seed) is int and flag.seed == 1
        # random.Random seeds a bool by its int value, so True keeps its stream
        one = simulate_epidemic(replace(flag, seed=1), 5.0, 0.5)
        assert trajectory_digest(simulate_epidemic(flag, 5.0, 0.5)) == trajectory_digest(one)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="not be empty"):
            EpidemicModel(graph=complete_graph(5), initial_infected=frozenset())
        with pytest.raises(ValueError, match="outside range"):
            EpidemicModel(graph=complete_graph(5), initial_infected=frozenset({9}))
        with pytest.raises(TypeError):
            EpidemicModel(graph=complete_graph(3), initial_infected={0.5, 1.9})
        for seed in (2.5, "a"):
            with pytest.raises(TypeError):
                EpidemicModel(graph=complete_graph(3), seed=seed)
        with pytest.raises(ValueError):
            EpidemicModel(graph=complete_graph(5), beta=-0.1)
        with pytest.raises(ValueError):
            simulate_epidemic(k_model(), -1.0, 1.0)


class TestMeanFieldThreshold:
    def test_regular_graph(self):
        assert abs(mean_field_threshold(complete_graph(50), 1.0) - 1.0 / 49.0) < 1e-12

    def test_star_graph_moments(self):
        star = from_edges(101, [(0, k) for k in range(1, 101)])
        expected = 1.0 * (200.0 / 101.0) / (10100.0 / 101.0)
        assert mean_field_threshold(star, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0198, abs=2e-4)

    def test_gamma_scales_linearly(self):
        graph = complete_graph(10)
        assert mean_field_threshold(graph, 3.0) == 3.0 * mean_field_threshold(graph, 1.0)

    def test_heavy_tail_suppresses_threshold(self):
        graph = barabasi_albert(2000, 3, seed=9)
        homogeneous = 1.0 / graph.degrees().mean()
        assert mean_field_threshold(graph, 1.0) < 0.6 * homogeneous

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            mean_field_threshold(erdos_renyi(10, 0.0), 1.0)


class TestThresholdEstimation:
    def test_subcritical_range_fails_bracket(self):
        with pytest.raises(ThresholdBracketError, match="does not bracket"):
            estimate_threshold(
                complete_graph(30),
                1.0,
                (0.001, 0.005),
                runs_per_point=10,
                persistence_horizon=30.0,
                n_bisections=2,
            )

    def test_estimate_within_factor_two_small_graph(self):
        estimate = estimate_threshold(
            complete_graph(30),
            1.0,
            (0.005, 0.2),
            runs_per_point=30,
            persistence_horizon=40.0,
            n_bisections=5,
            master_seed=1,
        )
        critical = 1.0 / 29.0
        assert critical / 2 < estimate.beta < critical * 2
        assert estimate.bracket_width == pytest.approx(0.195 / 2**5, rel=1e-9)

    def test_doubling_gamma_doubles_estimate(self):
        low = estimate_threshold(
            complete_graph(30),
            1.0,
            (0.005, 0.2),
            runs_per_point=25,
            persistence_horizon=40.0,
            n_bisections=4,
            master_seed=5,
        )
        high = estimate_threshold(
            complete_graph(30),
            2.0,
            (0.01, 0.4),
            runs_per_point=25,
            persistence_horizon=20.0,
            n_bisections=4,
            master_seed=5,
        )
        ratio = high.beta / low.beta
        assert 1.0 < ratio < 4.0  # factor-2 scaling within factor-2 tolerance

    def test_deterministic_given_master_seed(self):
        kwargs = dict(runs_per_point=10, persistence_horizon=20.0, n_bisections=3, master_seed=9)
        a = estimate_threshold(complete_graph(20), 1.0, (0.005, 0.4), **kwargs)
        b = estimate_threshold(complete_graph(20), 1.0, (0.005, 0.4), **kwargs)
        assert a == b


def test_run_seed_is_stable_across_sessions():
    # frozen: cross-platform reproducibility contract
    assert run_seed(0, 0) == 2956290341267961077
    assert run_seed(0, 1) != run_seed(0, 0)
    assert run_seed(1, 0) != run_seed(0, 0)
    assert run_seed(2**63 + 5, 3) == run_seed(2**63 + 5, 3)


def test_run_seed_takes_integers_only():
    # int() read 2.7 as 2 and "5" as 5, so master_seed=2.9 silently ran master seed 2's runs
    for master, index in ((2.7, 0), ("5", 0), (0, 1.0), (0, "1")):
        with pytest.raises(TypeError):
            run_seed(master, index)
    with pytest.raises(TypeError):
        persistence_fraction(complete_graph(10), 0.5, 1.0, 5.0, 20, master_seed=2.9)
    assert run_seed(np.int64(7), np.uint8(3)) == run_seed(7, 3)
    assert run_seed(True, False) == run_seed(1, 0)
    assert run_seed(-1, -2) == run_seed(2**64 - 1, 2**64 - 2)


def test_persistence_fraction_deterministic():
    graph = complete_graph(20)
    a = persistence_fraction(graph, 0.1, 1.0, 20.0, 10, master_seed=4)
    b = persistence_fraction(graph, 0.1, 1.0, 20.0, 10, master_seed=4)
    assert a == b


@pytest.mark.parametrize("call", [
    lambda: persistence_fraction(complete_graph(10), 0.1, 1.0, 5.0, 0),
    lambda: estimate_threshold(complete_graph(10), 1.0, (0.01, 1.0), runs_per_point=0),
], ids=["persistence_fraction", "estimate_threshold"])
def test_zero_runs_rejected(call):
    with pytest.raises(ValueError, match="must be >= 1"):
        call()


def test_negative_bisections_rejected():
    with pytest.raises(ValueError, match="^n_bisections must be >= 0$"):
        estimate_threshold(complete_graph(10), 1.0, (0.01, 1.0), runs_per_point=4, n_bisections=-1)


@settings(max_examples=40, deadline=None)
@given(
    n_runs=st.integers(1, 12),
    # on K20 from 2 infected over a horizon of 8, half the runs survive near beta * 19 = 1.7
    beta_scale=st.sampled_from([0.5, 1.5, 1.7, 2.0, 4.0]),
    master_seed=st.integers(0, 2**32),
)
@example(n_runs=4, beta_scale=1.7, master_seed=0)  # a tie: exactly 2 of 4 survive
def test_half_persist_is_the_full_count_at_half(n_runs, beta_scale, master_seed):
    graph, beta = complete_graph(20), beta_scale / 19
    full = persistence_fraction(graph, beta, 1.0, 8.0, n_runs, master_seed=master_seed)
    model = EpidemicModel(graph=graph, beta=beta, gamma=1.0, initial_infected=frozenset(range(2)))
    assert _half_persist(_runs_alive(model, 8.0, master_seed), n_runs) == (full >= 0.5)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_persistence_horizon_must_be_positive(horizon):
    with pytest.raises(ValueError, match="^horizon must be > 0$"):
        persistence_fraction(complete_graph(10), 0.1, 1.0, horizon, 4)


@pytest.mark.parametrize("kind", list(EpidemicKind))
def test_monte_carlo_runs_sample_nothing(kind, monkeypatch):
    # a Monte Carlo run reads the event loop's extinction time and builds no sampled result
    graph = barabasi_albert(60, 2, seed=1)
    model = EpidemicModel(graph=graph, kind=kind, beta=0.3, gamma=1.0, initial_infected=frozenset(range(3)))
    alive = [
        simulate_epidemic(replace(model, seed=run_seed(5, k)), 6.0, 6.0).extinction_time is None for k in range(16)
    ]
    assert 0 < sum(alive) < 16

    def forbidden(*args, **kwargs):
        raise AssertionError("a Monte Carlo run built a sampled result")

    monkeypatch.setattr(epidemic, "simulate_epidemic", forbidden)
    monkeypatch.setattr(epidemic, "PrevalenceTrajectory", forbidden)
    monkeypatch.setattr(epidemic.np, "empty", forbidden)
    assert list(itertools.islice(_runs_alive(model, 6.0, 5), 16)) == alive
    assert persistence_fraction(graph, 0.3, 1.0, 6.0, 16, 5, kind, frozenset(range(3))) == sum(alive) / 16


def test_persistence_fraction_counts_run_seed_runs():
    # run k is the simulation seeded with run_seed(master_seed, k)
    graph = complete_graph(20)
    initial = frozenset(range(2))  # default_initial_infected: a tenth of the nodes
    alive = [
        simulate_epidemic(
            EpidemicModel(graph=graph, beta=0.1, gamma=1.0, initial_infected=initial, seed=run_seed(8, k)),
            20.0,
            sample_dt=20.0,
        ).extinction_time
        is None
        for k in range(12)
    ]
    assert 0 < sum(alive) < 12
    assert persistence_fraction(graph, 0.1, 1.0, 20.0, 12, master_seed=8) == sum(alive) / 12


def test_sis_complete_persistence_matches_generator_expm():
    # criterion 06's workload: K50, beta = 0.08, gamma = 1, one infected, horizon 200
    linalg = pytest.importorskip("scipy.linalg")
    n, beta, gamma = 50, 0.08, 1.0
    generator = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        up, down = beta * i * (n - i), gamma * i
        if i < n:
            generator[i, i + 1] = up
        generator[i, i - 1] = down
        generator[i, i] = -(up + down)
    alive = 1.0 - linalg.expm(200.0 * generator)[1, 0]
    assert sis_complete_persistence(n, beta, gamma) == pytest.approx(alive, abs=1e-6)


def test_threshold_bracket_holds_the_exact_half_persistence_beta():
    # criterion 07's call: K50, gamma = 1, a tenth of the nodes infected, horizon 60, 60 runs, 6 bisections
    linalg = pytest.importorskip("scipy.linalg")
    optimize = pytest.importorskip("scipy.optimize")
    n, gamma, horizon = 50, 1.0, 60.0
    start = len(epidemic.default_initial_infected(complete_graph(n)))

    def alive(beta):
        """P(infection at the horizon) from the birth-death chain of the infected count."""
        generator = np.zeros((n + 1, n + 1))
        for i in range(1, n + 1):
            up, down = beta * i * (n - i), gamma * i
            if i < n:
                generator[i, i + 1] = up
            generator[i, i - 1] = down
            generator[i, i] = -(up + down)
        return 1.0 - linalg.expm(horizon * generator)[start, 0]

    exact = optimize.brentq(lambda beta: alive(beta) - 0.5, 0.005, 0.1, xtol=1e-12)
    assert exact == pytest.approx(0.0303785, abs=1e-7)
    estimate = estimate_threshold(
        complete_graph(n), gamma, (0.005, 0.1), runs_per_point=60, persistence_horizon=horizon, n_bisections=6
    )
    low, high = estimate.bracket
    assert (low, high) == pytest.approx((0.0302344, 0.0317188), abs=1e-7)
    assert low < exact < high
    assert (alive(low), alive(high)) == pytest.approx((0.484, 0.637), abs=1e-3)


def test_binomial_band_tails():
    p = sis_complete_persistence(50, 0.08, 1.0)
    low, high = binomial_band(100, p, 5e-4)
    assert (low, high) == (59, 88)
    pmf = [math.comb(100, k) * p**k * (1 - p) ** (100 - k) for k in range(101)]
    assert sum(pmf[:low]) <= 5e-4 < sum(pmf[: low + 1])
    assert sum(pmf[high + 1 :]) <= 5e-4 < sum(pmf[high:])


def _sis_extinct_by(graph, beta, gamma, initial, horizon, linalg):
    """P(no node infected at the horizon) from the 2^n-state SIS chain on `graph`.

    State s holds the infected nodes as bits: a susceptible node becomes
    infected at rate beta times its number of infected neighbours, and an
    infected node recovers at rate gamma (Van Mieghem, Omic & Kooij 2009).
    """
    n = graph.n_nodes
    generator = np.zeros((1 << n, 1 << n))
    for s in range(1, 1 << n):
        for v in range(n):
            bit = 1 << v
            if s & bit:
                generator[s, s ^ bit] = gamma
            else:
                generator[s, s | bit] = beta * sum(s >> u & 1 for u in graph.adjacency[v])
        generator[s, s] = -generator[s].sum()
    return linalg.expm(horizon * generator)[sum(1 << v for v in initial), 0]


@pytest.mark.parametrize(
    "graph",
    [
        from_edges(6, [(k, k + 1) for k in range(5)]),
        from_edges(8, [(0, k) for k in range(1, 8)]),
        barabasi_albert(9, 2, seed=3),
        from_edges(7, [(k, (k + 1) % 7) for k in range(7)]),
        erdos_renyi(9, 0.4, seed=1),
    ],
    ids=["path-6", "star-8", "ba-9", "cycle-7", "er-9"],
)
def test_sis_extinctions_on_small_graphs_match_the_exact_chain(graph):
    # the contact-graph event loop against the exact chain; the master seed and run count were fixed
    # before the first run: 4000 runs of run_seed(0, k) from node 0 (the star's hub) at beta 1.2, horizon 4
    linalg = pytest.importorskip("scipy.linalg")
    n_runs, beta, gamma, horizon, initial = 4000, 1.2, 1.0, 4.0, frozenset({0})
    low, high = binomial_band(n_runs, _sis_extinct_by(graph, beta, gamma, initial, horizon, linalg), 5e-4)
    assert 0 < low and high < n_runs  # the band can tell a wrong extinction probability
    alive = persistence_fraction(graph, beta, gamma, horizon, n_runs, master_seed=0, initial_infected=initial)
    assert low <= n_runs - round(alive * n_runs) <= high


def _sir_extinct_by(graph, beta, gamma, initial, horizon, linalg):
    """P(no node infected at the horizon) from the 3^n-state SIR chain on `graph`.

    Base-3 digit v of state s is node v's state: 0 susceptible, 1 infected, 2 recovered.  A
    susceptible node becomes infected at rate beta times its number of infected neighbours and an
    infected node recovers for good at rate gamma; either event adds 3^v to the state.
    """
    n = graph.n_nodes
    generator = np.zeros((3**n, 3**n))
    for s in range(3**n):
        digits = [s // 3**v % 3 for v in range(n)]
        for v in range(n):
            if digits[v] == 1:
                generator[s, s + 3**v] = gamma
            elif digits[v] == 0:
                generator[s, s + 3**v] = beta * sum(digits[u] == 1 for u in graph.adjacency[v])
        generator[s, s] = -generator[s].sum()
    final = linalg.expm(horizon * generator)[sum(3**v for v in initial)]
    return sum(final[s] for s in range(3**n) if 1 not in [s // 3**v % 3 for v in range(n)])


@pytest.mark.parametrize(
    "graph",
    [from_edges(7, [(k, k + 1) for k in range(6)]), from_edges(6, [(0, k) for k in range(1, 6)])],
    ids=["path-7", "star-6"],
)
def test_sir_extinctions_on_small_graphs_match_the_exact_chain(graph):
    # the master seed and run count were fixed before the first run: 4000 runs of run_seed(0, k)
    # from node 0 (the path's end, the star's hub) at beta 1.5, horizon 2
    linalg = pytest.importorskip("scipy.linalg")
    n_runs, beta, gamma, horizon, initial = 4000, 1.5, 1.0, 2.0, frozenset({0})
    low, high = binomial_band(n_runs, _sir_extinct_by(graph, beta, gamma, initial, horizon, linalg), 5e-4)
    assert 0 < low and high < n_runs  # the band can tell a wrong extinction probability
    alive = persistence_fraction(
        graph, beta, gamma, horizon, n_runs, master_seed=0, kind=EpidemicKind.SIR, initial_infected=initial
    )
    assert low <= n_runs - round(alive * n_runs) <= high


def edge_digest(graph) -> str:
    return hashlib.sha256(repr(sorted(graph.edges)).encode()).hexdigest()


def trajectory_digest(traj) -> str:
    data = traj.times.tobytes() + traj.infected_fraction.tobytes()
    if traj.recovered_fraction is not None:
        data += traj.recovered_fraction.tobytes()
    return hashlib.sha256(data + repr(traj.extinction_time).encode()).hexdigest()


# Digests of the linear-scan generator and simulator: a faster sampler
# must reproduce them bit for bit.  (3000, 3, 0) is the bench's
# epidemic-large graph and carries its edge-set pin.
BA_EDGE_SHA256 = {
    (10, 1, 0): "2705a0b27df4d2f3281607035f1fa800c726d47dbab83471eca8c827b33b5b63",
    (60, 2, 7): "7ee21d45bcdfcfde2f1d951892468af95d2646e82ab2fd4035a9699f0dee584b",
    (200, 5, 3): "3d559f289dcd6e1f652602aabbadd8bee25fc1148d5956fd7996e69b80085f2b",
    (500, 4, 11): "4e6a54d3116cce8630876edeb4287eff8c7e7660219c3bd86da0b67cb62415e6",
    (1024, 2, 5): "ef12ea60a09aacfb7adba37e71cf18e856793f9c4b98dc4c8f9e9bea3d8ff92e",
    (1025, 3, 4): "0b9351cdb28b0de8567e5046452fc746954193ee486d2225481f80b546b23d92",
    (3000, 3, 0): "27e738a39f4e0e954f1d11cf734dbceea32630072809f807d46d0c1ca51788a7",
}


@pytest.mark.parametrize("n, m, seed", sorted(BA_EDGE_SHA256))
def test_barabasi_albert_edges_pinned(n, m, seed):
    assert edge_digest(barabasi_albert(n, m, seed=seed)) == BA_EDGE_SHA256[n, m, seed]


def pinned_epidemic_cases() -> dict:
    ba = barabasi_albert(700, 3, seed=1)
    spread = frozenset(range(0, 700, 10))
    return {
        "sis-k50": (EpidemicModel(complete_graph(50), "sis", 0.05, 1.0, frozenset(range(5)), 3), 15.0, 0.5),
        "sir-k130": (EpidemicModel(complete_graph(130), "sir", 0.03, 1.0, frozenset({0, 64, 129}), 5), 12.0, 0.25),
        "sis-ba700": (EpidemicModel(ba, "sis", 3 * mean_field_threshold(ba), 1.0, spread, 2), 10.0, 0.25),
        "sis-ba700-extinct": (EpidemicModel(ba, "sis", 0.5 * mean_field_threshold(ba), 1.0, spread, 6), 30.0, 1.0),
        "sir-er100": (EpidemicModel(erdos_renyi(100, 0.05, seed=2), "sir", 0.5, 1.0, frozenset({1, 2, 3}), 4), 20.0, 0.5),
    }


TRAJECTORY_SHA256 = {
    "sis-k50": "1022d8f90945f52a1b2a31d2e0f42d3c47ed7a3b8803717c2990db0369cff8cf",
    "sir-k130": "33028f77ae741250417b0b6635cf4cf0fa00182731f4df0a994cd02a775e9bdb",
    "sis-ba700": "ee4068a3bb6bd8d48f5f515de1af42d9b808068625a19dc408ba03ed733efc37",
    "sis-ba700-extinct": "06f5b7479523c1282699bd24bc2b9d58670a15838a5a92420265a59c059ef6ad",
    "sir-er100": "23cb755a92251716076404b22a8a3cbbd562009f4c7733a965da43a4d3ec165d",
}


def test_trajectories_pinned():
    digests = {
        name: trajectory_digest(simulate_epidemic(model, horizon, sample_dt))
        for name, (model, horizon, sample_dt) in pinned_epidemic_cases().items()
    }
    assert digests == TRAJECTORY_SHA256


def test_bench_epidemic_large_prevalence_pinned():
    # the bench's epidemic-large pass at seed 0, digested as the bench does
    graph = barabasi_albert(3000, 3, seed=0)
    initial = frozenset(random.Random(0).sample(range(3000), 300))
    model = EpidemicModel(graph, "sis", 3.0 * mean_field_threshold(graph, 1.0), 1.0, initial, 0)
    traj = simulate_epidemic(model, 20.0, 0.1)
    data = traj.infected_fraction.tobytes() + repr(traj.extinction_time).encode()
    assert hashlib.sha256(data).hexdigest() == "6cc43493687a2e7be3d6608408ec5df516301ccdc8cff778ec578bf6edbf3388"


@pytest.mark.parametrize("horizon, sample_dt", [(0.7, 0.1), (0.3, 0.1), (0.6, 0.2)])
@pytest.mark.parametrize("kind", list(EpidemicKind))
def test_last_sample_rounded_past_the_horizon_holds_the_state_there(horizon, sample_dt, kind):
    n_samples = int(math.floor(horizon / sample_dt + 1e-9)) + 1
    assert (n_samples - 1) * sample_dt > horizon  # e.g. 7 * 0.1 == 0.7000000000000001
    # no event before the horizon: every sample is the initial state
    quiet = EpidemicModel(complete_graph(30), kind, 0.0, 1e-9, frozenset(range(3)), seed=1)
    traj = simulate_epidemic(quiet, horizon, sample_dt)
    assert traj.times[-1] == horizon
    assert list(traj.infected_fraction) == [0.1] * n_samples
    if kind == EpidemicKind.SIR:
        assert list(traj.recovered_fraction) == [0.0] * n_samples
    # with events: the state at the horizon, read off a one-interval grid
    # (the event sequence does not depend on the sampling grid)
    busy = EpidemicModel(complete_graph(30), kind, 0.3, 1.0, frozenset(range(3)), seed=2)
    traj = simulate_epidemic(busy, horizon, sample_dt)
    at_horizon = simulate_epidemic(busy, horizon, horizon)
    assert traj.infected_fraction[-1] == at_horizon.infected_fraction[-1]
    if kind == EpidemicKind.SIR:
        assert traj.recovered_fraction[-1] == at_horizon.recovered_fraction[-1]


class _DyadicThenSeeded:
    """A `random.Random` stand-in: `random()` gives the fractions first, then a seeded stream."""

    def __init__(self, fractions, seed):
        self._fractions = iter(fractions)
        self._rest = random.Random(seed)

    def random(self):
        for value in self._fractions:
            return value
        return self._rest.random()


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 4),
    extra=st.integers(1, 80),
    numerators=st.lists(st.integers(0, 15), max_size=200),
    seed=st.integers(0, 2**32),
)
def test_barabasi_albert_tie_draws_match_linear_scan(m, extra, numerators, seed):
    # the degree total is even, so `k/16 * total` often lands on a whole prefix sum, the tie that
    # the integer descent must break as the `pick < acc` scan does; a real draw almost never does
    fractions = [k / 16 for k in numerators]
    stub = SimpleNamespace(Random=lambda _: _DyadicThenSeeded(fractions, seed))
    n = m + extra
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(epidemic, "random", stub)
        patch.setattr(helpers, "random", stub)
        assert barabasi_albert(n, m).edges == reference_barabasi_albert(n, m).edges


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 5), extra=st.integers(1, 300), seed=st.integers(0, 2**32))
# the edges of the power-of-two padding
@example(m=1, extra=1, seed=2)
@example(m=1, extra=2, seed=3)
@example(m=1, extra=3, seed=4)
@example(m=3, extra=1, seed=4)
@example(m=1, extra=4, seed=5)
@example(m=3, extra=2, seed=5)
@example(m=1, extra=63, seed=1)
@example(m=3, extra=61, seed=1)
@example(m=1, extra=64, seed=2)
@example(m=3, extra=62, seed=2)
@example(m=1, extra=1023, seed=2)
@example(m=3, extra=1021, seed=2)
@example(m=1, extra=1024, seed=3)
@example(m=3, extra=1022, seed=3)
def test_barabasi_albert_matches_linear_scan(m, extra, seed):
    n = m + extra
    assert barabasi_albert(n, m, seed=seed).edges == reference_barabasi_albert(n, m, seed=seed).edges


# The generators skip the per-edge check and normalization of `Graph(...)`: what they build must be
# what the checked constructor makes of the same edges.
@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["complete_graph", "erdos_renyi", "barabasi_albert"]),
    n=st.integers(1, 64),
    m=st.integers(1, 63),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
# n = m + 1: the seed clique alone
@example(family="barabasi_albert", n=2, m=1, p=0.0, seed=0)
@example(family="barabasi_albert", n=64, m=63, p=0.0, seed=1)
@example(family="complete_graph", n=1, m=1, p=0.0, seed=0)
@example(family="erdos_renyi", n=64, m=1, p=1.0, seed=2)
def test_generators_build_what_the_checked_constructor_builds(family, n, m, p, seed):
    if family == "barabasi_albert":
        assume(m < n)
        graph = barabasi_albert(n, m, seed=seed)
    elif family == "erdos_renyi":
        graph = erdos_renyi(n, p, seed=seed)
    else:
        graph = complete_graph(n)
    checked = Graph(n, graph.edges)
    assert type(graph.edges) is frozenset
    assert graph.edges == checked.edges
    assert graph.adjacency == checked.adjacency
    assert graph == checked


@st.composite
def any_graphs(draw):
    family = draw(st.sampled_from(["from_edges", "erdos_renyi", "barabasi_albert"]))
    if family == "from_edges":
        # pairs given either way round, and nodes that no pair names
        n = draw(st.integers(2, 40))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120))
        return from_edges(n + draw(st.integers(0, 5)), [(u, v) for u, v in pairs if u != v])
    if family == "erdos_renyi":
        n = draw(st.integers(1, 120))
        return erdos_renyi(n, draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 1000)))
    return barabasi_albert(draw(st.integers(5, 600)), draw(st.integers(1, 4)), seed=draw(st.integers(0, 1000)))


@settings(max_examples=100, deadline=None)
@given(graph=any_graphs())
def test_adjacency_matches_the_sorted_edge_build(graph):
    assert graph.adjacency == reference_adjacency(graph)


def assert_same_trajectory(model, horizon, sample_dt):
    fast = simulate_epidemic(model, horizon, sample_dt)
    slow = reference_simulate_epidemic(model, horizon, sample_dt)
    assert fast.times.tobytes() == slow.times.tobytes()
    assert fast.infected_fraction.tobytes() == slow.infected_fraction.tobytes()
    if slow.recovered_fraction is None:
        assert fast.recovered_fraction is None
    else:
        assert fast.recovered_fraction.tobytes() == slow.recovered_fraction.tobytes()
    assert repr(fast.extinction_time) == repr(slow.extinction_time)
    return fast


@st.composite
def contact_graphs(draw):
    family = draw(st.sampled_from(["complete-small", "complete-large", "erdos_renyi", "barabasi_albert"]))
    if family == "complete-small":
        return complete_graph(draw(st.integers(2, 64)))
    if family == "complete-large":
        return complete_graph(draw(st.integers(65, 140)))
    if family == "erdos_renyi":
        n = draw(st.integers(2, 250))
        return erdos_renyi(n, min(1.0, draw(st.floats(0.0, 8.0)) / n), seed=draw(st.integers(0, 1000)))
    return barabasi_albert(draw(st.integers(5, 400)), draw(st.integers(1, 4)), seed=draw(st.integers(0, 1000)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=contact_graphs(),
    kind=st.sampled_from(list(EpidemicKind)),
    beta_scale=st.floats(0.0, 4.0),
    infected_share=st.floats(0.0, 0.6),
    # 0.3, 0.6 and 0.7 over 0.1 (and 0.6 over 0.2) put the last grid time past the horizon
    horizon=st.sampled_from([0.3, 0.6, 0.7, 2.0, 5.0, 12.5]),
    sample_dt=st.sampled_from([0.1, 0.2, 0.25, 0.7, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_simulation_matches_linear_scan(graph, kind, beta_scale, infected_share, horizon, sample_dt, seed):
    degrees = graph.degrees()
    beta = beta_scale / max(1.0, float(degrees.max()))
    initial = frozenset(range(max(1, int(infected_share * graph.n_nodes))))
    model = EpidemicModel(graph, kind, beta, 1.0, initial, seed)
    assert_same_trajectory(model, horizon, sample_dt)


@pytest.mark.parametrize(
    "graph, kind, beta, infected",
    [
        (barabasi_albert(600, 3, seed=4), EpidemicKind.SIS, 0.25, 50),
        (barabasi_albert(600, 3, seed=4), EpidemicKind.SIR, 0.4, 100),
        # just past the 64 nodes up to which the loop scans plainly
        (barabasi_albert(70, 3, seed=1), EpidemicKind.SIS, 2.0, 5),
        # an outbreak that rises through five superblocks and dies out
        (barabasi_albert(600, 3, seed=4), EpidemicKind.SIR, 1.5, 10),
    ],
)
def test_infected_list_crosses_block_boundaries(graph, kind, beta, infected):
    # the infected list grows into and shrinks back out of an 8-slot block
    # that starts inside a superblock, and the highest 64-slot superblock it
    # reaches (complete graphs run the K_n loop, which keeps no sums, so
    # test_complete_graph_event_loop_matches_linear_scan covers them)
    model = EpidemicModel(graph, kind, beta, 1.0, frozenset(range(infected)), seed=3)
    for seed in range(3):
        trajectory = assert_same_trajectory(replace(model, seed=seed), 10.0, 0.05)
        counts = np.rint(trajectory.infected_fraction * graph.n_nodes)
        assert counts.max() > 64 and counts.min() < 64
        assert any(crosses_both_ways(counts, start) for start in range(8, graph.n_nodes, 8) if start % 64), seed
        assert crosses_both_ways(counts, (counts.max() - 1) // 64 * 64), seed


def crosses_both_ways(counts, start):
    """Whether the sampled infected counts fill slot `start` and later empty it, or the reverse."""
    past = counts > start
    return bool(np.any(past[1:] & ~past[:-1])) and bool(np.any(past[:-1] & ~past[1:]))


@pytest.mark.parametrize("graph", [complete_graph(40), complete_graph(100), barabasi_albert(400, 2, seed=8)])
def test_extinct_runs_match_linear_scan(graph):
    beta = 0.5 * mean_field_threshold(graph, 1.0)
    extinct = 0
    for seed in range(10):
        model = EpidemicModel(graph, EpidemicKind.SIS, beta, 1.0, frozenset(range(0, graph.n_nodes, 4)), seed)
        extinct += assert_same_trajectory(model, 30.0, 0.5).extinction_time is not None
    assert extinct > 0


@pytest.mark.parametrize("kind", list(EpidemicKind))
@pytest.mark.parametrize("n", [2, 50, 64, 65, 130])
def test_complete_graph_event_loop_matches_linear_scan(n, kind):
    # below, near and above the threshold beta * (n - 1) = 1, from a tenth of the nodes
    initial = frozenset(range(max(1, n // 10)))
    extinct = recovered = 0
    for beta_scale in (0.5, 1.0, 3.0):
        for seed in range(4):
            model = EpidemicModel(complete_graph(n), kind, beta_scale / max(1, n - 1), 1.0, initial, seed)
            traj = assert_same_trajectory(model, 8.0, 0.25)
            extinct += traj.extinction_time is not None
            if traj.recovered_fraction is not None:
                recovered += traj.recovered_fraction[-1] > 0
    assert extinct > 0
    if kind == EpidemicKind.SIR:
        assert recovered > 0


# The event loops draw what random.Random's methods return without calling
# them (see epidemic.py); these guards fail if a Python upgrade changes the
# private algorithm they copy, before any trajectory shifts quietly.


def test_randrange_is_the_getrandbits_rejection_loop():
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


BELOW_BOUNDS = sorted({1} | {2**k + d for k in range(1, 65) for d in (-1, 0, 1)})


@pytest.mark.parametrize("seed", [0, 1, 2**40 + 17])
def test_below_draws_what_randrange_draws(seed):
    inline, stdlib = random.Random(seed), random.Random(seed)
    getrandbits = inline.getrandbits
    for m in BELOW_BOUNDS:
        drawn = []
        for _ in range(25):
            # the event loops' form of rng.randrange(m)
            w = m.bit_length()
            r = getrandbits(w)
            while r >= m:
                r = getrandbits(w)
            drawn.append(r)
        assert drawn == [stdlib.randrange(m) for _ in range(25)], m
        # the same number of words taken from the stream, rejections included
        assert inline.getstate() == stdlib.getstate(), m


@pytest.mark.parametrize("rate", [5e-324, 1e-300, 1e-9, 0.37, 1.0, 3.0, 1e9, 1e300, 1.7976931348623157e308])
def test_inline_exponential_draws_what_expovariate_draws(rate):
    inline, stdlib = random.Random(11), random.Random(11)
    uniform, log = inline.random, math.log
    for t in (0.0, 0.3, 12.5, 1e6):
        for _ in range(200):
            # the event loops' form of t + rng.expovariate(rate)
            assert repr(t - log(1.0 - uniform()) / rate) == repr(t + stdlib.expovariate(rate))
    assert inline.getstate() == stdlib.getstate()


@settings(max_examples=150, deadline=None)
@given(
    # the counts cross powers of two, where a one-off bit length would draw differently
    n=st.sampled_from([2, 3, 5, 17, 33, 65, 129]),
    kind=st.sampled_from(list(EpidemicKind)),
    # beta * (n - 1) = 1 is the mean-field threshold
    beta_scale=st.sampled_from([0.25, 0.8, 1.25, 4.0]) | st.floats(0.0, 5.0),
    infected_share=st.sampled_from([0.0, 0.1, 0.5]),
    seed=st.integers(0, 2**64 - 1),
)
def test_complete_graph_inline_draws_match_the_stdlib_draws(n, kind, beta_scale, infected_share, seed):
    initial = frozenset(range(max(1, int(infected_share * n))))
    model = EpidemicModel(complete_graph(n), kind, beta_scale / (n - 1), 1.0, initial, seed)
    assert_same_trajectory(model, 6.0, 0.25)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(["barabasi_albert", "erdos_renyi"]),
    n=st.integers(3, 300),
    graph_seed=st.integers(0, 1000),
    kind=st.sampled_from(list(EpidemicKind)),
    beta_scale=st.sampled_from([0.5, 2.0]) | st.floats(0.0, 5.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_contact_graph_inline_draws_match_the_stdlib_draws(family, n, graph_seed, kind, beta_scale, seed):
    if family == "barabasi_albert":
        graph = barabasi_albert(n, 1 + graph_seed % min(3, n - 1), seed=graph_seed)
    else:
        graph = erdos_renyi(n, min(1.0, 4.0 / n), seed=graph_seed)
    assume(graph.n_edges > 0 and graph.n_edges < n * (n - 1) // 2)
    beta = beta_scale * mean_field_threshold(graph, 1.0)
    model = EpidemicModel(graph, kind, beta, 1.0, frozenset(range(0, n, 7)), seed)
    assert_same_trajectory(model, 6.0, 0.25)

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecolab import (
    GradientSpec,
    KinSelectionParams,
    MimicryParams,
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
from helpers import reference_constant_gradient, reference_iterate_selection, reference_linear_gradient

ZERO = (0.0, 0.0, 0.0)


def make_state(means=ZERO, g=None, natural=ZERO, sexual=ZERO, mutation=ZERO) -> SelectionState:
    """A state whose gradients are the constant vectors `natural` and `sexual`."""
    return SelectionState(
        means=np.asarray(means, dtype=float),
        g_matrix=np.eye(3) if g is None else np.asarray(g, dtype=float),
        natural=constant_gradient(natural),
        sexual=constant_gradient(sexual),
        mutation_step=np.asarray(mutation, dtype=float),
    )


class TestSelectionStep:
    def test_zero_forcing_gives_zero_delta(self):
        delta, advanced = selection_step(make_state(means=(1.0, 2.0, 3.0)))
        assert np.all(delta == 0.0)
        assert np.array_equal(advanced.means, [1.0, 2.0, 3.0])

    def test_identity_matrix_passes_gradients_through(self):
        delta, _ = selection_step(make_state(natural=(1.0, 0.5, 3.0), sexual=(0.0, 1.5, 0.0)))
        assert np.allclose(delta, [1.0, 2.0, 3.0])

    def test_mutation_added_on_top(self):
        delta, _ = selection_step(make_state(mutation=(0.1, -0.2, 0.3)))
        assert np.allclose(delta, [0.1, -0.2, 0.3])

    def test_next_state_keeps_everything_but_means(self):
        state = make_state(means=(1.0, 1.0, 0.0), natural=(0.2, 0.0, 0.0))
        delta, advanced = selection_step(state)
        assert np.array_equal(advanced.g_matrix, state.g_matrix)
        assert advanced.natural is state.natural and advanced.sexual is state.sexual
        assert np.array_equal(advanced.mutation_step, state.mutation_step)
        assert np.array_equal(advanced.means, state.means + delta)

    def test_covariance_channels_selection_across_traits(self):
        g = make_g_matrix(1.0, 1.0, 1.0, c_display_preference=0.9)
        delta, _ = selection_step(make_state(g=g, sexual=(0.1, 0.0, 0.0)))
        assert delta[0] == pytest.approx(0.1)
        assert delta[1] == pytest.approx(0.09)
        assert delta[2] == 0.0

    def test_non_psd_matrix_rejected(self):
        g = make_g_matrix(1.0, 1.0, 1.0, c_display_preference=1.5)
        with pytest.raises(ValueError, match="positive semi-definite"):
            make_state(g=g)

    def test_transposed_matrix_same_step(self):
        g = np.array([[1.0, 0.4, 0.1], [0.4, 2.0, 0.0], [0.1, 0.0, 1.5]])
        upper = np.triu(g) + np.triu(g, 1) * 0  # asymmetric input, upper only
        state_full = make_state(g=g, natural=(0.3, -0.2, 0.1))
        state_upper = make_state(g=upper, natural=(0.3, -0.2, 0.1))
        # symmetrization averages the halves, so the upper-triangle-only
        # matrix is not the same input; transposition however must be
        delta_a, _ = selection_step(state_full)
        delta_b, _ = selection_step(make_state(g=g.T, natural=(0.3, -0.2, 0.1)))
        assert np.array_equal(delta_a, delta_b)

    @given(
        seeds=st.integers(0, 2**31),
    )
    def test_linear_in_gradients_and_additive_in_mutation(self, seeds):
        rng = np.random.default_rng(seeds)
        a = rng.normal(size=(3, 3))
        g = a.T @ a
        b1 = rng.normal(size=3)
        b2 = rng.normal(size=3)
        u = rng.normal(size=3)
        d_both, _ = selection_step(make_state(g=g, natural=b1, sexual=b2, mutation=u))
        d_first, _ = selection_step(make_state(g=g, natural=b1))
        d_second, _ = selection_step(make_state(g=g, sexual=b2))
        d_mut, _ = selection_step(make_state(g=g, mutation=u))
        assert np.allclose(d_both, d_first + d_second + d_mut, atol=1e-12)


class TestRunaway:
    def test_display_preference_runaway_is_monotone(self):
        g = make_g_matrix(1.0, 1.0, 0.0, c_display_preference=0.9)
        sexual = linear_gradient((0.0, 0.0, 0.0), [[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        state = SelectionState(np.array([1.0, 1.0, 0.0]), g, constant_gradient((-0.05, 0.0, 0.0)), sexual, ZERO)
        history = iterate_selection(state, 100)
        display = history.column("display")
        preference = history.column("preference")
        assert np.all(np.diff(display) > 0)
        assert np.all(np.diff(preference) > 0)

    def test_history_shape_and_times(self):
        history = iterate_selection(make_state(), 5)
        assert history.values.shape == (6, 3)
        assert list(history.times) == [0, 1, 2, 3, 4, 5]

    def test_constant_gradients_from_the_state(self):
        state = make_state(natural=(0.5, 0.0, 0.0))
        history = iterate_selection(state, 3)
        assert history.column("display")[-1] == pytest.approx(1.5)


def fails_after(inner, calls: int, bad: np.ndarray):
    """A gradient that is `inner` for its first `calls` calls and `bad` from then on."""
    remaining = iter(range(calls))
    return lambda means: bad if next(remaining, None) is None else inner(means)


class TestOneCheckPerValue:
    """`iterate_selection` checks only what changes, with the old loop's results and errors."""

    @staticmethod
    def outcome(run):
        try:
            history = run()
        except ValueError as exc:
            return type(exc).__name__, str(exc)
        return history.variable_names, history.times.tobytes(), history.values.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        natural_kind=st.sampled_from(["constant", "linear"]),
        sexual_kind=st.sampled_from(["constant", "linear"]),
        n_steps=st.integers(0, 60),
        failure=st.sampled_from(["none", "non-finite gradient", "wrong shape", "means overflow"]),
        failing_side=st.sampled_from(["natural", "sexual", "both"]),
        fail_after=st.integers(0, 40),
    )
    def test_matches_the_replace_loop(self, seed, natural_kind, sexual_kind, n_steps, failure, failing_side, fail_after):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        mutation = rng.normal(size=3) * 0.1
        if failure == "means overflow":
            # about 18 generations of this mutation carry the means past the float limit
            mutation = np.where(rng.random(3) < 0.5, -1e307, 1e307)
        means = rng.normal(size=3) * (1e300 if failure == "means overflow" else 1.0)
        args = {kind: (rng.normal(size=3), rng.normal(size=(3, 3)) * 0.5) for kind in ("natural", "sexual")}
        kinds = {"natural": natural_kind, "sexual": sexual_kind}
        bad = np.array([np.inf, 0.0, 0.0]) if failure == "non-finite gradient" else np.array([1.0, 2.0])

        def state(constant, linear):
            # a fresh state, so a failing gradient counts its calls from the constructor's on
            gradients = {}
            for side, kind in kinds.items():
                vector, matrix = args[side]
                fn = constant(vector) if kind == "constant" else linear(vector, matrix)
                if failing_side in (side, "both") and failure in ("non-finite gradient", "wrong shape"):
                    fn = fails_after(fn, fail_after, bad)
                gradients[side] = fn
            return SelectionState(means, a @ a.T, gradients["natural"], gradients["sexual"], mutation)

        with warnings.catch_warnings():
            # the finiteness checks report an overflow; numpy must not warn about it first
            warnings.simplefilter("error", RuntimeWarning)
            got = self.outcome(lambda: iterate_selection(state(constant_gradient, linear_gradient), n_steps))
        reference = (reference_constant_gradient, reference_linear_gradient)
        with np.errstate(all="ignore"):
            expected = self.outcome(lambda: reference_iterate_selection(state(*reference), n_steps))
        assert got == expected

    def test_a_state_checks_its_gradients_at_its_means(self):
        overflowing = linear_gradient(ZERO, [[1e308, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        zero = constant_gradient(ZERO)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^natural_gradient must be finite$"):
                SelectionState((10.0, 0.0, 0.0), np.eye(3), overflowing, zero, ZERO)
            with pytest.raises(ValueError, match="^sexual_gradient must have exactly 3 entries"):
                SelectionState(ZERO, np.eye(3), zero, lambda means: means[:2], ZERO)
            # display 0.5 moves to about 5e307, where the gradient overflows: the advanced
            # state cannot be built, while a one-generation run never evaluates it there
            state = SelectionState((0.5, 0.0, 0.0), np.eye(3), overflowing, zero, ZERO)
            with pytest.raises(ValueError, match="^natural_gradient must be finite$"):
                selection_step(state)
            assert iterate_selection(state, 1).values[1, 0] == 0.5 + 5e307
            with pytest.raises(ValueError, match="^natural_gradient must be finite$"):
                iterate_selection(state, 2)

    def test_a_run_makes_no_eigen_decomposition(self, monkeypatch):
        g = make_g_matrix(1.0, 1.0, 0.5, c_display_preference=0.9)
        sexual = linear_gradient(ZERO, [[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        state = SelectionState(ZERO, g, constant_gradient((-0.05, 0.0, 0.0)), sexual, ZERO)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: calls.append(g) or eigvalsh(g))
        history = iterate_selection(state, 100)
        assert len(history.times) == 101
        assert calls == []

    @pytest.mark.parametrize("g", [
        make_g_matrix(1.0, 1.0, 1.0, c_display_preference=1e308),
        make_g_matrix(1.5e308, 1.0, 1.0),
        make_g_matrix(1.0, 1.0, 1.0, c_preference_fitness=np.inf),
    ], ids=["covariance-sum", "variance-sum", "infinite"])
    def test_covariance_that_symmetrizes_to_infinity_rejected(self, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^g_matrix must be finite$"):
                make_state(g=g)

    def test_step_that_overflows_raises_without_a_warning(self):
        state = make_state(means=(1e308, 0.0, 0.0), natural=(1e308, 0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^means must be finite$"):
                selection_step(state)
            with pytest.raises(ValueError, match="^means must be finite$"):
                iterate_selection(state, 1)


class TestGradientSpec:
    def test_constructors_return_the_record_a_document_stores(self):
        assert constant_gradient([1, -0.5, 0]) == GradientSpec("constant", value=(1.0, -0.5, 0.0))
        matrix = [[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
        assert linear_gradient((0.0, 1.0, 0.0), matrix) == GradientSpec(
            "linear", intercept=(0.0, 1.0, 0.0), matrix=tuple(map(tuple, matrix))
        )

    def test_constructors_keep_their_checks(self):
        with pytest.raises(ValueError, match="^gradient must have exactly 3 entries"):
            constant_gradient((1.0, 2.0))
        with pytest.raises(ValueError, match="^gradient must be finite$"):
            constant_gradient((1.0, np.nan, 0.0))
        with pytest.raises(ValueError, match="^intercept must be finite$"):
            linear_gradient((np.inf, 0.0, 0.0), np.eye(3))
        with pytest.raises(ValueError, match="^coefficients must be 3x3$"):
            linear_gradient(ZERO, np.eye(2))

    def test_called_on_the_means(self):
        means = np.array([1.0, 2.0, -3.0])
        assert np.array_equal(constant_gradient((0.5, 0.0, -1.0))(means), [0.5, 0.0, -1.0])
        matrix = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(linear_gradient((1.0, 0.0, 0.0), matrix)(means), [1.0, 0.0, 0.0] + matrix @ means)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown gradient type 'quadratic' \(constant, linear\)$"):
            GradientSpec("quadratic")


class TestHamilton:
    def test_favored_case(self):
        assert hamilton_favored(KinSelectionParams(0.5, 2.0, 0.9)) is True

    def test_boundary_is_strict(self):
        assert hamilton_favored(KinSelectionParams(0.5, 2.0, 1.0)) is False

    def test_zero_relatedness_never_favored(self):
        assert hamilton_favored(KinSelectionParams(0.0, 100.0, 0.01)) is False

    def test_relatedness_range_enforced(self):
        with pytest.raises(ValueError):
            KinSelectionParams(1.5, 1.0, 0.1)

    @given(
        r=st.floats(0.0, 1.0),
        b=st.floats(0.0, 100.0),
        c=st.floats(0.0, 100.0),
        dr=st.floats(0.0, 1.0),
        db=st.floats(0.0, 100.0),
        dc=st.floats(0.0, 100.0),
    )
    def test_monotone(self, r, b, c, dr, db, dc):
        base = hamilton_favored(KinSelectionParams(r, b, c))
        more_related = hamilton_favored(KinSelectionParams(min(1.0, r + dr), b, c))
        more_benefit = hamilton_favored(KinSelectionParams(r, b + db, c))
        more_cost = hamilton_favored(KinSelectionParams(r, b, c + dc))
        if base:
            assert more_related and more_benefit
        else:
            assert not more_cost


def make_mimicry(n_mimic, venom=3.0, prey=1.0, signal=0.05, weapon=0.4):
    return MimicryParams(
        model_density=1.0,
        mimic_density=n_mimic,
        venom_cost=venom,
        prey_value=prey,
        mimic_signal_cost=signal,
        model_weapon_cost=weapon,
    )


class TestMimicry:
    def test_no_mimics_perfect_protection(self):
        result = mimicry_payoffs(make_mimicry(0.0))
        assert result.attack_probability == 0.0
        assert result.predator_expected_payoff == -3.0

    def test_indifference_frequency(self):
        # f* = venom / (venom + prey) = 0.75; mimic density 3 with one model
        at_star = mimicry_payoffs(make_mimicry(3.0))
        assert mimic_frequency(make_mimicry(3.0)) == 0.75
        assert at_star.predator_expected_payoff == 0.0
        assert at_star.attack_probability == 0.0  # strict rule, ties spare the prey
        above = mimicry_payoffs(make_mimicry(3.0000001))
        assert above.attack_probability == 1.0

    def test_attack_drops_mimic_payoff_by_prey_value(self):
        protected = mimicry_payoffs(make_mimicry(2.0))
        exposed = mimicry_payoffs(make_mimicry(4.0))
        assert protected.attack_probability == 0.0 and exposed.attack_probability == 1.0
        assert protected.mimic_net_payoff - exposed.mimic_net_payoff == pytest.approx(1.0)

    def test_rare_mimic_free_rides_on_cheaper_signal(self):
        result = mimicry_payoffs(make_mimicry(1e-9, signal=0.05, weapon=0.4))
        assert result.mimic_net_payoff > result.model_net_payoff

    @given(
        n1=st.floats(0.0, 50.0),
        n2=st.floats(0.0, 50.0),
        venom1=st.floats(0.1, 20.0),
        venom2=st.floats(0.1, 20.0),
    )
    def test_attack_monotonicity(self, n1, n2, venom1, venom2):
        lo_n, hi_n = sorted((n1, n2))
        lo_v, hi_v = sorted((venom1, venom2))
        assert (
            mimicry_payoffs(make_mimicry(lo_n)).attack_probability
            <= mimicry_payoffs(make_mimicry(hi_n)).attack_probability
        )
        assert (
            mimicry_payoffs(make_mimicry(5.0, venom=hi_v)).attack_probability
            <= mimicry_payoffs(make_mimicry(5.0, venom=lo_v)).attack_probability
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            make_mimicry(-1.0)
        with pytest.raises(ValueError):
            MimicryParams(0.0, 1.0, 3.0, 1.0, 0.4)

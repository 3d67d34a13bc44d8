import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecolab import (
    NicholsonBaileyParams,
    iterate_map,
    nicholson_bailey_equilibrium,
    nicholson_bailey_map,
    nicholson_bailey_step,
)

CANONICAL = NicholsonBaileyParams(growth_factor=2.0, search_efficiency=0.1, conversion=1.0)


def test_no_parasitoids_means_geometric_growth():
    host, parasitoid = nicholson_bailey_step(5.0, 0.0, CANONICAL)
    assert host == 2.0 * 5.0
    assert parasitoid == 0.0


def test_no_hosts_means_nothing():
    assert nicholson_bailey_step(0.0, 3.0, CANONICAL) == (0.0, 0.0)


def test_canonical_equilibrium_values():
    h_star, p_star = nicholson_bailey_equilibrium(CANONICAL)
    assert p_star == pytest.approx(math.log(2.0) / 0.1, rel=1e-15)
    assert h_star == pytest.approx(2.0 * math.log(2.0) / 0.1, rel=1e-15)


def test_fixed_point_maps_to_itself_canonical():
    h_star, p_star = nicholson_bailey_equilibrium(CANONICAL)
    h_next, p_next = nicholson_bailey_step(h_star, p_star, CANONICAL)
    assert abs(h_next - h_star) / h_star < 1e-12
    assert abs(p_next - p_star) / p_star < 1e-12


def test_fixed_point_random_parameters():
    rng = random.Random(1234)
    for _ in range(100):
        p = NicholsonBaileyParams(
            growth_factor=rng.uniform(1.0001, 5.0),
            search_efficiency=rng.uniform(0.01, 2.0),
            conversion=rng.uniform(0.1, 3.0),
        )
        h_star, p_star = nicholson_bailey_equilibrium(p)
        h_next, p_next = nicholson_bailey_step(h_star, p_star, p)
        assert abs(h_next - h_star) / h_star < 1e-10
        assert abs(p_next - p_star) / p_star < 1e-10


def test_equilibrium_requires_growth_above_one():
    with pytest.raises(ValueError, match="growth_factor > 1"):
        nicholson_bailey_equilibrium(NicholsonBaileyParams(0.9, 0.1, 1.0))


def test_rejects_negative_or_non_finite():
    with pytest.raises(ValueError):
        nicholson_bailey_step(-1.0, 0.0, CANONICAL)
    with pytest.raises(ValueError):
        nicholson_bailey_step(1.0, float("nan"), CANONICAL)


@given(
    host=st.floats(0.0, 1e6),
    parasitoid=st.floats(0.0, 1e3),
    growth=st.floats(0.1, 10.0),
    search=st.floats(1e-4, 5.0),
    conversion=st.floats(1e-3, 10.0),
)
def test_nonnegative_quadrant_preserved(host, parasitoid, growth, search, conversion):
    p = NicholsonBaileyParams(growth, search, conversion)
    h_next, p_next = nicholson_bailey_step(host, parasitoid, p)
    assert h_next >= 0.0 and p_next >= 0.0


def _peaks(series) -> list[float]:
    return [
        series[k]
        for k in range(1, len(series) - 1)
        if series[k] > series[k - 1] and series[k] > series[k + 1]
    ]


def test_perturbed_equilibrium_oscillations_grow():
    h_star, p_star = nicholson_bailey_equilibrium(CANONICAL)
    traj = iterate_map(
        nicholson_bailey_map(CANONICAL),
        (h_star * 1.01, p_star),
        50,
        variable_names=("host", "parasitoid"),
    )
    peaks = _peaks(traj.column("host"))
    assert len(peaks) >= 3
    assert all(a < b for a, b in zip(peaks, peaks[1:]))


def test_instability_across_random_parameters():
    rng = random.Random(5)
    for _ in range(10):
        p = NicholsonBaileyParams(
            growth_factor=rng.uniform(1.1, 5.0),
            search_efficiency=rng.uniform(0.05, 1.0),
            conversion=rng.uniform(0.5, 2.0),
        )
        h_star, p_star = nicholson_bailey_equilibrium(p)
        traj = iterate_map(nicholson_bailey_map(p), (h_star * 1.01, p_star), 60)
        peaks = _peaks(traj.column("x0"))
        if len(peaks) >= 2:
            assert peaks[-1] > peaks[0]
        else:
            # divergence so fast there is no second peak yet
            assert traj.values[-1, 0] != pytest.approx(h_star, rel=0.05)


class TestIterateMap:
    def test_zero_generations(self):
        traj = iterate_map(lambda s: s, (4.0, 2.0), 0)
        assert traj.n_samples == 1
        assert list(traj.values[0]) == [4.0, 2.0]

    def test_identity_map_constant(self):
        traj = iterate_map(lambda s: s, (4.0,), 10)
        assert np.all(traj.values == 4.0)
        assert list(traj.times) == list(range(11))

    def test_non_finite_reported_with_generation(self):
        def blow_up(state):
            return (state[0] * 1e200,)

        with pytest.raises(ValueError, match="generation 2"):
            iterate_map(blow_up, (1.0,), 5)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            iterate_map(lambda s: (-0.5,), (1.0,), 3)

    def test_negative_initial_state_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            iterate_map(lambda s: s, (1.0, -2.0), 3)

    def test_negative_generations_rejected(self):
        with pytest.raises(ValueError):
            iterate_map(lambda s: s, (1.0,), -1)

    def test_default_variable_names(self):
        traj = iterate_map(lambda s: s, (1.0, 2.0), 1)
        assert traj.variable_names == ("x0", "x1")

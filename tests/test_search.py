import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimetric.errors import (
    InvalidAnglesError,
    OutOfRangeError,
    UnreachableToleranceError,
)
from unimetric.search import (
    SearchProblem,
    build_operators,
    distance_after_k,
    minimal_k,
    prepared_state,
)


class TestSearchProblem:
    def test_rejects_angles_outside_domain(self):
        with pytest.raises(InvalidAnglesError):
            SearchProblem(alpha=0.0, gamma=0.1)
        with pytest.raises(InvalidAnglesError):
            SearchProblem(alpha=0.1, gamma=math.pi / 2)

    def test_size_consistency(self):
        p = SearchProblem.from_size(1024)
        assert abs(math.sin(p.alpha) - 1.0 / 32.0) <= 1e-15
        with pytest.raises(InvalidAnglesError):
            SearchProblem(alpha=0.5, gamma=0.5, N=1024)

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_size_below_two_rejected_before_sqrt(self, n):
        # 1/sqrt(N) fails for N <= 0 with ZeroDivisionError or a bare ValueError
        with pytest.raises(InvalidAnglesError):
            SearchProblem.from_size(n)

    def test_size_beyond_floats_rejected_before_sqrt(self):
        # math.sqrt of an int above the largest float raises a bare OverflowError
        with pytest.raises(InvalidAnglesError):
            SearchProblem.from_size(2**1100)

    def test_infinite_theta_rejected(self):
        with pytest.raises(InvalidAnglesError):
            SearchProblem(alpha=0.5, gamma=0.5, theta=math.inf)


class TestBuildOperators:
    def test_both_unitary(self):
        p = SearchProblem(alpha=0.3, gamma=0.2, theta=1.1)
        u, v = build_operators(p)
        for op in (u, v):
            dev = np.abs(op.matrix.conj().T @ op.matrix - np.eye(2)).max()
            assert dev <= 1e-12

    def test_alpha_pi_six_matrix(self):
        # rotation form: the reflection variant would put the relative
        # spectrum at +-1 and freeze the distance at 1 for every power
        u, _ = build_operators(SearchProblem(alpha=math.pi / 6, gamma=0.2))
        expected = np.array([[0.5, math.sqrt(3) / 2], [-math.sqrt(3) / 2, 0.5]])
        assert np.abs(u.matrix - expected).max() <= 1e-12

    def test_maps_prepared_state_to_target(self):
        p = SearchProblem(alpha=0.4, gamma=0.3, theta=2.2)
        u, _ = build_operators(p)
        image = u.matrix @ prepared_state(p)
        assert np.abs(image - np.array([1.0, 0.0])).max() <= 1e-12

    def test_relative_spectrum_matches_claim(self):
        p = SearchProblem(alpha=0.35, gamma=0.2, theta=0.9)
        u, v = build_operators(p)
        for k in (0, 1, 3):
            w = u.matrix.conj().T @ np.linalg.matrix_power(v.matrix, k)
            phases = np.sort(np.angle(np.linalg.eigvals(w)))
            half = math.pi / 2 - (p.alpha + k * p.gamma)
            assert np.allclose(phases, sorted([-half, half]), atol=1e-10)


class TestDistanceAfterK:
    def test_zero_steps(self):
        p = SearchProblem(alpha=math.pi / 6, gamma=math.pi / 6)
        assert distance_after_k(p, 0) == pytest.approx(math.cos(math.pi / 6), abs=1e-12)

    def test_one_step(self):
        p = SearchProblem(alpha=math.pi / 6, gamma=math.pi / 6)
        assert distance_after_k(p, 1) == pytest.approx(0.5, abs=1e-12)

    def test_exact_convergence(self):
        p = SearchProblem(alpha=math.pi / 6, gamma=math.pi / 6)
        assert distance_after_k(p, 2) <= 1e-12

    def test_overshoot_comes_back(self):
        # past pi/2 the rotation overshoots and the distance grows again
        p = SearchProblem(alpha=math.pi / 6, gamma=math.pi / 3)
        assert distance_after_k(p, 2) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    @pytest.mark.parametrize("k", [1570795, 10**9])
    def test_large_k_is_the_rotation_by_k_gamma(self, k):
        # a product of k steps would round beyond the unitarity tolerance
        p = SearchProblem(alpha=1e-6, gamma=1e-6, theta=0.4)
        assert distance_after_k(p, k) == pytest.approx(abs(math.cos(1e-6 + k * 1e-6)), abs=1e-9)

    def test_negative_k_rejected(self):
        with pytest.raises(OutOfRangeError):
            distance_after_k(SearchProblem(alpha=0.3, gamma=0.3), -1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.05, 1.2),
        st.floats(0.05, 1.2),
        st.floats(0.0, 6.28),
        st.integers(0, 6),
    )
    def test_closed_form(self, alpha, gamma, theta, k):
        p = SearchProblem(alpha=alpha, gamma=gamma, theta=theta)
        assert distance_after_k(p, k) == pytest.approx(
            abs(math.cos(alpha + k * gamma)), abs=1e-10
        )

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 0.6), st.floats(0.05, 0.6), st.integers(0, 5))
    def test_transition_probability_bound(self, alpha, gamma, k):
        p = SearchProblem(alpha=alpha, gamma=gamma, theta=0.7)
        _, v = build_operators(p)
        vk = np.linalg.matrix_power(v.matrix, k)
        amp = abs(vk[0] @ prepared_state(p))
        assert amp**2 >= math.sin(k * gamma + alpha) ** 2 - 1e-10


class TestMinimalK:
    def test_exact_case(self):
        k, achieved = minimal_k(SearchProblem(alpha=math.pi / 6, gamma=math.pi / 6), 0.01)
        assert k == 2 and achieved <= 1e-12

    def test_already_close(self):
        p = SearchProblem(alpha=1.4, gamma=0.3)
        k, achieved = minimal_k(p, math.cos(1.4) + 0.01)
        assert k == 0 and achieved == pytest.approx(math.cos(1.4), abs=1e-12)

    def test_database_1024(self):
        p = SearchProblem.from_size(1024)
        k, achieved = minimal_k(p, 0.1)
        assert k == 47
        assert achieved <= 0.1
        assert k <= math.ceil((math.pi / 2) * 32)

    def test_minimality(self):
        p = SearchProblem.from_size(1024)
        k, _ = minimal_k(p, 0.1)
        assert distance_after_k(p, k - 1) > 0.1

    def test_unreachable_carries_best(self):
        p = SearchProblem(alpha=0.7, gamma=1.4)
        with pytest.raises(UnreachableToleranceError) as exc:
            minimal_k(p, 0.01)
        assert exc.value.achieved > 0.01
        assert distance_after_k(p, exc.value.best_k) == pytest.approx(
            exc.value.achieved, abs=1e-12
        )

    def test_unreachable_best_matches_a_full_scan(self):
        # the best k lies next to a zero of cos or at an end of the period
        cases = ((0.7, 1.4, 0.01), (0.1, 0.37, 1e-4), (1.5, 0.9, 1e-3), (0.2, 0.05, 1e-9))
        for alpha, gamma, eps in cases:
            p = SearchProblem(alpha=alpha, gamma=gamma)
            ks = np.arange(0, math.ceil(math.pi / gamma) + 1)
            with pytest.raises(UnreachableToleranceError) as exc:
                minimal_k(p, eps)
            assert exc.value.best_k == ks[np.argmin(np.abs(np.cos(alpha + ks * gamma)))]

    def test_subnormal_gamma_rejected(self):
        with pytest.raises(OutOfRangeError):
            minimal_k(SearchProblem(alpha=0.5, gamma=5e-324), 0.1)

    def test_epsilon_domain(self):
        with pytest.raises(OutOfRangeError):
            minimal_k(SearchProblem(alpha=0.3, gamma=0.3), 0.0)

    @pytest.mark.parametrize("log2n", [6, 10, 14, 18])
    def test_sqrt_scaling(self, log2n):
        n = 2**log2n
        k, _ = minimal_k(SearchProblem.from_size(n), 0.1)
        ratio = k / math.sqrt(n)
        assert 1.0 <= ratio <= 1.7


@pytest.mark.parametrize(
    "call",
    [
        lambda p: distance_after_k(p, 700),
        lambda p: minimal_k(p, 0.1),
    ],
    ids=["distance_after_k", "minimal_k"],
)
def test_eigensolves_per_search_call(call, counted_eigensolves):
    # U'V^k is 2x2, and the closed form takes its eigenvalues t +- mu and
    # eigenvectors from explicit formulas
    call(SearchProblem.from_size(2**20))
    assert len(counted_eigensolves) == 0

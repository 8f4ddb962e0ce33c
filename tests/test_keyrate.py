import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cvqkdsim.keyrate import (DEFAULT_BETA, SkrInputs, TwoModeCovariance,
                              build_covariance, conditional_eigenvalue,
                              devetak_winter_rate, gaussian_entropy,
                              holevo_bound, mutual_information,
                              secure_key_rate, symplectic_eigenvalues)

from oracles import (covariance_matrix, mpmath_key_rate,
                     numeric_channel_covariance, numeric_holevo,
                     numeric_mutual_information, numeric_symplectic_eigenvalues,
                     random_physical_covariance)


class TestBuildCovariance:
    def test_lossless_noiseless_point(self):
        cov = build_covariance(SkrInputs(6.0, 1.0, 0.0, beta=1.0))
        assert cov.a == pytest.approx(13.0, abs=1e-12)
        assert cov.b == pytest.approx(13.0, abs=1e-12)
        assert cov.c == pytest.approx(np.sqrt(168.0), abs=1e-12)

    def test_vacuum_limit(self):
        cov = build_covariance(SkrInputs(1e-14, 0.5, 0.0))
        assert cov.a == pytest.approx(1.0, abs=1e-12)
        assert cov.b == pytest.approx(1.0, abs=1e-12)
        assert cov.c == pytest.approx(0.0, abs=1e-6)

    def test_attenuated_noisy_point(self):
        cov = build_covariance(SkrInputs(6.0, 0.01, 8e-4))
        assert cov.b == pytest.approx(0.01 * 12 + 1 + 1.6e-3, abs=1e-12)

    def test_matches_channel_action_oracle(self):
        for n, tau, n_ex in [(6.0, 0.01, 1e-5), (1.1, 0.5, 2e-3), (30.0, 0.9, 0.0)]:
            cov = build_covariance(SkrInputs(n, tau, n_ex))
            np.testing.assert_allclose(
                covariance_matrix(cov), numeric_channel_covariance(n, tau, n_ex),
                rtol=0.0, atol=1e-9)

    def test_rejects_nonpositive_transmittance(self):
        with pytest.raises(ValueError):
            SkrInputs(6.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SkrInputs(6.0, -0.1, 0.0)


class TestSymplecticEigenvalues:
    def test_pure_two_mode_squeezed(self):
        v = 13.0
        c = np.sqrt(v * v - 1.0)
        cov = TwoModeCovariance(v, v, c, v * v - c * c)
        nu1, nu2 = symplectic_eigenvalues(cov)
        assert nu1 == pytest.approx(1.0, abs=1e-9)
        assert nu2 == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        nu1, nu2 = symplectic_eigenvalues(TwoModeCovariance(3.0, 2.0, 0.0, 6.0))
        assert (nu1, nu2) == (3.0, 2.0)

    def test_against_numeric_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c, _ = random_physical_covariance(rng)
            cov = TwoModeCovariance(a, b, c, a * b - c * c)
            closed = symplectic_eigenvalues(cov)
            numeric = numeric_symplectic_eigenvalues(covariance_matrix(cov))
            assert closed[0] == pytest.approx(numeric[0], abs=1e-9)
            assert closed[1] == pytest.approx(numeric[1], abs=1e-9)


class TestEntropyFunction:
    def test_anchor_values(self):
        assert gaussian_entropy(1.0) == 0.0
        assert gaussian_entropy(3.0) == pytest.approx(2.0, abs=1e-12)

    def test_nonnegative_and_increasing(self):
        grid = np.linspace(1.0, 30.0, 200)
        values = [gaussian_entropy(nu) for nu in grid]
        assert all(v >= 0.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_subvacuum(self):
        with pytest.raises(ValueError):
            gaussian_entropy(0.5)


class TestHolevoBound:
    def test_lossless_noiseless_leaks_nothing(self):
        cov = build_covariance(SkrInputs(6.0, 1.0, 0.0, beta=1.0))
        assert holevo_bound(cov) == pytest.approx(0.0, abs=1e-9)

    def test_against_numeric_entropy_oracle(self):
        cov = build_covariance(SkrInputs(6.0, 0.01, 1.6e-3))
        assert holevo_bound(cov) == pytest.approx(numeric_holevo(covariance_matrix(cov)),
                                                  abs=1e-6)

    def test_conditional_eigenvalue_matches_schur_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, c, _ = random_physical_covariance(rng)
            cov = TwoModeCovariance(a, b, c, a * b - c * c)
            cond = cov.a - cov.c**2 / (cov.b + 1.0)
            matrix = covariance_matrix(cov)
            blk = matrix[:2, :2] - matrix[:2, 2:] @ np.linalg.inv(
                matrix[2:, 2:] + np.eye(2)) @ matrix[:2, 2:].T
            assert conditional_eigenvalue(cov) == pytest.approx(cond, abs=1e-12)
            assert cond == pytest.approx(np.sqrt(np.linalg.det(blk)), abs=1e-9)


class TestMutualInformation:
    def test_reduces_to_snr_form_at_unit_transmittance(self):
        cov = build_covariance(SkrInputs(6.0, 1.0, 0.0, beta=1.0))
        assert mutual_information(cov) == pytest.approx(np.log2(7.0), abs=1e-12)

    def test_uncorrelated_modes_share_nothing(self):
        assert mutual_information(TwoModeCovariance(3.0, 2.0, 0.0, 6.0)) == 0.0

    def test_increasing_in_mean_photon(self):
        values = [mutual_information(build_covariance(SkrInputs(n, 0.2, 1e-3)))
                  for n in np.linspace(0.1, 50.0, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_against_determinant_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b, c, _ = random_physical_covariance(rng)
            cov = TwoModeCovariance(a, b, c, a * b - c * c)
            assert mutual_information(cov) == pytest.approx(
                numeric_mutual_information(covariance_matrix(cov)), abs=1e-9)


class TestSecureKeyRate:
    def test_rejects_nan_inputs(self):
        with pytest.raises(ValueError, match="excess_photons"):
            SkrInputs(6.0, 0.5, float("nan"))
        with pytest.raises(ValueError, match="mean_photon"):
            SkrInputs(float("nan"), 0.5, 0.0)
        with pytest.raises(ValueError, match="mean_photon must be positive and finite"):
            SkrInputs(float("inf"), 0.5, 0.0)

    def test_lossless_noiseless_rate(self):
        rate = secure_key_rate(SkrInputs(6.0, 1.0, 0.0, beta=1.0))
        assert rate == pytest.approx(np.log2(7.0), abs=1e-9)

    def test_vanishing_transmittance_gives_no_key(self):
        assert secure_key_rate(SkrInputs(6.0, 1e-9, 0.0, beta=1.0)) == \
            pytest.approx(0.0, abs=1e-6)

    def test_noise_threshold_exists(self):
        grid = np.linspace(0.0, 5e-3, 200)
        rates = [secure_key_rate(SkrInputs(6.0, 0.01, n, beta=1.0)) for n in grid]
        assert rates[0] > 0.0
        assert rates[-1] == 0.0
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_monotone_in_excess_noise(self):
        rates = [secure_key_rate(SkrInputs(4.0, 0.1, n))
                 for n in np.linspace(0.0, 0.02, 100)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_monotone_in_transmittance(self):
        rates = [secure_key_rate(SkrInputs(4.0, t, 1e-3))
                 for t in np.linspace(1e-3, 1.0, 100)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_monotone_in_beta(self):
        rates = [secure_key_rate(SkrInputs(4.0, 0.1, 1e-3, beta=b))
                 for b in np.linspace(0.5, 1.0, 100)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestHighPhotonNumbers:
    """The rate needs ab - c^2, which the textbook forms get by subtracting
    numbers of size tau V^2; the package forms it from the inputs."""

    def test_matches_high_precision_oracle(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(2026)
        for _ in range(300):
            n = 10.0 ** rng.uniform(-2.0, 20.0)
            tau = rng.uniform(1e-3, 1.0)
            n_ex = 10.0 ** rng.uniform(-6.0, -1.0)
            beta = rng.uniform(0.8, 1.0)
            want = mpmath_key_rate(n, tau, n_ex, beta)
            got = devetak_winter_rate(SkrInputs(n, tau, n_ex, beta))
            assert abs(got - want) <= 1e-9 * abs(want) + 1e-12, (n, tau, n_ex, beta)

    @pytest.mark.parametrize("mean_photon", [1e9, 1e10, 1e20, 1e50, 1e150])
    def test_finite_and_falling_far_past_the_optimum(self, mean_photon):
        rate = devetak_winter_rate(SkrInputs(mean_photon, 0.6, 1e-3))
        assert np.isfinite(rate)
        assert rate < devetak_winter_rate(SkrInputs(mean_photon / 10.0, 0.6, 1e-3))

    def test_overflow_raises_arithmetic_error(self):
        with pytest.raises(ArithmeticError):
            devetak_winter_rate(SkrInputs(1e300, 0.6, 1e-3))


class TestMonotoneProperties:
    """More excess noise never raises the unclipped rate, and more
    transmittance never lowers the secure (clipped) key rate. Equal rates
    are allowed up to rounding. Below zero the unclipped rate can fall with
    transmittance, as the numeric oracle agrees: at n = 1, n_ex = 0.5 and
    beta = 0.5 it is -1.520 at tau = 0.5 and -1.585 at tau = 1."""

    @staticmethod
    def _slack(*rates):
        return 1e-12 * (1.0 + max(abs(r) for r in rates))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_n=st.floats(-2.0, 8.0), tau=st.floats(1e-4, 1.0),
           n_ex=st.floats(0.0, 0.5), more=st.floats(1e-9, 0.5),
           beta=st.floats(0.5, 1.0))
    # the strategy's corners, whatever constants hypothesis mines: the
    # largest photon number at tau next to 1 and at the least tau, the
    # least photon number at both, and the widest noise step
    @example(log_n=8.0, tau=1.0 - 2.0**-53, n_ex=0.0, more=1e-9, beta=1.0)
    @example(log_n=-2.0, tau=1e-4, n_ex=0.5, more=0.5, beta=0.5)
    @example(log_n=8.0, tau=1e-4, n_ex=0.0, more=1e-9, beta=0.5)
    @example(log_n=-2.0, tau=1.0 - 2.0**-53, n_ex=0.0, more=1e-9, beta=1.0)
    def test_rate_does_not_rise_with_excess_noise(self, log_n, tau, n_ex, more, beta):
        n = 10.0 ** log_n
        low = devetak_winter_rate(SkrInputs(n, tau, n_ex, beta))
        high = devetak_winter_rate(SkrInputs(n, tau, n_ex + more, beta))
        assert high <= low + self._slack(low, high)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_n=st.floats(-2.0, 8.0), tau=st.floats(1e-4, 1.0),
           factor=st.floats(1e-4, 1.0), n_ex=st.floats(0.0, 0.02),
           beta=st.floats(0.5, 1.0))
    # a - b of two floats near 2e8 is off by their spacing, against a true
    # gap of 2.2e-8; the covariance takes the gap from the inputs instead
    @example(log_n=8.0, tau=1.0 - 2.0**-53, factor=1.0, n_ex=0.0, beta=0.9)
    def test_rate_does_not_fall_with_transmittance(self, log_n, tau, factor, n_ex, beta):
        n = 10.0 ** log_n
        lower_tau = tau * factor
        assume(lower_tau > 0.0)
        low = secure_key_rate(SkrInputs(n, lower_tau, n_ex, beta))
        high = secure_key_rate(SkrInputs(n, tau, n_ex, beta))
        assert high >= low - self._slack(low, high)


def _argmax_photon(tau: float, n_ex: float, beta: float = DEFAULT_BETA,
                   grid=None) -> float:
    grid = grid if grid is not None else np.geomspace(0.1, 50.0, 400)
    rates = [secure_key_rate(SkrInputs(n, tau, n_ex, beta=beta)) for n in grid]
    return float(grid[int(np.argmax(rates))])


class TestPhotonNumberOptimum:
    def test_unique_interior_maximum(self):
        # grid argmax and golden-section search must agree -> unimodal
        tau, n_ex = 10 ** (-0.2 * 5 / 10), 1e-3
        grid = np.geomspace(0.1, 50.0, 400)
        rates = np.array([devetak_winter_rate(SkrInputs(n, tau, n_ex))
                          for n in grid])
        peak = int(np.argmax(rates))
        assert 0 < peak < len(grid) - 1

        phi = (np.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 0.1, 50.0
        for _ in range(80):
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if devetak_winter_rate(SkrInputs(m1, tau, n_ex)) < \
                    devetak_winter_rate(SkrInputs(m2, tau, n_ex)):
                lo = m1
            else:
                hi = m2
        golden = 0.5 * (lo + hi)
        assert golden == pytest.approx(grid[peak], rel=0.05)

    def test_short_distance_band(self):
        # channel-noise-dominated budget at 5 km
        best = _argmax_photon(10 ** (-0.2 * 5 / 10), 1e-3)
        assert 10.0 <= best <= 16.0

    def test_optimum_decreases_with_distance(self):
        bests = [_argmax_photon(10 ** (-0.02 * d), 1e-3) for d in (5, 25, 50)]
        assert bests[0] > bests[1] > bests[2]

    def test_long_distance_optimum_needs_high_beta(self):
        # at 100 km the optimum sits near 1.1 photons for any excess noise
        # up to 1e-4; a [5, 9] band is reached only with beta >= 0.99
        for n_ex in (0.0, 1e-5, 1e-4):
            assert 1.0 <= _argmax_photon(0.01, n_ex) <= 1.3
            assert 5.0 <= _argmax_photon(0.01, n_ex, beta=0.99) <= 9.0

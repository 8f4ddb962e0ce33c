"""Asymptotic secure key rate for Gaussian-modulated coherent-state CV-QKD.

Convention: heterodyne detection, reverse reconciliation, collective
attacks, ideal detector. Variances are in shot-noise units with vacuum = 1;
one mean photon of modulation equals 2 SNU of variance, and the
output-referred excess photon number n_ex likewise maps to xi = 2 * n_ex
at Bob's input plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_BETA = 0.90  # reconciliation efficiency for implemented reverse reconciliation


@dataclass(frozen=True)
class SkrInputs:
    """The three key-rate arguments plus the reconciliation efficiency.

    ``excess_photons`` is in photons, output-referred: the excess noise at
    Bob's input, where it equals xi = 2 * excess_photons SNU.
    """

    mean_photon: float
    transmittance: float
    excess_photons: float
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if not self.mean_photon > 0:
            raise ValueError(f"mean_photon must be positive, got {self.mean_photon}")
        if not 0.0 < self.transmittance <= 1.0:
            raise ValueError(f"transmittance must be in (0, 1], got {self.transmittance}")
        if not self.excess_photons >= 0:
            raise ValueError(f"excess_photons must be >= 0, got {self.excess_photons}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    @property
    def modulation_variance(self) -> float:
        """V_mod = 2 n in SNU."""
        return 2.0 * self.mean_photon

    @property
    def excess_noise_snu(self) -> float:
        """xi = 2 n_ex in SNU at Bob's input."""
        return 2.0 * self.excess_photons


@dataclass(frozen=True)
class TwoModeCovariance:
    """Two-mode covariance [[a I2, c sz], [c sz, b I2]], sz = diag(1, -1)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a < 1.0 or self.b < 1.0:
            raise ValueError("mode variances must be >= 1 SNU")

    def matrix(self) -> np.ndarray:
        """The explicit 4x4 matrix in (qA, pA, qB, pB) ordering."""
        sz = np.diag([1.0, -1.0])
        eye = np.eye(2)
        return np.block([[self.a * eye, self.c * sz],
                         [self.c * sz, self.b * eye]])


def build_covariance(inputs: SkrInputs) -> TwoModeCovariance:
    """Entangling-cloner covariance of the effective Gaussian channel.

    a = V, b = tau (V - 1) + 1 + xi, c = sqrt(tau (V^2 - 1)) with
    V = V_mod + 1 and the excess noise xi added at the output.
    """
    v = inputs.modulation_variance + 1.0
    tau = inputs.transmittance
    xi = inputs.excess_noise_snu
    a = v
    b = tau * (v - 1.0) + 1.0 + xi
    c = float(np.sqrt(tau * (v * v - 1.0)))
    return TwoModeCovariance(a=a, b=b, c=c)


def gaussian_entropy(nu: float) -> float:
    """Bosonic entropy term g(nu) in bits; g(1) = 0.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2)
    """
    if nu < 1.0 - 1e-9:
        raise ValueError(f"symplectic eigenvalue below 1: {nu}")
    if nu <= 1.0 + 1e-15:
        return 0.0
    hi = (nu + 1.0) / 2.0
    lo = (nu - 1.0) / 2.0
    return float(hi * np.log2(hi) - lo * np.log2(lo))


def symplectic_eigenvalues(cov: TwoModeCovariance) -> tuple[float, float]:
    """Closed-form symplectic spectrum of the two-mode state.

    nu^2 = (A +/- sqrt(A^2 - 4B)) / 2 with A = a^2 + b^2 - 2c^2 and
    B = (ab - c^2)^2.
    """
    a, b, c = cov.a, cov.b, cov.c
    big_a = a * a + b * b - 2.0 * c * c
    big_b = (a * b - c * c) ** 2
    disc = big_a * big_a - 4.0 * big_b
    if disc < -1e-9 * max(1.0, big_a * big_a):
        raise ArithmeticError(f"unphysical covariance: A^2 - 4B = {disc}")
    root = float(np.sqrt(max(disc, 0.0)))
    nu1 = float(np.sqrt((big_a + root) / 2.0))
    nu2 = float(np.sqrt(max((big_a - root) / 2.0, 0.0)))
    if nu1 < 1.0 - 1e-9 or nu2 < 1.0 - 1e-9:
        raise ArithmeticError(f"symplectic eigenvalue below vacuum: {nu1}, {nu2}")
    return nu1, nu2


def conditional_eigenvalue(cov: TwoModeCovariance) -> float:
    """Symplectic eigenvalue of Alice's state after Bob's heterodyne.

    nu3 = a - c^2 / (b + 1).
    """
    return cov.a - cov.c**2 / (cov.b + 1.0)


def holevo_bound(cov: TwoModeCovariance) -> float:
    """Eve's information chi_BE in bits for reverse reconciliation.

    chi_BE = g(nu1) + g(nu2) - g(nu3) with nu3 the heterodyne-conditioned
    eigenvalue of Alice's mode.
    """
    nu1, nu2 = symplectic_eigenvalues(cov)
    nu3 = conditional_eigenvalue(cov)
    if nu3 < 1.0 - 1e-9:
        raise ArithmeticError(f"conditional eigenvalue below vacuum: {nu3}")
    return gaussian_entropy(nu1) + gaussian_entropy(nu2) - gaussian_entropy(max(nu3, 1.0))


def mutual_information(cov: TwoModeCovariance) -> float:
    """Shannon rate of the double-quadrature heterodyne channel in bits/symbol.

    I_AB = log2((b + 1) / (b + 1 - c^2 / (a + 1))).
    """
    a, b, c = cov.a, cov.b, cov.c
    return float(np.log2((b + 1.0) / (b + 1.0 - c * c / (a + 1.0))))


def devetak_winter_rate(inputs: SkrInputs) -> float:
    """Unclipped asymptotic rate beta * I_AB - chi_BE in bits/symbol."""
    cov = build_covariance(inputs)
    return inputs.beta * mutual_information(cov) - holevo_bound(cov)


def secure_key_rate(inputs: SkrInputs) -> float:
    """Secure key rate in bits/symbol, clipped at zero."""
    return max(0.0, devetak_winter_rate(inputs))

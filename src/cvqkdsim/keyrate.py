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
        if not 0.0 < self.mean_photon < np.inf:
            raise ValueError("mean_photon must be positive and finite, "
                             f"got {self.mean_photon}")
        if not 0.0 < self.transmittance <= 1.0:
            raise ValueError(f"transmittance must be in (0, 1], got {self.transmittance}")
        if not self.excess_photons >= 0:
            raise ValueError(f"excess_photons must be >= 0, got {self.excess_photons}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")


@dataclass(frozen=True)
class TwoModeCovariance:
    """Two-mode covariance [[a I2, c sz], [c sz, b I2]], sz = diag(1, -1).

    ``det`` is ab - c^2, passed in because ab and c^2 agree to about 1/V
    of their size at large modulation variance V: the caller forms it
    without that cancellation where it can. ``gap`` is a - b, taken as
    that difference when not given; near tau = 1 it is far below the
    spacing of floats of size V, so ``build_covariance`` passes it in too.
    """

    a: float
    b: float
    c: float
    det: float
    gap: float | None = None

    def __post_init__(self):
        if self.a < 1.0 or self.b < 1.0:
            raise ValueError("mode variances must be >= 1 SNU")
        if self.gap is None:
            object.__setattr__(self, "gap", self.a - self.b)


def build_covariance(inputs: SkrInputs) -> TwoModeCovariance:
    """Entangling-cloner covariance of the effective Gaussian channel.

    a = V, b = tau (V - 1) + 1 + xi, c = sqrt(tau (V^2 - 1)) with
    V = V_mod + 1 and the excess noise xi added at the output, both in SNU:
    V_mod = 2 n and xi = 2 n_ex at Bob's input. The determinant
    ab - c^2 = V (1 - tau + xi) + tau and the gap a - b = (1 - tau) V_mod - xi
    are formed from the inputs.
    """
    v = 2.0 * inputs.mean_photon + 1.0
    tau = inputs.transmittance
    xi = 2.0 * inputs.excess_photons
    a = v
    b = tau * (v - 1.0) + 1.0 + xi
    c = float(np.sqrt(tau * (v * v - 1.0)))
    return TwoModeCovariance(a=a, b=b, c=c, det=v * (1.0 - tau + xi) + tau,
                             gap=(1.0 - tau) * (v - 1.0) - xi)


def gaussian_entropy(nu: float) -> float:
    """Bosonic entropy term g(nu) in bits; g(1) = 0.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), computed
    as (hi ln(1 + 1/lo) + ln lo) / ln 2 with hi, lo = (nu +/- 1)/2, which
    does not subtract two terms of size log(nu) at large nu.
    """
    if nu < 1.0 - 1e-9:
        raise ValueError(f"symplectic eigenvalue below 1: {nu}")
    if nu <= 1.0 + 1e-15:
        return 0.0
    hi = (nu + 1.0) / 2.0
    lo = (nu - 1.0) / 2.0
    return float((hi * np.log1p(1.0 / lo) + np.log(lo)) / np.log(2.0))


def symplectic_eigenvalues(cov: TwoModeCovariance) -> tuple[float, float]:
    """Closed-form symplectic spectrum of the two-mode state.

    nu1 = (|a - b| + sqrt((a - b)^2 + 4 D)) / 2 and nu2 = D / nu1 with
    a - b the covariance's ``gap`` and D = ab - c^2; this is
    nu^2 = (A +/- sqrt(A^2 - 4 D^2)) / 2 with A = a^2 + b^2 - 2c^2 =
    (a - b)^2 + 2 D, without its cancellations.
    """
    diff = abs(cov.gap)
    disc = diff * diff + 4.0 * cov.det
    if not disc >= 0.0:
        raise ArithmeticError(f"unphysical covariance: (a - b)^2 + 4(ab - c^2) = {disc}")
    nu1 = (diff + float(np.sqrt(disc))) / 2.0
    nu2 = cov.det / nu1
    if not (nu1 >= 1.0 - 1e-9 and nu2 >= 1.0 - 1e-9):  # NaN fails too
        raise ArithmeticError(f"symplectic eigenvalue below vacuum: {nu1}, {nu2}")
    return nu1, nu2


def conditional_eigenvalue(cov: TwoModeCovariance) -> float:
    """Symplectic eigenvalue of Alice's state after Bob's heterodyne.

    nu3 = a - c^2 / (b + 1) = (ab - c^2 + a) / (b + 1).
    """
    return (cov.det + cov.a) / (cov.b + 1.0)


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

    I_AB = log2((b + 1) / (b + 1 - c^2 / (a + 1)))
         = log2((a + 1)(b + 1) / (ab - c^2 + a + b + 1)).
    """
    a, b = cov.a, cov.b
    return float(np.log2((a + 1.0) * (b + 1.0) / (cov.det + a + b + 1.0)))


def devetak_winter_rate(inputs: SkrInputs) -> float:
    """Unclipped asymptotic rate beta * I_AB - chi_BE in bits/symbol.

    Raises ``ArithmeticError`` when the rate is not finite, as when the
    variances overflow.
    """
    cov = build_covariance(inputs)
    rate = inputs.beta * mutual_information(cov) - holevo_bound(cov)
    if not np.isfinite(rate):
        raise ArithmeticError(f"non-finite key rate at {inputs}")
    return rate


def secure_key_rate(inputs: SkrInputs) -> float:
    """Secure key rate in bits/symbol, clipped at zero."""
    return max(0.0, devetak_winter_rate(inputs))

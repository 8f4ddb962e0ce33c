"""Independent numeric oracles used to cross-check closed-form results.

Everything here goes through generic linear algebra (eigensolvers, matrix
Schur complements, quadrature) rather than the closed forms under test, or
is the straightforward form of a signal pass or a scan that the package
computes a faster way.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as _sig

from cvqkdsim.keyrate import secure_key_rate
from cvqkdsim.link import estimate_parameters, run_chain

# symplectic form for two modes in (qA, pA, qB, pB) ordering
OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA_2 = np.block([[OMEGA_1, np.zeros((2, 2))], [np.zeros((2, 2)), OMEGA_1]])


def numeric_symplectic_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Moduli of the eigenvalues of i*Omega*V, one per mode, descending."""
    n_modes = matrix.shape[0] // 2
    omega = OMEGA_2 if n_modes == 2 else OMEGA_1
    eig = np.linalg.eigvals(1j * omega @ matrix)
    mods = np.sort(np.abs(eig))
    # each symplectic eigenvalue appears twice
    return mods[::2][::-1]


def numeric_entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy in bits from the numeric symplectic spectrum."""
    total = 0.0
    for nu in numeric_symplectic_eigenvalues(matrix):
        if nu > 1.0 + 1e-12:
            hi, lo = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
            total += hi * np.log2(hi) - lo * np.log2(lo)
    return float(total)


def heterodyne_conditional(matrix: np.ndarray) -> np.ndarray:
    """Mode-A covariance after a heterodyne measurement of mode B."""
    a_blk = matrix[:2, :2]
    b_blk = matrix[2:, 2:]
    c_blk = matrix[:2, 2:]
    return a_blk - c_blk @ np.linalg.inv(b_blk + np.eye(2)) @ c_blk.T


def numeric_holevo(matrix: np.ndarray) -> float:
    """chi_BE from numeric entropies of the joint and conditional states."""
    return numeric_entropy(matrix) - numeric_entropy(heterodyne_conditional(matrix))


def numeric_mutual_information(matrix: np.ndarray) -> float:
    """Heterodyne-outcome mutual information from 4x4 determinants.

    Both parties' heterodyne outcomes are jointly Gaussian with covariance
    (V + I)/2; I(A;B) = (1/2) log2( det(SA) det(SB) / det(S) ).
    """
    outcomes = (matrix + np.eye(4)) / 2.0
    det_a = np.linalg.det(outcomes[:2, :2])
    det_b = np.linalg.det(outcomes[2:, 2:])
    det_full = np.linalg.det(outcomes)
    return float(0.5 * np.log2(det_a * det_b / det_full))


def covariance_matrix(cov) -> np.ndarray:
    """The explicit 4x4 matrix [[a I2, c sz], [c sz, b I2]] of a
    ``TwoModeCovariance``, in (qA, pA, qB, pB) ordering."""
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    return np.block([[cov.a * eye, cov.c * sz],
                     [cov.c * sz, cov.b * eye]])


def numeric_channel_covariance(mean_photon: float, tau: float,
                               n_ex: float) -> np.ndarray:
    """Two-mode state after a lossy, noisy channel on mode B, as X V X^T + Y.

    V is the two-mode squeezed vacuum of variance 2 n + 1; the channel
    scales mode B by sqrt(tau) and adds (1 - tau) + 2 n_ex SNU of noise,
    with n_ex in photons at Bob's input.
    """
    v = 2.0 * mean_photon + 1.0
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    tmsv = np.block([[v * eye, np.sqrt(v * v - 1.0) * sz],
                     [np.sqrt(v * v - 1.0) * sz, v * eye]])
    x = np.diag([1.0, 1.0, np.sqrt(tau), np.sqrt(tau)])
    y = np.diag([0.0, 0.0, 1.0 - tau + 2.0 * n_ex, 1.0 - tau + 2.0 * n_ex])
    return x @ tmsv @ x.T + y


def numeric_key_rate(mean_photon: float, tau: float, n_ex: float,
                     beta: float) -> float:
    """Unclipped reverse-reconciliation rate beta * I_AB - chi_BE, numerically."""
    matrix = numeric_channel_covariance(mean_photon, tau, n_ex)
    return beta * numeric_mutual_information(matrix) - numeric_holevo(matrix)


def random_physical_covariance(rng: np.random.Generator):
    """Random (a, b, c) from the effective-channel family, always physical."""
    mean_photon = rng.uniform(0.05, 40.0)
    tau = rng.uniform(1e-3, 1.0)
    n_ex = rng.uniform(0.0, 0.2)
    v = 2.0 * mean_photon + 1.0
    a = v
    b = tau * (v - 1.0) + 1.0 + 2.0 * n_ex
    c = np.sqrt(tau * (v * v - 1.0))
    return a, b, c, dict(mean_photon=mean_photon, tau=tau, n_ex=n_ex)


def reference_convolve(sig: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Full linear convolution, summed directly."""
    return _sig.convolve(sig, taps, mode="full", method="direct")


def reference_decimate(sig: np.ndarray, taps: np.ndarray, sps: int, start: int,
                       count: int) -> np.ndarray:
    """Full-rate convolution, then every ``sps``-th output from ``start``."""
    return reference_convolve(sig, taps)[start::sps][:count]


def reference_interpolate(symbols: np.ndarray, taps: np.ndarray, sps: int) -> np.ndarray:
    """Zero-stuff to ``sps`` samples per symbol, then convolve directly."""
    stuffed = np.zeros(len(symbols) * sps, dtype=complex)
    stuffed[::sps] = symbols
    return reference_convolve(stuffed, taps)


def reference_isi(h_tx: np.ndarray, lpf: np.ndarray, h_rx: np.ndarray,
                  sps: int) -> tuple[int, dict[int, float], float, float]:
    """Peak index, the coefficients c_j = z[delay + j * sps] over the whole
    effective response z, and their c_0^2 and sum over j != 0 of c_j^2, the
    squares added one at a time in index order."""
    z = np.convolve(np.convolve(h_tx, h_rx), lpf)
    delay = int(np.argmax(np.abs(z)))
    first = -(delay // sps)
    coeff = {first + k: float(v) for k, v in enumerate(z[delay % sps::sps])}
    isi_sum = float(sum(v * v for j, v in coeff.items() if j != 0))
    return delay, coeff, coeff[0] ** 2, isi_sum


def frequency_response(taps: np.ndarray, freqs_norm, sps: int) -> np.ndarray:
    """Complex response of FIR taps at frequencies in units of the symbol
    rate, summed directly over the taps."""
    freqs_norm = np.atleast_1d(np.asarray(freqs_norm, dtype=float))
    n = np.arange(len(taps))
    # discrete-time frequency: f_norm cycles/symbol -> f_norm / sps cycles/sample
    phases = -2j * np.pi * np.outer(freqs_norm / sps, n)
    return np.exp(phases) @ taps


def reference_symbols(count: int, mean_photon: float, seed: int) -> np.ndarray:
    """Per-call ``normal`` draws: the real rail, then the imaginary rail."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(mean_photon / 2.0)
    return rng.normal(0.0, scale, count) + 1j * rng.normal(0.0, scale, count)


def reference_noise_power(quantized: np.ndarray, reference: np.ndarray) -> float:
    """E|q - x|^2 per sample through the complex difference and ``abs``."""
    return float(np.mean(np.abs(quantized - reference) ** 2))


def _reference_rails(sig: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(sig):
        return np.concatenate([sig.real, sig.imag])
    return np.asarray(sig, dtype=float)


def reference_full_scale(sig: np.ndarray, clipping_factor: float) -> float:
    """kappa * RMS over the concatenated rails."""
    return clipping_factor * float(np.sqrt(np.mean(_reference_rails(sig) ** 2)))


def reference_quantize(sig: np.ndarray, bits: int, full_scale: float) -> np.ndarray:
    """Mid-rise quantizer, one rail at a time, recombined as re + 1j * im."""
    delta = 2.0 * full_scale / (1 << bits)
    half_levels = 1 << (bits - 1)

    def one_rail(x: np.ndarray) -> np.ndarray:
        idx = np.clip(np.floor(x / delta), -half_levels, half_levels - 1)
        return (idx + 0.5) * delta

    if np.iscomplexobj(sig):
        return one_rail(sig.real) + 1j * one_rail(sig.imag)
    return one_rail(np.asarray(sig, dtype=float))


def reference_clip_fraction(sig: np.ndarray, full_scale: float) -> float:
    """Mean of the |rail| >= A indicator over the concatenated rails."""
    return float(np.mean(np.abs(_reference_rails(sig)) >= full_scale))


def reference_chain_reports(config, h_tx: np.ndarray, h_rx: np.ndarray,
                            mean_photon: float) -> tuple[float, float]:
    """``(dac_noise, adc_noise)`` of one chain, built from the reference
    steps above; a bypassed converter gives zero.

    The DAC noise is E|q - x|^2 at the DAC output. The ADC noise compares
    the rx-filtered chain output with a twin filtered without the ADC, on
    the symbols the chain keeps (both edges' filter transients trimmed).
    """
    sps, lpf = config.sps, config.lpf_filter().taps
    z = np.convolve(np.convolve(h_tx, h_rx), lpf)
    delay, margin = int(np.argmax(np.abs(z))), -(-len(z) // sps)

    def converter(x, spec):
        if spec is None:
            return x
        full_scale = reference_full_scale(x, spec.clipping_factor)
        return reference_quantize(x, spec.bits, full_scale)

    def rx_filter(x):
        kept = reference_decimate(x, h_rx, sps, delay, config.num_symbols)
        return kept[margin:config.num_symbols - margin]

    symbols = reference_symbols(config.num_symbols, mean_photon, config.seed)
    shaped = reference_interpolate(symbols, h_tx, sps)
    after_dac = converter(shaped, config.dac)
    attenuated = reference_convolve(after_dac, lpf) * np.sqrt(config.channel_transmittance)
    after_adc = converter(attenuated, config.adc)
    return (reference_noise_power(after_dac, shaped),
            reference_noise_power(rx_filter(after_adc), rx_filter(attenuated)))


def reference_photon_scan(env, grid, h_tx, h_rx, beta: float) -> tuple[dict, list[dict]]:
    """``experiments.photon_scan`` with one chain per grid point: each point's
    key rate, tau_hat, excess noise and converter noises come from its own
    chain at that photon number, not from the first point's chain scaled."""
    curve = []
    for n in (float(n) for n in grid):
        result = run_chain(env, h_tx, h_rx, n)
        est = estimate_parameters(result.tx_symbols, result.rx_symbols)
        inputs = est.key_rate_inputs(n, env.channel_excess_photons, beta)
        point = {"skr_bits_per_symbol": secure_key_rate(inputs), "tau": est.tau_hat,
                 "n_ex": inputs.excess_photons, "mean_photon": n,
                 "isi_sum": result.isi.isi_sum, "c0_sq": result.isi.c0_sq,
                 "dac_noise": result.dac_report, "adc_noise": result.adc_report}
        curve.append({"n_photon": n, "skr_bits_per_symbol": point["skr_bits_per_symbol"],
                      "detail": point})
    return max(curve, key=lambda row: row["skr_bits_per_symbol"]), curve


def mpmath_key_rate(mean_photon: float, tau: float, n_ex: float, beta: float,
                    digits: int = 80) -> float:
    """Unclipped rate beta * I_AB - chi_BE from the textbook forms, in
    ``digits``-digit arithmetic.

    nu1,2^2 = (A +/- sqrt(A^2 - 4B)) / 2 with A = a^2 + b^2 - 2c^2 and
    B = (ab - c^2)^2, nu3 = a - c^2 / (b + 1), and the entropy as the
    difference of its two terms: the forms whose cancellations the
    package avoids, evaluated with enough digits that they do not matter.
    The float inputs are taken exactly.
    """
    import mpmath

    with mpmath.workdps(digits):
        n, t, x, be = (mpmath.mpf(v) for v in (mean_photon, tau, n_ex, beta))
        v = 2 * n + 1
        a = v
        b = t * (v - 1) + 1 + 2 * x
        c2 = t * (v * v - 1)
        big_a = a * a + b * b - 2 * c2
        root = mpmath.sqrt(big_a * big_a - 4 * (a * b - c2) ** 2)
        nus = (mpmath.sqrt((big_a + root) / 2), mpmath.sqrt((big_a - root) / 2),
               a - c2 / (b + 1))

        def entropy(nu):
            if nu <= 1:
                return mpmath.mpf(0)
            hi, lo = (nu + 1) / 2, (nu - 1) / 2
            return hi * mpmath.log(hi, 2) - lo * mpmath.log(lo, 2)

        chi = entropy(nus[0]) + entropy(nus[1]) - entropy(nus[2])
        i_ab = mpmath.log((b + 1) / (b + 1 - c2 / (a + 1)), 2)
        return float(be * i_ab - chi)

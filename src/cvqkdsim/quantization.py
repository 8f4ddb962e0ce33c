"""Mid-rise uniform quantizer models for b-bit DAC/ADC stages.

Signals are plain numpy arrays, real or complex. The full-scale amplitude
is loaded from the signal itself, A = kappa * sigma with sigma the pooled
RMS of the real rails; the chain loads it once per converter and passes it
to ``quantize`` and ``clip_fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizerSpec:
    """b-bit mid-rise converter with clipping at kappa times the signal RMS."""

    bits: int
    clipping_factor: float = 4.0

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if not self.clipping_factor > 0:
            raise ValueError(f"clipping_factor must be positive, got {self.clipping_factor}")

    def step(self, full_scale: float) -> float:
        """Quantization step Delta = 2A / 2^b."""
        return 2.0 * full_scale / (1 << self.bits)


@dataclass(frozen=True)
class QuantizationReport:
    """Measured quantizer impact: mean-square error and clipping rate.

    noise_power is E[|y_q - y_ref|^2] per complex sample in photon-number
    units (both rails summed); clip_fraction is the fraction of rail samples
    at or beyond the full-scale amplitude.
    """

    noise_power: float
    clip_fraction: float = 0.0

    def __post_init__(self):
        if self.noise_power < 0:
            raise ValueError("noise_power must be non-negative")
        if not 0.0 <= self.clip_fraction <= 1.0:
            raise ValueError("clip_fraction must lie in [0, 1]")


def full_scale(sig: np.ndarray, spec: QuantizerSpec) -> float:
    """Full-scale amplitude A = kappa * (pooled per-rail RMS of the signal).

    Raises ``ValueError`` when the RMS is zero or not finite: the signal's
    power overflows a float, or the signal holds inf or NaN.
    """
    # an overflow shows as a non-finite RMS, raised below
    with np.errstate(over="ignore"):
        if np.iscomplexobj(sig):
            # both rails squared into one buffer, real rail first, so that the
            # pairwise mean runs over the same values in the same order
            squares = np.empty(2 * len(sig))
            np.square(sig.real, out=squares[:len(sig)])
            np.square(sig.imag, out=squares[len(sig):])
        else:
            squares = np.square(np.asarray(sig, dtype=float))
        rms = float(np.sqrt(np.mean(squares)))
    if not np.isfinite(rms):
        raise ValueError(f"non-finite quantizer full scale ({rms}): the signal's "
                         "power overflows or the signal is not finite")
    if rms <= 0.0:
        raise ValueError("cannot load a quantizer from a zero-RMS signal")
    return spec.clipping_factor * rms


def _rails(sig: np.ndarray) -> np.ndarray:
    """The real rails of a signal as one float array (a complex signal's
    interleaved real and imaginary parts, through a view where possible)."""
    if np.iscomplexobj(sig):
        return np.ascontiguousarray(sig, dtype=complex).view(float)
    return np.asarray(sig, dtype=float)


def quantize(sig: np.ndarray, spec: QuantizerSpec, full_scale: float) -> np.ndarray:
    """Clip each rail to [-A, A] and map to the nearest mid-rise level.

    Reconstruction levels are +/-(k + 1/2) * Delta for k = 0 .. 2^(b-1) - 1,
    with A = ``full_scale``; the operation is idempotent for that grid.
    """
    if len(sig) == 0:
        raise ValueError("cannot quantize an empty signal")
    if not full_scale > 0:
        raise ValueError("full scale must be positive")
    delta = spec.step(full_scale)
    half_levels = 1 << (spec.bits - 1)
    out = np.empty(len(sig), dtype=complex if np.iscomplexobj(sig) else float)
    rails = out.view(float)  # interleaved real/imaginary rails
    np.divide(_rails(sig), delta, out=rails)
    np.floor(rails, out=rails)
    np.clip(rails, -half_levels, half_levels - 1, out=rails)
    rails += 0.5
    rails *= delta
    return out


def clip_fraction(sig: np.ndarray, full_scale_amplitude: float) -> float:
    """Fraction of rail samples at or beyond the full-scale amplitude."""
    if not full_scale_amplitude > 0:
        raise ValueError("full scale must be positive")
    rails = _rails(sig)
    clipped = (np.count_nonzero(rails >= full_scale_amplitude)
               + np.count_nonzero(rails <= -full_scale_amplitude))
    return clipped / rails.size


def measure_noise(quantized: np.ndarray, reference: np.ndarray) -> float:
    """Mean-square error of ``quantized`` against ``reference``, per complex
    sample with both rails summed.

    The error is taken rail by rail in one float buffer, squared in place and
    averaged by numpy's pairwise mean, without the complex difference and
    ``abs`` temporaries; it agrees with ``mean(abs(q - x) ** 2)`` to rounding.
    """
    if len(quantized) != len(reference):
        raise ValueError(
            f"length mismatch: {len(quantized)} vs {len(reference)}")
    if np.iscomplexobj(quantized) or np.iscomplexobj(reference):
        quantized, reference = (np.asarray(x, dtype=complex) for x in (quantized, reference))
        rails_per_sample = 2
    else:
        rails_per_sample = 1
    err = np.subtract(_rails(quantized), _rails(reference))
    np.square(err, out=err)
    return rails_per_sample * float(np.mean(err))

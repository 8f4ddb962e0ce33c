"""Mid-rise uniform quantizer models for b-bit DAC/ADC stages.

Signals are plain numpy arrays, real or complex. The full-scale amplitude
is loaded from the signal itself, A = kappa * sigma with sigma the pooled
RMS of the real rails, and can be frozen once per run so that reference and
quantized paths share the same grid.
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
    """Full-scale amplitude A = kappa * (pooled per-rail RMS of the signal)."""
    if np.iscomplexobj(sig):
        # both rails squared into one buffer, real rail first, so that the
        # pairwise mean runs over the same values in the same order
        squares = np.empty(2 * len(sig))
        np.square(sig.real, out=squares[:len(sig)])
        np.square(sig.imag, out=squares[len(sig):])
    else:
        squares = np.square(np.asarray(sig, dtype=float))
    rms = float(np.sqrt(np.mean(squares)))
    if rms <= 0.0:
        raise ValueError("cannot load a quantizer from a zero-RMS signal")
    return spec.clipping_factor * rms


def quantize(sig: np.ndarray, spec: QuantizerSpec,
             frozen_full_scale: float | None = None) -> np.ndarray:
    """Clip each rail to [-A, A] and map to the nearest mid-rise level.

    Reconstruction levels are +/-(k + 1/2) * Delta for k = 0 .. 2^(b-1) - 1.
    A is taken from the signal unless ``frozen_full_scale`` pins it, in which
    case the operation is idempotent for that grid.
    """
    if len(sig) == 0:
        raise ValueError("cannot quantize an empty signal")
    a = full_scale(sig, spec) if frozen_full_scale is None else float(frozen_full_scale)
    if a <= 0:
        raise ValueError("full scale must be positive")
    delta = spec.step(a)
    half_levels = 1 << (spec.bits - 1)
    if np.iscomplexobj(sig):
        out = np.empty(len(sig), dtype=complex)
        rails = out.view(float)  # interleaved real/imaginary rails
        np.divide(np.ascontiguousarray(sig).view(float), delta, out=rails)
    else:
        out = rails = np.divide(np.asarray(sig, dtype=float), delta)
    np.floor(rails, out=rails)
    np.clip(rails, -half_levels, half_levels - 1, out=rails)
    rails += 0.5
    rails *= delta
    return out


def clip_fraction(sig: np.ndarray, full_scale_amplitude: float) -> float:
    """Fraction of rail samples at or beyond the full-scale amplitude."""
    if np.iscomplexobj(sig):
        rails = (sig.real, sig.imag)
    else:
        rails = (np.asarray(sig, dtype=float),)
    clipped = sum(np.count_nonzero(np.abs(r) >= full_scale_amplitude) for r in rails)
    return clipped / (len(rails) * len(sig))


def measure_noise(quantized: np.ndarray, reference: np.ndarray,
                  frozen_full_scale: float | None = None) -> QuantizationReport:
    """Mean-square error of ``quantized`` against ``reference``.

    When the full scale of the quantizer that produced ``quantized`` is
    supplied, the report also carries the fraction of reference samples that
    were clipped.
    """
    if len(quantized) != len(reference):
        raise ValueError(
            f"length mismatch: {len(quantized)} vs {len(reference)}")
    noise = float(np.mean(np.abs(quantized - reference) ** 2))
    frac = (clip_fraction(reference, frozen_full_scale)
            if frozen_full_scale is not None else 0.0)
    return QuantizationReport(noise_power=noise, clip_fraction=frac)

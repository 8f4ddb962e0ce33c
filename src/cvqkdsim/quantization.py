"""Mid-rise uniform quantizer models for b-bit DAC/ADC stages.

Signals are plain numpy arrays, real or complex. The full-scale amplitude
is loaded from the signal itself, A = kappa * sigma with sigma the pooled
RMS of the real rails. The chain runs each converter as one ``convert``
call, which loads the full scale, quantizes and (for the reports) counts
clips and measures the error in one blocked pass; ``full_scale``,
``quantize``, ``clip_fraction`` and ``measure_noise`` are the same steps
one at a time.
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


# rails (complex samples, when loading) per block of the converter passes:
# a block's input and output (512 KB to 1 MB) stay in L2 while the block is
# squared, or quantized, clip-counted and measured
_BLOCK = 1 << 15


def full_scale(sig: np.ndarray, spec: QuantizerSpec) -> float:
    """Full-scale amplitude A = kappa * (pooled per-rail RMS of the signal).

    Raises ``ValueError`` when the RMS is zero or not finite: the signal's
    power overflows a float, or the signal holds inf or NaN.
    """
    return _load(sig, spec, np.empty((2 if np.iscomplexobj(sig) else 1) * len(sig)))


def _load(sig: np.ndarray, spec: QuantizerSpec, squares: np.ndarray) -> float:
    """``full_scale``, with the rail squares written into ``squares`` (a
    float buffer of one value per rail, which is then spent)."""
    # an overflow shows as a non-finite RMS, raised below
    with np.errstate(over="ignore"):
        if np.iscomplexobj(sig):
            # both rails squared into one buffer, real rail first, so that the
            # pairwise mean runs over the same values in the same order; block
            # by block, so that each block of the signal is read from memory once
            n = len(sig)
            for i in range(0, n, _BLOCK):
                j = min(i + _BLOCK, n)
                np.square(sig.real[i:j], out=squares[i:j])
                np.square(sig.imag[i:j], out=squares[n + i:n + j])
        else:
            np.square(np.asarray(sig, dtype=float), out=squares)
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
    with A = ``full_scale``; the operation is idempotent for that grid. The
    rails run through ``convert``'s blocked pass into a new array of the
    signal's kind.
    """
    if len(sig) == 0:
        raise ValueError("cannot quantize an empty signal")
    if not full_scale > 0:
        raise ValueError("full scale must be positive")
    out = np.empty(len(sig), dtype=complex if np.iscomplexobj(sig) else float)
    _quantize_blocks(_rails(sig), out.view(float), spec, full_scale)
    return out


def convert(sig: np.ndarray, spec: QuantizerSpec, reports: bool = False,
            consume: bool = False) -> tuple[np.ndarray, float | None, float | None]:
    """One converter: load its full scale from ``sig``, quantize, and with
    ``reports`` measure it, in one pass over blocks of rails.

    Returns ``(quantized, clip_fraction, noise_power)``. The full scale is
    ``full_scale(sig, spec)``, bit for bit: the rail squares are written
    into the output buffer, in ``full_scale``'s order, before the levels
    overwrite them. The output is ``quantize(sig, spec, A)`` bit for bit.
    Without ``reports`` both measures are None and no report work is done.
    With it, the clips (``clip_fraction(sig, A)``, exactly) are counted
    while each block of rails is in cache. With ``consume`` too, the
    squared error ``(q - x)**2`` is formed in ``sig``'s own rails (the
    caller gives ``sig`` up; a contiguous float or complex ``sig`` then
    holds it) and ``noise_power`` is ``measure_noise(quantized, sig)`` up to
    the grouping of the sum (within 1e-12 relative); otherwise it is None.
    Besides the output, the pass allocates less than one block.
    """
    if len(sig) == 0:
        raise ValueError("cannot quantize an empty signal")
    out = np.empty(len(sig), dtype=complex if np.iscomplexobj(sig) else float)
    rails = out.view(float)
    scale = _load(sig, spec, rails)
    clipped, squared_error = _quantize_blocks(_rails(sig), rails, spec, scale,
                                              reports, reports and consume)
    if not reports:
        return out, None, None
    return out, clipped / rails.size, squared_error / len(sig) if consume else None


def _quantize_blocks(rails: np.ndarray, out: np.ndarray, spec: QuantizerSpec,
                     full_scale: float, count_clips: bool = False,
                     form_error: bool = False) -> tuple[int, float]:
    """Quantize ``rails`` into ``out`` block by block; with ``count_clips``
    count the rails at or beyond +/-A, and with ``form_error`` overwrite
    each block of ``rails`` with its error and sum its squares. Returns the
    clip count and the squared-error sum."""
    delta = spec.step(full_scale)
    half_levels = 1 << (spec.bits - 1)
    clipped, squared_error = 0, 0.0
    for i in range(0, len(rails), _BLOCK):
        x, q = rails[i:i + _BLOCK], out[i:i + _BLOCK]
        np.divide(x, delta, out=q)
        np.floor(q, out=q)
        np.clip(q, -half_levels, half_levels - 1, out=q)
        q += 0.5
        q *= delta
        if count_clips:
            clipped += (np.count_nonzero(x >= full_scale)
                        + np.count_nonzero(x <= -full_scale))
        if form_error:
            np.subtract(q, x, out=x)
            np.square(x, out=x)
            squared_error += float(np.sum(x))
    return clipped, squared_error


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

"""Mid-rise uniform quantizer models for b-bit DAC/ADC stages.

Signals are plain numpy arrays, real or complex. The full-scale amplitude
is loaded from the signal itself, A = kappa * sigma with sigma the pooled
RMS of the real rails, read in one ``_mean_square`` pass. The chain runs
each converter as one ``convert`` call: that load, then one blocked pass
that quantizes and, asked for the noise, leaves the signed error x - q in
the spent rails, whose mean square is the noise power, a plain float.
``full_scale`` and ``quantize`` are the same steps one at a time;
``measure_noise`` compares against a kept input, and ``clip_fraction``
counts the rails at or beyond the full scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# a level (k + 1/2) * Delta with k < 2^(b-1) needs b significant bits, so up
# to 53 bits every level of the mid-rise grid is exact in a float64
MAX_BITS = 53
# loading factors outside this range leave the converter no use (at 1e-3 all
# but 0.08% of Gaussian rails clip; at 1e3 the signal spans a thousandth of
# the range, ten bits unused), and far outside it the full scale of a
# chain's signal under- or overflows a float
CLIPPING_RANGE = (1e-3, 1e3)


@dataclass(frozen=True)
class QuantizerSpec:
    """b-bit mid-rise converter with clipping at kappa times the signal RMS."""

    bits: int
    clipping_factor: float = 4.0

    def __post_init__(self):
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must be in [1, {MAX_BITS}], got {self.bits}: "
                             f"past {MAX_BITS} bits the levels are not exact floats")
        low, high = CLIPPING_RANGE
        if not low <= self.clipping_factor <= high:
            raise ValueError(f"clipping_factor must be in [{low:g}, {high:g}], "
                             f"got {self.clipping_factor}")

    def step(self, full_scale: float) -> float:
        """Quantization step Delta = 2A / 2^b."""
        return 2.0 * full_scale / (1 << self.bits)


# rails per block of the converter pass: a block's input and output (256 KB
# each) stay in L2 while the block is quantized and turned into its error
_BLOCK = 1 << 15


def full_scale(sig: np.ndarray, spec: QuantizerSpec) -> float:
    """Full-scale amplitude A = kappa * (pooled per-rail RMS of the signal).

    Raises ``ValueError`` when the RMS is zero or not finite: the signal's
    power overflows a float, or the signal holds inf or NaN.
    """
    return _load(_rails(sig), spec)


def _load(rails: np.ndarray, spec: QuantizerSpec) -> float:
    """``full_scale`` from the signal's float rails: one ``_mean_square``
    read of them, which is the per-rail mean square."""
    # an overflow shows as a non-finite RMS, raised below
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(_mean_square(rails)))
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


def convert(sig: np.ndarray, spec: QuantizerSpec,
            reports: bool = False) -> tuple[np.ndarray, float | None]:
    """One converter in one pass over blocks of rails: load the full scale
    from ``sig``, quantize, and with ``reports`` measure the noise.

    Returns ``(quantized, noise_power)``. The full scale is
    ``full_scale(sig, spec)``, one ``_mean_square`` read of the rails, and
    the output is ``quantize(sig, spec, A)`` bit for bit.
    Without ``reports`` the noise power is None and ``sig`` is left as it
    is. With it, each rail x is overwritten with its signed error x - q
    while its block is in cache, and the noise power is E|x - q|^2 per
    sample of ``sig`` with both rails summed. The rails are ``sig`` itself
    for a float64 or a contiguous complex128 signal, which the caller gives
    up; for any other signal they are a copy, and ``sig`` is left as it is.
    Besides the output and that copy, the pass allocates less than one block.
    """
    if len(sig) == 0:
        raise ValueError("cannot quantize an empty signal")
    x = _rails(sig)
    out = np.empty(len(sig), dtype=complex if np.iscomplexobj(sig) else float)
    _quantize_blocks(x, out.view(float), spec, _load(x, spec), reports)
    return out, (_rail_dot(x, x) / len(sig) if reports else None)


def _quantize_blocks(rails: np.ndarray, out: np.ndarray, spec: QuantizerSpec,
                     full_scale: float, reports: bool = False) -> None:
    """Quantize ``rails`` into ``out`` block by block; with ``reports``
    overwrite each block of ``rails`` with its error ``x - q``."""
    delta = spec.step(full_scale)
    half_levels = 1 << (spec.bits - 1)
    for i in range(0, len(rails), _BLOCK):
        x, q = rails[i:i + _BLOCK], out[i:i + _BLOCK]
        np.divide(x, delta, out=q)
        np.floor(q, out=q)
        np.clip(q, -half_levels, half_levels - 1, out=q)
        q += 0.5
        q *= delta
        if reports:
            np.subtract(x, q, out=x)


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
    sample with both rails summed: ``_mean_square`` of the difference."""
    if len(quantized) != len(reference):
        raise ValueError(
            f"length mismatch: {len(quantized)} vs {len(reference)}")
    return _mean_square(np.subtract(quantized, reference))


def _mean_square(sig: np.ndarray) -> float:
    """E|x|^2 per sample with both rails summed, by ``_rail_dot``: the
    converters' full-scale loads and noise, and the estimate's residual."""
    return _rail_dot(sig, sig) / len(sig)


def _rail_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Re<x, y> in one ``einsum`` pass over the float rails: off threaded
    BLAS, so its bits do not depend on the thread count."""
    return float(np.einsum("i,i->", _rails(x), _rails(y)))

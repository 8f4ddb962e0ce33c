"""Deterministic signal-processing primitives for the transceiver chain.

Amplitudes are carried in root-photon units throughout: the mean square
|x|^2 of a transmitted complex symbol equals its mean photon number.
Signals and symbol blocks are plain numpy arrays; complex signals are
processed as two independent real rails through real-tapped filters.
Every filter runs as an overlap-save product with its spectrum, which
``_tap_spectra`` forms with numpy's transform once per tap vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FirFilter:
    """Real FIR tap vector."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        object.__setattr__(self, "taps", taps)
        if taps.ndim != 1 or taps.size < 1:
            raise ValueError("taps must be a non-empty 1-D vector")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps contain non-finite values")

    def __len__(self) -> int:
        return len(self.taps)

    def unit_energy(self) -> "FirFilter":
        """Return a copy rescaled to unit energy."""
        norm = float(np.sqrt(np.sum(self.taps**2)))
        if norm <= 0:
            raise ValueError("cannot normalize an all-zero filter")
        return FirFilter(self.taps / norm)


def generate_symbols(count: int, mean_photon: float, seed: int) -> np.ndarray:
    """Draw i.i.d. circularly-symmetric complex Gaussian symbols.

    Each real quadrature has variance ``mean_photon / 2`` so that
    E[|x|^2] = mean_photon. Deterministic for a fixed seed.

    The standard-normal block of ``(count, seed)`` is drawn once and shared
    by consecutive calls with the same pair (an optimizer batch runs all its
    episodes on one chain seed), and each call scales it into a fresh array.
    ``Generator.normal(0, s)`` computes ``0 + s * z`` from the same stream of
    z, so the symbols are bit-identical to per-call ``normal`` draws.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not mean_photon > 0:
        raise ValueError(f"mean_photon must be positive, got {mean_photon}")
    out = np.empty(count, dtype=complex)
    np.multiply(_standard_block(count, seed).view(float), np.sqrt(mean_photon / 2.0),
                out=out.view(float))
    return out


@functools.lru_cache(maxsize=1)
def _standard_block(count: int, seed: int) -> np.ndarray:
    """Read-only unit-variance rails of ``generate_symbols``: ``count`` real
    then ``count`` imaginary standard normals from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    block = np.empty(count, dtype=complex)
    block.real = rng.standard_normal(count)
    block.imag = rng.standard_normal(count)
    block.flags.writeable = False
    return block


def upsample(symbols: np.ndarray, sps: int) -> np.ndarray:
    """Zero-stuff a symbol array to ``sps`` samples per symbol."""
    if sps < 1:
        raise ValueError(f"sps must be >= 1, got {sps}")
    out = np.zeros(len(symbols) * sps, dtype=complex)
    out[::sps] = symbols
    return out


def convolve(sig: np.ndarray, fir: FirFilter, gain: float = 1.0) -> np.ndarray:
    """Full linear convolution of a signal with an FIR filter, times ``gain``.

    The (complex) signal runs once through ``decimate``'s overlap-save pass
    at one sample per output, so both rails share one FFT. The filter's
    memoized spectrum (``_tap_spectra``, the inverse transform's 1/n folded
    in) is scaled by ``gain`` in its few bins, not in the output. A real
    input gives a real output. The chain calls it for the LPF, with the
    channel loss sqrt(tau_ch) as the gain; the tx filter runs through
    ``interpolate`` and the rx filter through ``decimate``.
    """
    sig = np.asarray(sig)
    if len(sig) == 0:
        return np.zeros(0, dtype=complex)
    spectrum = _tap_spectra(fir.taps, 1) * gain
    out = _decimate(sig, spectrum, len(fir), 1, 0, len(sig) + len(fir) - 1)
    return out if np.iscomplexobj(sig) else out.real


# interpolate's tap rows shorter than this run through np.convolve, which has
# an unrolled loop for kernels of up to 11 taps; there its two real passes beat
# one overlap-save pass over the complex signal at 10k-400k samples, and from
# 12 taps on the overlap-save pass wins
_FFT_MIN_TAPS = 12

# numpy warns where a non-finite sample meets the transforms or the spectrum
# products; such a signal comes out non-finite, and the chain's finite check
# is the one place that reports it
_QUIET = np.errstate(invalid="ignore", over="ignore")


@_QUIET
def interpolate(symbols: np.ndarray, taps: np.ndarray, sps: int) -> np.ndarray:
    """``convolve(upsample(symbols, sps), taps)`` at full length, without
    building the zero-stuffed signal.

    Tap rows ``taps[p::sps]`` shorter than ``_FFT_MIN_TAPS`` run as a
    polyphase interpolator (Crochiere & Rabiner), the dual of ``decimate``:
    output sample ``q*sps + p`` is the convolution of the symbols with row
    ``p`` at ``q``. Each real rail of the symbols runs through
    ``np.convolve`` with each row, straight into its rail's strided phase
    slots of the interleaved output. Longer rows run one overlap-save pass
    at the full rate: frames of ``M`` symbols (``_frame_len``) overlap by
    ``ceil((len(taps) - 1) / sps)`` symbols and take one forward FFT, and
    since the spectrum of a zero-stuffed frame is the symbol spectrum
    repeated ``sps`` times, each frame spectrum is tiled ``sps`` times
    against the whole filter's memoized spectrum at length ``sps*M``
    (``_tap_spectra``), and one inverse FFT gives contiguous outputs. That
    inverse runs unnormalized (``norm="forward"``): its 1/n rides in the
    tap spectrum. The last ``sps - 1`` outputs, past the last symbol's reach,
    are set to exactly zero as in the stuffed convolution, so no FFT
    residue there can reach a converter level.
    The output is complex, as ``upsample`` makes it; a real input's
    imaginary rail is zero.
    """
    if sps < 1:
        raise ValueError(f"sps must be >= 1, got {sps}")
    taps = np.asarray(taps, dtype=float)
    symbols = np.asarray(symbols)
    n = len(symbols)
    if n == 0:
        return np.zeros(0, dtype=complex)
    full_len = n * sps + len(taps) - 1
    if -(-len(taps) // sps) < _FFT_MIN_TAPS:
        out = np.zeros(full_len, dtype=complex)
        slots = out.view(float).reshape(full_len, 2)  # interleaved rails
        parts = (symbols.real, symbols.imag) if np.iscomplexobj(symbols) else (symbols,)
        parts = [np.ascontiguousarray(part, dtype=float) for part in parts]
        for p in range(min(sps, len(taps))):
            row = taps[p::sps]
            # a phase view is one sample longer than its row's output when
            # sps divides len(taps) - p; that sample stays zero
            kept = n + len(row) - 1
            for rail, part in enumerate(parts):
                slots[p::sps, rail][:kept] = np.convolve(part, row)
        return out
    overlap = -(-(len(taps) - 1) // sps)  # symbols shared with the previous frame
    m = _frame_len(overlap + 1)
    step = m - overlap  # symbols, and step * sps outputs, per frame
    num_frames = -(-full_len // (step * sps))
    spectra = _frame_spectra(symbols, overlap, num_frames, step, m)
    tap_spectrum = _tap_spectra(taps, 1, sps * m).reshape(sps, m)
    tiled = (spectra[:, None, :] * tap_spectrum).reshape(num_frames, sps * m)
    del spectra
    out = np.fft.ifft(tiled, axis=-1, out=tiled, norm="forward")[:, overlap * sps:]
    out = out.reshape(-1)[:full_len]
    out[(n - 1) * sps + len(taps):] = 0
    if not np.iscomplexobj(symbols):
        out.imag = 0
    return out


def downsample(sig: np.ndarray, sps: int, phase: int = 0) -> np.ndarray:
    """Pick every ``sps``-th sample starting at ``phase`` (a view, not a copy)."""
    if not 0 <= phase < sps:
        raise ValueError(f"phase must be in [0, sps), got phase={phase} sps={sps}")
    return sig[phase::sps]


def decimate(sig: np.ndarray, taps: np.ndarray, sps: int, start: int,
             count: int) -> np.ndarray:
    """``convolve(sig, taps)[start::sps][:count]``, computing only the kept
    outputs; the result is complex.

    Polyphase FFT decimator (Crochiere & Rabiner): tap row r is
    ``taps[r::sps]`` and filters the phase row ``sig[start - r + i*sps]``, so
    output k is the sum over r of the rows' convolutions at i = k. Each
    phase row is cut into overlapping frames (overlap-save) that take one
    batched FFT; the phase spectra are multiplied by their memoized tap
    spectra (``_tap_spectra``, which carry the inverse transform's 1/n) and
    summed, and one batched, unnormalized inverse FFT yields the kept samples.
    With ``sps=1`` there is one phase row and this is plain overlap-save;
    ``start=0`` with ``count = len(sig) + len(taps) - 1`` gives the full
    convolution. Frame f holds phase samples ``f*step`` on, and every frame
    is cut the same way (``_frame_spectra``), as are ``interpolate``'s.
    """
    if sps < 1:
        raise ValueError(f"sps must be >= 1, got {sps}")
    if start < 0 or count < 0:
        raise ValueError(f"start and count must be >= 0, got {start}, {count}")
    taps = np.asarray(taps, dtype=float)
    full_len = len(sig) + len(taps) - 1 if len(sig) else 0
    kept = max(0, min(count, -(-(full_len - start) // sps)))
    if kept == 0:
        return np.zeros(0, dtype=complex)
    return _decimate(sig, _tap_spectra(taps, sps), len(taps), sps, start, kept)


@_QUIET
def _decimate(sig: np.ndarray, tap_spectra: np.ndarray, num_taps: int, sps: int,
              start: int, kept: int) -> np.ndarray:
    """``decimate``'s pass, given its ``_tap_spectra`` and its ``kept >= 1``
    outputs, all inside the full convolution."""
    n = len(sig)
    rows = -(-num_taps // sps)  # length of the longest tap row
    nfft = tap_spectra.shape[-1]
    step = nfft - rows + 1  # kept outputs per frame; the last frame's surplus is dropped
    num_frames = -(-kept // step)
    for r in range(sps):
        first = start - (rows - 1) * sps - r  # signal index of phase sample 0
        i0 = -(-max(-first, 0) // sps)  # phase samples i0:i1 lie inside the signal
        i1 = min(-(-(n - first) // sps), (num_frames + 1) * step)
        spectra = _frame_spectra(sig[first + i0 * sps::sps][:max(i1 - i0, 0)], i0,
                                 num_frames, step, nfft)
        spectra *= tap_spectra[r]
        if r == 0:
            total = spectra
        else:
            total += spectra
        del spectra
    kept_rows = np.fft.ifft(total, axis=-1, out=total, norm="forward")[:, rows - 1:]
    del total
    return kept_rows.reshape(-1)[:kept]


def _tap_spectra(taps: np.ndarray, sps: int, nfft: int | None = None) -> np.ndarray:
    """The ``nfft``-point spectra (``np.fft.fft``) of the ``sps`` tap rows
    ``taps[r::sps]``, zero-padded to the longest row, each divided by
    ``nfft``: the overlap-save inverse transforms run unnormalized, so their
    1/n rides in these few bins rather than in a pass over the signal.
    ``nfft`` defaults to the rows' frame length ``_frame_len``; it is a
    power of two, so the division only shifts exponents.

    The one place a filter spectrum is formed. The result is memoized by
    content (the taps' bytes, ``sps`` and ``nfft``), so every chain of a
    config transforms each of its filters once, and it is read-only, since
    the callers share it.
    """
    taps = np.ascontiguousarray(taps, dtype=float)
    if nfft is None:
        nfft = _frame_len(-(-len(taps) // sps))
    return _spectra(taps.tobytes(), sps, nfft)


@functools.lru_cache(maxsize=16)
def _spectra(taps: bytes, sps: int, nfft: int) -> np.ndarray:
    """``_tap_spectra`` of the float64 taps in ``taps``."""
    taps = np.frombuffer(taps)
    rows = -(-len(taps) // sps)
    padded = np.zeros(rows * sps)
    np.divide(taps, nfft, out=padded[:len(taps)])
    # transformed from C order, so that each row of the result, which
    # _decimate multiplies its frames by, is contiguous
    spectra = np.fft.fft(np.ascontiguousarray(padded.reshape(rows, sps).T), nfft)
    spectra.flags.writeable = False
    return spectra


def _frame_len(rows: int) -> int:
    """Overlap-save frame length for filter rows of ``rows`` taps: the power
    of two nearest ``8 * rows``, at least 512.

    Eight times the row length keeps the overlap to about an eighth of each
    frame; powers of two run faster than the nearby 7-smooth lengths
    (2048 against 2016 or 2058); and 512 points keep the per-call cost of
    the batched transforms small next to their arithmetic.
    """
    return 1 << max(9, round(math.log2(8 * rows)))


def _frame_spectra(src: np.ndarray, i0: int, num_frames: int, step: int,
                   nfft: int) -> np.ndarray:
    """FFTs of ``num_frames`` overlap-save frames of ``nfft`` points, frame f
    holding positions ``f*step`` on of a sequence that is ``src`` at
    positions ``i0, i0 + 1, ...`` and zero elsewhere.

    ``src`` is written once, row-major, into the first ``step`` columns of
    one zeroed buffer (the head of row 0, whole rows, then the tail), and
    each frame's overlap is copied from the next row; the extra row holds
    the last frame's overlap. ``i0`` must lie in row 0, and ``src`` must end
    before position ``(num_frames + 1) * step``.
    """
    frames = np.zeros((num_frames + 1, nfft), dtype=complex)
    head = min(len(src), step - i0)
    frames[0, i0:i0 + head] = src[:head]
    body = (len(src) - head) // step
    frames[1:1 + body, :step] = src[head:head + body * step].reshape(body, step)
    tail = src[head + body * step:]
    if len(tail):
        frames[1 + body, :len(tail)] = tail
    frames[:-1, step:] = frames[1:, :nfft - step]
    return np.fft.fft(frames[:-1], axis=-1, out=frames[:-1])


def rrc_filter(rolloff: float, span_symbols: int, sps: int = 4) -> FirFilter:
    """Unit-energy root-raised-cosine taps, length span_symbols*sps + 1.

    Uses the standard time-domain closed form; the removable singularities
    at t = 0 and |t| = 1/(4*rolloff) are replaced by their analytic limits.
    """
    if not 0.0 < rolloff <= 1.0:
        raise ValueError(f"rolloff must be in (0, 1], got {rolloff}")
    if span_symbols < 1:
        raise ValueError(f"span_symbols must be >= 1, got {span_symbols}")
    n = span_symbols * sps + 1
    t = (np.arange(n) - (n - 1) / 2.0) / sps  # in symbol durations
    h = np.empty(n)
    at_zero = np.isclose(t, 0.0, atol=1e-12)
    at_sing = np.isclose(np.abs(t), 1.0 / (4.0 * rolloff), atol=1e-9)
    h[at_zero] = 1.0 - rolloff + 4.0 * rolloff / np.pi
    h[at_sing] = (rolloff / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * rolloff))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * rolloff))
    )
    rest = ~(at_zero | at_sing)
    tr = t[rest]
    num = np.sin(np.pi * tr * (1.0 - rolloff)) + 4.0 * rolloff * tr * np.cos(
        np.pi * tr * (1.0 + rolloff)
    )
    den = np.pi * tr * (1.0 - (4.0 * rolloff * tr) ** 2)
    h[rest] = num / den
    h /= np.sqrt(np.sum(h**2))
    return FirFilter(h)


def truncate_taps(fir: FirFilter, num_taps: int) -> FirFilter:
    """Keep the central ``num_taps`` taps and renormalize to unit energy."""
    if not 1 <= num_taps <= len(fir):
        raise ValueError(f"num_taps must be in [1, {len(fir)}], got {num_taps}")
    start = (len(fir) - num_taps) // 2
    return FirFilter(fir.taps[start:start + num_taps]).unit_energy()


def truncated_rrc(num_taps: int, rolloff: float = 0.2, sps: int = 4) -> FirFilter:
    """Central ``num_taps``-tap truncation of a long RRC prototype.

    The prototype spans at least 250 symbols so that short truncations are
    cuts of one canonical filter rather than separately designed ones.
    """
    span = max(250, int(np.ceil(num_taps / sps)) + 2)
    return truncate_taps(rrc_filter(rolloff, span, sps), num_taps)


@functools.lru_cache(maxsize=8)
def super_gaussian_lpf(order: int = 4, bandwidth_norm: float = 0.75,
                       num_taps: int = 257, sps: int = 4) -> FirFilter:
    """Linear-phase FIR realization of a super-Gaussian low-pass response.

    Target magnitude |H(f)| = exp(-(ln 2 / 2) * (f / f3dB)^(2*order)) with
    f3dB = bandwidth_norm in units of the symbol rate, realized by frequency
    sampling, inverse transform and symmetric truncation. The peak is
    normalized to 1 at DC, so |H(f3dB)|^2 = 1/2 up to truncation error.

    The design depends on its arguments alone, so it is memoized: every
    chain of a config shares one filter instead of redoing the inverse
    transform. Its taps are read-only, so no caller can change the filter
    that the others get.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if bandwidth_norm <= 0:
        raise ValueError(f"bandwidth_norm must be positive, got {bandwidth_norm}")
    if num_taps < 1:
        raise ValueError(f"num_taps must be >= 1, got {num_taps}")
    if num_taps % 2 == 0:
        raise ValueError("num_taps must be odd for a symmetric linear-phase FIR")
    grid = 1 << max(12, int(np.ceil(np.log2(8 * num_taps))))
    f = np.fft.fftfreq(grid, d=1.0 / sps)  # cycles per symbol duration
    # past the band edge a high order's power overflows to inf, and exp(-inf)
    # is the 0 that the magnitude underflows to there anyway
    with np.errstate(over="ignore"):
        mag = np.exp(-(np.log(2.0) / 2.0) * np.abs(f / bandwidth_norm) ** (2 * order))
    h = np.fft.ifft(mag).real
    h = np.roll(h, grid // 2)
    half = (num_taps - 1) // 2
    taps = h[grid // 2 - half: grid // 2 + half + 1]
    taps = taps / np.sum(taps)  # unit DC gain
    taps.flags.writeable = False
    return FirFilter(taps)

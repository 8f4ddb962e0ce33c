"""Deterministic signal-processing primitives for the transceiver chain.

Amplitudes are carried in root-photon units throughout: the mean square
|x|^2 of a transmitted complex symbol equals its mean photon number.
Signals and symbol blocks are plain numpy arrays; complex signals are
processed as two independent real rails through real-tapped filters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft


@dataclass(frozen=True)
class FirFilter:
    """Real FIR tap vector.

    When ``normalized`` is set the taps carry unit energy (sum of squares 1).
    """

    taps: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        object.__setattr__(self, "taps", taps)
        if taps.ndim != 1 or taps.size < 1:
            raise ValueError("taps must be a non-empty 1-D vector")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps contain non-finite values")
        if self.normalized and abs(self.energy - 1.0) > 1e-12:
            raise ValueError("normalized filter must have unit energy")

    @property
    def energy(self) -> float:
        return float(np.sum(self.taps**2))

    def __len__(self) -> int:
        return len(self.taps)

    def unit_energy(self) -> "FirFilter":
        """Return a copy rescaled to unit energy."""
        norm = float(np.sqrt(np.sum(self.taps**2)))
        if norm <= 0:
            raise ValueError("cannot normalize an all-zero filter")
        return FirFilter(self.taps / norm, normalized=True)


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


# np.convolve has an unrolled loop for kernels of up to 11 taps; there its two
# real passes beat one overlap-save pass over the complex signal at 10k-400k
# samples, and from 12 taps on the overlap-save pass wins
_FFT_MIN_TAPS = 12


def convolve(sig: np.ndarray, fir: FirFilter) -> np.ndarray:
    """Full linear convolution of a signal with an FIR filter.

    The method depends only on the filter length. Below ``_FFT_MIN_TAPS``
    taps each real rail runs through ``np.convolve``; from there on the
    (complex) signal runs once through ``decimate`` at one sample per output,
    which is overlap-save, so both rails share one FFT. A real input gives a
    real output. The chain calls it for the LPF and, through
    ``interpolate``, for each tx tap row; the rx filter runs through
    ``decimate``.
    """
    sig = np.asarray(sig)
    if len(sig) == 0:
        return np.zeros(0, dtype=complex)
    if len(fir) < _FFT_MIN_TAPS:
        if not np.iscomplexobj(sig):
            return np.convolve(sig, fir.taps)
        out = np.empty(len(sig) + len(fir) - 1, dtype=complex)
        out.real = np.convolve(sig.real, fir.taps)
        out.imag = np.convolve(sig.imag, fir.taps)
        return out
    out = decimate(sig, fir.taps, 1, 0, len(sig) + len(fir) - 1)
    return out if np.iscomplexobj(sig) else out.real


def interpolate(symbols: np.ndarray, taps: np.ndarray, sps: int) -> np.ndarray:
    """``convolve(upsample(symbols, sps), taps)`` at full length, without
    multiplying the stuffed zeros.

    Polyphase interpolator (Crochiere & Rabiner), the dual of ``decimate``:
    output sample ``q*sps + p`` is the convolution of the symbols with tap
    row ``taps[p::sps]`` at ``q``, written into the strided phase view of
    one output array; ``convolve`` picks each row's method by its length.
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
    out = np.zeros(n * sps + len(taps) - 1, dtype=complex)
    for p in range(min(sps, len(taps))):
        row = FirFilter(taps[p::sps])
        # a phase view is one sample longer than its row's output when
        # sps divides len(taps) - p; that sample stays zero
        kept = n + len(row) - 1
        out[p::sps][:kept] = convolve(symbols, row)
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
    batched FFT; the phase spectra are multiplied by their tap spectra and
    summed, and one batched inverse FFT yields the kept samples.
    With ``sps=1`` there is one phase row and this is plain overlap-save;
    ``start=0`` with ``count = len(sig) + len(taps) - 1`` gives the full
    convolution. Frame f holds phase samples ``f*step`` on, and every frame
    is cut the same way: the phase row's samples inside the signal are
    written once into the first ``step`` columns of a zeroed buffer, one
    frame per row, and each frame's overlap is copied from the next row.
    """
    if sps < 1:
        raise ValueError(f"sps must be >= 1, got {sps}")
    if start < 0 or count < 0:
        raise ValueError(f"start and count must be >= 0, got {start}, {count}")
    taps = np.asarray(taps, dtype=float)
    n = len(sig)
    full_len = n + len(taps) - 1 if n else 0
    kept = max(0, min(count, -(-(full_len - start) // sps)))
    if kept == 0:
        return np.zeros(0, dtype=complex)
    rows = -(-len(taps) // sps)  # length of the longest tap row
    # frames of at least 512 points keep the per-call cost of the batched
    # transforms small next to their arithmetic
    nfft = _fft.next_fast_len(max(8 * rows, 512))
    step = nfft - rows + 1  # kept outputs per frame; the last frame's surplus is dropped
    num_frames = -(-kept // step)
    padded = np.zeros(rows * sps)
    padded[:len(taps)] = taps
    tap_spectra = _fft.fft(padded.reshape(rows, sps).T, nfft, axis=-1)
    for r in range(sps):
        first = start - (rows - 1) * sps - r  # signal index of phase sample 0
        i0 = -(-max(-first, 0) // sps)  # phase samples i0:i1 lie inside the signal
        i1 = min(-(-(n - first) // sps), (num_frames + 1) * step)
        # the extra row holds the last frame's overlap
        frames = np.zeros((num_frames + 1, nfft), dtype=complex)
        if i1 > i0:
            _fill_rows(frames[:, :step], sig[first + i0 * sps::sps][:i1 - i0], i0)
        frames[:-1, step:] = frames[1:, :rows - 1]
        spectra = _fft.fft(frames[:-1], axis=-1, overwrite_x=True)
        spectra *= tap_spectra[r]
        if r == 0:
            total = spectra
        else:
            total += spectra
        del frames, spectra
    kept_rows = _fft.ifft(total, axis=-1, overwrite_x=True)[:, rows - 1:]
    del total
    return kept_rows.reshape(-1)[:kept]


def _fill_rows(block: np.ndarray, src: np.ndarray, i0: int) -> None:
    """Write ``src`` into the 2-D ``block`` at its row-major positions
    ``i0, i0 + 1, ...``: the head of row 0, whole rows, then the tail.
    ``i0`` must lie in row 0."""
    width = block.shape[1]
    head = min(len(src), width - i0)
    block[0, i0:i0 + head] = src[:head]
    body = (len(src) - head) // width
    block[1:1 + body] = src[head:head + body * width].reshape(body, width)
    tail = src[head + body * width:]
    if len(tail):
        block[1 + body, :len(tail)] = tail


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
    return FirFilter(h, normalized=True)


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
    if num_taps % 2 == 0:
        raise ValueError("num_taps must be odd for a symmetric linear-phase FIR")
    grid = 1 << max(12, int(np.ceil(np.log2(8 * num_taps))))
    f = np.fft.fftfreq(grid, d=1.0 / sps)  # cycles per symbol duration
    mag = np.exp(-(np.log(2.0) / 2.0) * np.abs(f / bandwidth_norm) ** (2 * order))
    h = np.fft.ifft(mag).real
    h = np.roll(h, grid // 2)
    half = (num_taps - 1) // 2
    taps = h[grid // 2 - half: grid // 2 + half + 1]
    taps = taps / np.sum(taps)  # unit DC gain
    taps.flags.writeable = False
    return FirFilter(taps)

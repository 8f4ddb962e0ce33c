"""End-to-end transceiver chain: pulse shaping, converters, loss, matched
filtering, plus the ISI bookkeeping and the four-term excess-noise budget.

The chain is semiclassical: it propagates classical amplitudes only, so the
symbol-plane residual contains ISI and quantization effects while vacuum
noise and the channel excess photons enter analytically downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .dsp import FirFilter
from .keyrate import DEFAULT_BETA, SkrInputs
from .quantization import QuantizationReport, QuantizerSpec, _mean_square, _rail_dot, convert
# looked up here by perfbench/tracing.py only; the chain calls ``convert``
# and takes its noise figures with ``_mean_square`` (ROADMAP item 3)
from .quantization import clip_fraction, full_scale, measure_noise, quantize  # noqa: F401

# the fewest pairs estimate_parameters takes: every block keeps this many
MIN_SYMBOL_PAIRS = 1000

# the smallest normal float64, the least channel transmittance a link takes
MIN_TRANSMITTANCE = float(np.finfo(float).tiny)

# the most bytes one chain's live arrays may take at their peak
# (``chain_bytes``), the most multiply-adds of ``effective_response``, and
# the most bytes of the LPF's design grid
MAX_CHAIN_BYTES = 1 << 32


class BudgetError(RuntimeError):
    """Raised when a sweep or a chain would exceed its evaluation budget."""


@dataclass(frozen=True)
class LpfConfig:
    """Analog front-end low-pass model (fixed, not learnable)."""

    order: int = 4
    bandwidth_norm: float = 0.75
    num_taps: int = 257


@dataclass(frozen=True)
class LinkConfig:
    """Everything needed to run one chain realization.

    ``channel_excess_photons`` is in photons, output-referred: the channel
    excess noise at Bob's input, after the fiber loss. Noise stated at the
    channel input enters as that value times ``channel_transmittance``.
    The transmittance must be a normal float, at least ``MIN_TRANSMITTANCE``
    (a loss of about 3077 dB: 15,382 km at 0.2 dB/km). Below it the
    transmittance loses precision, and past about 3233 dB it is zero, which
    leaves the ADC no signal to load its full scale from.
    """

    distance_km: float = 100.0
    attenuation_db_per_km: float = 0.2
    channel_excess_photons: float = 1e-4
    sps: int = 4
    lpf: LpfConfig = field(default_factory=LpfConfig)
    dac: QuantizerSpec | None = field(default_factory=lambda: QuantizerSpec(bits=10))
    adc: QuantizerSpec | None = field(default_factory=lambda: QuantizerSpec(bits=10))
    tx_len: int = 11
    rx_len: int = 101
    num_symbols: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not self.distance_km >= 0:
            raise ValueError(f"distance_km must be >= 0, got {self.distance_km}")
        if not 0.0 <= self.attenuation_db_per_km < np.inf:
            raise ValueError("attenuation_db_per_km must be finite and >= 0, "
                             f"got {self.attenuation_db_per_km}")
        if not self.channel_transmittance >= MIN_TRANSMITTANCE:
            raise ValueError(
                f"distance_km={self.distance_km} at attenuation_db_per_km="
                f"{self.attenuation_db_per_km} is a loss of "
                f"{self.distance_km * self.attenuation_db_per_km:g} dB, whose "
                f"transmittance {self.channel_transmittance:g} is below the "
                f"smallest normal float ({MIN_TRANSMITTANCE:g})")
        if not 0 <= self.channel_excess_photons < np.inf:
            raise ValueError("channel_excess_photons must be >= 0 and finite")
        if self.tx_len < 1 or self.rx_len < 1:
            raise ValueError("filter lengths must be >= 1")
        if self.sps < 1:
            raise ValueError(f"sps must be >= 1, got {self.sps}")
        if self.num_symbols < 1:
            raise ValueError("num_symbols must be >= 1")
        # no chain passes the transient check with an LPF longer than its
        # block, so the design grid (8x the taps) is never built for one
        if self.lpf.num_taps > self.num_symbols * self.sps:
            raise ValueError(f"lpf.num_taps={self.lpf.num_taps} exceeds the block's "
                             f"{self.num_symbols * self.sps} samples")
        # a design grid over the budget is refused before it is built, at
        # the 48 bytes a point its arrays take
        grid = dsp._design_grid(self.lpf.num_taps)
        if 48 * grid > MAX_CHAIN_BYTES:
            raise BudgetError(
                f"lpf.num_taps={self.lpf.num_taps} is designed on a grid of {grid} "
                f"points, about {48 * grid // 2**20} MiB of arrays, over the budget "
                f"of {MAX_CHAIN_BYTES // 2**20} MiB")
        self.lpf_filter()  # the LPF design checks its parameters

    @property
    def channel_transmittance(self) -> float:
        """tau_ch = 10^(-alpha L / 10)."""
        return float(10.0 ** (-self.attenuation_db_per_km * self.distance_km / 10.0))

    def lpf_filter(self) -> FirFilter:
        """The analog front end's LPF at ``sps`` samples per symbol: one
        shared, read-only filter per LPF config (``super_gaussian_lpf`` is
        memoized)."""
        return dsp.super_gaussian_lpf(self.lpf.order, self.lpf.bandwidth_norm,
                                      self.lpf.num_taps, self.sps)


@dataclass(frozen=True)
class IsiProfile:
    """Symbol-spaced summary of the effective response z.

    With c_j = z[delay_index + j * sps], c0_sq is the useful-tap power
    |c_0|^2 and isi_sum the leaked power sum over j != 0.
    """

    delay_index: int
    c0_sq: float
    isi_sum: float


@dataclass(frozen=True)
class NoiseBudget:
    """The four output-referred excess-noise terms, in photon numbers.

    The terms add up to the Monte-Carlo residual only while the converter
    errors are independent of the signal and of each other, which holds
    from about 6 bits on (see ``assemble_budget``).
    """

    channel: float
    isi: float
    dac: float
    adc: float
    transmittance: float  # effective tau = |c_0|^2 * tau_ch

    @property
    def total(self) -> float:
        return self.channel + self.isi + self.dac + self.adc


@dataclass(frozen=True)
class ParameterEstimate:
    """Least-squares channel estimate from aligned symbol pairs."""

    tau_hat: float
    n_ex_hat: float  # raw residual power; may be slightly negative

    @property
    def n_ex_clipped(self) -> float:
        return max(0.0, self.n_ex_hat)

    def key_rate_inputs(self, mean_photon: float, channel_excess_photons: float,
                        beta: float = DEFAULT_BETA) -> SkrInputs:
        """Key-rate inputs at tau_hat capped at 1 and at the clipped residual
        plus the channel excess photons."""
        return SkrInputs(mean_photon, min(self.tau_hat, 1.0),
                         self.n_ex_clipped + channel_excess_photons, beta)


@dataclass(frozen=True)
class ChainResult:
    """Aligned symbols plus the per-converter reports and the ISI profile.

    Both reports are None when the chain ran with ``reports=False``.
    """

    tx_symbols: np.ndarray
    rx_symbols: np.ndarray
    dac_report: QuantizationReport | None
    adc_report: QuantizationReport | None
    isi: IsiProfile


def effective_response(h_tx: FirFilter, lpf: FirFilter, h_rx: FirFilter,
                       sps: int = 4) -> IsiProfile:
    """Convolve the deployed filters and sample the result at symbol spacing.

    The sampling phase is the peak of |z| (ties toward the smaller index)
    and the coefficient support covers the whole response. The ISI sum adds
    the squares in index order (Python's ``sum``, not numpy's pairwise one).
    """
    z = np.convolve(np.convolve(h_tx.taps, h_rx.taps), lpf.taps)
    delay = int(np.argmax(np.abs(z)))
    row = z[delay % sps::sps]  # c_j for j = -(delay // sps) on
    main = delay // sps
    return IsiProfile(delay_index=delay, c0_sq=float(row[main]) ** 2,
                      isi_sum=float(sum((np.delete(row, main) ** 2).tolist())))


def transient_margin(config: LinkConfig, tx_len: int, rx_len: int) -> int:
    """Symbols trimmed from each edge of a chain with these filter lengths.

    The margin is ceil(len(z) / sps) for the effective response z of the tx
    filter, the LPF and the rx filter, len(z) = tx_len + rx_len +
    lpf.num_taps - 2. Raises ``ValueError`` naming it when the block of
    ``config.num_symbols`` keeps fewer than ``MIN_SYMBOL_PAIRS`` symbols,
    which ``estimate_parameters`` needs.
    """
    margin = -(-(tx_len + rx_len + config.lpf.num_taps - 2) // config.sps)
    kept = config.num_symbols - 2 * margin
    if kept < MIN_SYMBOL_PAIRS:
        raise ValueError(
            f"num_symbols={config.num_symbols} too small for the filter "
            f"transient ({margin} symbols per edge): it keeps {max(kept, 0)} "
            f"symbols, and the estimate needs at least {MIN_SYMBOL_PAIRS}")
    return margin


def chain_bytes(config: LinkConfig, tx_len: int, rx_len: int) -> int:
    """An upper bound on the bytes of a chain's live arrays at their peak.

    The bound is 44 bytes per sample at the sample and at the symbol rate,
    plus 1536 (96 complex values) per tx, rx and LPF tap: an overlap-save
    pass holds its filter's spectrum and whole spare frames of up to 11.3x
    a tap row, and the LPF's pass also the spectrum of its combined response
    with the rx filter. ``tracemalloc`` peaks of ``run_chain`` with reports
    reach 66-98% of it at 50k-1M symbols (1 to 64 samples per symbol, 11 to
    1001 taps; 87% at 100k symbols and 11/101 taps), and 26-82% on the
    shortest blocks the filter transient admits for up to 11,601 taps.
    Raises ``BudgetError`` when it exceeds ``MAX_CHAIN_BYTES``, or when
    ``effective_response``'s direct convolutions take more multiply-adds
    than ``MAX_CHAIN_BYTES``; at about 0.16 ns each, those stay under a
    second.
    """
    taps = tx_len + rx_len + config.lpf.num_taps
    live = 44 * config.num_symbols * (config.sps + 1) + 1536 * taps
    if live > MAX_CHAIN_BYTES:
        raise BudgetError(
            f"num_symbols={config.num_symbols} at sps={config.sps} with {tx_len}/"
            f"{rx_len}/{config.lpf.num_taps} tx/rx/LPF taps needs about "
            f"{-(-live // 2**20)} MiB of arrays per chain, over the budget of "
            f"{MAX_CHAIN_BYTES // 2**20} MiB")
    macs = tx_len * rx_len + (tx_len + rx_len - 1) * config.lpf.num_taps
    if macs > MAX_CHAIN_BYTES:
        raise BudgetError(
            f"{tx_len}/{rx_len}/{config.lpf.num_taps} tx/rx/LPF taps take {macs} "
            f"multiply-adds in the effective response, over the budget of "
            f"{MAX_CHAIN_BYTES}")
    return live


def run_chain(config: LinkConfig, h_tx: FirFilter, h_rx: FirFilter,
              mean_photon: float, reports: bool = True) -> ChainResult:
    """Execute the full chain and return aligned tx/rx symbol pairs.

    Stages: symbols -> tx FIR at sps samples per symbol -> DAC -> LPF ->
    sqrt(tau_ch) loss -> ADC -> rx FIR. The effective response and the
    transient margin (``transient_margin``) come first, so a block too
    short for the filters fails before any signal work. The tx FIR is
    ``dsp.interpolate``, which never builds the zero-stuffed samples: short
    tap rows (the 11-tap filter) filter the symbols' rails row by row, and
    long ones (the 1001-tap reference) run one full-rate overlap-save over
    the symbol spectrum tiled ``sps`` times. The LPF is filtered full-length
    by ``dsp.convolve``, one overlap-save pass framed for the LPF and the rx
    FIR together, with the channel loss sqrt(tau_ch) as its gain: the loss
    scales the LPF's spectrum, which is computed once per tap vector, so no
    pass over the signal applies it. The rx FIR runs through
    ``dsp.decimate``, evaluated only at the ``num_symbols`` symbol-spaced
    outputs from the response peak on. Each stage's input is released once
    the next stage has it.
    Each converter is one ``quantization.convert`` call: its full scale is
    frozen from its unquantized input, and it quantizes in one blocked
    pass. With reports it also counts the clips and leaves its error in its
    input, which the chain gives up. The DAC's noise is the mean square of
    its error at the DAC plane. The ADC's is the mean square of rx - Y over
    the kept symbols: Y is the ADC-bypassed twin of rx, which the LPF's
    pass forms from its own frame transforms through the combined LPF and
    rx response, so no second rx pass filters the ADC's error.
    A bypassed converter reports zero. Edge symbols inside the filter
    transient are trimmed. Non-finite received symbols raise ``ValueError``.

    With ``reports=False`` both reports are None, and the chain skips the
    work only they need: the clip counts, the errors and their mean squares,
    and the twin. The LPF's pass keeps its framing, the converters still
    load their full scales and quantize, and ``decimate`` filters each
    signal on its own, so the symbols and the ISI profile are the same bits
    as with reports.
    """
    if not mean_photon > 0:
        raise ValueError(f"mean_photon must be positive, got {mean_photon}")
    sps = config.sps
    lpf = config.lpf_filter()
    isi = effective_response(h_tx, lpf, h_rx, sps)
    # decimate keeps num_symbols outputs: from the response peak on, the rx
    # convolution holds at least num_symbols * sps samples
    margin = transient_margin(config, len(h_tx), len(h_rx))
    sl = slice(margin, config.num_symbols - margin)
    bypassed = QuantizationReport(noise_power=0.0, clip_fraction=0.0)
    dac_report = adc_report = bypassed if reports else None

    symbols = dsp.generate_symbols(config.num_symbols, mean_photon, config.seed)
    shaped = dsp.interpolate(symbols, h_tx.taps, sps)

    if config.dac is not None:
        # shaped dies here; with reports it holds the DAC's error
        after_dac, dac_clips = convert(shaped, config.dac, reports)
        if reports:
            dac_report = QuantizationReport(_mean_square(shaped), dac_clips)
    else:
        after_dac = shaped
    del shaped

    # with reports, the ADC-bypassed twin of rx at the kept symbols comes
    # from the LPF's own transforms
    twin_count = sl.stop - sl.start if reports and config.adc is not None else 0
    attenuated, twin = dsp.convolve(after_dac, lpf, np.sqrt(config.channel_transmittance),
                                    h_rx.taps, sps, isi.delay_index + margin * sps,
                                    twin_count)
    del after_dac

    if config.adc is not None:
        after_adc, adc_clips = convert(attenuated, config.adc, reports)
    else:
        after_adc = attenuated
    del attenuated
    rx = dsp.decimate(after_adc, h_rx.taps, sps, isi.delay_index, config.num_symbols)
    del after_adc
    if not np.all(np.isfinite(rx)):
        raise ValueError("chain output contains non-finite samples")
    if twin_count:
        adc_report = QuantizationReport(_mean_square(twin - rx[sl]), adc_clips)
    return ChainResult(tx_symbols=symbols[sl], rx_symbols=rx[sl],
                       dac_report=dac_report, adc_report=adc_report, isi=isi)


def estimate_parameters(tx_symbols: np.ndarray,
                        rx_symbols: np.ndarray) -> ParameterEstimate:
    """Infer (tau, n_ex) from aligned transmitted/received symbol pairs.

    sqrt(tau) is the real least-squares gain Re<y, x> / <x, x> and the excess
    noise estimate the residual power E|y - sqrt(tau) x|^2 in photon numbers
    at the receiver plane, all sums by ``_rail_dot``, which stays off threaded
    BLAS. Against ``mean(abs(residual) ** 2)`` that moves ``n_ex_hat`` only
    in rounding (at most 1e-14 relative).
    """
    tx, rx = np.asarray(tx_symbols, dtype=complex), np.asarray(rx_symbols, dtype=complex)
    if len(tx) != len(rx):
        raise ValueError(f"length mismatch: {len(tx)} vs {len(rx)}")
    if len(tx) < MIN_SYMBOL_PAIRS:
        raise ValueError(f"need at least {MIN_SYMBOL_PAIRS} symbol pairs, got {len(tx)}")
    gain = _rail_dot(tx, rx) / _rail_dot(tx, tx)
    return ParameterEstimate(tau_hat=gain * gain, n_ex_hat=_mean_square(rx - gain * tx))


def assemble_budget(config: LinkConfig, isi: IsiProfile, mean_photon: float,
                    dac_report: QuantizationReport,
                    adc_report: QuantizationReport) -> NoiseBudget:
    """Form the four-term excess-noise sum for one chain realization.

    n_ex = n_ch + tau_ch * n * isi_sum + tau_ch * n_d + n_a, with the DAC
    term attenuated by the channel and the remaining terms output-referred.

    The sum treats the DAC and ADC errors as additive noise independent of
    the signal and of each other (Widrow & Kollar's conditions), which
    fails below about 6 bits: at 3 bits (Delta = sigma at kappa = 4) the
    residual is ~11% above the sum (about 14 standard errors at 20k
    symbols), while at 6 bits and more it agrees within 3 standard errors.
    ``tests/test_link.py`` pins both sides of this limit.
    """
    tau_ch = config.channel_transmittance
    return NoiseBudget(
        channel=config.channel_excess_photons,
        isi=tau_ch * mean_photon * isi.isi_sum,
        dac=tau_ch * dac_report.noise_power,
        adc=adc_report.noise_power,
        transmittance=isi.c0_sq * tau_ch,
    )


def baseline_filters(config: LinkConfig) -> tuple[FirFilter, FirFilter]:
    """Truncated-RRC transmitter/receiver pair at the configured lengths."""
    return (dsp.truncated_rrc(config.tx_len, sps=config.sps),
            dsp.truncated_rrc(config.rx_len, sps=config.sps))

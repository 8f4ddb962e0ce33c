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
from .quantization import (QuantizationReport, QuantizerSpec, clip_fraction,
                           full_scale, measure_noise, quantize)


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
        if not self.channel_excess_photons >= 0:
            raise ValueError("channel_excess_photons must be >= 0")
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
    """Effective response and its symbol-spaced interference coefficients.

    coefficients[j] = z[delay_index + j * sps]; c0_sq is the useful-tap
    power |c_0|^2 and isi_sum the leaked power sum over j != 0.
    """

    response: np.ndarray
    delay_index: int
    coefficients: dict[int, float]
    c0_sq: float
    isi_sum: float


@dataclass(frozen=True)
class NoiseBudget:
    """The four output-referred excess-noise terms, in photon numbers."""

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
    """Aligned symbols plus the per-converter reports and the ISI profile."""

    tx_symbols: np.ndarray
    rx_symbols: np.ndarray
    dac_report: QuantizationReport
    adc_report: QuantizationReport
    isi: IsiProfile


def effective_response(h_tx: FirFilter, lpf: FirFilter, h_rx: FirFilter,
                       sps: int = 4) -> IsiProfile:
    """Convolve the deployed filters and sample the result at symbol spacing.

    The sampling phase is the peak of |z| (ties toward the smaller index)
    and the coefficient support covers the whole response.
    """
    z = np.convolve(np.convolve(h_tx.taps, h_rx.taps), lpf.taps)
    delay = int(np.argmax(np.abs(z)))
    first = -(delay // sps)  # j of the earliest symbol-spaced tap
    coeff = {first + k: float(v) for k, v in enumerate(z[delay % sps::sps])}
    c0_sq = coeff[0] ** 2
    isi_sum = float(sum(v * v for j, v in coeff.items() if j != 0))
    return IsiProfile(response=z, delay_index=delay, coefficients=coeff,
                      c0_sq=c0_sq, isi_sum=isi_sum)


def run_chain(config: LinkConfig, h_tx: FirFilter, h_rx: FirFilter,
              mean_photon: float) -> ChainResult:
    """Execute the full chain and return aligned tx/rx symbol pairs.

    Stages: symbols -> tx FIR at sps samples per symbol -> DAC -> LPF ->
    sqrt(tau_ch) loss -> ADC -> rx FIR. The effective response and the
    transient margin come first, so a block too short for the filters fails
    before any signal work. The tx FIR is ``dsp.interpolate``, which filters
    the symbols with the tap rows instead of the zero-stuffed samples; the
    LPF is filtered full-length by ``dsp.convolve`` (overlap-save at its 257
    taps), and the rx FIR by ``dsp.decimate``, evaluated only at the
    ``num_symbols`` symbol-spaced outputs from the response peak on. Each
    stage's input is released once the next stage has it.
    Converter full scales are frozen from their unquantized inputs, and both
    converter reports are built the same way: ``measure_noise`` of the
    converter's output against its reference and the clip fraction of its
    input. The DAC report is taken at the DAC plane; the ADC report compares
    the chain output against an ADC-bypassed twin, filtered by the rx FIR
    only when there is an ADC, so that it is referred to the symbol plane.
    A bypassed converter reports zero. Edge symbols inside the filter
    transient are trimmed. Non-finite received symbols raise ``ValueError``.
    """
    if not mean_photon > 0:
        raise ValueError(f"mean_photon must be positive, got {mean_photon}")
    sps = config.sps
    lpf = config.lpf_filter()
    isi = effective_response(h_tx, lpf, h_rx, sps)
    # decimate keeps num_symbols outputs: from the response peak on, the rx
    # convolution holds at least num_symbols * sps samples
    margin = int(np.ceil(len(isi.response) / sps))
    if config.num_symbols <= 2 * margin:
        raise ValueError(
            f"num_symbols={config.num_symbols} too small for the filter "
            f"transient ({margin} symbols per edge)")
    sl = slice(margin, config.num_symbols - margin)
    bypassed = QuantizationReport(noise_power=0.0, clip_fraction=0.0)

    symbols = dsp.generate_symbols(config.num_symbols, mean_photon, config.seed)
    shaped = dsp.interpolate(symbols, h_tx.taps, sps)

    if config.dac is not None:
        dac_scale = full_scale(shaped, config.dac)
        after_dac = quantize(shaped, config.dac, dac_scale)
        dac_report = QuantizationReport(measure_noise(after_dac, shaped),
                                        clip_fraction(shaped, dac_scale))
    else:
        after_dac = shaped
        dac_report = bypassed
    del shaped

    attenuated = dsp.convolve(after_dac, lpf)
    del after_dac
    attenuated *= np.sqrt(config.channel_transmittance)

    if config.adc is not None:
        adc_scale = full_scale(attenuated, config.adc)
        after_adc = quantize(attenuated, config.adc, adc_scale)
    else:
        after_adc = attenuated
    rx = dsp.decimate(after_adc, h_rx.taps, sps, isi.delay_index, config.num_symbols)
    del after_adc
    if not np.all(np.isfinite(rx)):
        raise ValueError("chain output contains non-finite samples")
    if config.adc is not None:
        twin = dsp.decimate(attenuated, h_rx.taps, sps, isi.delay_index,
                            config.num_symbols)
        adc_report = QuantizationReport(measure_noise(rx[sl], twin[sl]),
                                        clip_fraction(attenuated, adc_scale))
    else:
        adc_report = bypassed
    return ChainResult(tx_symbols=symbols[sl], rx_symbols=rx[sl],
                       dac_report=dac_report, adc_report=adc_report, isi=isi)


def estimate_parameters(tx_symbols: np.ndarray,
                        rx_symbols: np.ndarray) -> ParameterEstimate:
    """Infer (tau, n_ex) from aligned transmitted/received symbol pairs.

    sqrt(tau) is the real least-squares gain Re<y, x> / <x, x>; the excess
    noise estimate is the residual power E|y - sqrt(tau) x|^2 in photon
    numbers at the receiver plane.
    """
    tx = np.asarray(tx_symbols)
    rx = np.asarray(rx_symbols)
    if len(tx) != len(rx):
        raise ValueError(f"length mismatch: {len(tx)} vs {len(rx)}")
    if len(tx) < 1000:
        raise ValueError(f"need at least 1000 symbol pairs, got {len(tx)}")
    gain = float(np.real(np.vdot(tx, rx)) / np.real(np.vdot(tx, tx)))
    residual = rx - gain * tx
    return ParameterEstimate(tau_hat=gain * gain,
                             n_ex_hat=float(np.mean(np.abs(residual) ** 2)))


def assemble_budget(config: LinkConfig, isi: IsiProfile, mean_photon: float,
                    dac_report: QuantizationReport,
                    adc_report: QuantizationReport) -> NoiseBudget:
    """Form the four-term excess-noise sum for one chain realization.

    n_ex = n_ch + tau_ch * n * isi_sum + tau_ch * n_d + n_a, with the DAC
    term attenuated by the channel and the remaining terms output-referred.
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

import functools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_chain_reports, reference_isi

from cvqkdsim import dsp, link, quantization
from cvqkdsim.dsp import FirFilter, rrc_filter, truncated_rrc
from cvqkdsim.keyrate import SkrInputs
from cvqkdsim.link import (MAX_CHAIN_BYTES, BudgetError, IsiProfile, LinkConfig,
                           LpfConfig, ParameterEstimate, assemble_budget,
                           baseline_filters, chain_bytes, effective_response,
                           estimate_parameters, run_chain, transient_margin)
from cvqkdsim.quantization import CLIPPING_RANGE, MAX_BITS, QuantizationReport, QuantizerSpec


def _delta(n=1):
    taps = np.zeros(n)
    taps[n // 2] = 1.0
    return FirFilter(taps)


class TestEffectiveResponse:
    def test_delta_filters(self):
        prof = effective_response(FirFilter([1.0]), FirFilter([1.0]),
                                  FirFilter([1.0]))
        assert (prof.delay_index, prof.c0_sq, prof.isi_sum) == (0, 1.0, 0.0)

    def test_matched_long_rrc_without_lpf(self):
        h = rrc_filter(0.2, 50, 4)
        prof = effective_response(h, FirFilter([1.0]), h)
        assert prof.c0_sq > 0.999
        assert prof.isi_sum < 1e-3

    def test_truncated_pair_with_lpf_has_isi(self):
        # and the summary is the coefficient dict's, bit for bit, at the
        # pairs that the benchmark and the acceptance criteria run
        for tx_len, rx_len in [(11, 101), (41, 41), (1001, 1001)]:
            cfg = LinkConfig(tx_len=tx_len, rx_len=rx_len)
            h_tx, h_rx = baseline_filters(cfg)
            prof = effective_response(h_tx, cfg.lpf_filter(), h_rx)
            delay, _, c0_sq, isi_sum = reference_isi(h_tx.taps, cfg.lpf_filter().taps,
                                                     h_rx.taps, cfg.sps)
            assert (prof.delay_index, prof.c0_sq, prof.isi_sum) == (delay, c0_sq, isi_sum)
            assert prof.isi_sum > 0.0

    def test_cauchy_schwarz_bound_on_main_tap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h_tx = FirFilter(rng.normal(size=9)).unit_energy()
            h_rx = FirFilter(rng.normal(size=17)).unit_energy()
            prof = effective_response(h_tx, FirFilter([1.0]), h_rx)
            assert prof.c0_sq <= 1.0 + 1e-9
            delay, _, c0_sq, isi_sum = reference_isi(h_tx.taps, np.ones(1), h_rx.taps, 4)
            assert (prof.delay_index, prof.c0_sq, prof.isi_sum) == (delay, c0_sq, isi_sum)

    def test_scaling_covariance(self):
        h_tx = truncated_rrc(11)
        h_rx = truncated_rrc(41)
        gamma = 3.7
        base = effective_response(h_tx, FirFilter([1.0]), h_rx)
        scaled = effective_response(FirFilter(gamma * h_tx.taps), FirFilter([1.0]),
                                    FirFilter(h_rx.taps / gamma))
        assert scaled.delay_index == base.delay_index
        assert scaled.c0_sq == pytest.approx(base.c0_sq, abs=1e-12)
        assert scaled.isi_sum == pytest.approx(base.isi_sum, abs=1e-12)

    def test_nyquist_iff_no_symbol_spaced_leakage(self):
        # single-tap cascade: exactly Nyquist
        clean = effective_response(_delta(5), FirFilter([1.0]), _delta(5), sps=4)
        assert (clean.c0_sq, clean.isi_sum) == (1.0, 0.0)
        # two taps one symbol apart: leaks exactly there
        leaky = effective_response(FirFilter([1.0, 0.0, 0.0, 0.0, 0.5]),
                                   FirFilter([1.0]), FirFilter([1.0]), sps=4)
        assert (leaky.c0_sq, leaky.isi_sum) == (1.0, 0.25)


class TestRunChain:
    def test_near_transparent_chain(self):
        cfg = LinkConfig(distance_km=0.0, channel_excess_photons=0.0,
                         dac=QuantizerSpec(bits=16), adc=QuantizerSpec(bits=16),
                         tx_len=201, rx_len=201, num_symbols=20_000, seed=5)
        h = rrc_filter(0.2, 50, 4)
        res = run_chain(cfg, h, h, mean_photon=6.0)
        mse = np.mean(np.abs(res.rx_symbols - res.tx_symbols) ** 2)
        assert mse < 1e-3 * 6.0

    def test_hundred_km_power_ratio(self):
        cfg = LinkConfig(distance_km=100.0, attenuation_db_per_km=0.2,
                         dac=QuantizerSpec(bits=16), adc=QuantizerSpec(bits=16),
                         tx_len=201, rx_len=201, num_symbols=20_000, seed=6)
        h = rrc_filter(0.2, 50, 4)
        res = run_chain(cfg, h, h, mean_photon=6.0)
        ratio = (np.mean(np.abs(res.rx_symbols) ** 2)
                 / np.mean(np.abs(res.tx_symbols) ** 2))
        assert ratio == pytest.approx(res.isi.c0_sq * 1e-2, rel=0.05)

    def test_bit_identical_across_runs(self):
        cfg = LinkConfig(distance_km=20.0, num_symbols=5_000, seed=9,
                         tx_len=11, rx_len=41)
        h_tx, h_rx = baseline_filters(cfg)
        one = run_chain(cfg, h_tx, h_rx, 4.0)
        two = run_chain(cfg, h_tx, h_rx, 4.0)
        np.testing.assert_array_equal(one.rx_symbols, two.rx_symbols)
        assert one.dac_report == two.dac_report
        assert one.adc_report == two.adc_report

    def test_rejects_bad_mean_photon(self):
        cfg = LinkConfig(num_symbols=5_000)
        h_tx, h_rx = baseline_filters(cfg)
        with pytest.raises(ValueError):
            run_chain(cfg, h_tx, h_rx, 0.0)

    def test_rejects_nan_mean_photon(self):
        cfg = LinkConfig(num_symbols=5_000)
        h_tx, h_rx = baseline_filters(cfg)
        with pytest.raises(ValueError, match="mean_photon"):
            run_chain(cfg, h_tx, h_rx, float("nan"))

    @pytest.mark.parametrize("bypass,reports", [
        ({}, True), ({"dac": None, "adc": None}, True),
        ({"dac": None, "adc": None}, False)],
        ids=["converters", "no_converters", "no_converters_no_reports"])
    def test_rejects_nonfinite_output(self, bypass, reports):
        # caught by the DAC's full scale, or without converters by the
        # chain's finite check at its output, which runs without reports too
        cfg = LinkConfig(num_symbols=5_000, tx_len=11, rx_len=41, **bypass)
        h_tx, h_rx = baseline_filters(cfg)
        with pytest.raises(ValueError, match="non-finite"):
            run_chain(cfg, h_tx, h_rx, np.inf, reports=reports)

    def test_rejects_short_blocks(self):
        cfg = LinkConfig(num_symbols=100, tx_len=11, rx_len=101)
        h_tx, h_rx = baseline_filters(cfg)
        with pytest.raises(ValueError):
            run_chain(cfg, h_tx, h_rx, 6.0)

    def test_short_block_fails_before_any_signal_work(self, monkeypatch):
        # the transient margin needs only the filters, so no symbol is drawn
        def no_symbols(*args, **kwargs):
            raise AssertionError("symbols were drawn")
        monkeypatch.setattr(dsp, "generate_symbols", no_symbols)
        cfg = LinkConfig(num_symbols=184, tx_len=11, rx_len=101)
        with pytest.raises(ValueError, match="transient"):
            run_chain(cfg, *baseline_filters(cfg), 6.0)

    def test_rejects_lpf_longer_than_block_before_design(self, monkeypatch):
        # no such chain passes the transient check, and a huge num_taps
        # would build its design grid while the config loads
        def no_design(*args, **kwargs):
            raise AssertionError("the LPF was designed")
        monkeypatch.setattr(dsp, "super_gaussian_lpf", no_design)
        with pytest.raises(ValueError, match="lpf.num_taps=4001"):
            LinkConfig(num_symbols=1000, sps=4, lpf=LpfConfig(num_taps=4001))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(num_symbols=st.integers(1_500, 4_000), sps=st.sampled_from([2, 4]),
           tx_len=st.integers(1, 41), rx_len=st.integers(1, 61),
           lpf_taps=st.sampled_from([33, 65, 257]),
           bits=st.one_of(st.none(), st.integers(3, 14)),
           distance_km=st.floats(0.0, 150.0), seed=st.integers(0, 2**32 - 1),
           n0=st.floats(0.05, 20.0), n=st.floats(0.01, 100.0))
    # the strategy's ends, whatever constants hypothesis mines: the shortest
    # block at 2 samples per symbol with one-tap filters, the fewest bits
    # and the smallest photon numbers, then the longest block, filters and
    # most bits at the largest ones, and both photon ratios' extremes
    @example(num_symbols=1_500, sps=2, tx_len=1, rx_len=1, lpf_taps=33, bits=3,
             distance_km=0.0, seed=0, n0=0.05, n=0.01)
    @example(num_symbols=4_000, sps=4, tx_len=41, rx_len=61, lpf_taps=257, bits=14,
             distance_km=150.0, seed=2**32 - 1, n0=20.0, n=100.0)
    @example(num_symbols=1_500, sps=2, tx_len=41, rx_len=61, lpf_taps=257, bits=None,
             distance_km=150.0, seed=1, n0=0.05, n=100.0)
    @example(num_symbols=4_000, sps=4, tx_len=1, rx_len=1, lpf_taps=33, bits=14,
             distance_km=0.0, seed=2, n0=20.0, n=0.01)
    def test_homogeneous_in_amplitude(self, num_symbols, sps, tx_len, rx_len,
                                      lpf_taps, bits, distance_km, seed, n0, n):
        # the symbol draw is one standard-normal block scaled by sqrt(n / 2),
        # the filters and the loss are linear, and the converters load their
        # full scale from the signal, so every sample scales by sqrt(n / n0)
        # and x / Delta is unchanged up to a few ulp. The one exception: a
        # quantizer decision flips when x / Delta sits within a few ulp of a
        # level edge; no drawn example hits one.
        quant = QuantizerSpec(bits) if bits is not None else None
        cfg = LinkConfig(distance_km=distance_km, sps=sps, lpf=LpfConfig(num_taps=lpf_taps),
                         dac=quant, adc=quant, tx_len=tx_len, rx_len=rx_len,
                         num_symbols=num_symbols, seed=seed)
        h_tx, h_rx = baseline_filters(cfg)
        base = run_chain(cfg, h_tx, h_rx, n0)
        res = run_chain(cfg, h_tx, h_rx, n)
        gain = np.sqrt(n / n0)
        for got, ref in ((res.tx_symbols, base.tx_symbols),
                         (res.rx_symbols, base.rx_symbols)):
            peak = np.max(np.abs(got))
            assert np.max(np.abs(got - gain * ref)) <= 1e-12 * peak
        assert (res.isi.c0_sq, res.isi.isi_sum) == (base.isi.c0_sq, base.isi.isi_sum)
        for got, ref in ((res.dac_report, base.dac_report),
                         (res.adc_report, base.adc_report)):
            assert got.noise_power == pytest.approx(ref.noise_power * n / n0,
                                                    rel=1e-9)

    def test_each_filter_spectrum_is_computed_once(self, monkeypatch):
        # every filter spectrum comes from dsp._tap_spectra, memoized by the
        # taps' bytes: two chains of one config (here on two seeds, as a
        # batch's episodes share the filters) transform the LPF's combined
        # response with the rx filter, which forms the ADC-bypassed twin,
        # the LPF and the rx filter once each, and two interpolate calls the
        # 1001-tap tx filter once; the 11-tap tx filter takes no spectrum
        computed, made = [], []
        spectra = dsp._spectra.__wrapped__

        def counting(taps, sps, nfft):
            computed.append((len(np.frombuffer(taps)), sps))
            made.append(spectra(taps, sps, nfft))
            return made[-1]

        monkeypatch.setattr(dsp, "_spectra", functools.lru_cache(
            **dsp._spectra.cache_parameters())(counting))
        cfg = LinkConfig(distance_km=30.0, num_symbols=5_000, tx_len=11, rx_len=41)
        h_tx, h_rx = baseline_filters(cfg)
        for seed in (1, 2):
            run_chain(replace(cfg, seed=seed), h_tx, h_rx, 3.0)
        lpf = len(cfg.lpf_filter())
        assert computed == [(lpf + len(h_rx) - 1, 1), (lpf, 1), (len(h_rx), cfg.sps)]

        tx = truncated_rrc(1001).taps
        symbols = dsp.generate_symbols(2_000, 3.0, seed=4)
        first = dsp.interpolate(symbols, tx, cfg.sps)
        again = dsp.interpolate(symbols, tx, cfg.sps)
        assert computed.count((len(tx), 1)) == 1
        assert again.tobytes() == first.tobytes()

        # a hit is keyed by content, not identity, and gives the first bits
        spectrum = dsp._tap_spectra(h_rx.taps, cfg.sps)
        assert dsp._tap_spectra(h_rx.taps.copy(), cfg.sps).tobytes() == \
            spectrum.tobytes() == made[2].tobytes()
        assert len(computed) == 4
        assert not any(a.flags.writeable for a in made)

    def test_quantizers_can_be_bypassed(self):
        cfg = LinkConfig(distance_km=10.0, dac=None, adc=None,
                         num_symbols=5_000, tx_len=11, rx_len=41, seed=2)
        h_tx, h_rx = baseline_filters(cfg)
        res = run_chain(cfg, h_tx, h_rx, 6.0)
        assert res.dac_report.noise_power == 0.0
        assert res.adc_report.noise_power == 0.0

    def test_without_adc_the_rx_filter_runs_once(self, monkeypatch):
        # no ADC error is filtered when there is no ADC to measure
        rx_calls = []
        decimate = dsp.decimate

        def counting(sig, taps, sps, start, count):
            if sps > 1:
                rx_calls.append(start)
            return decimate(sig, taps, sps, start, count)

        monkeypatch.setattr(dsp, "decimate", counting)
        cfg = LinkConfig(distance_km=10.0, adc=None, num_symbols=5_000,
                         tx_len=11, rx_len=41, seed=2)
        res = run_chain(cfg, *baseline_filters(cfg), 6.0)
        assert len(rx_calls) == 1
        assert res.adc_report == QuantizationReport(noise_power=0.0)

    @pytest.mark.parametrize("overrides", [
        {}, {"dac": None}, {"adc": None},
        {"dac": QuantizerSpec(bits=16), "adc": QuantizerSpec(bits=16),
         "tx_len": 1001, "rx_len": 1001}],
        ids=["10_bit", "no_dac", "no_adc", "1001_taps_16_bit"])
    def test_without_reports_symbols_match_bit_for_bit(self, monkeypatch, overrides):
        # the converters still load and quantize, and decimate filters each
        # signal on its own, so dropping the reports and the filtered ADC
        # error changes no bit
        cfg = LinkConfig(distance_km=30.0, num_symbols=5_000, seed=4, **overrides)
        h_tx, h_rx = baseline_filters(cfg)
        full = run_chain(cfg, h_tx, h_rx, 3.0)
        calls = []
        decimate = dsp.decimate

        def counting(sig, taps, sps, start, count):
            if sps > 1:
                calls.append("rx")
            return decimate(sig, taps, sps, start, count)

        monkeypatch.setattr(dsp, "decimate", counting)
        monkeypatch.setattr(link, "_mean_square", lambda *a: calls.append("mean_square"))
        convert = link.convert

        def converting(sig, spec, reports=False):
            calls.append(("convert", reports))
            return convert(sig, spec, reports)

        monkeypatch.setattr(link, "convert", converting)
        bare = run_chain(cfg, h_tx, h_rx, 3.0, reports=False)
        converters = (cfg.dac is not None) + (cfg.adc is not None)
        # no error filtered, no mean square, and no converter does report work
        assert calls == [("convert", False)] * converters + ["rx"]
        assert (bare.dac_report, bare.adc_report) == (None, None)
        np.testing.assert_array_equal(bare.tx_symbols, full.tx_symbols)
        np.testing.assert_array_equal(bare.rx_symbols, full.rx_symbols)
        assert bare.isi == full.isi


class TestChainReports:
    @pytest.mark.parametrize("overrides", [
        {}, {"dac": QuantizerSpec(bits=4), "adc": QuantizerSpec(bits=4)},
        {"adc": None}, {"dac": None},
        {"dac": QuantizerSpec(bits=16), "adc": QuantizerSpec(bits=16),
         "tx_len": 1001, "rx_len": 1001}],
        ids=["10_bit", "4_bit", "dac_only", "adc_only", "1001_taps_16_bit"])
    def test_match_their_definition(self, overrides):
        # the chain takes the DAC's noise as the mean square of its signed
        # error and the ADC's as rx minus the LPF pass's ADC-bypassed twin;
        # the oracle takes the DAC's against its input and the ADC's as rx
        # minus a twin filtered without the ADC, so they agree to rounding
        # (5e-13 at worst here)
        cfg = LinkConfig(**{**dict(distance_km=30.0, tx_len=11, rx_len=101,
                                   num_symbols=3_000, seed=8), **overrides})
        h_tx, h_rx = baseline_filters(cfg)
        res = run_chain(cfg, h_tx, h_rx, 3.0)
        dac_noise, adc_noise = reference_chain_reports(cfg, h_tx.taps, h_rx.taps, 3.0)
        assert res.dac_report.noise_power == pytest.approx(dac_noise, rel=1e-9, abs=0)
        assert res.adc_report.noise_power == pytest.approx(adc_noise, rel=1e-9, abs=0)
        for spec, noise in ((cfg.dac, dac_noise), (cfg.adc, adc_noise)):
            assert (noise > 0) == (spec is not None)

    def test_one_mean_square_per_converter(self, monkeypatch):
        # every sum of the chain is one _rail_dot: each converter's load,
        # the DAC's error at its output (inside its convert call), and rx
        # minus its ADC-bypassed twin over the kept symbols
        sums = []
        rail_dot = quantization._rail_dot
        monkeypatch.setattr(quantization, "_rail_dot",
                            lambda x, y: sums.append(len(x)) or rail_dot(x, y))
        monkeypatch.setattr(link, "measure_noise", None)
        cfg = LinkConfig(distance_km=10.0, num_symbols=5_000, tx_len=11, rx_len=41)
        res = run_chain(cfg, *baseline_filters(cfg), 6.0)
        shaped = 5_000 * cfg.sps + 10
        attenuated = shaped + cfg.lpf.num_taps - 1
        assert sums == [2 * shaped, 2 * shaped, 2 * attenuated, len(res.rx_symbols)]

    def test_only_the_dac_converts_with_reports(self, monkeypatch):
        # the DAC's report comes from its convert call, and the ADC's from
        # the twin, so the ADC converts without forming its error; the
        # reward chain asks neither converter for a report
        calls = []
        convert = link.convert

        def converting(sig, spec, reports=False):
            calls.append((spec.bits, reports))
            return convert(sig, spec, reports)

        monkeypatch.setattr(link, "convert", converting)
        cfg = LinkConfig(distance_km=10.0, num_symbols=5_000, tx_len=11, rx_len=41,
                         dac=QuantizerSpec(bits=8), adc=QuantizerSpec(bits=6))
        h_tx, h_rx = baseline_filters(cfg)
        res = run_chain(cfg, h_tx, h_rx, 6.0)
        assert calls == [(8, True), (6, False)]
        assert res.dac_report.noise_power > 0 and res.adc_report.noise_power > 0
        calls.clear()
        run_chain(cfg, h_tx, h_rx, 6.0, reports=False)
        assert calls == [(8, False), (6, False)]


class TestTransientMargin:
    @pytest.mark.parametrize("tx_len,rx_len,lpf_taps,sps", [
        (11, 101, 257, 4), (1001, 1001, 257, 4), (1, 1, 33, 2), (11, 21, 65, 4)])
    def test_is_the_effective_response_in_symbols(self, tx_len, rx_len, lpf_taps, sps):
        cfg = LinkConfig(num_symbols=10_000, sps=sps, lpf=LpfConfig(num_taps=lpf_taps))
        z = np.convolve(np.convolve(np.ones(tx_len), np.ones(rx_len)), cfg.lpf_filter().taps)
        assert transient_margin(cfg, tx_len, rx_len) == int(np.ceil(len(z) / sps))

    def test_rejects_block_without_kept_symbols(self):
        # 11/101 taps with the 257-tap LPF: ceil(367 / 4) = 92 symbols per
        # edge, and the estimate needs 1000 kept symbols: 1184 at least
        with pytest.raises(ValueError, match=r"num_symbols=1183 .*\(92 symbols per edge\): "
                                             r"it keeps 999 symbols, .* at least 1000"):
            transient_margin(LinkConfig(num_symbols=1183), 11, 101)
        assert transient_margin(LinkConfig(num_symbols=1184), 11, 101) == 92


class TestChainBytes:
    # the default link at 100k symbols, then the shortest blocks that the
    # transient admits for long filters, a long LPF at 16 samples per symbol
    # and one sample per symbol, where the overlap-save frames dominate
    @pytest.mark.parametrize("num_symbols,sps,tx_len,rx_len,lpf_taps,least", [
        (100_000, 4, 11, 101, 257, 0.85), (3_000, 4, 1001, 1001, 257, 0.0),
        (1_186, 16, 11, 11, 1457, 0.0), (2_238, 1, 182, 182, 257, 0.0)])
    def test_bounds_the_traced_peak(self, num_symbols, sps, tx_len, rx_len,
                                    lpf_taps, least):
        cfg = LinkConfig(num_symbols=num_symbols, sps=sps, tx_len=tx_len,
                         rx_len=rx_len, lpf=LpfConfig(num_taps=lpf_taps), seed=3)
        h_tx, h_rx = baseline_filters(cfg)
        run_chain(replace(cfg, seed=4), h_tx, h_rx, 2.0)  # first-call allocations
        dsp._standard_block.cache_clear()  # the symbol block counts
        dsp._spectra.cache_clear()  # and so do the tap spectra
        tracemalloc.start()
        try:
            run_chain(cfg, h_tx, h_rx, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert least * chain_bytes(cfg, tx_len, rx_len) <= peak <= \
            chain_bytes(cfg, tx_len, rx_len)

    def test_refuses_a_block_over_the_budget(self):
        cfg = LinkConfig()
        taps = cfg.tx_len + cfg.rx_len + cfg.lpf.num_taps
        most = (MAX_CHAIN_BYTES - 1536 * taps) // (44 * (cfg.sps + 1))
        assert chain_bytes(replace(cfg, num_symbols=most), 11, 101) <= MAX_CHAIN_BYTES
        with pytest.raises(BudgetError, match=rf"num_symbols={most + 1} at sps=4 with "
                                              r"11/101/257 tx/rx/LPF taps .* over the "
                                              r"budget of 4096 MiB"):
            chain_bytes(replace(cfg, num_symbols=most + 1), 11, 101)

    def test_refuses_an_effective_response_over_the_budget(self):
        # 65000^2 + 129999 * 257 multiply-adds fit in 2^32; 65600^2 do not
        cfg = LinkConfig()
        chain_bytes(cfg, 65_000, 65_000)
        with pytest.raises(BudgetError, match="65600/65600/257 tx/rx/LPF taps take "
                                              "4337078143 multiply-adds"):
            chain_bytes(cfg, 65_600, 65_600)


class TestEstimateParameters:
    def test_identity_channel(self):
        x = np.asarray((np.random.default_rng(1).normal(size=2000)
                        + 1j * np.random.default_rng(2).normal(size=2000)))
        est = estimate_parameters(x, x)
        assert est.tau_hat == pytest.approx(1.0, abs=1e-12)
        assert est.n_ex_hat == pytest.approx(0.0, abs=1e-12)

    def test_pure_scaling(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        est = estimate_parameters(x, 0.5 * x)
        assert est.tau_hat == pytest.approx(0.25, abs=1e-12)
        assert est.n_ex_hat == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(4)
        n = 1_000_000
        x = np.sqrt(6.0 / 2) * (rng.normal(size=n) + 1j * rng.normal(size=n))
        g = np.sqrt(1e-3 / 2) * (rng.normal(size=n) + 1j * rng.normal(size=n))
        y = np.sqrt(0.01) * x + g
        est = estimate_parameters(x, y)
        assert est.tau_hat == pytest.approx(0.01, rel=0.01)
        assert est.n_ex_hat == pytest.approx(1e-3, rel=0.05)

    def test_real_and_complex_symbols_mix(self):
        # the sums run over float rails, so real symbols count as complex
        rng = np.random.default_rng(5)
        x = rng.normal(size=2000)
        est = estimate_parameters(x, 0.5 * x + 1e-3j * rng.normal(size=2000))
        assert est.tau_hat == pytest.approx(0.25, rel=1e-12)
        assert est.n_ex_hat == pytest.approx(1e-6, rel=0.1)

    def test_negative_raw_estimate_is_clipped_for_reward(self):
        est = type(estimate_parameters(np.ones(1000) + 0j, np.ones(1000) + 0j))(
            tau_hat=0.5, n_ex_hat=-1e-9)
        assert est.n_ex_clipped == 0.0
        assert est.n_ex_hat == -1e-9

    @pytest.mark.parametrize("tau_hat,n_ex_hat,tau,n_ex", [
        (1.2, -1e-9, 1.0, 1e-3), (0.5, 2e-3, 0.5, 3e-3)])
    def test_key_rate_inputs_cap_tau_and_clip_noise(self, tau_hat, n_ex_hat,
                                                     tau, n_ex):
        est = ParameterEstimate(tau_hat=tau_hat, n_ex_hat=n_ex_hat)
        assert est.key_rate_inputs(2.0, 1e-3, beta=0.95) == \
            SkrInputs(mean_photon=2.0, transmittance=tau, excess_photons=n_ex,
                      beta=0.95)

    def test_rejects_too_few_symbols(self):
        with pytest.raises(ValueError):
            estimate_parameters(np.ones(10) + 0j, np.ones(10) + 0j)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            estimate_parameters(np.ones(1500) + 0j, np.ones(1501) + 0j)


class TestAssembleBudget:
    def _profile(self, c0_sq, isi_sum):
        return IsiProfile(delay_index=0, c0_sq=c0_sq, isi_sum=isi_sum)

    def test_direct_evaluation(self):
        cfg = LinkConfig(distance_km=100.0, channel_excess_photons=1e-3)
        budget = assemble_budget(cfg, self._profile(1.0, 0.01), 6.0,
                                 QuantizationReport(0.0), QuantizationReport(0.0))
        assert budget.total == pytest.approx(1e-3 + 0.01 * 6 * 0.01, abs=1e-15)

    def test_empty_budget(self):
        cfg = LinkConfig(distance_km=0.0, channel_excess_photons=0.0)
        budget = assemble_budget(cfg, self._profile(1.0, 0.0), 6.0,
                                 QuantizationReport(0.0), QuantizationReport(0.0))
        assert budget.total == 0.0

    def test_channel_noise_passthrough(self):
        cfg = LinkConfig(distance_km=0.0, channel_excess_photons=1e-4)
        budget = assemble_budget(cfg, self._profile(1.0, 0.0), 6.0,
                                 QuantizationReport(0.0), QuantizationReport(0.0))
        assert budget.total == pytest.approx(1e-4, abs=1e-18)

    def test_total_is_sum_of_terms(self):
        cfg = LinkConfig(distance_km=50.0, channel_excess_photons=1e-3)
        budget = assemble_budget(cfg, self._profile(0.99, 0.005), 4.0,
                                 QuantizationReport(2e-4), QuantizationReport(1e-5))
        assert budget.total == budget.channel + budget.isi + budget.dac + budget.adc
        assert min(budget.channel, budget.isi, budget.dac, budget.adc) >= 0.0

    def test_effective_transmittance(self):
        cfg = LinkConfig(distance_km=100.0)
        budget = assemble_budget(cfg, self._profile(0.96, 0.0), 6.0,
                                 QuantizationReport(0.0), QuantizationReport(0.0))
        assert budget.transmittance == pytest.approx(0.96 * 1e-2, abs=1e-12)

    def test_transmittance_monotone_in_distance(self):
        taus = [LinkConfig(distance_km=d).channel_transmittance
                for d in (0, 10, 50, 100, 200)]
        assert all(b < a for a, b in zip(taus, taus[1:]))


class TestBudgetConsistency:
    def test_residual_matches_analytic_budget(self):
        # the module's core cross-check: Monte-Carlo residual vs Eq-style
        # analytic terms, with the ISI prediction at the realized block power
        cfg = LinkConfig(distance_km=50.0, channel_excess_photons=1e-3,
                         dac=QuantizerSpec(bits=8), adc=QuantizerSpec(bits=8),
                         tx_len=11, rx_len=101, num_symbols=100_000, seed=12)
        h_tx, h_rx = baseline_filters(cfg)
        res = run_chain(cfg, h_tx, h_rx, 6.0)
        est = estimate_parameters(res.tx_symbols, res.rx_symbols)
        budget = assemble_budget(cfg, res.isi, 6.0, res.dac_report, res.adc_report)

        tau_pred = res.isi.c0_sq * cfg.channel_transmittance
        assert est.tau_hat == pytest.approx(tau_pred, rel=0.02)

        block_power = np.mean(np.abs(res.tx_symbols) ** 2)
        predicted = (cfg.channel_transmittance * block_power * res.isi.isi_sum
                     + budget.dac + budget.adc)
        residual = res.rx_symbols - np.sqrt(est.tau_hat) * res.tx_symbols
        se = np.std(np.abs(residual) ** 2) / np.sqrt(len(residual))
        assert abs(est.n_ex_hat - predicted) < 3.0 * se

    @pytest.mark.parametrize("bits,holds", [(3, False), (8, True)])
    def test_budget_stops_adding_up_below_six_bits(self, bits, holds):
        # the four-term budget treats the converter errors as independent
        # of the signal and of each other; at 3 bits (Delta = sigma at
        # kappa = 4) they are not, and the residual exceeds the budget by
        # ~14 SE here (z as in acceptance criterion 4). The limit is stated
        # in assemble_budget's and NoiseBudget's docstrings and in README.
        cfg = LinkConfig(distance_km=50.0, channel_excess_photons=1e-3,
                         dac=QuantizerSpec(bits=bits), adc=QuantizerSpec(bits=bits),
                         tx_len=11, rx_len=101, num_symbols=20_000, seed=5)
        res = run_chain(cfg, *baseline_filters(cfg), 6.0)
        est = estimate_parameters(res.tx_symbols, res.rx_symbols)
        budget = assemble_budget(cfg, res.isi, 6.0, res.dac_report, res.adc_report)
        block_power = np.mean(np.abs(res.tx_symbols) ** 2)
        predicted = (cfg.channel_transmittance * block_power * res.isi.isi_sum
                     + budget.dac + budget.adc)
        residual = res.rx_symbols - np.sqrt(est.tau_hat) * res.tx_symbols
        z = (est.n_ex_hat - predicted) / (np.std(np.abs(residual) ** 2)
                                          / np.sqrt(len(residual)))
        if holds:
            assert abs(z) <= 3.0
        else:
            assert z > 5.0


# quantizers from the valid ranges and far outside them: bits past the 53 at
# which the levels stop being exact (from 1024 on, 1 << bits overflows a
# float), and loading factors over the floats' whole exponent range
_any_quantizer = st.none() | st.tuples(
    st.integers(1, MAX_BITS) | st.integers(MAX_BITS + 1, 1100),
    st.floats(*CLIPPING_RANGE) | st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e))


class TestEveryLinkThatConstructsRuns:
    def test_transmittance_underflow_is_refused_naming_the_loss(self):
        # 1e5 km at 0.2 dB/km is a 20000 dB loss, a transmittance of 0.0
        with pytest.raises(ValueError, match=r"distance_km=100000.0 at "
                                             r"attenuation_db_per_km=0.2 .* 20000 dB"):
            LinkConfig(distance_km=1e5)
        # the last whole kilometre whose transmittance is a normal float
        assert LinkConfig(distance_km=15_382).channel_transmittance >= link.MIN_TRANSMITTANCE
        with pytest.raises(ValueError, match="smallest normal float"):
            LinkConfig(distance_km=15_383)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(distance_km=st.floats(0.0, 20_000.0), attenuation=st.floats(0.0, 0.4),
           dac=_any_quantizer, adc=_any_quantizer,
           lpf=st.builds(LpfConfig, order=st.integers(1, 8),
                         bandwidth_norm=st.floats(0.05, 2.0),
                         num_taps=st.integers(0, 32).map(lambda k: 2 * k + 1)),
           sps=st.integers(1, 8), tx_len=st.integers(1, 21), rx_len=st.integers(1, 41),
           num_symbols=st.integers(1_300, 2_500), seed=st.integers(0, 2**32 - 1),
           n=st.floats(0.05, 50.0))
    # the ends of the valid ranges, together, then the links the range checks
    # refuse: each of these constructed before and failed in its chain
    @example(distance_km=15_382.0, attenuation=0.2, dac=(MAX_BITS, CLIPPING_RANGE[0]),
             adc=(MAX_BITS, CLIPPING_RANGE[1]), lpf=LpfConfig(num_taps=65), sps=4,
             tx_len=11, rx_len=41, num_symbols=2_000, seed=1, n=0.05)
    @example(distance_km=15_382.0, attenuation=0.2, dac=(1, CLIPPING_RANGE[1]),
             adc=(1, CLIPPING_RANGE[0]), lpf=LpfConfig(num_taps=65), sps=4,
             tx_len=11, rx_len=41, num_symbols=2_000, seed=1, n=50.0)
    @example(distance_km=0.0, attenuation=0.2, dac=(1100, 4.0), adc=(10, 4.0),
             lpf=LpfConfig(num_taps=65), sps=4, tx_len=11, rx_len=41,
             num_symbols=2_000, seed=1, n=2.0)
    @example(distance_km=0.0, attenuation=0.2, dac=(10, 1e-300), adc=(10, 1e300),
             lpf=LpfConfig(num_taps=65), sps=4, tx_len=11, rx_len=41,
             num_symbols=2_000, seed=1, n=2.0)
    @example(distance_km=1e5, attenuation=0.2, dac=(10, 4.0), adc=(10, 4.0),
             lpf=LpfConfig(num_taps=65), sps=4, tx_len=11, rx_len=41,
             num_symbols=2_000, seed=1, n=2.0)
    def test_runs_with_finite_outputs_and_no_warning(self, distance_km, attenuation,
                                                     dac, adc, lpf, sps, tx_len,
                                                     rx_len, num_symbols, seed, n):
        # a link that constructs runs, with and without reports: the
        # blocks drawn keep the estimator's pairs past every transient
        try:
            cfg = LinkConfig(distance_km=distance_km, attenuation_db_per_km=attenuation,
                             dac=dac and QuantizerSpec(*dac), adc=adc and QuantizerSpec(*adc),
                             lpf=lpf, sps=sps, tx_len=tx_len, rx_len=rx_len,
                             num_symbols=num_symbols, seed=seed)
        except ValueError:
            return
        h_tx, h_rx = baseline_filters(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for reports in (False, True):
                res = run_chain(cfg, h_tx, h_rx, n, reports)
                est = estimate_parameters(res.tx_symbols, res.rx_symbols)
                values = [res.isi.c0_sq, res.isi.isi_sum, est.tau_hat, est.n_ex_hat]
                if reports:
                    values += [res.dac_report.noise_power, res.adc_report.noise_power]
                assert np.all(np.isfinite(res.rx_symbols))
                assert np.all(np.isfinite(values))

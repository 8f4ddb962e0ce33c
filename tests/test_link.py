import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim import dsp
from cvqkdsim.dsp import FirFilter, rrc_filter, truncated_rrc
from cvqkdsim.keyrate import SkrInputs
from cvqkdsim.link import (IsiProfile, LinkConfig, LpfConfig, ParameterEstimate,
                           assemble_budget, baseline_filters, effective_response,
                           estimate_parameters, run_chain)
from cvqkdsim.quantization import QuantizationReport, QuantizerSpec


def _delta(n=1):
    taps = np.zeros(n)
    taps[n // 2] = 1.0
    return FirFilter(taps)


class TestEffectiveResponse:
    def test_delta_filters(self):
        prof = effective_response(FirFilter([1.0]), FirFilter([1.0]),
                                  FirFilter([1.0]))
        np.testing.assert_array_equal(prof.response, [1.0])
        assert prof.coefficients[0] == 1.0
        assert prof.isi_sum == 0.0

    def test_matched_long_rrc_without_lpf(self):
        h = rrc_filter(0.2, 50, 4)
        prof = effective_response(h, FirFilter([1.0]), h)
        assert prof.c0_sq > 0.999
        assert prof.isi_sum < 1e-3

    def test_truncated_pair_with_lpf_has_isi(self):
        cfg = LinkConfig(tx_len=11, rx_len=101)
        h_tx, h_rx = baseline_filters(cfg)
        prof = effective_response(h_tx, cfg.lpf_filter(), h_rx)
        assert prof.isi_sum > 0.0

    def test_cauchy_schwarz_bound_on_main_tap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h_tx = FirFilter(rng.normal(size=9)).unit_energy()
            h_rx = FirFilter(rng.normal(size=17)).unit_energy()
            prof = effective_response(h_tx, FirFilter([1.0]), h_rx)
            assert prof.c0_sq <= 1.0 + 1e-9

    def test_scaling_covariance(self):
        h_tx = truncated_rrc(11)
        h_rx = truncated_rrc(41)
        gamma = 3.7
        base = effective_response(h_tx, FirFilter([1.0]), h_rx)
        scaled = effective_response(FirFilter(gamma * h_tx.taps), FirFilter([1.0]),
                                    FirFilter(h_rx.taps / gamma))
        for j, value in base.coefficients.items():
            assert scaled.coefficients[j] == pytest.approx(value, abs=1e-12)

    def test_nyquist_iff_no_symbol_spaced_leakage(self):
        # single-tap cascade: exactly Nyquist
        clean = effective_response(_delta(5), FirFilter([1.0]), _delta(5), sps=4)
        assert clean.isi_sum <= 1e-12
        off = clean.delay_index
        for j, val in clean.coefficients.items():
            if j != 0:
                assert abs(val) <= 1e-12
        # two taps one symbol apart: leaks exactly there
        leaky = effective_response(FirFilter([1.0, 0.0, 0.0, 0.0, 0.5]),
                                   FirFilter([1.0]), FirFilter([1.0]), sps=4)
        assert leaky.isi_sum > 1e-3
        assert any(abs(v) > 1e-3 for j, v in leaky.coefficients.items() if j != 0)


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

    @pytest.mark.parametrize("bypass", [{}, {"dac": None, "adc": None}],
                             ids=["converters", "no_converters"])
    def test_rejects_nonfinite_output(self, bypass):
        # caught by the DAC's full scale, or without converters by the
        # chain's finite check at its output
        cfg = LinkConfig(num_symbols=5_000, tx_len=11, rx_len=41, **bypass)
        h_tx, h_rx = baseline_filters(cfg)
        with pytest.raises(ValueError, match="non-finite"):
            run_chain(cfg, h_tx, h_rx, np.inf)

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
    def test_homogeneous_in_amplitude(self, num_symbols, sps, tx_len, rx_len,
                                      lpf_taps, bits, distance_km, seed, n0, n):
        # the symbol draw is one standard-normal block scaled by sqrt(n / 2),
        # the filters and the loss are linear, and the converters load their
        # full scale from the signal, so every sample scales by sqrt(n / n0)
        # and x / Delta is unchanged up to a few ulp. The one exception: a
        # quantizer decision (or a clip test) flips when x / Delta sits
        # within a few ulp of a level edge; no drawn example hits one.
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
            assert got.clip_fraction == ref.clip_fraction
            assert got.noise_power == pytest.approx(ref.noise_power * n / n0,
                                                    rel=1e-9)

    def test_quantizers_can_be_bypassed(self):
        cfg = LinkConfig(distance_km=10.0, dac=None, adc=None,
                         num_symbols=5_000, tx_len=11, rx_len=41, seed=2)
        h_tx, h_rx = baseline_filters(cfg)
        res = run_chain(cfg, h_tx, h_rx, 6.0)
        assert res.dac_report.noise_power == 0.0
        assert res.adc_report.noise_power == 0.0

    def test_without_adc_the_rx_filter_runs_once(self, monkeypatch):
        # no ADC-bypassed twin is filtered when there is no ADC to measure
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
        assert res.adc_report == QuantizationReport(noise_power=0.0, clip_fraction=0.0)


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
        return IsiProfile(response=np.array([1.0]), delay_index=0,
                          coefficients={0: np.sqrt(c0_sq)}, c0_sq=c0_sq,
                          isi_sum=isi_sum)

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

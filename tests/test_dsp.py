import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (frequency_response, reference_convolve, reference_decimate,
                     reference_interpolate, reference_symbols)

from cvqkdsim.dsp import (_FFT_MIN_TAPS, FirFilter, convolve, decimate, downsample,
                          generate_symbols, interpolate, rrc_filter, super_gaussian_lpf,
                          truncate_taps, truncated_rrc, upsample)
from cvqkdsim.link import LinkConfig, LpfConfig, baseline_filters
from cvqkdsim.quantization import QuantizerSpec, full_scale


class TestGenerateSymbols:
    def test_mean_power_tracks_target(self):
        block = generate_symbols(100_000, 6.0, seed=1)
        assert np.mean(np.abs(block) ** 2) == pytest.approx(6.0, rel=0.02)

    def test_zero_mean(self):
        block = generate_symbols(100_000, 6.0, seed=1)
        assert abs(np.mean(block)) < 0.05

    def test_quadrature_split(self):
        block = generate_symbols(200_000, 4.0, seed=2)
        assert np.var(block.real) == pytest.approx(2.0, rel=0.03)
        assert np.var(block.imag) == pytest.approx(2.0, rel=0.03)

    @pytest.mark.parametrize("seed", range(5))
    def test_same_bits_as_real_plus_j_imag(self, seed):
        want = reference_symbols(1001, 1.7, seed)
        assert generate_symbols(1001, 1.7, seed).tobytes() == want.tobytes()

    def test_interleaved_calls_match_oracle(self):
        # the shared standard-normal block is keyed on (count, seed) and
        # only ever scaled: repeats, switches and returns all give the
        # per-call draws
        calls = [(1001, 3, 1.7), (1001, 3, 0.2), (1001, 4, 1.7), (1001, 3, 5.0),
                 (500, 3, 1.7), (1001, 3, 1.7), (1, 3, 1e-6), (1001, 4, 3e300)]
        for count, seed, n in calls:
            want = reference_symbols(count, n, seed)
            assert generate_symbols(count, n, seed).tobytes() == want.tobytes()

    def test_mutating_a_draw_leaves_the_next_unchanged(self):
        first = generate_symbols(257, 2.0, seed=9)
        assert first.flags.writeable
        first[:] = 0.0
        second = generate_symbols(257, 2.0, seed=9)
        assert second.tobytes() == reference_symbols(257, 2.0, 9).tobytes()
        assert second is not first

    def test_deterministic_for_fixed_seed(self):
        one = generate_symbols(1, 6.0, seed=7)
        two = generate_symbols(1, 6.0, seed=7)
        assert one[0] == two[0]

    def test_rejects_nan_mean_photon(self):
        with pytest.raises(ValueError, match="mean_photon"):
            generate_symbols(10, float("nan"), seed=0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_symbols(0, 6.0, seed=0)
        with pytest.raises(ValueError):
            generate_symbols(10, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_symbols(10, -1.0, seed=0)


class TestResampling:
    def test_upsample_zero_stuffing(self):
        out = upsample(np.array([1.0 + 0j]), sps=4)
        np.testing.assert_array_equal(out, [1, 0, 0, 0])

    def test_upsample_two_symbols(self):
        out = upsample(np.array([2.0, 3.0]), sps=2)
        np.testing.assert_array_equal(out, [2, 0, 3, 0])

    def test_upsample_identity(self):
        out = upsample(np.array([5.0 + 1j]), sps=1)
        np.testing.assert_array_equal(out, [5.0 + 1j])

    def test_upsample_rejects_bad_sps(self):
        with pytest.raises(ValueError):
            upsample(np.array([1.0]), sps=0)

    def test_downsample_phase_zero(self):
        block = downsample(np.array([1.0, 2.0, 3.0, 4.0]), 4, 0)
        np.testing.assert_array_equal(block, [1.0])

    def test_downsample_phase_one(self):
        block = downsample(np.array([1.0, 2.0, 3.0, 4.0]), 2, 1)
        np.testing.assert_array_equal(block, [2.0, 4.0])

    def test_round_trip(self):
        orig = generate_symbols(64, 2.0, seed=3)
        back = downsample(upsample(orig, 4), 4, 0)
        np.testing.assert_array_equal(back, orig)

    def test_downsample_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            downsample(np.array([1.0, 2.0]), 2, 2)
        with pytest.raises(ValueError):
            downsample(np.array([1.0, 2.0]), 2, -1)


class TestConvolve:
    def test_impulse_response(self):
        out = convolve(np.array([1.0, 0.0, 0.0]), FirFilter(np.array([2.0, 5.0])))
        np.testing.assert_allclose(out, [2.0, 5.0, 0.0, 0.0], atol=1e-12)

    def test_identity_filter(self):
        out = convolve(np.array([3.0 + 1j]), FirFilter(np.array([1.0])))
        np.testing.assert_allclose(out, [3.0 + 1j], atol=1e-12)

    def test_commutativity(self):
        rng = np.random.default_rng(0)
        sig = rng.normal(size=17)
        taps = rng.normal(size=9)
        left = convolve(sig, FirFilter(taps))
        right = convolve(taps, FirFilter(sig))
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_empty_input(self):
        out = convolve(np.zeros(0), FirFilter(np.array([1.0, 2.0])))
        assert len(out) == 0

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(2, 64)
            m = rng.integers(1, 64)
            s1, s2 = rng.normal(size=n), rng.normal(size=n)
            h = FirFilter(rng.normal(size=m))
            alpha, beta = rng.normal(), rng.normal()
            combined = convolve(alpha * s1 + beta * s2, h)
            separate = alpha * convolve(s1, h) + beta * convolve(s2, h)
            np.testing.assert_allclose(combined, separate, atol=1e-10)

    def test_parseval_on_impulse(self):
        rng = np.random.default_rng(2)
        taps = rng.normal(size=33)
        impulse = np.zeros(1)
        impulse[0] = 1.0
        out = convolve(impulse, FirFilter(taps))
        assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(taps**2), abs=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(1, 3000),
           num_taps=st.integers(1, 2 * _FFT_MIN_TAPS) | st.integers(1, 1200),
           complex_signal=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=3000, num_taps=1001, complex_signal=True, seed=11)
    def test_property_matches_oracle(self, n, num_taps, complex_signal, seed):
        # short and long filters take the same overlap-save path; the example
        # has the chain's 1001-tap reference filter
        rng = np.random.default_rng(seed)
        sig = rng.normal(size=n)
        if complex_signal:
            sig = sig + 1j * rng.normal(size=n)
        taps = rng.normal(size=num_taps)
        want = reference_convolve(sig, taps)
        got = convolve(sig, FirFilter(taps))
        assert got.shape == want.shape
        assert np.iscomplexobj(got) == complex_signal
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 3000), num_taps=st.integers(1, 300),
           complex_signal=st.booleans(),
           gain=st.floats(1.5e-154, 1e3) | st.sampled_from([1.5e-154, 0.1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=3000, num_taps=257, complex_signal=True, gain=0.1, seed=3)
    def test_gain_matches_scaled_oracle(self, n, num_taps, complex_signal, gain, seed):
        # the gain scales the tap spectrum, so the output is the scaled
        # oracle convolution within the oracle tolerance; the smallest gain
        # is the loss at the least transmittance a link takes
        rng = np.random.default_rng(seed)
        sig = rng.normal(size=n)
        if complex_signal:
            sig = sig + 1j * rng.normal(size=n)
        fir = FirFilter(rng.normal(size=num_taps))
        want = gain * reference_convolve(sig, fir.taps)
        got = convolve(sig, fir, gain)
        assert np.iscomplexobj(got) == complex_signal
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # the memoized spectrum that every call shares is left as it was
        assert convolve(sig, fir).tobytes() == convolve(sig, fir, 1.0).tobytes()


class TestDecimate:
    """decimate returns convolve(s, taps)[start::sps][:count]: the same
    length, and values within 1e-12 of the largest kept magnitude."""

    @staticmethod
    def _check(sig, taps, sps, start, count):
        want = reference_decimate(sig, taps, sps, start, count)
        got = decimate(sig, taps, sps, start, count)
        assert got.shape == want.shape
        if len(want):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("sps", [1, 2, 4])
    @pytest.mark.parametrize("num_taps", [1, 2, 11, 101, 1001])
    def test_matches_full_convolution_then_slice(self, num_taps, sps):
        rng = np.random.default_rng(num_taps * 10 + sps)
        sig = rng.normal(size=1203) + 1j * rng.normal(size=1203)
        taps = rng.normal(size=num_taps)
        full_len = len(sig) + num_taps - 1
        for start in (0, full_len // 2, full_len - 5):
            # count runs past the end of the output: the tail is where the
            # input has ended and the taps sweep over zeros
            self._check(sig, taps, sps, start, len(sig) // sps + 40)
            self._check(sig, taps, sps, start, 7)

    @pytest.mark.parametrize("past_end", [0, 1, 300])
    def test_lpf_full_length_at_one_sample_per_output(self, past_end):
        # the chain's LPF: its 257 real taps over a complex signal long
        # enough for many overlap-save frames; sps=1 and start=0 give the
        # full convolution, and a count past its length is cut to it
        taps = LinkConfig().lpf_filter().taps
        rng = np.random.default_rng(257)
        sig = rng.normal(size=40_003) + 1j * rng.normal(size=40_003)
        full_len = len(sig) + len(taps) - 1
        got = decimate(sig, taps, 1, 0, full_len + past_end)
        assert len(got) == full_len
        self._check(sig, taps, 1, 0, full_len + past_end)

    # (taps, sps, step): the rx filter's shape, the LPF's, the 1001-tap
    # reference rx filter's, and a filter no longer than sps, whose tap rows
    # are one tap each; step is the kept outputs per overlap-save frame,
    # nfft - rows + 1, with nfft the power of two nearest 8 * rows (>= 512)
    @pytest.mark.parametrize("num_taps,sps,step", [(101, 4, 487), (257, 1, 1792),
                                                   (1001, 4, 1798), (3, 4, 512)])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "step"])
    def test_frame_boundaries(self, num_taps, sps, step, extra):
        # counts one short of, at and one past a frame, and two whole frames;
        # start 1 puts the first phase samples of the longest rows before
        # the signal, so the zero-padded head and the last frame both occur
        count = 2 * step if extra == "step" else step + extra
        rng = np.random.default_rng(num_taps + count)
        n = (count + 3) * sps + num_taps
        sig = rng.normal(size=n) + 1j * rng.normal(size=n)
        taps = rng.normal(size=num_taps)
        got = decimate(sig, taps, sps, 1, count)
        assert len(got) == count
        self._check(sig, taps, sps, 1, count)

    # traced peaks in one signal's bytes, rx and LPF: 1.07 and 2.16 measured
    # here, 1.32 and 3.17 when each phase row is first copied into its own
    # zero-padded array, and 1.32 and 2.16 with interior frames read through
    # a sliding-window view. The rx case filters two signals in turn and
    # keeps the first output, as the chain does with its ADC output and the
    # ADC-bypassed twin
    @pytest.mark.parametrize("num_signals,num_taps,sps,start,bound", [
        (2, 101, 4, 183, 1.2), (1, 257, 1, 0, 2.5)], ids=["rx", "lpf"])
    def test_frames_copy_no_phase_row(self, num_signals, num_taps, sps, start,
                                      bound):
        rng = np.random.default_rng(4)
        n = 400_000
        sigs = [rng.normal(size=n) + 1j * rng.normal(size=n)
                for _ in range(num_signals)]
        taps = rng.normal(size=num_taps)
        count = n // sps + num_taps
        decimate(sigs[0], taps, sps, start, count)  # transform plans are set up outside the trace
        tracemalloc.start()
        try:
            outs = [decimate(sig, taps, sps, start, count) for sig in sigs]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * sigs[0].nbytes

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4000), num_taps=st.integers(1, 600),
           sps=st.integers(1, 6), start=st.integers(0, 5000),
           count=st.integers(0, 5000), complex_signal=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    # the strategy's ends, whatever constants hypothesis mines: one sample
    # and one tap, with one output and none; the longest signal and filter
    # at the widest decimation, from the first output and from past the
    # last; and the longest signal with one tap, the longest filter on one
    # sample, at both decimation ends
    @example(n=1, num_taps=1, sps=1, start=0, count=1, complex_signal=False, seed=0)
    @example(n=1, num_taps=1, sps=1, start=0, count=0, complex_signal=True, seed=0)
    @example(n=4000, num_taps=600, sps=6, start=0, count=5000, complex_signal=True,
             seed=2**32 - 1)
    @example(n=4000, num_taps=600, sps=6, start=5000, count=5000, complex_signal=True,
             seed=2**32 - 1)
    @example(n=4000, num_taps=1, sps=1, start=0, count=5000, complex_signal=False, seed=1)
    @example(n=4000, num_taps=1, sps=6, start=0, count=5000, complex_signal=True, seed=1)
    @example(n=1, num_taps=600, sps=1, start=0, count=5000, complex_signal=True, seed=2)
    @example(n=1, num_taps=600, sps=6, start=0, count=5000, complex_signal=False, seed=2)
    def test_property_matches_oracle(self, n, num_taps, sps, start, count,
                                     complex_signal, seed):
        # tolerance on the output bound max|s| * sum|taps|, not the kept
        # peak, which a short slice of random data can leave near zero
        rng = np.random.default_rng(seed)
        sig = rng.normal(size=n)
        if complex_signal:
            sig = sig + 1j * rng.normal(size=n)
        taps = rng.normal(size=num_taps)
        want = reference_decimate(sig, taps, sps, start, count)
        got = decimate(sig, taps, sps, start, count)
        assert got.shape == want.shape
        if len(want):
            bound = np.max(np.abs(sig)) * np.sum(np.abs(taps))
            assert np.max(np.abs(got - want)) <= 1e-12 * bound

    def test_real_signal_and_several_signals(self):
        rng = np.random.default_rng(3)
        taps = rng.normal(size=21)
        real, cplx = rng.normal(size=400), rng.normal(size=400) * 1j
        for sig in (real, cplx):
            out = decimate(sig, taps, 4, 13, 90)
            want = reference_decimate(sig, taps, 4, 13, 90)
            assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nothing_kept(self):
        sig = np.ones(10, dtype=complex)
        for start, count in ((0, 0), (12, 5), (40, 5)):
            got = decimate(sig, np.ones(3), 2, start, count)
            want = reference_decimate(sig, np.ones(3), 2, start, count)
            assert len(got) == len(want) == 0

    def test_rejects_bad_arguments(self):
        sig = np.ones(8)
        for sps, start, count in ((0, 0, 1), (2, -1, 1), (2, 0, -1)):
            with pytest.raises(ValueError):
                decimate(sig, np.ones(3), sps, start, count)


class TestInterpolate:
    """interpolate returns convolve(upsample(symbols, sps), taps): the same
    length, and values within 1e-14 of the largest output magnitude."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 300), num_taps=st.integers(1, 64),
           sps=st.integers(1, 8), complex_symbols=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(n=257, num_taps=101, sps=4, complex_symbols=True, seed=5)
    @example(n=300, num_taps=1001, sps=4, complex_symbols=True, seed=6)
    @example(n=3000, num_taps=1001, sps=4, complex_symbols=True, seed=7)
    @example(n=3000, num_taps=1004, sps=4, complex_symbols=False, seed=8)
    def test_property_matches_oracle(self, n, num_taps, sps, complex_symbols, seed):
        # num_taps < sps leaves whole phases of the output at zero; the
        # examples have the 25/26-tap rows of a 101-tap filter and the
        # 250/251-tap rows of the 1001-tap reference filter, over one and
        # over several full-rate overlap-save frames, and a 1004-tap filter,
        # whose len(taps) - 1 is no multiple of sps. The outputs past the
        # last symbol's reach are exactly zero, as in the stuffed convolution
        rng = np.random.default_rng(seed)
        symbols = rng.normal(size=n)
        if complex_symbols:
            symbols = symbols + 1j * rng.normal(size=n)
        taps = rng.normal(size=num_taps)
        want = reference_interpolate(symbols, taps, sps)
        got = interpolate(symbols, taps, sps)
        assert got.shape == want.shape
        assert got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert not np.any(got[(n - 1) * sps + num_taps:])
        if not complex_symbols:
            assert not np.any(got.imag)

    def test_empty_input_and_bad_sps(self):
        assert interpolate(np.zeros(0, dtype=complex), np.ones(3), 4).shape == (0,)
        with pytest.raises(ValueError):
            interpolate(np.ones(3), np.ones(3), 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_default_chain_dac_levels_match_oracle_path(self, seed):
        # the DAC quantizes the tx output, so rounding differences between
        # the two convolution forms could flip a level; at 11 taps and
        # 10 bits none does
        _assert_dac_levels_match_oracle_path(LinkConfig(num_symbols=10_000, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_reference_chain_dac_levels_match_oracle_path(self, seed):
        # the 1001-tap, 16-bit reference point: its tap rows run through the
        # FFT, and no level of the finer DAC flips either
        quant = QuantizerSpec(bits=16)
        _assert_dac_levels_match_oracle_path(LinkConfig(
            num_symbols=10_000, seed=seed, tx_len=1001, rx_len=1001, dac=quant, adc=quant))


class TestTransforms:
    """The overlap-save paths of ``convolve``, ``decimate`` and
    ``interpolate`` run through numpy.fft."""

    @pytest.mark.parametrize("bad", [np.inf, 1e308])
    @pytest.mark.parametrize("stage", ["convolve", "decimate", "interpolate"])
    def test_nonfinite_input_gives_nonfinite_output_without_warning(self, stage, bad):
        # numpy warns on inf and on overflow in the transforms and in the
        # spectrum products; the chain's finite check is the one place that
        # reports a non-finite signal. A run of 1e308 samples overflows the
        # forward transforms (one such sample alone has a finite convolution,
        # which the unnormalized inverse, its 1/n in the tap spectra, returns)
        rng = np.random.default_rng(9)
        sig = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        sig[700:716] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if stage == "convolve":
                out = convolve(sig, super_gaussian_lpf())
            elif stage == "decimate":
                out = decimate(sig, truncated_rrc(101).taps, 4, 100, 400)
            else:
                taps = truncated_rrc(101).taps
                assert -(-len(taps) // 4) >= _FFT_MIN_TAPS  # the long-row path
                out = interpolate(sig, taps, 4)
        assert not np.all(np.isfinite(out))


def _assert_dac_levels_match_oracle_path(config: LinkConfig) -> None:
    h_tx, _ = baseline_filters(config)
    symbols = generate_symbols(config.num_symbols, 2.0, config.seed)
    half_levels = 1 << (config.dac.bits - 1)

    def levels(shaped):
        delta = config.dac.step(full_scale(shaped, config.dac))
        idx = np.floor(shaped.view(float) / delta)
        return np.clip(idx, -half_levels, half_levels - 1)

    got = levels(interpolate(symbols, h_tx.taps, config.sps))
    want = levels(reference_interpolate(symbols, h_tx.taps, config.sps))
    np.testing.assert_array_equal(got, want)


def _cascade_isi(h: FirFilter, sps: int) -> tuple[float, float]:
    z = np.convolve(h.taps, h.taps)
    delay = int(np.argmax(np.abs(z)))
    c0_sq = z[delay] ** 2
    isi = sum(z[delay + j * sps] ** 2
              for j in range(-len(z) // sps - 1, len(z) // sps + 1)
              if j != 0 and 0 <= delay + j * sps < len(z))
    return c0_sq, isi


class TestRrcFilter:
    def test_unit_energy(self):
        for rolloff in (0.1, 0.2, 0.5, 1.0):
            h = rrc_filter(rolloff, 50, 4)
            assert np.sum(h.taps**2) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        h = rrc_filter(0.2, 50, 4)
        np.testing.assert_allclose(h.taps, h.taps[::-1], atol=1e-12)

    @pytest.mark.parametrize("rolloff", [0.1, 0.2, 0.5])
    def test_matched_cascade_is_nyquist(self, rolloff):
        h = rrc_filter(rolloff, 50, 4)
        c0_sq, isi = _cascade_isi(h, 4)
        assert c0_sq > 0.999
        assert isi < 1e-3

    def test_expected_length(self):
        assert len(rrc_filter(0.2, 50, 4)) == 201

    def test_rejects_bad_rolloff(self):
        for rolloff in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                rrc_filter(rolloff, 10, 4)

    def test_truncation_keeps_unit_energy(self):
        short = truncated_rrc(11)
        assert np.sum(short.taps**2) == pytest.approx(1.0, abs=1e-12)
        assert len(short) == 11

    def test_truncate_taps_bounds(self):
        h = rrc_filter(0.2, 10, 4)
        with pytest.raises(ValueError):
            truncate_taps(h, len(h) + 1)


class TestSuperGaussianLpf:
    def test_half_power_at_design_bandwidth(self):
        h = super_gaussian_lpf(order=4, bandwidth_norm=0.75, num_taps=257, sps=4)
        power = np.abs(frequency_response(h.taps, 0.75, 4)[0]) ** 2
        assert 0.48 <= power <= 0.52

    def test_unit_dc_gain(self):
        h = super_gaussian_lpf()
        assert abs(frequency_response(h.taps, 0.0, 4)[0]) == pytest.approx(1.0, abs=1e-3)

    def test_stopband_rejection(self):
        h = super_gaussian_lpf(order=4, bandwidth_norm=0.75, num_taps=257, sps=4)
        level_db = 20 * np.log10(abs(frequency_response(h.taps, 1.5, 4)[0]))
        assert level_db < -24.0
        # the analytic target at 1.5R is essentially minus infinity
        analytic_db = 20 * np.log10(np.exp(-(np.log(2) / 2) * 2.0**8))
        assert analytic_db < -700.0

    def test_symmetric_taps(self):
        h = super_gaussian_lpf()
        np.testing.assert_allclose(h.taps, h.taps[::-1], atol=1e-12)

    def test_one_shared_read_only_design(self):
        # every chain of a config gets the same filter; no caller can
        # change the taps the others see
        h = LinkConfig().lpf_filter()
        assert LinkConfig(seed=5, num_symbols=100).lpf_filter() is h
        assert np.array_equal(h.taps, super_gaussian_lpf(order=4, bandwidth_norm=0.75,
                                                         num_taps=257, sps=4).taps)
        assert not h.taps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            h.taps[0] = 1.0
        assert super_gaussian_lpf(order=4, bandwidth_norm=0.5, num_taps=257,
                                  sps=4) is not h

    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            super_gaussian_lpf(num_taps=256)

    @pytest.mark.parametrize("num_taps", [-5, -1])
    def test_rejects_non_positive_length_naming_it(self, num_taps):
        # odd, so it got past the parity check into log2 of a negative size
        with pytest.raises(ValueError, match=f"num_taps must be >= 1, got {num_taps}"):
            super_gaussian_lpf(num_taps=num_taps)
        with pytest.raises(ValueError, match="num_taps must be >= 1"):
            LinkConfig(lpf=LpfConfig(num_taps=num_taps))

    def test_high_order_designs_without_overflow(self):
        # |f / f3dB| ** 800 overflows past the band edge, where the
        # magnitude is 0 either way; the suite turns the warning into an error
        h = LinkConfig(lpf=LpfConfig(order=400)).lpf_filter()
        assert np.all(np.isfinite(h.taps))
        assert np.sum(h.taps) == pytest.approx(1.0, abs=1e-12)


class TestTypeInvariants:
    def test_fir_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FirFilter(np.array([1.0, np.nan]))

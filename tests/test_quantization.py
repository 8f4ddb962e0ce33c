import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (reference_clip_fraction, reference_full_scale,
                     reference_noise_power, reference_quantize)

from cvqkdsim.quantization import (_BLOCK, CLIPPING_RANGE, MAX_BITS, QuantizationReport,
                                   QuantizerSpec, _mean_square, clip_fraction, convert,
                                   full_scale, measure_noise, quantize)


def _gaussian_rail(n, sigma=1.0, seed=0, complex_signal=False):
    rng = np.random.default_rng(seed)
    if complex_signal:
        scale = sigma / np.sqrt(2)
        return rng.normal(0, scale, n) + 1j * rng.normal(0, scale, n)
    return rng.normal(0, sigma, n)


def _examples(*cases):
    """Each case as an explicit hypothesis ``@example`` of the test."""
    def add(test):
        for case in cases:
            test = example(**case)(test)
        return test
    return add


# the idempotence strategy's edges, whatever constants hypothesis mines: bits
# 1 and 16, both ends of the full scale, rails all clipped (at +/-3 A) or all
# zero, real and complex
_IDEMPOTENT_EDGES = [dict(bits=bits, full=full, rails=rails, complex_signal=complex_signal)
                     for bits in (1, 16) for full in (1e-6, 1e6)
                     for rails in (np.array([[3.0, -3.0], [-3.0, 3.0]]), np.zeros((2, 2)))
                     for complex_signal in (False, True)]

# the noise oracle strategy's edges: one sample and 3000, both ends of the
# scale, and every real/complex pairing of the two signals
_NOISE_EDGES = [dict(n=n, q_complex=q_complex, x_complex=x_complex, scale=scale, seed=seed)
                for n, seed in ((1, 0), (3000, 2**32 - 1)) for scale in (1e-6, 1e6)
                for q_complex in (False, True) for x_complex in (False, True)]


class TestQuantize:
    def test_one_bit_positive_level(self):
        sig = np.full(8, 0.5)
        out = quantize(sig, QuantizerSpec(bits=1), 1.0)
        np.testing.assert_allclose(out, 0.5)  # = Delta/2 with Delta = 1

    def test_unclipped_error_bound(self):
        spec = QuantizerSpec(bits=16, clipping_factor=4.0)
        sig = _gaussian_rail(100_000, seed=1)
        a = full_scale(sig, spec)
        out = quantize(sig, spec, a)
        unclipped = np.abs(sig) < a
        errors = np.abs(out - sig)[unclipped]
        assert errors.max() <= spec.step(a) / 2 + 1e-15

    def test_granular_noise_matches_uniform_model(self):
        # high-resolution theory: error variance Delta^2 / 12 on the
        # unclipped samples (the clip tail is a separate, kappa-set floor)
        spec = QuantizerSpec(bits=10, clipping_factor=4.0)
        sig = _gaussian_rail(1_000_000, sigma=1.3, seed=2)
        a = full_scale(sig, spec)
        out = quantize(sig, spec, a)
        mask = np.abs(sig) < a
        measured = np.mean((out - sig)[mask] ** 2)
        assert measured == pytest.approx(spec.step(a) ** 2 / 12, rel=0.10)

    def test_idempotent_with_frozen_scale(self):
        spec = QuantizerSpec(bits=6)
        sig = _gaussian_rail(10_000, seed=3, complex_signal=True)
        a = full_scale(sig, spec)
        once = quantize(sig, spec, a)
        twice = quantize(once, spec, a)
        np.testing.assert_array_equal(once, twice)

    def test_complex_rails_quantized_independently(self):
        sig = np.array([0.3 + 0.7j, -0.2 - 0.6j])
        out = quantize(sig, QuantizerSpec(bits=8), 1.0)
        ref_re = quantize(sig.real, QuantizerSpec(bits=8), 1.0)
        np.testing.assert_array_equal(out.real, ref_re)

    def test_rejects_zero_rms(self):
        sig, spec = np.zeros(16), QuantizerSpec(bits=8)
        with pytest.raises(ValueError):
            quantize(sig, spec, full_scale(sig, spec))

    @pytest.mark.parametrize("complex_signal", [False, True])
    @pytest.mark.parametrize("peak", [1e200, 1e153])
    def test_full_scale_overflow_is_an_error(self, peak, complex_signal):
        # 1e200 overflows each square, 1e153 only their sum; either way the
        # loader raises instead of warning and returning inf
        sig = _gaussian_rail(4000, sigma=peak, seed=3, complex_signal=complex_signal)
        with pytest.raises(ValueError, match="overflows"):
            full_scale(sig, QuantizerSpec(bits=10))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(0), QuantizerSpec(bits=8), 1.0)

    def test_rejects_non_positive_full_scale(self):
        for a in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                quantize(np.ones(4), QuantizerSpec(bits=8), a)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuantizerSpec(bits=0)
        with pytest.raises(ValueError):
            QuantizerSpec(bits=8, clipping_factor=0.0)


    @pytest.mark.parametrize("kwargs", [
        dict(bits=MAX_BITS + 1), dict(bits=1100),
        dict(bits=10, clipping_factor=1e-300), dict(bits=10, clipping_factor=1e300),
        dict(bits=10, clipping_factor=np.nextafter(CLIPPING_RANGE[0], 0)),
        dict(bits=10, clipping_factor=np.nextafter(CLIPPING_RANGE[1], np.inf))],
        ids=["54_bits", "1100_bits", "kappa_1e-300", "kappa_1e300", "kappa_below",
             "kappa_above"])
    def test_spec_refuses_out_of_range(self, kwargs):
        # each of these used to construct and then fail in a chain
        with pytest.raises(ValueError, match="bits" if len(kwargs) == 1 else "clipping_factor"):
            QuantizerSpec(**kwargs)
        for kappa in CLIPPING_RANGE:  # the ends of the ranges construct
            QuantizerSpec(bits=MAX_BITS, clipping_factor=kappa)

    def test_spec_rejects_nan_clipping_factor(self):
        with pytest.raises(ValueError, match="clipping_factor"):
            QuantizerSpec(bits=8, clipping_factor=float("nan"))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bits=st.integers(1, 16),
           full=st.floats(1e-6, 1e6),
           rails=arrays(float, st.tuples(st.integers(1, 64), st.just(2)),
                        elements=st.floats(-3.0, 3.0)),
           complex_signal=st.booleans())
    @_examples(*_IDEMPOTENT_EDGES)
    def test_idempotent_on_frozen_full_scale(self, bits, full, rails,
                                             complex_signal):
        # a level (k + 1/2) * Delta maps back to itself, byte for byte;
        # samples run to 3 A, so clipped ones are covered too
        x = full * rails
        sig = x.view(complex)[:, 0] if complex_signal else x[:, 0]
        spec = QuantizerSpec(bits=bits)
        once = quantize(sig, spec, full)
        assert quantize(once, spec, full).tobytes() == once.tobytes()


class TestMeasureNoise:
    def test_identical_inputs(self):
        sig = _gaussian_rail(1000, seed=4, complex_signal=True)
        assert measure_noise(sig, sig) == 0.0

    def test_constant_offset(self):
        sig = _gaussian_rail(1000, seed=5, complex_signal=True)
        shifted = sig + (0.3 + 0.4j)
        assert measure_noise(shifted, sig) == pytest.approx(0.25, abs=1e-12)

    def test_complex_gaussian_quantization_noise(self):
        # both rails together: granular noise 2 * Delta^2 / 12
        spec = QuantizerSpec(bits=10, clipping_factor=4.0)
        sig = _gaussian_rail(1_000_000, sigma=2.0, seed=6, complex_signal=True)
        a = full_scale(sig, spec)
        out = quantize(sig, spec, a)
        mask = (np.abs(sig.real) < a) & (np.abs(sig.imag) < a)
        assert measure_noise(out[mask], sig[mask]) == pytest.approx(
            2 * spec.step(a) ** 2 / 12, rel=0.10)
        assert clip_fraction(sig[mask], a) < 1e-4

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 3000), q_complex=st.booleans(), x_complex=st.booleans(),
           scale=st.floats(1e-6, 1e6), seed=st.integers(0, 2**32 - 1))
    @_examples(*_NOISE_EDGES)
    def test_matches_complex_difference_oracle(self, n, q_complex, x_complex,
                                               scale, seed):
        # the rail-wise pairwise mean and the mean of |q - x|^2 differ only in
        # rounding: a few ulp of the result
        x = _gaussian_rail(n, sigma=scale, seed=seed, complex_signal=x_complex)
        q = _gaussian_rail(n, sigma=scale, seed=seed + 1, complex_signal=q_complex)
        want = reference_noise_power(q, x)
        assert measure_noise(q, x) == pytest.approx(want, rel=1e-14)

    def test_clip_fraction_rejects_non_positive_full_scale(self):
        for a in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                clip_fraction(np.zeros(4), a)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            measure_noise(np.zeros(3) + 1.0, np.zeros(4) + 1.0)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            QuantizationReport(noise_power=-1.0)
        # the noise power is the one figure the chain reads
        assert [f.name for f in dataclasses.fields(QuantizationReport)] == ["noise_power"]


class TestNoiseScaling:
    def test_monotone_improvement_with_resolution(self):
        # same realization across resolutions: granular noise falls 4x per
        # bit while the shared clip error cancels in the comparison
        sig = _gaussian_rail(1_000_000, seed=7)
        powers = []
        for bits in range(4, 16):
            spec = QuantizerSpec(bits=bits, clipping_factor=4.0)
            a = full_scale(sig, spec)
            out = quantize(sig, spec, a)
            powers.append(measure_noise(out, sig))
        assert all(b < a for a, b in zip(powers, powers[1:]))

    def test_asymptote_at_high_resolution(self):
        # bounded-support input: no clipping, so the floor is purely granular
        rng = np.random.default_rng(8)
        sig = rng.uniform(-1.0, 1.0, 500_000)
        spec = QuantizerSpec(bits=16, clipping_factor=4.0)
        a = full_scale(sig, spec)
        out = quantize(sig, spec, a)
        noise = measure_noise(out, sig)
        signal_power = np.mean(sig**2)
        assert noise < 1e-7 * signal_power

    def test_clip_granular_tradeoff_in_loading(self):
        # total noise is non-monotone in kappa with an interior minimum
        sig = _gaussian_rail(1_000_000, seed=9)
        totals = []
        for kappa in (1.0, 2.0, 4.0, 8.0):
            spec = QuantizerSpec(bits=10, clipping_factor=kappa)
            a = full_scale(sig, spec)
            totals.append(measure_noise(quantize(sig, spec, a), sig))
        best = int(np.argmin(totals))
        assert 0 < best < len(totals) - 1

    def test_clip_fraction_at_four_sigma(self):
        sig = _gaussian_rail(1_000_000, seed=10)
        spec = QuantizerSpec(bits=10, clipping_factor=4.0)
        frac = clip_fraction(sig, full_scale(sig, spec))
        assert 0.0 < frac < 1e-4


# the load sums the rail squares in ``_mean_square``'s order and the oracle
# pairwise over the concatenated rails, so the full scales differ in rounding:
# at most 2.4e-15 relative on these tests' signals, 16 decades of magnitude
# included
FULL_SCALE_RTOL = 1e-12


class TestMatchesRailOracle:
    """The in-place passes give the same bits as the rail-concatenating ones
    at the library's own full scale, which matches the oracle's within
    ``FULL_SCALE_RTOL``."""

    @pytest.mark.parametrize("complex_signal", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 1001, 40_003])
    def test_bit_identical(self, n, complex_signal):
        sig = _gaussian_rail(n, sigma=1.3, seed=n, complex_signal=complex_signal)
        for bits, kappa in ((10, 4.0), (4, 1.5), (1, 0.5)):  # 1.5 and 0.5 clip
            spec = QuantizerSpec(bits=bits, clipping_factor=kappa)
            a = full_scale(sig, spec)
            assert a == pytest.approx(reference_full_scale(sig, kappa), rel=FULL_SCALE_RTOL)
            out = quantize(sig, spec, a)
            assert out.dtype == sig.dtype
            assert out.tobytes() == reference_quantize(sig, bits, a).tobytes()
            frac = clip_fraction(sig, a)
            assert frac == reference_clip_fraction(sig, a)
            if kappa < 2.0 and n > 1:
                assert frac > 0

    @pytest.mark.parametrize("complex_signal", [False, True])
    def test_bit_identical_on_decision_boundaries(self, complex_signal):
        # samples on and one ulp either side of every level edge k * Delta,
        # where a reordered division would round to the other level
        spec, a = QuantizerSpec(bits=4), 0.8
        edges = np.arange(-10, 11) * spec.step(a)
        sig = np.concatenate([edges, np.nextafter(edges, np.inf),
                              np.nextafter(edges, -np.inf)])
        if complex_signal:
            sig = sig + 1j * sig[::-1]
        want = reference_quantize(sig, 4, a)
        assert quantize(sig, spec, a).tobytes() == want.tobytes()
        # the outermost edges sit exactly at |x| = A
        assert clip_fraction(sig, a) == reference_clip_fraction(sig, a)

    @pytest.mark.parametrize("n", [3, 129, 1027, 40_003])
    def test_full_scale_matches_over_16_decades(self, n):
        # magnitudes over 16 decades make the pooled mean depend on the
        # order and grouping of its additions, which stays a rounding effect
        rng = np.random.default_rng(n)
        magnitude = 10 ** rng.uniform(-8, 8, n)
        sig = (rng.normal(size=n) + 1j * rng.normal(size=n)) * magnitude
        spec = QuantizerSpec(bits=8)
        for x in (sig, sig.real):
            assert full_scale(x, spec) == pytest.approx(
                reference_full_scale(x, spec.clipping_factor), rel=FULL_SCALE_RTOL)

    def test_strided_input(self):
        sig = _gaussian_rail(2001, seed=11, complex_signal=True)[::3]
        spec = QuantizerSpec(bits=6)
        a = full_scale(sig, spec)
        assert a == pytest.approx(reference_full_scale(sig, spec.clipping_factor),
                                  rel=FULL_SCALE_RTOL)
        assert np.array_equal(quantize(sig, spec, a), reference_quantize(sig, 6, a))
        assert clip_fraction(sig, a) == reference_clip_fraction(sig, a)

    @pytest.mark.parametrize("complex_signal", [False, True])
    @pytest.mark.parametrize("n", [1, 7, _BLOCK, _BLOCK + 1, 40_003])
    def test_converter_matches(self, n, complex_signal):
        # _BLOCK samples end on a block edge of rails, real or complex, and
        # one more sample starts a block
        sig = _gaussian_rail(n, sigma=1.3, seed=n, complex_signal=complex_signal)
        for bits, kappa in ((10, 4.0), (4, 1.5), (1, 0.5)):
            spec = QuantizerSpec(bits=bits, clipping_factor=kappa)
            a = full_scale(sig, spec)
            assert a == pytest.approx(reference_full_scale(sig, kappa), rel=FULL_SCALE_RTOL)
            want = reference_quantize(sig, bits, a)
            kept = sig.copy()
            out, report = convert(kept, spec)
            assert out.dtype == sig.dtype
            assert (out.tobytes(), report) == (want.tobytes(), None)
            assert kept.tobytes() == sig.tobytes()  # no reports, no error formed
            spent = sig.copy()
            out, report = convert(spent, spec, reports=True)
            assert out.tobytes() == want.tobytes()
            # the spent input holds the signed error x - q, rail for rail,
            # and the report is its mean square
            assert spent.tobytes() == (sig - want).tobytes()
            assert report == QuantizationReport(_mean_square(spent))
            assert report.noise_power == pytest.approx(reference_noise_power(want, sig),
                                                       rel=1e-12)

    @pytest.mark.parametrize("complex_signal", [False, True])
    def test_converter_on_decision_boundaries(self, complex_signal):
        # the boundary signal above, with a clipping factor picked so that
        # the loaded full scale is exactly its A = 0.8
        a = 0.8
        edges = np.arange(-10, 11) * QuantizerSpec(bits=4).step(a)
        sig = np.concatenate([edges, np.nextafter(edges, np.inf),
                              np.nextafter(edges, -np.inf)])
        if complex_signal:
            sig = sig + 1j * sig[::-1]
        rms = full_scale(sig, QuantizerSpec(bits=4, clipping_factor=1.0))
        near = (a / rms, np.nextafter(a / rms, np.inf), np.nextafter(a / rms, -np.inf))
        kappa = next(k for k in near if k * rms == a)
        spec = QuantizerSpec(bits=4, clipping_factor=float(kappa))
        spent = sig.copy()
        out, report = convert(spent, spec, reports=True)
        want = reference_quantize(sig, 4, a)
        assert out.tobytes() == want.tobytes()
        assert spent.tobytes() == (sig - want).tobytes()
        assert report == QuantizationReport(_mean_square(spent))

    def test_converter_strided_input(self):
        # a strided float signal's rails are the signal itself, so the error
        # is left in place
        base = _gaussian_rail(6001, seed=13, complex_signal=True)
        before = base.copy()
        spec = QuantizerSpec(bits=6, clipping_factor=2.0)
        sig = base.real[::3]
        a = full_scale(sig, spec)
        assert a == pytest.approx(reference_full_scale(before.real[::3], 2.0),
                                  rel=FULL_SCALE_RTOL)
        want = reference_quantize(before.real[::3], 6, a)
        out, report = convert(sig, spec, reports=True)
        assert out.tobytes() == want.tobytes()
        assert sig.tobytes() == (before.real[::3] - want).tobytes()
        assert report == QuantizationReport(_mean_square(sig))
        untouched = np.ones(len(base), dtype=bool)
        untouched[::3] = False
        assert base[untouched].tobytes() == before[untouched].tobytes()
        assert base.imag.tobytes() == before.imag.tobytes()

    @pytest.mark.parametrize("layout", ["strided_complex", "float32"])
    def test_converter_reports_from_a_copy_of_the_rails(self, layout):
        # a strided complex or a float32 signal's rails are a copy: the
        # error lands there, is measured there, and the signal is untouched
        base = _gaussian_rail(6001, seed=13, complex_signal=True)
        sig = base[::3] if layout == "strided_complex" else base.real.astype(np.float32)
        kept = sig.copy()
        spec = QuantizerSpec(bits=6, clipping_factor=2.0)
        out, report = convert(sig, spec, reports=True)
        a = full_scale(kept, spec)
        assert a == pytest.approx(reference_full_scale(kept, 2.0), rel=FULL_SCALE_RTOL)
        want = reference_quantize(kept, 6, a)
        assert np.array_equal(out, want)
        assert report.noise_power == pytest.approx(reference_noise_power(want, kept),
                                                   rel=1e-12)
        assert sig.tobytes() == kept.tobytes()
        out, report = convert(sig, spec)
        assert np.array_equal(out, want) and report is None

    @pytest.mark.parametrize("reports", [False, True])
    def test_converter_allocates_the_output_and_one_block(self, reports):
        n = 400_000
        sig = _gaussian_rail(n, seed=12, complex_signal=True)
        spec = QuantizerSpec(bits=10)
        convert(sig[:10].copy(), spec, reports=True)
        tracemalloc.start()
        try:
            out = convert(sig, spec, reports=reports)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + _BLOCK * 8

    @pytest.mark.parametrize("complex_signal", [False, True])
    def test_converter_overflow_is_an_error_without_warning(self, complex_signal):
        sig = _gaussian_rail(4000, sigma=1e153, seed=3, complex_signal=complex_signal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                convert(sig, QuantizerSpec(bits=10), reports=True)

    def test_converter_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            convert(np.zeros(0), QuantizerSpec(bits=8))

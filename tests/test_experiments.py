import json
import platform
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqkdsim import cli, dsp, experiments, reinforce
from cvqkdsim.config import (ConfigError, OptimizeRun, all_defaults, dataclass_from_dict,
                             load_records, load_sweep_spec)
from cvqkdsim.experiments import (BudgetError, ReferencePoint, SweepSpec,
                                  photon_scan, report, run_sweep, save_records)
from cvqkdsim.dsp import FirFilter, rrc_filter
from cvqkdsim.keyrate import DEFAULT_BETA
from cvqkdsim.link import LinkConfig, LpfConfig, baseline_filters, transient_margin
from cvqkdsim.quantization import CLIPPING_RANGE, MAX_BITS, QuantizerSpec
from cvqkdsim.reinforce import MAX_WORKERS, GroupRates, GroupSigmas, OptimizerConfig

from oracles import reference_photon_scan


def _tiny_env(**overrides):
    defaults = dict(distance_km=20.0, channel_excess_photons=1e-3,
                    dac=QuantizerSpec(bits=10), adc=QuantizerSpec(bits=10),
                    tx_len=11, rx_len=21, num_symbols=3_000, seed=21)
    defaults.update(overrides)
    return LinkConfig(**defaults)


def _tiny_optimizer(**overrides):
    defaults = dict(batch_size=4, iterations=3, seed=2,
                    sigma_init=GroupSigmas(tx=0.02, rx=0.02, n=0.05))
    defaults.update(overrides)
    return OptimizerConfig(**defaults)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_infinity=False)
_count = st.integers(1, 2**31)
_quantizer = st.builds(QuantizerSpec, bits=st.integers(1, MAX_BITS),
                       clipping_factor=st.floats(*CLIPPING_RANGE))
# a LinkConfig designs its LPF when it is built, so the LPF is valid and small
_lpf = st.builds(LpfConfig, order=st.integers(1, 8), bandwidth_norm=st.floats(0.05, 2.0),
                num_taps=st.integers(0, 256).map(lambda k: 2 * k + 1))


@st.composite
def _loss(draw):
    """(distance_km, attenuation_db_per_km) of at most 3076 dB, which keeps
    the transmittance a normal float."""
    distance = draw(_non_negative)
    top = 3076.0 / distance if distance else np.inf
    return distance, draw(st.floats(0.0, min(top, np.finfo(float).max)))


def _link_at(loss, **fields):
    return LinkConfig(distance_km=loss[0], attenuation_db_per_km=loss[1], **fields)


_link = st.builds(
    _link_at, _loss(), channel_excess_photons=_non_negative, sps=st.integers(1, 64), lpf=_lpf,
    dac=st.none() | _quantizer, adc=st.none() | _quantizer, tx_len=_count,
    # at least as many samples as the longest LPF drawn, at sps 1
    rx_len=_count, num_symbols=st.integers(513, 2**31), seed=st.integers(0, 2**64 - 1))
_optimizer = st.builds(
    OptimizerConfig, batch_size=st.integers(2, 2**31),
    learning_rate=st.builds(GroupRates, tx=_positive, rx=_positive, n=_positive),
    iterations=st.integers(0, 2**31),
    sigma_init=st.builds(GroupSigmas, tx=_positive, rx=_positive, n=_positive),
    sigma_decay=st.floats(0.0, 1.0, exclude_min=True), sigma_floor=_non_negative,
    seed=st.integers(0, 2**64 - 1), beta=st.floats(0.0, 1.0, exclude_min=True))
_reference = st.builds(ReferencePoint, ref_taps=_count, ref_bits=st.integers(1, 62))


# every sweep axis non-empty, so that each kind is valid
_VALID = {
    "LinkConfig": _link, "LpfConfig": _lpf,
    "QuantizerSpec": _quantizer, "OptimizerConfig": _optimizer,
    "GroupSigmas": st.builds(GroupSigmas, tx=_finite, rx=_finite, n=_finite),
    "GroupRates": st.builds(GroupRates, tx=_finite, rx=_finite, n=_finite),
    "ReferencePoint": _reference,
    "SweepSpec": st.builds(
        SweepSpec, kind=st.sampled_from(experiments.SWEEP_KINDS),
        bits=st.lists(st.integers(1, 62), min_size=1, max_size=4),
        taps=st.lists(_count, min_size=1, max_size=4),
        distances_km=st.lists(_non_negative, min_size=1, max_size=4),
        photon_grid=st.none() | st.lists(_positive, min_size=1, max_size=4,
                                         unique=True).map(sorted),
        env=_link,
        mode=st.sampled_from(["unoptimized", "optimized", "both"]), reference=_reference,
        optimizer=_optimizer, max_points=_count, symbol_rate=st.none() | _positive,
        eval_num_symbols=st.none() | _count),
}

_BIG = float(np.finfo(float).max)
_TINY = float(np.nextafter(0.0, 1.0))
# the smallest and the largest instance each _VALID strategy allows
_EDGES = {
    "LpfConfig": (LpfConfig(order=1, bandwidth_norm=0.05, num_taps=1),
                  LpfConfig(order=8, bandwidth_norm=2.0, num_taps=513)),
    "QuantizerSpec": (QuantizerSpec(bits=1, clipping_factor=CLIPPING_RANGE[0]),
                      QuantizerSpec(bits=MAX_BITS, clipping_factor=CLIPPING_RANGE[1])),
    "GroupSigmas": (GroupSigmas(-_BIG, -_BIG, -_BIG), GroupSigmas(_BIG, _BIG, _BIG)),
    "GroupRates": (GroupRates(-_BIG, -_BIG, -_BIG), GroupRates(_BIG, _BIG, _BIG)),
    "ReferencePoint": (ReferencePoint(ref_taps=1, ref_bits=1),
                       ReferencePoint(ref_taps=2**31, ref_bits=62)),
}
_EDGES["LinkConfig"] = tuple(
    LinkConfig(distance_km=distance, attenuation_db_per_km=3076.0 / distance if distance
               else 0.0, channel_excess_photons=excess, sps=sps, lpf=lpf, dac=quant,
               adc=quant, tx_len=count, rx_len=count, num_symbols=max(count, 513), seed=seed)
    for distance, excess, sps, lpf, quant, count, seed in (
        (0.0, 0.0, 1, _EDGES["LpfConfig"][0], None, 1, 0),
        (_BIG, _BIG, 64, _EDGES["LpfConfig"][1], _EDGES["QuantizerSpec"][1], 2**31,
         2**64 - 1)))
_EDGES["OptimizerConfig"] = tuple(
    OptimizerConfig(batch_size=batch, learning_rate=GroupRates(rate, rate, rate),
                    iterations=iterations, sigma_init=GroupSigmas(rate, rate, rate),
                    sigma_decay=unit, sigma_floor=floor, seed=seed, beta=unit)
    for batch, rate, iterations, unit, floor, seed in (
        (2, _TINY, 0, _TINY, 0.0, 0), (2**31, _BIG, 2**31, 1.0, _BIG, 2**64 - 1)))
_EDGES["SweepSpec"] = (
    SweepSpec(kind="bits-sweep", bits=[1], taps=[1], distances_km=[0.0],
              photon_grid=[_TINY], env=_EDGES["LinkConfig"][0], mode="unoptimized",
              reference=_EDGES["ReferencePoint"][0], optimizer=_EDGES["OptimizerConfig"][0],
              max_points=1, symbol_rate=None, eval_num_symbols=None),
    SweepSpec(kind="taps-bits-grid", bits=[62] * 4, taps=[2**31] * 4,
              distances_km=[_BIG] * 4, photon_grid=[_BIG / 4, _BIG / 2, _BIG * 0.75, _BIG],
              env=_EDGES["LinkConfig"][1], mode="both",
              reference=_EDGES["ReferencePoint"][1], optimizer=_EDGES["OptimizerConfig"][1],
              max_points=2**31, symbol_rate=_BIG, eval_num_symbols=2**31))


class _EdgeDraws:
    """Stands in for ``st.data()`` in an ``@example``: each draw from a
    ``_VALID`` strategy gives that strategy's smallest (``end=0``) or
    largest (``end=1``) instance from ``_EDGES``."""

    def __init__(self, end):
        self.end = end

    def draw(self, strategy):
        name = next(name for name, valid in _VALID.items() if valid is strategy)
        return _EDGES[name][self.end]


class TestRunSweep:
    def test_bits_sweep_modes_and_schema(self, tmp_path):
        spec = SweepSpec(kind="bits-sweep", bits=[8, 10], env=_tiny_env(),
                         mode="both", photon_grid=[2.0], optimizer=_tiny_optimizer())
        records = run_sweep(spec)
        assert len(records) == 4
        by_bits = {}
        for rec in records:
            by_bits.setdefault(rec.outputs["bits"], {})[rec.outputs["mode"]] = \
                rec.outputs["skr_bits_per_symbol"]
        for bits, modes in by_bits.items():
            assert modes["optimized"] >= modes["unoptimized"]
        paths = report(records, tmp_path)
        csv = (tmp_path / "bits-sweep.csv").read_text().splitlines()
        assert csv[0] == "bits,mode,skr_bits_per_symbol,tau,n_ex,seed"
        assert len(csv) == 5

    def test_rerunning_sweep_is_deterministic(self):
        spec = SweepSpec(kind="bits-sweep", bits=[10], env=_tiny_env(),
                         mode="unoptimized", photon_grid=[2.0],
                         optimizer=_tiny_optimizer())
        one = run_sweep(spec)
        two = run_sweep(spec)
        assert one[0].outputs == two[0].outputs

    def test_failing_start_does_not_abort_sweep(self):
        # the start at 1e300 photons fails in the optimizer and again as a
        # contender; the optimized point comes from a valid episode
        spec = SweepSpec(kind="distance-sweep", distances_km=[20.0],
                         env=_tiny_env(), mode="optimized", photon_grid=[1e300],
                         optimizer=_tiny_optimizer(batch_size=8, iterations=2, seed=4,
                                                   sigma_init=GroupSigmas(n=300.0)))
        records = run_sweep(spec)
        assert len(records) == 1
        assert np.isfinite(records[0].outputs["skr_bits_per_symbol"])
        assert records[0].outputs["mean_photon"] < 1e100

    @pytest.mark.parametrize("overrides,message", [
        # 11/21 taps and the 257-tap LPF: ceil(287 / 4) = 72 symbols per edge
        ({"eval_num_symbols": 100},
         r"grid point bits=8: num_symbols=100 too small for the filter transient "
         r"\(72 symbols per edge\)"),
        ({"env": _tiny_env(num_symbols=140), "eval_num_symbols": 3_000},
         r"grid point bits=8 \(optimizer block\): num_symbols=140 .*transient"),
        ({"kind": "taps-bits-grid", "taps": [21], "eval_num_symbols": 2_000},
         r"taps-bits reference taps=1001: num_symbols=2000 .*transient "
         r"\(565 symbols per edge\)"),
        ({"kind": "photon-scan", "eval_num_symbols": 100},
         r"photon scan: num_symbols=100 too small for the filter transient "
         r"\(72 symbols per edge\)")],
        ids=["eval_block", "optimizer_block", "reference", "photon_scan"])
    def test_short_block_fails_before_any_chain(self, monkeypatch, overrides, message):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(experiments, "run_chain", no_chain)
        monkeypatch.setattr(reinforce, "run_chain", no_chain)
        spec = SweepSpec(**{**dict(kind="bits-sweep", bits=[8], env=_tiny_env(),
                                   mode="optimized", photon_grid=[2.0],
                                   optimizer=_tiny_optimizer()), **overrides})
        with pytest.raises(ValueError, match=message):
            run_sweep(spec)

    def test_short_optimizer_block_is_fine_without_optimizing(self):
        spec = SweepSpec(kind="bits-sweep", bits=[8], env=_tiny_env(num_symbols=140),
                         mode="unoptimized", photon_grid=[2.0], eval_num_symbols=3_000,
                         optimizer=_tiny_optimizer())
        assert np.isfinite(run_sweep(spec)[0].outputs["skr_bits_per_symbol"])

    def test_both_contenders_failing_names_each_cause(self):
        spec = SweepSpec(kind="bits-sweep", bits=[8], env=_tiny_env(),
                         optimizer=_tiny_optimizer())
        init = reinforce.PolicyState.from_params(
            reinforce.TransceiverParams(*baseline_filters(spec.env), 2.0))
        with pytest.raises(ValueError, match=r"\(optimized: .*transient.*; initial: .*transient"):
            experiments._optimized_point(spec.env, replace(spec.env, num_symbols=100),
                                         spec, init, workers=1)

    def test_at_most_one_scan_per_grid_point(self, monkeypatch):
        # counts anchor scans; each optimized contender is a one-point
        # photon_scan of its own, which does not go through _scan
        calls = []
        scan = experiments._scan
        monkeypatch.setattr(experiments, "_scan",
                            lambda *a, **k: calls.append(1) or scan(*a, **k))
        spec = SweepSpec(kind="bits-sweep", bits=[8, 10], env=_tiny_env(),
                         photon_grid=[1.0, 2.0, 4.0], optimizer=_tiny_optimizer())
        runs = {}
        # the second optimized point warm-starts and needs no start photon number
        for mode, scans in [("unoptimized", 2), ("optimized", 1), ("both", 2)]:
            calls.clear()
            runs[mode] = run_sweep(replace(spec, mode=mode))
            assert len(calls) == scans, mode
        # a one-point grid is the cold start's photon number without a scan
        calls.clear()
        run_sweep(replace(spec, mode="optimized", photon_grid=[2.0]))
        assert calls == []
        for mode in ("unoptimized", "optimized"):
            assert [r.outputs for r in runs["both"] if r.outputs["mode"] == mode] \
                == [r.outputs for r in runs[mode]]

    @pytest.mark.parametrize("ref_taps,chains", [(31, 2), (41, 3)],
                             ids=["reference_on_grid", "reference_off_grid"])
    def test_one_chain_per_grid_point(self, monkeypatch, ref_taps, chains):
        # a 5-point photon grid, with the reference's own scan when it is
        # not a grid point
        calls = []
        chain = experiments.run_chain
        monkeypatch.setattr(experiments, "run_chain",
                            lambda *a, **k: calls.append(1) or chain(*a, **k))
        spec = SweepSpec(kind="taps-bits-grid", taps=[21, 31], bits=[12],
                         env=_tiny_env(num_symbols=4_000), mode="unoptimized",
                         photon_grid=[1.0, 2.0, 3.0, 4.0, 5.0],
                         reference=ReferencePoint(ref_taps=ref_taps, ref_bits=12))
        assert len(run_sweep(spec)) == 2
        assert len(calls) == chains

    def test_fixed_photon_anchor_is_a_one_point_scan(self):
        spec = SweepSpec(kind="bits-sweep", bits=[10], env=_tiny_env(),
                         mode="unoptimized", photon_grid=[2.0],
                         eval_num_symbols=4_000, optimizer=_tiny_optimizer())
        (record,) = run_sweep(spec)
        env = replace(spec.env, num_symbols=4_000)
        best, _ = photon_scan(env, [2.0], *baseline_filters(env),
                              beta=spec.optimizer.beta)
        assert record.outputs == {"bits": 10, "mode": "unoptimized", **best["detail"]}

    @pytest.mark.parametrize("kind", ["bits-sweep", "photon-scan"])
    def test_symbol_rate_adds_bits_per_second(self, kind):
        spec = SweepSpec(kind=kind, bits=[10], photon_grid=[1.0, 2.0],
                         env=_tiny_env(), mode="unoptimized",
                         optimizer=_tiny_optimizer())
        assert all("skr_bits_per_second" not in r.outputs for r in run_sweep(spec))
        for rec in run_sweep(replace(spec, symbol_rate=1e8)):
            assert rec.outputs["skr_bits_per_second"] == \
                rec.outputs["skr_bits_per_symbol"] * 1e8

    @pytest.mark.parametrize("workers", [0, -3])
    def test_refuses_workers_below_one(self, workers, monkeypatch):
        # even an unoptimized sweep, which starts no thread, refuses them
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(experiments, "run_chain", no_chain)
        spec = SweepSpec(kind="bits-sweep", bits=[10], env=_tiny_env(),
                         mode="unoptimized", photon_grid=[2.0])
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(spec, workers=workers)

    def test_refuses_workers_over_the_bound(self, monkeypatch):
        # refused before any chain or thread can start
        def no_run(*args, **kwargs):
            raise AssertionError("a thread pool or a chain started")
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_run)
        monkeypatch.setattr(experiments, "run_chain", no_run)
        monkeypatch.setattr(reinforce, "run_chain", no_run)
        spec = SweepSpec(kind="bits-sweep", bits=[10], env=_tiny_env(),
                         mode="optimized", photon_grid=[2.0],
                         optimizer=_tiny_optimizer(batch_size=MAX_WORKERS + 1))
        with pytest.raises(ValueError, match=f"workers must be <= {MAX_WORKERS}, "
                                             f"got {MAX_WORKERS + 1}"):
            run_sweep(spec, workers=MAX_WORKERS + 1)

    @pytest.mark.parametrize("kind,mode,size", [
        ("bits-sweep", "both", 4), ("distance-sweep", "optimized", 3),
        ("taps-bits-grid", "both", 9), ("taps-bits-grid", "unoptimized", 5),
        ("photon-scan", "both", 5)])
    def test_grid_size(self, kind, mode, size):
        # the taps-bits grid adds its reference point
        spec = SweepSpec(kind=kind, bits=[8, 10], taps=[11, 21],
                         distances_km=[10.0, 20.0, 30.0],
                         photon_grid=[1.0, 2.0, 3.0, 4.0, 5.0], mode=mode)
        assert spec.grid_size() == size

    def test_budget_refusal_names_cost(self):
        spec = SweepSpec(kind="bits-sween" if False else "bits-sweep",
                         bits=[6, 8, 10, 12], env=_tiny_env(), max_points=3)
        with pytest.raises(BudgetError, match="8 grid points"):
            run_sweep(spec)

    def test_distance_sweep_schema(self, tmp_path):
        spec = SweepSpec(kind="distance-sweep", distances_km=[10.0, 20.0],
                         env=_tiny_env(), mode="unoptimized", photon_grid=[2.0],
                         optimizer=_tiny_optimizer())
        records = run_sweep(spec)
        report(records, tmp_path)
        csv = (tmp_path / "distance-sweep.csv").read_text().splitlines()
        assert csv[0] == "distance_km,mode,skr_bits_per_symbol,tau,n_ex,seed"

    def test_grid_reference_gap_is_zero_and_bounded(self, tmp_path):
        spec = SweepSpec(kind="taps-bits-grid", taps=[21, 31], bits=[12],
                         env=_tiny_env(num_symbols=4_000),
                         mode="unoptimized", photon_grid=[2.0],
                         reference=ReferencePoint(ref_taps=31, ref_bits=12),
                         optimizer=_tiny_optimizer())
        records = run_sweep(spec)
        gaps = {rec.outputs["taps"]: rec.outputs["gap"] for rec in records}
        assert gaps[31] == 0.0  # the reference point itself
        assert all(g <= 1.0 for g in gaps.values())
        report(records, tmp_path)
        csv = (tmp_path / "taps-bits-grid.csv").read_text().splitlines()
        assert csv[0] == "taps,bits,mode,skr_bits_per_symbol,gap,seed"

    def test_reference_on_the_grid_is_scanned_once(self, monkeypatch):
        calls = []
        scan = experiments.photon_scan
        monkeypatch.setattr(experiments, "photon_scan",
                            lambda *a, **k: calls.append(1) or scan(*a, **k))
        spec = SweepSpec(kind="taps-bits-grid", taps=[21, 31], bits=[12],
                         env=_tiny_env(num_symbols=4_000),
                         mode="unoptimized",
                         reference=ReferencePoint(ref_taps=31, ref_bits=12),
                         optimizer=_tiny_optimizer())
        records = run_sweep(spec)
        assert len(calls) == 2  # one per grid point; the 31-tap one is the reference
        # each record holds its point's anchor, evaluated on its own
        quant = QuantizerSpec(bits=12)
        anchors = {taps: experiments._scan(spec, replace(spec.env, dac=quant, adc=quant,
                                                         tx_len=taps, rx_len=taps),
                                           spec.photon_grid)[0]["detail"]
                   for taps in (21, 31)}
        ref_skr = anchors[31]["skr_bits_per_symbol"]
        for rec in records:
            anchor = anchors[rec.outputs["taps"]]
            assert rec.outputs == {"taps": rec.outputs["taps"], "bits": 12,
                                   "mode": "unoptimized", **anchor,
                                   "gap": (ref_skr - anchor["skr_bits_per_symbol"]) / ref_skr,
                                   "ref_skr_bits_per_symbol": ref_skr}


class TestPhotonScan:
    def test_noiseless_scan_is_monotone(self):
        env = _tiny_env(distance_km=0.0, channel_excess_photons=0.0,
                        dac=None, adc=None, tx_len=41, rx_len=41,
                        num_symbols=4_000)
        h_tx, h_rx = baseline_filters(env)
        best, curve = photon_scan(env, list(np.geomspace(0.5, 10.0, 9)),
                                  h_tx=h_tx, h_rx=h_rx, beta=1.0)
        rates = [row["skr_bits_per_symbol"] for row in curve]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert best["n_photon"] == pytest.approx(10.0)

    def test_rejects_unsorted_grid(self):
        env = _tiny_env()
        with pytest.raises(ValueError):
            photon_scan(env, [2.0, 1.0], *baseline_filters(env))

    @pytest.mark.parametrize("grid,message", [
        ([], "must not be empty"), ([1.0, np.inf], "positive and finite"),
        ([np.nan], "positive and finite")], ids=["empty", "inf", "nan"])
    def test_rejects_empty_or_non_finite_grid(self, monkeypatch, grid, message):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(experiments, "run_chain", no_chain)
        env = _tiny_env()
        with pytest.raises(ValueError, match=message):
            photon_scan(env, grid, *baseline_filters(env))

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_runs_one_chain_for_any_grid_length(self, monkeypatch, size):
        calls = []
        chain = experiments.run_chain
        monkeypatch.setattr(experiments, "run_chain",
                            lambda *a, **k: calls.append(1) or chain(*a, **k))
        env = _tiny_env()
        _, curve = photon_scan(env, [1.0 + k for k in range(size)], *baseline_filters(env))
        assert len(curve) == size and len(calls) == 1

    @pytest.mark.parametrize("shape", ["criterion5_6bit", "criterion6_11tap_6bit",
                                       "criterion6_reference", "criterion8b"])
    def test_matches_one_chain_per_point(self, shape):
        # The chain is homogeneous in amplitude, so scaling the first point's
        # chain by n/n0 reproduces each point's own chain up to rounding: x/Delta
        # at each converter moves by about 2 ulp. The match can fail only where
        # that flips a quantizer decision, when x/Delta sits within a few ulp
        # of a level edge. One scan per shape of acceptance criteria 5, 6 and 8.
        bits6, bits16 = QuantizerSpec(bits=6), QuantizerSpec(bits=16)
        c6 = dict(distance_km=50.0, channel_excess_photons=1e-3, num_symbols=50_000,
                  seed=17)
        grid = list(np.geomspace(0.3, 20.0, 15))
        if shape == "criterion5_6bit":
            env = LinkConfig(distance_km=100.0, channel_excess_photons=1e-4, dac=bits6,
                             adc=bits6, tx_len=11, rx_len=101, num_symbols=50_000, seed=31)
            grid = list(np.geomspace(0.3, 20.0, 21))
        elif shape == "criterion6_11tap_6bit":
            env = LinkConfig(**c6, dac=bits6, adc=bits6, tx_len=11, rx_len=11)
        elif shape == "criterion6_reference":
            env = LinkConfig(**c6, dac=bits16, adc=bits16, tx_len=1001, rx_len=1001)
        else:
            env = LinkConfig(distance_km=100.0, dac=bits16, adc=bits16, tx_len=1001,
                             rx_len=1001, num_symbols=100_000, seed=29)
            # 1e-3 photons at the channel input
            env = replace(env, channel_excess_photons=1e-3 * env.channel_transmittance)
            grid = [float(n) for n in np.geomspace(0.5, 40.0, 33)]
        filters = (rrc_filter(0.2, 250, env.sps),) * 2 if shape == "criterion8b" \
            else baseline_filters(env)
        best, curve = photon_scan(env, grid, *filters)
        ref_best, ref_curve = reference_photon_scan(env, grid, *filters, DEFAULT_BETA)
        assert best["n_photon"] == ref_best["n_photon"]
        for row, ref in zip(curve, ref_curve, strict=True):
            got, want = row["detail"], ref["detail"]
            assert got.keys() == want.keys()
            assert got["skr_bits_per_symbol"] == pytest.approx(
                want["skr_bits_per_symbol"], rel=1e-9, abs=1e-12)
            for key in ("tau", "n_ex", "dac_noise", "adc_noise"):
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
            for key in ("mean_photon", "isi_sum", "c0_sq"):
                assert got[key] == want[key], key

    def test_sweep_kind_emits_schema(self, tmp_path):
        spec = SweepSpec(kind="photon-scan",
                         photon_grid=[1.0, 2.0, 4.0],
                         env=_tiny_env(), optimizer=_tiny_optimizer())
        records = run_sweep(spec)
        assert len(records) == 3
        report(records, tmp_path)
        csv = (tmp_path / "photon-scan.csv").read_text().splitlines()
        assert csv[0] == "n_photon,skr_bits_per_symbol"

    def test_unoptimized_anchor_positive_at_long_distance(self):
        # truncated filters, high resolution, scanned photon number
        env = _tiny_env(distance_km=100.0, channel_excess_photons=1e-4,
                        dac=QuantizerSpec(bits=16), adc=QuantizerSpec(bits=16),
                        tx_len=11, rx_len=101, num_symbols=50_000)
        h_tx, h_rx = baseline_filters(env)
        best, _ = photon_scan(env, list(np.geomspace(0.3, 10.0, 17)),
                              h_tx=h_tx, h_rx=h_rx)
        assert best["skr_bits_per_symbol"] > 0.0


class TestReport:
    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report([], tmp_path)
        assert not list(tmp_path.iterdir())

    def test_byte_identical_re_reporting(self, tmp_path):
        spec = SweepSpec(kind="bits-sweep", bits=[10], env=_tiny_env(),
                         mode="unoptimized", photon_grid=[2.0],
                         optimizer=_tiny_optimizer())
        records = run_sweep(spec)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        report(records, dir_a)
        report(records, dir_b)
        assert (dir_a / "bits-sweep.csv").read_bytes() == \
            (dir_b / "bits-sweep.csv").read_bytes()

    def test_records_round_trip(self, tmp_path):
        spec = SweepSpec(kind="bits-sweep", bits=[10], env=_tiny_env(),
                         mode="unoptimized", photon_grid=[2.0],
                         optimizer=_tiny_optimizer())
        records = run_sweep(spec)
        path = save_records(records, tmp_path / "records.json")
        loaded = load_records(path)
        assert loaded[0].outputs == records[0].outputs
        assert loaded[0].kind == records[0].kind

    def test_manifest_lists_configs_and_version(self, tmp_path):
        spec = SweepSpec(kind="photon-scan", photon_grid=[1.0, 2.0],
                         env=_tiny_env(), optimizer=_tiny_optimizer())
        records = run_sweep(spec)
        report(records, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifact_version"] == "0.1.0"
        assert manifest["num_records"] == 2
        assert manifest["configs"]
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__}


class TestConfigLoading:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            dataclass_from_dict(LinkConfig, {"distance_km": 10.0, "spd": 4})

    def test_nested_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="lpf.*widht"):
            dataclass_from_dict(LinkConfig, {"lpf": {"widht": 0.5}})

    def test_nested_dataclasses_parse(self):
        link = dataclass_from_dict(LinkConfig, {
            "distance_km": 30.0,
            "dac": {"bits": 9},
            "adc": None,
            "lpf": {"num_taps": 129},
        })
        assert link.dac.bits == 9
        assert link.adc is None
        assert link.lpf.num_taps == 129

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            dataclass_from_dict(LinkConfig, {"distance_km": "far"})

    def test_defaults_dump_is_complete(self):
        defaults = all_defaults()
        assert defaults["beta"] == 0.90
        assert defaults["link"]["attenuation_db_per_km"] == 0.2
        assert defaults["link"]["sps"] == 4
        assert defaults["lpf"] == {"order": 4, "bandwidth_norm": 0.75,
                                   "num_taps": 257}
        assert defaults["quantizer"]["clipping_factor"] == 4.0
        assert defaults["sweep"]["reference"] == {"ref_taps": 1001,
                                                  "ref_bits": 16}
        assert defaults["sweep"] == asdict(SweepSpec())
        assert "photon_mode" not in defaults["sweep"]
        assert "mean_photon" not in defaults["sweep"]
        assert "baseline_decay" not in defaults["optimizer"]

    @pytest.mark.parametrize("kind", experiments.SWEEP_KINDS)
    def test_default_photon_grid_by_kind(self, kind):
        # distance sweeps pin the photon number; the other kinds scan it
        spec = dataclass_from_dict(SweepSpec, {"kind": kind})
        if kind == "distance-sweep":
            assert spec.photon_grid == [6.0]
        else:
            assert spec.photon_grid == list(np.geomspace(0.5, 40.0, 33))
        assert asdict(spec)["photon_grid"] == spec.photon_grid  # stored concrete

    @pytest.mark.parametrize("default", [
        LinkConfig(), LpfConfig(), QuantizerSpec(bits=10), OptimizerConfig(),
        GroupSigmas(), GroupRates(), SweepSpec(), ReferencePoint()],
        ids=lambda d: type(d).__name__)
    def test_default_round_trips_through_dict(self, default):
        assert dataclass_from_dict(type(default), asdict(default)) == default

    @pytest.mark.parametrize("name", sorted(_VALID))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    # the strategies' ends, whatever constants hypothesis mines
    @example(data=_EdgeDraws(0))
    @example(data=_EdgeDraws(1))
    def test_valid_instances_round_trip_through_dict(self, name, data):
        # also through JSON text, as a config file holds them
        value = data.draw(_VALID[name])
        for doc in (asdict(value), json.loads(json.dumps(asdict(value)))):
            assert dataclass_from_dict(type(value), doc) == value

    def test_sweep_spec_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "kind": "bits-sweep", "bits": [8],
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21},
            "mode": "unoptimized", "photon_grid": [2.0],
        }))
        spec = load_sweep_spec(path)
        assert spec.bits == [8]
        assert spec.env.num_symbols == 3000


class _ChainReached(Exception):
    """Raised by the patched ``run_chain``: the sweep got to its first chain."""


def _chain_reached(config, h_tx, h_rx, *args, **kwargs):
    transient_margin(config, len(h_tx), len(h_rx))  # the chain's block rule
    raise _ChainReached


# blocks past their filter transients but below the estimator's 1000 pairs:
# 11/101 taps keep 16 symbols of 200, and 11/21 taps keep 56 in the
# optimizer's block
_BELOW_THE_FLOOR = [
    {"kind": "bits-sweep", "bits": [8], "mode": "unoptimized", "photon_grid": [2.0],
     "env": {"num_symbols": 200}},
    {"kind": "bits-sweep", "bits": [8], "mode": "optimized", "photon_grid": [2.0],
     "eval_num_symbols": 3000, "env": {"num_symbols": 200, "tx_len": 11, "rx_len": 21}}]


class TestChecksAtLoad:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(spec=_VALID["SweepSpec"])
    @example(spec=SweepSpec(kind="bits-sweep", bits=[8], env=_tiny_env(), mode="both",
                            photon_grid=[2.0]))
    @example(spec=SweepSpec(kind="bits-sweep", bits=[8], env=_tiny_env(rx_len=21),
                            mode="unoptimized", photon_grid=[2.0], eval_num_symbols=100))
    @example(spec=dataclass_from_dict(SweepSpec, _BELOW_THE_FLOOR[0]))
    @example(spec=dataclass_from_dict(SweepSpec, _BELOW_THE_FLOOR[1]))
    def test_loaded_spec_fails_first_in_the_chain(self, spec):
        # a spec that loads is free of every length, transient, photon-grid
        # and beta error and within its evaluation budget: its run fails
        # first in run_chain (patched to raise once the block passes the
        # chain's own transient check). A spec may ask for 2^31 taps, so
        # only short filters are designed.
        def filters(env):
            if max(env.tx_len, env.rx_len) <= 4096:
                return baseline_filters(env)
            return FirFilter(np.ones(1)), FirFilter(np.ones(1))

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(asdict(spec)))
            try:
                loaded = load_sweep_spec(path)
            except (ConfigError, BudgetError):
                return
        with mock.patch.object(experiments, "run_chain", _chain_reached), \
                mock.patch.object(reinforce, "run_chain", _chain_reached), \
                mock.patch.object(experiments, "baseline_filters", filters):
            with pytest.raises(_ChainReached):
                run_sweep(loaded)


class TestCli:
    def test_defaults_command(self, capsys):
        assert cli.main(["defaults"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["beta"] == 0.90

    def test_simulate_command(self, tmp_path, capsys):
        cfg = tmp_path / "link.json"
        cfg.write_text(json.dumps({"distance_km": 20.0, "num_symbols": 3000,
                                   "tx_len": 11, "rx_len": 21}))
        assert cli.main(["simulate", "--config", str(cfg),
                         "--mean-photon", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "budget" in payload and "skr_bits_per_symbol" in payload

    @pytest.mark.parametrize("flag,value,name", [
        ("--beta", "1.5", "beta"), ("--beta", "nan", "beta"),
        ("--mean-photon", "-1", "mean_photon"), ("--mean-photon", "nan", "mean_photon"),
        ("--mean-photon", "inf", "mean_photon")])
    def test_bad_simulate_argument_is_config_error(self, tmp_path, capsys,
                                                   flag, value, name):
        # rejected before the config loads, so no chain runs
        cfg = tmp_path / "link.json"
        cfg.write_text(json.dumps({"distance_km": 20.0, "num_symbols": 3000,
                                   "tx_len": 11, "rx_len": 21}))
        assert cli.main(["simulate", "--config", str(cfg), flag, value]) == 2
        captured = capsys.readouterr()
        assert name in captured.err and captured.out == ""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_attenuation_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "link.json"
        cfg.write_text(json.dumps({"attenuation_db_per_km": value, "num_symbols": 3000,
                                   "tx_len": 11, "rx_len": 21}))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "attenuation_db_per_km" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    @pytest.mark.parametrize("beta", [1.5, 0.0, float("nan")])
    def test_bad_beta_is_config_error(self, tmp_path, capsys, monkeypatch,
                                      command, beta):
        # rejected while the config loads, before any chain runs
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(experiments, "run_chain", no_chain)
        monkeypatch.setattr(reinforce, "run_chain", no_chain)
        cfg = tmp_path / "cfg.json"
        doc = {"env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21},
               "optimizer": {"batch_size": 4, "iterations": 1, "beta": beta}}
        if command == "optimize":
            args = ["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]
        else:
            doc.update(kind="bits-sweep", bits=[8], photon_grid=[2.0])
            args = ["sweep", "--spec", str(cfg), "--out-dir", str(tmp_path / "out")]
        cfg.write_text(json.dumps(doc))
        assert cli.main(args) == 2
        assert "beta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # each of these links constructed before and failed only in its chain:
    # 1100 bits overflow the step's 1 << bits, the loading factors under- or
    # overflow the full scale, and 1e5 km leaves a transmittance of 0.0
    @pytest.mark.parametrize("command", ["simulate", "optimize", "sweep"])
    @pytest.mark.parametrize("env,name", [
        ({"dac": {"bits": 1100}}, "bits"),
        ({"adc": {"bits": 10, "clipping_factor": 1e-300}}, "clipping_factor"),
        ({"dac": {"bits": 10, "clipping_factor": 1e300}}, "clipping_factor"),
        ({"distance_km": 1e5}, "distance_km=100000.0 at attenuation_db_per_km=0.2")],
        ids=["bits", "kappa-low", "kappa-high", "distance"])
    def test_link_that_cannot_run_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                  command, env, name):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(cli, "run_chain", no_chain)
        monkeypatch.setattr(experiments, "run_chain", no_chain)
        monkeypatch.setattr(reinforce, "run_chain", no_chain)
        env = {"num_symbols": 3000, "tx_len": 11, "rx_len": 21, **env}
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        if command == "simulate":
            doc, args = env, ["simulate", "--config", str(cfg)]
        elif command == "optimize":
            doc = {"env": env, "optimizer": {"batch_size": 4, "iterations": 1}}
            args = ["optimize", "--config", str(cfg), "--out", str(out)]
        else:
            doc = {"kind": "bits-sweep", "bits": [8], "photon_grid": [2.0],
                   "mode": "unoptimized", "env": env}
            args = ["sweep", "--spec", str(cfg), "--out-dir", str(out)]
        cfg.write_text(json.dumps(doc))
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert name in captured.err and captured.out == ""
        assert not out.exists()

    # json reads Infinity, so each document is refused when it loads, by the
    # key that holds it, before any chain runs
    @pytest.mark.parametrize("command,doc,name", [
        ("simulate", {"channel_excess_photons": float("inf")}, "channel_excess_photons"),
        ("sweep", {"kind": "photon-scan", "photon_grid": [1.0, float("inf")]},
         "photon_grid"),
        ("optimize", {"mean_photon": float("inf")}, "mean_photon"),
        ("sweep", {"kind": "photon-scan", "photon_grid": [1.0, 2.0],
                   "symbol_rate": float("inf")}, "symbol_rate")],
        ids=["simulate-excess", "sweep-grid", "optimize-photon", "sweep-symbol-rate"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, monkeypatch,
                                               command, doc, name):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(cli, "run_chain", no_chain)
        monkeypatch.setattr(experiments, "run_chain", no_chain)
        monkeypatch.setattr(reinforce, "run_chain", no_chain)
        env = {"num_symbols": 3000, "tx_len": 11, "rx_len": 21}
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        if command == "simulate":
            doc, args = {**env, **doc}, ["simulate", "--config", str(cfg)]
        elif command == "optimize":
            doc = {"env": env, "optimizer": {"batch_size": 4, "iterations": 1}, **doc}
            args = ["optimize", "--config", str(cfg), "--out", str(out)]
        else:
            doc = {"env": env, **doc}
            args = ["sweep", "--spec", str(cfg), "--out-dir", str(out)]
        cfg.write_text(json.dumps(doc))
        assert "Infinity" in cfg.read_text()
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and name in captured.err
        assert captured.out == ""
        assert not out.exists()

    # the Python API refuses what the loader refuses, when the object is built
    @pytest.mark.parametrize("cls,fields,message", [
        (LinkConfig, {"channel_excess_photons": float("inf")},
         "channel_excess_photons must be >= 0 and finite"),
        (SweepSpec, {"kind": "photon-scan", "photon_grid": [1.0, 2.0],
                     "symbol_rate": float("inf")},
         "symbol_rate must be positive and finite, got inf"),
        (OptimizeRun, {"mean_photon": float("inf")},
         "mean_photon must be positive and finite, got inf"),
        (OptimizerConfig, {"learning_rate": GroupRates(n=float("inf"))},
         "learning_rate must be positive and finite"),
        (OptimizerConfig, {"sigma_init": GroupSigmas(tx=float("inf"))},
         "sigma_init must be positive and finite"),
        (OptimizerConfig, {"sigma_floor": float("inf")},
         "sigma_floor must be >= 0 and finite")],
        ids=["link-excess", "sweep-symbol-rate", "optimize-photon",
             "optimizer-rate", "optimizer-sigma", "optimizer-floor"])
    def test_non_finite_number_is_refused_by_the_constructor(self, cls, fields,
                                                             message):
        with pytest.raises(ValueError, match=message):
            cls(**fields)

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"distance_km": 20.0, "unknown_field": 1}))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key", ["channel_excess_photons", "distance_km"])
    def test_nan_config_value_is_config_error(self, tmp_path, capsys, key):
        # json accepts NaN; the range checks must reject it
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps({key: float("nan"), "num_symbols": 3000,
                                   "tx_len": 11, "rx_len": 21}))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("section,value", [
        ("learning_rate", {"tx": float("nan")}),
        ("sigma_init", {"rx": float("nan")}),
        ("sigma_init", {"n": 0.0}),
        ("sigma_floor", float("nan")),
        ("sigma_floor", -1e-3)])
    def test_bad_optimizer_value_is_config_error(self, tmp_path, capsys,
                                                  section, value):
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21},
            "optimizer": {"batch_size": 4, "iterations": 1, section: value}}))
        assert cli.main(["optimize", "--config", str(cfg),
                         "--out", str(tmp_path / "trace.csv")]) == 2
        assert section in capsys.readouterr().err

    def test_optimizer_without_valid_reward_is_runtime_error(self, tmp_path,
                                                              capsys):
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21},
            "mean_photon": 1e300,
            "optimizer": {"batch_size": 4, "iterations": 1,
                          "sigma_init": {"n": 1e-3}}}))
        assert cli.main(["optimize", "--config", str(cfg),
                         "--out", str(tmp_path / "trace.csv")]) == 4
        assert "no valid reward" in capsys.readouterr().err

    def test_nan_sweep_mean_photon_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "bits-sweep", "bits": [8], "photon_grid": [float("nan")],
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21},
            "mode": "unoptimized"}))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("section,key", [
        ("optimizer", "clip_reward"), ("optimizer", "use_estimated_params"),
        ("optimizer", "common_random_numbers"), ("optimizer", "adaptive_step"),
        ("optimizer", "baseline_decay"), ("env", "include_lpf_in_response")])
    def test_removed_key_is_config_error(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({section: {key: True}}))
        assert cli.main(["optimize", "--config", str(cfg),
                         "--out", str(tmp_path / "trace.csv")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("mean_photon", ["2", None, -1.0, True])
    def test_bad_optimize_mean_photon_is_config_error(self, tmp_path, capsys,
                                                      mean_photon):
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21},
            "optimizer": {"batch_size": 4, "iterations": 1},
            "mean_photon": mean_photon}))
        assert cli.main(["optimize", "--config", str(cfg),
                         "--out", str(tmp_path / "trace.csv")]) == 2
        assert "mean_photon" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_even_lpf_taps_are_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "link.json"
        cfg.write_text(json.dumps({"num_symbols": 3000, "tx_len": 11, "rx_len": 21,
                                   "lpf": {"num_taps": 256}}))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "num_taps must be odd" in capsys.readouterr().err

    @pytest.mark.parametrize("fields,message", [
        ({"photon_grid": [0.0, 1.0]}, "photon grid must be positive"),
        ({"photon_grid": [2.0, 1.0]}, "photon grid must be sorted"),
        ({"eval_num_symbols": 0}, "eval_num_symbols"),
        # too short for the 257-tap LPF at 4 samples per symbol
        ({"eval_num_symbols": 10}, "lpf.num_taps=257"),
        ({"symbol_rate": -1.0}, "symbol_rate")],
        ids=["non_positive_grid", "unsorted_grid", "no_eval_symbols",
             "short_eval_block", "negative_symbol_rate"])
    def test_bad_sweep_value_is_config_error(self, tmp_path, capsys, fields,
                                             message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "bits-sweep", "bits": [8], "mode": "unoptimized",
            "photon_grid": [1.0, 2.0],
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21}, **fields}))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_reference_without_key_stops_before_the_grid(self, tmp_path, capsys,
                                                         monkeypatch):
        calls = []
        scan = experiments.photon_scan
        monkeypatch.setattr(experiments, "photon_scan",
                            lambda *a, **k: calls.append(1) or scan(*a, **k))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "taps-bits-grid", "taps": [11], "bits": [8],
            "mode": "unoptimized", "photon_grid": [6.0],
            "reference": {"ref_taps": 21, "ref_bits": 12},
            "env": {"num_symbols": 3000, "distance_km": 100.0, "tx_len": 11,
                    "rx_len": 21}}))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "reference point (21 taps, 12 bits)" in err
        assert "gap is undefined" in err
        assert len(calls) == 1  # the reference alone

    def test_removed_sweep_key_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        # a fixed photon number is the one-point grid [mean_photon]
        spec.write_text(json.dumps({"kind": "bits-sweep", "bits": [8],
                                    "warm_start": True, "rolloff": 0.3,
                                    "photon_mode": "fixed", "mean_photon": 2.0}))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in ("warm_start", "rolloff", "photon_mode",
                                          "mean_photon"))

    @pytest.mark.parametrize("axes,empty", [
        ({"kind": "bits-sweep", "bits": []}, "bits"),
        ({"kind": "taps-bits-grid", "taps": []}, "taps"),
        ({"kind": "taps-bits-grid", "bits": []}, "bits"),
        ({"kind": "distance-sweep", "distances_km": []}, "distances_km"),
        # every kind reads its photon grid, so none may be empty
        ({"kind": "photon-scan", "photon_grid": []}, "photon_grid"),
        ({"kind": "taps-bits-grid", "photon_grid": []}, "photon_grid"),
        ({"kind": "bits-sweep", "photon_grid": []}, "photon_grid"),
        ({"kind": "distance-sweep", "photon_grid": []}, "photon_grid")])
    def test_empty_sweep_axis_is_config_error(self, tmp_path, capsys, axes,
                                              empty):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            **axes, "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21}}))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert empty in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind,name", [("bits-sweep", "grid point bits="),
                                           ("photon-scan", "photon scan")],
                             ids=["bits-sweep", "photon-scan"])
    def test_short_block_for_transient_is_config_error(self, tmp_path, capsys,
                                                       monkeypatch, kind, name):
        # 11/21 taps and the 257-tap LPF need 72 symbols per edge; the block
        # is checked when the spec loads, before any chain
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(experiments, "run_chain", no_chain)
        monkeypatch.setattr(reinforce, "run_chain", no_chain)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": kind,
                                    "env": {"tx_len": 11, "rx_len": 21},
                                    "eval_num_symbols": 100}))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}")
        assert "num_symbols=100 too small for the filter transient" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", _BELOW_THE_FLOOR, ids=["unoptimized", "optimized"])
    def test_block_below_the_estimator_floor_is_config_error(self, tmp_path, capsys,
                                                             monkeypatch, doc):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(experiments, "run_chain", no_chain)
        monkeypatch.setattr(reinforce, "run_chain", no_chain)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "num_symbols=200 too small for the filter transient" in err
        assert "the estimate needs at least 1000" in err
        assert not (tmp_path / "out").exists()

    def test_short_simulate_block_is_config_error(self, tmp_path, capsys, monkeypatch):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(cli, "run_chain", no_chain)
        cfg = tmp_path / "link.json"
        cfg.write_text(json.dumps({"num_symbols": 200}))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "config error: num_symbols=200 too small for the filter transient "
            "(92 symbols per edge): it keeps 16 symbols")
        assert captured.out == ""

    def test_short_optimize_block_is_config_error(self, tmp_path, capsys, monkeypatch):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(reinforce, "run_chain", no_chain)
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({"env": {"num_symbols": 200},
                                   "optimizer": {"batch_size": 4, "iterations": 1}}))
        assert cli.main(["optimize", "--config", str(cfg),
                         "--out", str(tmp_path / "trace.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: env: num_symbols=200 too small for the filter transient")
        assert not (tmp_path / "trace.csv").exists()

    def test_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # the grid size depends on the spec alone, so it is refused at load
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")
        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "bits-sweep", "bits": [6, 8, 10], "max_points": 1,
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21},
            "mode": "unoptimized", "photon_grid": [6.0],
        }))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith(
            "budget refused: sweep would evaluate 3 grid points, over the budget of 1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("records, message", [
        ([{"kind": "bits-sweep", "bogus": 1}], "record 0: unknown keys ['bogus']"),
        ({"kind": "x"}, "expected a list of records"),
        ([{"kind": "bits-sweep", "config": {}, "outputs": {}, "seed": 1,
           "wall_time_s": 0.1}], "record 0.outputs: no 'bits' for the bits-sweep CSV"),
        ([{"kind": "x", "config": {}, "outputs": {}, "seed": 1, "wall_time_s": 0.1}],
         "record 0.kind: unknown sweep kind 'x'"),
        ([{"kind": "photon-scan", "config": {}, "outputs": [], "seed": 1,
           "wall_time_s": 0.1}], "record 0.outputs: expected an object"),
        # json writes and reads NaN and Infinity; the CSV would carry nan, inf
        ([{"kind": "photon-scan", "config": {}, "seed": 1, "wall_time_s": 0.1,
           "outputs": {"n_photon": 1.0, "skr_bits_per_symbol": float("nan")}}],
         "record 0.outputs.skr_bits_per_symbol: expected a finite number, got nan"),
        ([{"kind": "photon-scan", "config": {}, "seed": 1, "wall_time_s": 0.1,
           "outputs": {"n_photon": float("inf"), "skr_bits_per_symbol": 0.5}}],
         "record 0.outputs.n_photon: expected a finite number, got inf"),
        # every column but mode is a number, and mode one of the two record
        # modes: a string, list, bool or null, or a mode holding a comma or a
        # newline, would write a broken CSV
        ([{"kind": "photon-scan", "config": {}, "seed": 1, "wall_time_s": 0.1,
           "outputs": {"n_photon": 1.0, "skr_bits_per_symbol": "abc"}}],
         "record 0.outputs.skr_bits_per_symbol: expected a number, got 'abc'"),
        ([{"kind": "photon-scan", "config": {}, "seed": 1, "wall_time_s": 0.1,
           "outputs": {"n_photon": [1, 2], "skr_bits_per_symbol": 0.5}}],
         "record 0.outputs.n_photon: expected a number, got [1, 2]"),
        ([{"kind": "bits-sweep", "config": {}, "seed": 1, "wall_time_s": 0.1,
           "outputs": {"bits": True, "mode": "optimized", "skr_bits_per_symbol": 0.5,
                       "tau": 0.01, "n_ex": 0.02}}],
         "record 0.outputs.bits: expected a number, got True"),
        ([{"kind": "distance-sweep", "config": {}, "seed": 1, "wall_time_s": 0.1,
           "outputs": {"distance_km": 50.0, "mode": "optimized", "skr_bits_per_symbol": None,
                       "tau": 0.01, "n_ex": 0.02}}],
         "record 0.outputs.skr_bits_per_symbol: expected a number, got None"),
        ([{"kind": "bits-sweep", "config": {}, "seed": 1, "wall_time_s": 0.1,
           "outputs": {"bits": 8, "mode": "a,b\nc", "skr_bits_per_symbol": 0.5,
                       "tau": 0.01, "n_ex": 0.02}}],
         "record 0.outputs.mode: expected 'unoptimized' or 'optimized', got 'a,b\\nc'"),
        ([{"kind": "taps-bits-grid", "config": {}, "seed": 1, "wall_time_s": 0.1,
           "outputs": {"taps": 41, "bits": 8, "mode": "both", "skr_bits_per_symbol": 0.5,
                       "gap": 0.1}}],
         "record 0.outputs.mode: expected 'unoptimized' or 'optimized', got 'both'"),
    ], ids=["unknown_key", "not_a_list", "missing_column", "unknown_kind", "outputs_list",
            "NaN", "Infinity", "string", "list", "bool", "null", "mode_comma_newline",
            "mode_both"])
    def test_malformed_records_are_config_error(self, tmp_path, capsys, records, message):
        path = tmp_path / "records.json"
        path.write_text(json.dumps(records))
        out_dir = tmp_path / "out"
        assert cli.main(["report", "--records", str(path),
                         "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                command, workers):
        def no_run(*args, **kwargs):
            raise AssertionError("the command ran")
        monkeypatch.setattr(cli, "optimize", no_run)
        monkeypatch.setattr(cli, "run_sweep", no_run)
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"env": {"num_symbols": 3000, "tx_len": 11,
                                           "rx_len": 21}}))
        flag = "--config" if command == "optimize" else "--spec"
        assert cli.main([command, flag, str(doc), "--workers", workers,
                         "--out" if command == "optimize" else "--out-dir",
                         str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --workers must be >= 1, got {workers}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_workers_over_the_bound_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                    command):
        # refused before any thread can start: the pool fails if built
        def no_run(*args, **kwargs):
            raise AssertionError("a thread pool or a chain started")
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_run)
        for module in (cli, experiments, reinforce):
            monkeypatch.setattr(module, "run_chain", no_run)
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21},
            "optimizer": {"batch_size": MAX_WORKERS + 1, "iterations": 1},
            **({"mode": "optimized", "bits": [10], "photon_grid": [2.0]}
               if command == "sweep" else {})}))
        flag = "--config" if command == "optimize" else "--spec"
        assert cli.main([command, flag, str(doc), "--workers", str(MAX_WORKERS + 1),
                         "--out" if command == "optimize" else "--out-dir",
                         str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: --workers must be <= {MAX_WORKERS}, "
                                f"got {MAX_WORKERS + 1}\n")
        assert not (tmp_path / "out").exists()

    # a block whose chain would exceed the per-chain budget is refused at
    # load, before any chain work: every chain entry fails if reached
    @pytest.mark.parametrize("command,doc,message", [
        ("simulate", {"num_symbols": 10**15}, "num_symbols=1000000000000000 at sps=4"),
        ("optimize", {"env": {"num_symbols": 10**15}},
         "env: num_symbols=1000000000000000 at sps=4"),
        ("sweep", {"kind": "bits-sweep", "bits": [10], "mode": "unoptimized",
                   "photon_grid": [2.0], "eval_num_symbols": 10**15},
         "grid point bits=10: num_symbols=1000000000000000 at sps=4"),
        ("sweep", {"kind": "taps-bits-grid", "taps": [11], "bits": [10],
                   "mode": "unoptimized", "photon_grid": [2.0],
                   "reference": {"ref_taps": 70001}},
         "taps-bits reference taps=70001: 70001/70001/257 tx/rx/LPF taps take")],
        ids=["simulate", "optimize", "sweep-eval-block", "sweep-reference"])
    def test_chain_over_budget_is_refused_at_load(self, tmp_path, capsys, monkeypatch,
                                                  command, doc, message):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        for module in (cli, experiments, reinforce):
            monkeypatch.setattr(module, "run_chain", no_chain)
        path, out = tmp_path / "doc.json", tmp_path / "out"
        path.write_text(json.dumps(doc))
        args = {"simulate": ["simulate", "--config", str(path)],
                "optimize": ["optimize", "--config", str(path), "--out", str(out)],
                "sweep": ["sweep", "--spec", str(path), "--out-dir", str(out)]}[command]
        assert cli.main(args) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"budget refused: {message}")
        assert captured.err.count("\n") == 1 and "over the budget of" in captured.err
        assert captured.out == ""
        assert not out.exists()

    # an LPF whose design grid would exceed the per-chain budget is refused
    # when its link is built, before the design runs: the design fails if
    # reached. The 10^11-tap LPF fits the 10^15-symbol block, whose own
    # budget check comes after the link is built
    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_lpf_design_over_budget_is_refused_at_load(self, tmp_path, capsys,
                                                       monkeypatch, command):
        def no_design(*args, **kwargs):
            raise AssertionError("the LPF was designed")
        monkeypatch.setattr(dsp, "super_gaussian_lpf", no_design)
        link = {"num_symbols": 10**15, "lpf": {"num_taps": 10**11 + 1}}
        path, out = tmp_path / "doc.json", tmp_path / "out"
        path.write_text(json.dumps(link if command == "simulate" else {"env": link}))
        args = {"simulate": ["simulate", "--config", str(path)],
                "optimize": ["optimize", "--config", str(path), "--out", str(out)]}[command]
        assert cli.main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == ("budget refused: lpf.num_taps=100000000001 is designed on "
                                "a grid of 1099511627776 points, about 50331648 MiB of "
                                "arrays, over the budget of 4096 MiB\n")
        assert captured.out == ""
        assert not out.exists()

    # a block too large to allocate is a runtime error naming the command,
    # not a traceback; the command's entry raises, so nothing is allocated
    @pytest.mark.parametrize("command,entry", [
        ("simulate", "run_chain"), ("optimize", "optimize"), ("sweep", "run_sweep")])
    def test_memory_error_is_runtime_error(self, tmp_path, capsys, monkeypatch,
                                           command, entry):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 PiB")
        monkeypatch.setattr(cli, entry, out_of_memory)
        env = {"num_symbols": 3000, "tx_len": 11, "rx_len": 21}
        doc, out = tmp_path / "doc.json", tmp_path / "out"
        if command == "simulate":
            doc.write_text(json.dumps(env))
            args = ["simulate", "--config", str(doc)]
        else:
            doc.write_text(json.dumps({"env": env}))
            args = [command, "--config" if command == "optimize" else "--spec", str(doc),
                    "--out" if command == "optimize" else "--out-dir", str(out)]
        assert cli.main(args) == 4
        captured = capsys.readouterr()
        assert captured.err == (f"error: {command} ran out of memory: "
                                "Unable to allocate 14.6 PiB\n")
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_and_report_round_trip(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "bits-sweep", "bits": [10],
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21,
                    "distance_km": 20.0, "seed": 21},
            "mode": "unoptimized", "photon_grid": [2.0],
        }))
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert cli.main(["report", "--records", str(out_dir / "records.json"),
                         "--out-dir", str(tmp_path / "again")]) == 0
        assert (out_dir / "bits-sweep.csv").read_bytes() == \
            (tmp_path / "again" / "bits-sweep.csv").read_bytes()

    def test_optimize_command_writes_trace(self, tmp_path, capsys):
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21,
                    "distance_km": 20.0},
            "optimizer": {"batch_size": 4, "iterations": 2},
            "mean_photon": 2.0,
        }))
        trace = tmp_path / "trace.csv"
        assert cli.main(["optimize", "--config", str(cfg),
                         "--out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,mean_reward,best_reward,sigma_tx,sigma_rx,sigma_n"
        assert len(lines) == 3

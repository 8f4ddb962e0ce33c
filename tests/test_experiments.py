import json
import platform
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim import cli, experiments, reinforce
from cvqkdsim.config import ConfigError, all_defaults, dataclass_from_dict, load_sweep_spec
from cvqkdsim.experiments import (BudgetError, ReferencePoint, SweepSpec,
                                  photon_scan, report, run_sweep,
                                  save_records, load_records)
from cvqkdsim.link import LinkConfig, LpfConfig, baseline_filters
from cvqkdsim.quantization import QuantizerSpec
from cvqkdsim.reinforce import GroupRates, GroupSigmas, OptimizerConfig


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
_quantizer = st.builds(QuantizerSpec, bits=st.integers(1, 62), clipping_factor=_positive)
# a LinkConfig designs its LPF when it is built, so the LPF is valid and small
_lpf = st.builds(LpfConfig, order=st.integers(1, 8), bandwidth_norm=st.floats(0.05, 2.0),
                num_taps=st.integers(0, 256).map(lambda k: 2 * k + 1))
_link = st.builds(
    LinkConfig, distance_km=_non_negative, attenuation_db_per_km=_non_negative,
    channel_excess_photons=_non_negative, sps=st.integers(1, 64), lpf=_lpf,
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

    def test_at_most_one_scan_per_grid_point(self, monkeypatch):
        calls = []
        scan = experiments.photon_scan
        monkeypatch.setattr(experiments, "photon_scan",
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
                                        "numpy": np.__version__,
                                        "scipy": scipy.__version__}


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
        ("--mean-photon", "-1", "mean_photon"), ("--mean-photon", "nan", "mean_photon")])
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

    def test_budget_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "bits-sweep", "bits": [6, 8, 10], "max_points": 1,
            "env": {"num_symbols": 3000, "tx_len": 11, "rx_len": 21},
            "mode": "unoptimized", "photon_grid": [6.0],
        }))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out-dir", str(tmp_path / "out")]) == 3

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

"""Acceptance gate: every criterion prints one PASS/FAIL line.

Criterion 8 states its channel excess noise, 1e-3 photons, at the channel
input, while ``LinkConfig.channel_excess_photons`` is referred to Bob's
input, so the near-ideal scan passes 1e-3 * tau_ch. At 5 km the photon
optimum is checked against a fixed band. At 100 km it is checked against the
argmax of the numeric Gaussian-state key rate in ``oracles.py`` on the same
grid, and the rate there must be positive.
"""

from dataclasses import replace

import numpy as np

from cvqkdsim.dsp import rrc_filter
from cvqkdsim.experiments import ReferencePoint, SweepSpec, photon_scan, report, run_sweep
from cvqkdsim.keyrate import (DEFAULT_BETA, SkrInputs, TwoModeCovariance,
                              holevo_bound, secure_key_rate,
                              symplectic_eigenvalues)
from cvqkdsim.link import (LinkConfig, assemble_budget, baseline_filters,
                           estimate_parameters, run_chain)
from cvqkdsim.quantization import QuantizerSpec, full_scale, quantize
from cvqkdsim.reinforce import (GroupSigmas, OptimizerConfig, PolicyState,
                                TransceiverParams, optimize, reinforce_search)

from oracles import (numeric_holevo, numeric_key_rate,
                     numeric_symplectic_eigenvalues, random_physical_covariance)


def _verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion} [{'PASS' if ok else 'FAIL'}]: {detail}")
    return ok


def test_criterion_1_keyrate_oracle_equivalence():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        a, b, c, _ = random_physical_covariance(rng)
        cov = TwoModeCovariance(a, b, c, a * b - c * c)
        nu1, nu2 = symplectic_eigenvalues(cov)
        ref = numeric_symplectic_eigenvalues(cov.matrix())
        chi = holevo_bound(cov)
        chi_ref = numeric_holevo(cov.matrix())
        worst = max(worst, abs(nu1 - ref[0]), abs(nu2 - ref[1]),
                    abs(chi - chi_ref))
    ok = worst < 1e-6
    assert _verdict("1 key-rate oracle equivalence", ok,
                    f"max deviation {worst:.2e} bits over 1000 inputs (tol 1e-6)")


def test_criterion_2_lossless_sanity():
    rate = secure_key_rate(SkrInputs(6.0, 1.0, 0.0, beta=1.0))
    ok = abs(rate - np.log2(7.0)) < 1e-9
    assert _verdict("2 lossless sanity", ok,
                    f"K = {rate:.12f}, expected log2(7) = {np.log2(7.0):.12f}")


def test_criterion_3_quantization_oracle():
    rng = np.random.default_rng(7)
    sig = rng.normal(0.0, 1.7, 1_000_000)
    spec = QuantizerSpec(bits=10, clipping_factor=4.0)
    scale = full_scale(sig, spec)
    out = quantize(sig, spec, scale)
    mask = np.abs(sig) < scale
    measured = float(np.mean((out - sig)[mask] ** 2))
    predicted = spec.step(scale) ** 2 / 12.0
    ok = abs(measured / predicted - 1.0) < 0.10
    assert _verdict("3 quantization oracle", ok,
                    f"granular noise {measured:.3e} vs Delta^2/12 = "
                    f"{predicted:.3e} (ratio {measured / predicted:.4f})")


def test_criterion_4_budget_consistency():
    cfg = LinkConfig(distance_km=50.0, channel_excess_photons=1e-3,
                     dac=QuantizerSpec(bits=8), adc=QuantizerSpec(bits=8),
                     tx_len=11, rx_len=101, num_symbols=100_000, seed=42)
    h_tx, h_rx = baseline_filters(cfg)
    res = run_chain(cfg, h_tx, h_rx, 6.0)
    est = estimate_parameters(res.tx_symbols, res.rx_symbols)
    budget = assemble_budget(cfg, res.isi, 6.0, res.dac_report, res.adc_report)

    tau_pred = res.isi.c0_sq * cfg.channel_transmittance
    tau_ok = abs(est.tau_hat / tau_pred - 1.0) < 0.02

    block_power = float(np.mean(np.abs(res.tx_symbols) ** 2))
    predicted = (cfg.channel_transmittance * block_power * res.isi.isi_sum
                 + budget.dac + budget.adc)
    residual = res.rx_symbols - np.sqrt(est.tau_hat) * res.tx_symbols
    se = float(np.std(np.abs(residual) ** 2) / np.sqrt(len(residual)))
    noise_ok = abs(est.n_ex_hat - predicted) < 3.0 * se
    ok = tau_ok and noise_ok
    assert _verdict("4 excess-noise budget consistency", ok,
                    f"residual {est.n_ex_hat:.4e} vs analytic {predicted:.4e} "
                    f"({abs(est.n_ex_hat - predicted) / se:.2f} SE); "
                    f"tau_hat/tau = {est.tau_hat / tau_pred:.4f}")


def _rl_sweep_optimizer(iterations=70, seed=11):
    return OptimizerConfig(batch_size=12, iterations=iterations, seed=seed,
                           sigma_init=GroupSigmas(tx=0.015, rx=0.005, n=0.10),
                           sigma_decay=0.985)


def test_criterion_5_resolution_trend():
    spec = SweepSpec(
        kind="bits-sweep", bits=[6, 8, 10, 12],
        env=LinkConfig(distance_km=100.0, channel_excess_photons=1e-4,
                       tx_len=11, rx_len=101, num_symbols=10_000, seed=31),
        mode="both", photon_grid=list(np.geomspace(0.3, 20.0, 21)),
        optimizer=_rl_sweep_optimizer(), eval_num_symbols=50_000)
    records = run_sweep(spec)
    table = {}
    for rec in records:
        table.setdefault(rec.outputs["bits"], {})[rec.outputs["mode"]] = \
            rec.outputs["skr_bits_per_symbol"]
    all_geq = all(m["optimized"] >= m["unoptimized"] for m in table.values())
    strict = sum(m["optimized"] > m["unoptimized"] for m in table.values())
    ok = all_geq and strict >= 3
    detail = "; ".join(
        f"b={b}: opt {m['optimized']:.5f} vs unopt {m['unoptimized']:.5f}"
        for b, m in sorted(table.items()))
    assert _verdict("5 resolution trend", ok, f"{detail}; strict at {strict}/4")


def test_criterion_6_taps_bits_plateau():
    spec = SweepSpec(
        kind="taps-bits-grid", taps=[11, 21, 41, 101], bits=[6, 8, 11, 14],
        env=LinkConfig(distance_km=50.0, channel_excess_photons=1e-3,
                       num_symbols=50_000, seed=17),
        mode="unoptimized", photon_grid=list(np.geomspace(0.3, 20.0, 15)),
        reference=ReferencePoint(ref_taps=1001, ref_bits=16))
    records = run_sweep(spec)
    gap = {(r.outputs["taps"], r.outputs["bits"]): r.outputs["gap"]
           for r in records}
    plateau_ok = gap[(41, 11)] < 0.02
    tol = 5e-3  # statistical noise allowance
    monotone_ok = True
    for bits in spec.bits:
        row = [gap[(t, bits)] for t in spec.taps]
        monotone_ok &= all(b <= a + tol for a, b in zip(row, row[1:]))
    for taps in spec.taps:
        col = [gap[(taps, b)] for b in spec.bits]
        monotone_ok &= all(b <= a + tol for a, b in zip(col, col[1:]))
    ok = plateau_ok and monotone_ok
    assert _verdict("6 taps/bits plateau", ok,
                    f"gap(41 taps, 11 bits) = {gap[(41, 11)]:.4f} (tol 0.02); "
                    f"monotone along axes: {monotone_ok}")


def test_criterion_7_distance_trend():
    spec = SweepSpec(
        kind="distance-sweep",
        distances_km=[float(d) for d in range(10, 110, 10)],
        env=LinkConfig(channel_excess_photons=1e-3, tx_len=11, rx_len=101,
                       num_symbols=10_000, seed=13),
        mode="both", photon_grid=[6.0],
        optimizer=_rl_sweep_optimizer(iterations=50, seed=23),
        eval_num_symbols=50_000)
    records = run_sweep(spec)
    cutoff = {"optimized": 0.0, "unoptimized": 0.0}
    for rec in records:
        if rec.outputs["skr_bits_per_symbol"] > 0.0:
            mode = rec.outputs["mode"]
            cutoff[mode] = max(cutoff[mode], rec.outputs["distance_km"])
    ok = cutoff["optimized"] >= cutoff["unoptimized"] + 20.0
    assert _verdict("7 distance trend", ok,
                    f"cutoffs: optimized {cutoff['optimized']:.0f} km vs "
                    f"unoptimized {cutoff['unoptimized']:.0f} km (need +20 km)")


NEAR_IDEAL_GRID = [float(n) for n in np.geomspace(0.5, 40.0, 33)]


def _near_ideal_env(distance_km: float) -> LinkConfig:
    env = LinkConfig(distance_km=distance_km,
                     dac=QuantizerSpec(bits=16), adc=QuantizerSpec(bits=16),
                     tx_len=1001, rx_len=1001, num_symbols=100_000, seed=29)
    # 1e-3 photons at the channel input, referred to Bob's input
    return replace(env, channel_excess_photons=1e-3 * env.channel_transmittance)


def _near_ideal_scan(distance_km: float) -> tuple[float, float]:
    env = _near_ideal_env(distance_km)
    h = rrc_filter(0.2, 250, env.sps)
    best, _ = photon_scan(env, NEAR_IDEAL_GRID, h_tx=h, h_rx=h)
    return best["n_photon"], best["skr_bits_per_symbol"]


def test_criterion_8a_photon_optimum_short_distance():
    best_n, best_k = _near_ideal_scan(5.0)
    ok = 10.0 <= best_n <= 16.0
    assert _verdict("8a photon optimum at 5 km", ok,
                    f"argmax n = {best_n:.2f} (band [10, 16]), K = {best_k:.4f}")


def test_criterion_8b_photon_optimum_long_distance():
    best_n, best_k = _near_ideal_scan(100.0)
    env = _near_ideal_env(100.0)
    oracle = [numeric_key_rate(n, env.channel_transmittance,
                               env.channel_excess_photons, DEFAULT_BETA)
              for n in NEAR_IDEAL_GRID]
    oracle_idx = int(np.argmax(oracle))
    steps = abs(NEAR_IDEAL_GRID.index(best_n) - oracle_idx)
    ok = steps <= 1 and best_k > 0.0
    assert _verdict("8b photon optimum at 100 km", ok,
                    f"argmax n = {best_n:.2f}, oracle argmax "
                    f"{NEAR_IDEAL_GRID[oracle_idx]:.2f} ({steps} grid steps "
                    f"apart, tol 1), K = {best_k:.4f} (must be > 0)")


def test_criterion_9_reinforce_convergence():
    settings = {1: dict(batch_size=32, learning_rate=0.05),
                8: dict(batch_size=32, learning_rate=0.05),
                64: dict(batch_size=64, learning_rate=0.02)}
    errors = {}
    monotone = True
    for dim, kwargs in settings.items():
        rng = np.random.default_rng(dim)
        target = rng.uniform(-1.0, 1.0, dim)
        theta, best_trace = reinforce_search(
            lambda th: -float(np.sum((th - target) ** 2)), np.zeros(dim),
            iterations=500, sigma=0.1, sigma_decay=0.99, seed=dim, **kwargs)
        errors[dim] = float(np.linalg.norm(theta - target))
        monotone &= all(b >= a for a, b in zip(best_trace, best_trace[1:]))

    env = LinkConfig(distance_km=20.0, tx_len=11, rx_len=21,
                     num_symbols=3_000, seed=3)
    h_tx, h_rx = baseline_filters(env)
    run = optimize(env, PolicyState.from_params(TransceiverParams(h_tx, h_rx, 2.0)),
                   OptimizerConfig(batch_size=4, iterations=5, seed=4))
    chain_best = [row.best_reward for row in run.trace]
    monotone &= all(b >= a for a, b in zip(chain_best, chain_best[1:]))

    ok = all(e < 0.05 for e in errors.values()) and monotone
    assert _verdict("9 REINFORCE convergence", ok,
                    f"bandit errors {({d: round(e, 4) for d, e in errors.items()})} "
                    f"(tol 0.05); best-reward traces monotone: {monotone}")


def test_criterion_10_deterministic_reports(tmp_path):
    spec = SweepSpec(
        kind="bits-sweep", bits=[8, 10],
        env=LinkConfig(distance_km=20.0, tx_len=11, rx_len=21,
                       num_symbols=3_000, seed=9),
        mode="both", photon_grid=[2.0],
        optimizer=OptimizerConfig(batch_size=4, iterations=2, seed=5))
    outputs = {}
    for workers in (1, 2):
        records = run_sweep(spec, workers=workers)
        out_dir = tmp_path / f"workers{workers}"
        report(records, out_dir)
        outputs[workers] = (out_dir / "bits-sweep.csv").read_bytes()
    ok = outputs[1] == outputs[2]
    assert _verdict("10 determinism across worker counts", ok,
                    f"CSV bytes identical for 1 vs 2 workers: {ok}")

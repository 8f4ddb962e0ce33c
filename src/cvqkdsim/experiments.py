"""Sweep orchestration, run records, and CSV report generation."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .keyrate import DEFAULT_BETA, SkrInputs, secure_key_rate
from .link import LinkConfig, baseline_filters, estimate_parameters, run_chain
from .quantization import QuantizerSpec
from .reinforce import (OptimizerConfig, PolicyState, TransceiverParams,
                        optimize)

ARTIFACT_VERSION = "0.1.0"

SWEEP_KINDS = ("bits-sweep", "taps-bits-grid", "distance-sweep", "photon-scan")

CSV_SCHEMAS = {
    "bits-sweep": "bits,mode,skr_bits_per_symbol,tau,n_ex,seed",
    "taps-bits-grid": "taps,bits,mode,skr_bits_per_symbol,gap,seed",
    "distance-sweep": "distance_km,mode,skr_bits_per_symbol,tau,n_ex,seed",
    "photon-scan": "n_photon,skr_bits_per_symbol",
    "trace": "iteration,mean_reward,best_reward,sigma_tx,sigma_rx,sigma_n",
}


class BudgetError(RuntimeError):
    """Raised when a sweep would exceed its configured evaluation budget."""


@dataclass(frozen=True)
class ReferencePoint:
    """Near-ideal operating point standing in for the infinite-resource limit."""

    ref_taps: int = 1001
    ref_bits: int = 16


@dataclass(frozen=True)
class SweepSpec:
    kind: str = "bits-sweep"
    bits: list[int] = field(default_factory=lambda: [6, 8, 10, 12])
    taps: list[int] = field(default_factory=lambda: [11, 21, 41, 101])
    distances_km: list[float] = field(default_factory=lambda: [10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
    photon_grid: list[float] = field(default_factory=lambda: list(np.geomspace(0.5, 40.0, 33)))
    env: LinkConfig = field(default_factory=LinkConfig)
    mode: str = "both"  # unoptimized | optimized | both
    photon_mode: str | None = None  # fixed | scan; None = kind-dependent default
    mean_photon: float = 6.0
    rolloff: float = 0.2
    reference: ReferencePoint = field(default_factory=ReferencePoint)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    warm_start: bool = True
    max_points: int = 4096
    symbol_rate: float | None = None  # Hz; enables bits/s reporting
    eval_num_symbols: int | None = None  # longer blocks for final evaluations

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}; expected one of {SWEEP_KINDS}")
        if self.mode not in ("unoptimized", "optimized", "both"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.photon_mode not in (None, "fixed", "scan"):
            raise ValueError(f"unknown photon_mode {self.photon_mode!r}")
        if not self.mean_photon > 0:
            raise ValueError("mean_photon must be positive")

    def resolved_photon_mode(self) -> str:
        """Distance sweeps pin the photon number; the other kinds scan it."""
        if self.photon_mode is not None:
            return self.photon_mode
        return "fixed" if self.kind == "distance-sweep" else "scan"

    def grid_size(self) -> int:
        modes = 2 if self.mode == "both" else 1
        if self.kind == "bits-sweep":
            return len(self.bits) * modes
        if self.kind == "taps-bits-grid":
            return len(self.taps) * len(self.bits) * modes + 1
        if self.kind == "distance-sweep":
            return len(self.distances_km) * modes
        return len(self.photon_grid)


@dataclass(frozen=True)
class RunRecord:
    """Self-describing result of one grid-point evaluation."""

    kind: str
    config: dict
    outputs: dict
    seed: int
    wall_time_s: float
    artifact_version: str = ARTIFACT_VERSION


def _evaluate_point(env: LinkConfig, params: TransceiverParams,
                    beta: float) -> dict:
    """Chain run + measurement-pipeline key rate for a fixed operating point."""
    result = run_chain(env, params.h_tx, params.h_rx, params.mean_photon)
    est = estimate_parameters(result.tx_symbols, result.rx_symbols)
    n_ex = est.n_ex_clipped + env.channel_excess_photons
    skr = secure_key_rate(SkrInputs(mean_photon=params.mean_photon,
                                    transmittance=min(est.tau_hat, 1.0),
                                    excess_photons=n_ex, beta=beta))
    return {
        "skr_bits_per_symbol": skr,
        "tau": est.tau_hat,
        "n_ex": n_ex,
        "mean_photon": params.mean_photon,
        "isi_sum": result.isi.isi_sum,
        "c0_sq": result.isi.c0_sq,
        "dac_noise": result.dac_report.noise_power,
        "adc_noise": result.adc_report.noise_power,
    }


def photon_scan(env: LinkConfig, grid: list[float], h_tx=None, h_rx=None,
                beta: float = DEFAULT_BETA) -> tuple[dict, list[dict]]:
    """Evaluate the key rate over a photon-number grid with fixed filters.

    Returns the argmax record and the full curve. The grid must be sorted
    ascending.
    """
    grid = list(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("photon grid must be sorted ascending")
    if h_tx is None or h_rx is None:
        h_tx, h_rx = baseline_filters(env)
    curve = []
    for n in grid:
        point = _evaluate_point(env, TransceiverParams(h_tx, h_rx, float(n)), beta)
        curve.append({"n_photon": float(n),
                      "skr_bits_per_symbol": point["skr_bits_per_symbol"],
                      "detail": point})
    best = max(curve, key=lambda row: row["skr_bits_per_symbol"])
    return best, curve


def _scan_best(env: LinkConfig, grid: list[float], h_tx, h_rx, beta: float) -> dict:
    best, _ = photon_scan(env, grid, h_tx=h_tx, h_rx=h_rx, beta=beta)
    return best["detail"]


def _eval_env(spec: SweepSpec, env: LinkConfig) -> LinkConfig:
    if spec.eval_num_symbols is None:
        return env
    return replace(env, num_symbols=spec.eval_num_symbols)


def _optimized_point(env: LinkConfig, eval_env: LinkConfig, spec: SweepSpec,
                     init: PolicyState, workers: int) -> tuple[dict, PolicyState]:
    """RL-optimize from ``init`` and re-evaluate contenders at full length.

    The initial operating point is a contender, so the optimized result
    can never fall below its own starting point at the shared evaluation
    seed. A contender that is None or whose chain fails is dropped, so a
    failing start cannot abort the sweep.
    """
    opt = optimize(env, init, spec.optimizer, workers=workers)
    scored = []
    for params in (opt.best_params, init.decode()):
        if params is None:
            continue
        try:
            scored.append((_evaluate_point(eval_env, params, spec.optimizer.beta),
                           params))
        except (ValueError, ArithmeticError):
            continue
    if not scored:
        raise ValueError("neither the optimized nor the initial point evaluates")
    out, best = max(scored, key=lambda pair: pair[0]["skr_bits_per_symbol"])
    out["rl_iterations"] = spec.optimizer.iterations
    out["rl_best_reward"] = opt.best_reward
    warm = PolicyState.from_params(best, sigma=spec.optimizer.sigma_init)
    return out, warm


def _point_env(spec: SweepSpec, **overrides) -> LinkConfig:
    return replace(spec.env, **overrides)


def run_sweep(spec: SweepSpec, workers: int = 1, progress=None) -> list[RunRecord]:
    """Evaluate every grid point of the sweep and return its records."""
    size = spec.grid_size()
    if size > spec.max_points:
        raise BudgetError(
            f"sweep would evaluate {size} grid points, over the budget of "
            f"{spec.max_points}; shrink the axes or raise max_points")

    modes = ["unoptimized", "optimized"] if spec.mode == "both" else [spec.mode]
    photon_mode = spec.resolved_photon_mode()
    records: list[RunRecord] = []

    if spec.kind == "photon-scan":
        env = _eval_env(spec, spec.env)
        h_tx, h_rx = baseline_filters(env, spec.rolloff)
        start = time.perf_counter()
        best, curve = photon_scan(env, spec.photon_grid, h_tx=h_tx, h_rx=h_rx,
                                  beta=spec.optimizer.beta)
        elapsed = time.perf_counter() - start
        for row in curve:
            records.append(RunRecord(
                kind=spec.kind, config=_spec_snapshot(spec, n_photon=row["n_photon"]),
                outputs={"n_photon": row["n_photon"],
                         "skr_bits_per_symbol": row["skr_bits_per_symbol"],
                         "argmax_n_photon": best["n_photon"],
                         **_rate_fields(spec, row["skr_bits_per_symbol"])},
                seed=spec.env.seed, wall_time_s=elapsed / len(curve)))
            if progress is not None:
                progress(records[-1])
        return records

    if spec.kind == "taps-bits-grid":
        ref = _grid_reference(spec, photon_mode)
    else:
        ref = None

    warm_policy: PolicyState | None = None
    warm_len: tuple[int, int] | None = None
    for point in _grid_points(spec):
        env = _point_env(spec, **point["env_overrides"])
        eval_env = _eval_env(spec, env)
        h_tx, h_rx = baseline_filters(env, spec.rolloff)
        for mode in modes:
            start = time.perf_counter()
            if mode == "unoptimized":
                if photon_mode == "scan":
                    out = _scan_best(eval_env, spec.photon_grid, h_tx, h_rx,
                                     spec.optimizer.beta)
                else:
                    out = _evaluate_point(
                        eval_env, TransceiverParams(h_tx, h_rx, spec.mean_photon),
                        spec.optimizer.beta)
            else:
                init_n = spec.mean_photon
                if photon_mode == "scan":
                    init_n = _scan_best(eval_env, spec.photon_grid, h_tx, h_rx,
                                        spec.optimizer.beta)["mean_photon"]
                shape = (len(h_tx), len(h_rx))
                if spec.warm_start and warm_policy is not None and warm_len == shape:
                    init = warm_policy
                else:
                    init = PolicyState.from_params(
                        TransceiverParams(h_tx, h_rx, init_n),
                        sigma=spec.optimizer.sigma_init)
                out, warm_policy = _optimized_point(env, eval_env, spec, init,
                                                    workers)
                warm_len = shape
            elapsed = time.perf_counter() - start
            outputs = {**point["axis"], "mode": mode, **out,
                       **_rate_fields(spec, out["skr_bits_per_symbol"])}
            if ref is not None:
                ref_skr = ref["skr_bits_per_symbol"]
                outputs["gap"] = (ref_skr - out["skr_bits_per_symbol"]) / ref_skr
                outputs["ref_skr_bits_per_symbol"] = ref_skr
            records.append(RunRecord(kind=spec.kind,
                                     config=_spec_snapshot(spec, **point["axis"],
                                                           mode=mode),
                                     outputs=outputs, seed=env.seed,
                                     wall_time_s=elapsed))
            if progress is not None:
                progress(records[-1])
    return records


def _grid_points(spec: SweepSpec):
    if spec.kind == "bits-sweep":
        for b in spec.bits:
            quant = QuantizerSpec(bits=int(b))
            yield {"axis": {"bits": int(b)},
                   "env_overrides": {"dac": quant, "adc": quant}}
    elif spec.kind == "distance-sweep":
        for d in spec.distances_km:
            yield {"axis": {"distance_km": float(d)},
                   "env_overrides": {"distance_km": float(d)}}
    elif spec.kind == "taps-bits-grid":
        for taps in spec.taps:
            for b in spec.bits:
                quant = QuantizerSpec(bits=int(b))
                yield {"axis": {"taps": int(taps), "bits": int(b)},
                       "env_overrides": {"dac": quant, "adc": quant,
                                         "tx_len": int(taps), "rx_len": int(taps)}}
    else:
        raise ValueError(f"no grid for kind {spec.kind!r}")


def _grid_reference(spec: SweepSpec, photon_mode: str) -> dict:
    """Evaluate the near-ideal reference once per taps-bits sweep."""
    quant = QuantizerSpec(bits=spec.reference.ref_bits)
    env = _eval_env(spec, _point_env(spec, dac=quant, adc=quant,
                                     tx_len=spec.reference.ref_taps,
                                     rx_len=spec.reference.ref_taps))
    h_tx, h_rx = baseline_filters(env, spec.rolloff)
    if photon_mode == "scan":
        return _scan_best(env, spec.photon_grid, h_tx, h_rx, spec.optimizer.beta)
    return _evaluate_point(env, TransceiverParams(h_tx, h_rx, spec.mean_photon),
                           spec.optimizer.beta)


def _rate_fields(spec: SweepSpec, skr_bits_per_symbol: float) -> dict:
    if spec.symbol_rate is None:
        return {}
    return {"skr_bits_per_second": skr_bits_per_symbol * spec.symbol_rate}


def _spec_snapshot(spec: SweepSpec, **point) -> dict:
    snap = asdict(spec)
    snap["point"] = point
    return _jsonable(snap)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def report(records: list[RunRecord], out_dir: str | Path) -> list[Path]:
    """Write one fixed-schema CSV per sweep kind plus a run manifest."""
    if not records:
        raise ValueError("no records to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    by_kind: dict[str, list[RunRecord]] = {}
    for rec in records:
        by_kind.setdefault(rec.kind, []).append(rec)

    for kind, rows in by_kind.items():
        header = CSV_SCHEMAS[kind]
        columns = header.split(",")
        path = out / f"{kind}.csv"
        lines = [header]
        for rec in rows:
            values = {**rec.outputs, "seed": rec.seed}
            lines.append(",".join(_fmt(values[c]) for c in columns))
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "kinds": sorted(by_kind),
        "num_records": len(records),
        "seeds": sorted({rec.seed for rec in records}),
        "configs": [rec.config for rec in records],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written


def save_records(records: list[RunRecord], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps([_jsonable(asdict(r)) for r in records], indent=2) + "\n")
    return path


def load_records(path: str | Path) -> list[RunRecord]:
    raw = json.loads(Path(path).read_text())
    return [RunRecord(**entry) for entry in raw]


def write_trace_csv(trace, path: str | Path) -> Path:
    """Write an optimizer trace with the fixed trace schema."""
    path = Path(path)
    header = CSV_SCHEMAS["trace"]
    lines = [header]
    for row in trace:
        lines.append(",".join(_fmt(getattr(row, col))
                              for col in header.split(",")))
    path.write_text("\n".join(lines) + "\n")
    return path

"""Sweep orchestration, run records, and CSV report generation."""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from pathlib import Path

import numpy as np

from .keyrate import DEFAULT_BETA, secure_key_rate
from .link import (BudgetError, LinkConfig, baseline_filters, chain_bytes,
                   estimate_parameters, run_chain, transient_margin)
from .quantization import QuantizerSpec
from .reinforce import (OptimizerConfig, PolicyState, TransceiverParams,
                        _check_workers, optimize)

ARTIFACT_VERSION = "0.1.0"

SWEEP_KINDS = ("bits-sweep", "taps-bits-grid", "distance-sweep", "photon-scan")

CSV_SCHEMAS = {
    "bits-sweep": "bits,mode,skr_bits_per_symbol,tau,n_ex,seed",
    "taps-bits-grid": "taps,bits,mode,skr_bits_per_symbol,gap,seed",
    "distance-sweep": "distance_km,mode,skr_bits_per_symbol,tau,n_ex,seed",
    "photon-scan": "n_photon,skr_bits_per_symbol",
    "trace": "iteration,mean_reward,best_reward,sigma_tx,sigma_rx,sigma_n",
}


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
    photon_grid: list[float] | None = None  # None = kind-dependent default
    env: LinkConfig = field(default_factory=LinkConfig)
    mode: str = "both"  # unoptimized | optimized | both
    reference: ReferencePoint = field(default_factory=ReferencePoint)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    max_points: int = 4096
    symbol_rate: float | None = None  # Hz; enables bits/s reporting
    eval_num_symbols: int | None = None  # longer blocks for final evaluations

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}; expected one of {SWEEP_KINDS}")
        if self.mode not in ("unoptimized", "optimized", "both"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.symbol_rate is not None and not 0 < self.symbol_rate < np.inf:
            raise ValueError(
                f"symbol_rate must be positive and finite, got {self.symbol_rate}")
        if self.eval_num_symbols is not None and self.eval_num_symbols < 1:
            raise ValueError(f"eval_num_symbols must be >= 1, got {self.eval_num_symbols}")
        if self.photon_grid is None:  # distance sweeps pin the photon number
            grid = [6.0] if self.kind == "distance-sweep" else \
                list(np.geomspace(0.5, 40.0, 33))
            object.__setattr__(self, "photon_grid", grid)
        axes = {"bits-sweep": ["bits"], "taps-bits-grid": ["taps", "bits"],
                "distance-sweep": ["distances_km"], "photon-scan": []}[self.kind]
        empty = [name for name in axes + ["photon_grid"] if len(getattr(self, name)) == 0]
        if empty:
            raise ValueError(f"empty sweep axis {empty}")
        _check_photon_grid(self.photon_grid)

    def grid_size(self) -> int:
        if self.kind == "photon-scan":
            return len(self.photon_grid)
        modes = 2 if self.mode == "both" else 1
        reference = self.kind == "taps-bits-grid"
        return len(list(_grid_points(self))) * modes + reference


@dataclass(frozen=True)
class RunRecord:
    """Self-describing result of one grid-point evaluation."""

    kind: str
    config: dict
    outputs: dict
    seed: int
    wall_time_s: float
    artifact_version: str = ARTIFACT_VERSION


def _check_photon_grid(grid: list[float]) -> None:
    if not grid:
        raise ValueError("photon grid must not be empty")
    if not all(0 < n < np.inf for n in grid):
        raise ValueError("photon grid must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("photon grid must be sorted ascending")


def photon_scan(env: LinkConfig, grid: list[float], h_tx, h_rx,
                beta: float = DEFAULT_BETA) -> tuple[dict, list[dict]]:
    """Evaluate the key rate over a photon-number grid with fixed filters.

    One chain runs, at the first point n0. The chain is homogeneous in
    amplitude: both converters load their full scale from the signal, and
    the filters are linear. So at n = s * n0 the residual and both converter
    noises are the first point's times s, while tau_hat, c0_sq and isi_sum
    stay; each point's rate is the closed form at those.
    Returns the argmax record and the full curve. The grid must be
    non-empty, positive, finite and sorted ascending.
    """
    grid = [float(n) for n in grid]
    _check_photon_grid(grid)
    result = run_chain(env, h_tx, h_rx, grid[0])
    est = estimate_parameters(result.tx_symbols, result.rx_symbols)
    curve = []
    for n in grid:
        s = n / grid[0]
        inputs = replace(est, n_ex_hat=est.n_ex_hat * s).key_rate_inputs(
            n, env.channel_excess_photons, beta)
        point = {"skr_bits_per_symbol": secure_key_rate(inputs), "tau": est.tau_hat,
                 "n_ex": inputs.excess_photons, "mean_photon": n,
                 "isi_sum": result.isi.isi_sum, "c0_sq": result.isi.c0_sq,
                 "dac_noise": result.dac_report * s,
                 "adc_noise": result.adc_report * s}
        curve.append({"n_photon": n, "skr_bits_per_symbol": point["skr_bits_per_symbol"],
                      "detail": point})
    best = max(curve, key=lambda row: row["skr_bits_per_symbol"])
    return best, curve


def _eval_env(spec: SweepSpec, env: LinkConfig) -> LinkConfig:
    if spec.eval_num_symbols is None:
        return env
    return replace(env, num_symbols=spec.eval_num_symbols)


def _optimized_point(env: LinkConfig, eval_env: LinkConfig, spec: SweepSpec,
                     init: PolicyState, workers: int) -> tuple[dict, PolicyState]:
    """RL-optimize from ``init`` and score each contender at full length as
    a one-point ``photon_scan``.

    The initial operating point is a contender, so the optimized result
    can never fall below its own starting point at the shared evaluation
    seed. A contender whose chain fails is dropped, so a failing start
    cannot abort the sweep; when both fail, the error names both causes.
    """
    opt = optimize(env, init, spec.optimizer, workers=workers)
    scored, errors = [], []
    for name, params in (("optimized", opt.best_params), ("initial", init.decode())):
        try:
            scored.append((photon_scan(eval_env, [params.mean_photon], params.h_tx,
                                       params.h_rx, spec.optimizer.beta)[0]["detail"],
                           params))
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"{name}: {exc}")
    if not scored:
        raise ValueError("neither the optimized nor the initial point evaluates ("
                         + "; ".join(errors) + ")")
    out, best = max(scored, key=lambda pair: pair[0]["skr_bits_per_symbol"])
    out["rl_iterations"] = spec.optimizer.iterations
    out["rl_best_reward"] = opt.best_reward
    return out, PolicyState.from_params(best, sigma=spec.optimizer.sigma_init)


def _scan(spec: SweepSpec, env: LinkConfig, grid: list[float]) -> tuple[dict, list[dict]]:
    """``photon_scan`` of the truncated-RRC pair at evaluation length."""
    env = _eval_env(spec, env)
    return photon_scan(env, grid, *baseline_filters(env), beta=spec.optimizer.beta)


def _reference_env(spec: SweepSpec) -> LinkConfig:
    """The taps-bits reference link: ``env`` at the reference taps and bits."""
    quant = QuantizerSpec(bits=spec.reference.ref_bits)
    taps = spec.reference.ref_taps
    return replace(spec.env, dac=quant, adc=quant, tx_len=taps, rx_len=taps)


def _check_spec(spec: SweepSpec) -> None:
    """Raise ``BudgetError`` when the grid exceeds ``max_points`` or a block
    the sweep runs exceeds the per-chain budget, and ``ValueError`` when a
    block is too short.

    The grid points, the taps-bits reference and a photon scan's link are
    built at the evaluation block, which runs ``LinkConfig``'s own checks,
    and checked against ``chain_bytes`` and ``transient_margin``; the grid
    points also at ``env.num_symbols`` when the sweep optimizes, since the
    optimizer's chains run there.
    """
    size = spec.grid_size()
    if size > spec.max_points:
        raise BudgetError(
            f"sweep would evaluate {size} grid points, over the budget of "
            f"{spec.max_points}; shrink the axes or raise max_points")
    points = [("grid point " + ", ".join(f"{k}={v}" for k, v in axis.items()), env)
              for axis, env in _grid_points(spec)]
    checks = [(name, _eval_env(spec, env)) for name, env in points]
    if spec.mode != "unoptimized":
        checks += [(f"{name} (optimizer block)", env) for name, env in points]
    if spec.kind == "taps-bits-grid":
        checks.append((f"taps-bits reference taps={spec.reference.ref_taps}",
                       _eval_env(spec, _reference_env(spec))))
    if spec.kind == "photon-scan":
        checks.append(("photon scan", _eval_env(spec, spec.env)))
    for name, block in checks:
        try:
            chain_bytes(block, block.tx_len, block.rx_len)
            transient_margin(block, block.tx_len, block.rx_len)
        except (BudgetError, ValueError) as exc:
            raise type(exc)(f"{name}: {exc}") from None


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[RunRecord]:
    """Evaluate every grid point of the sweep and return its records.

    At most one anchor per grid point gives the unoptimized record and a
    cold start's photon number; warm starts need the same filter lengths.
    An anchor is the best point of a scan over ``photon_grid``; a fixed
    photon number is a one-point grid. Anchors are kept by link config, so
    a taps-bits reference that is also a grid point is evaluated once; a
    reference without key raises ``ValueError``, since the gap is undefined.
    The budget and every block's filter transient are checked
    (``_check_spec``) before the first chain runs. ``workers`` is the number
    of threads each grid point's ``optimize`` runs its episodes on, from 1
    to ``MAX_WORKERS`` even where no point is optimized.
    """
    _check_workers(workers)
    _check_spec(spec)
    if spec.kind == "photon-scan":
        start = time.perf_counter()
        best, curve = _scan(spec, spec.env, spec.photon_grid)
        elapsed = time.perf_counter() - start
        return [RunRecord(
            kind=spec.kind, config=_spec_snapshot(spec, n_photon=row["n_photon"]),
            outputs={"n_photon": row["n_photon"],
                     "skr_bits_per_symbol": row["skr_bits_per_symbol"],
                     "argmax_n_photon": best["n_photon"],
                     **_rate_fields(spec, row["skr_bits_per_symbol"])},
            seed=spec.env.seed, wall_time_s=elapsed / len(curve)) for row in curve]

    grid = spec.photon_grid

    @cache
    def anchor_of(env: LinkConfig) -> dict:
        return _scan(spec, env, grid)[0]["detail"]

    ref = None
    if spec.kind == "taps-bits-grid":
        ref = anchor_of(_reference_env(spec))
        if not ref["skr_bits_per_symbol"] > 0:
            raise ValueError(
                f"reference point ({spec.reference.ref_taps} taps, "
                f"{spec.reference.ref_bits} bits) has no key, so the gap is undefined")
    modes = ["unoptimized", "optimized"] if spec.mode == "both" else [spec.mode]
    records: list[RunRecord] = []
    warm: PolicyState | None = None
    for axis, env in _grid_points(spec):
        start = time.perf_counter()
        cold = warm is None or (len(warm.theta_tx), len(warm.theta_rx)) != \
            (env.tx_len, env.rx_len)
        # a warm start needs no anchor, and a one-point grid is its own argmax
        needed = spec.mode != "optimized" or (cold and len(grid) > 1)
        anchor = anchor_of(env) if needed else None
        if cold and spec.mode != "unoptimized":
            n = grid[0] if anchor is None else anchor["mean_photon"]
            warm = PolicyState.from_params(
                TransceiverParams(*baseline_filters(env), n),
                sigma=spec.optimizer.sigma_init)
        for mode in modes:
            out = anchor
            if mode == "optimized":
                out, warm = _optimized_point(env, _eval_env(spec, env), spec, warm,
                                             workers)
            now = time.perf_counter()
            elapsed, start = now - start, now
            outputs = {**axis, "mode": mode, **out,
                       **_rate_fields(spec, out["skr_bits_per_symbol"])}
            if ref is not None:
                ref_skr = ref["skr_bits_per_symbol"]
                outputs["gap"] = (ref_skr - out["skr_bits_per_symbol"]) / ref_skr
                outputs["ref_skr_bits_per_symbol"] = ref_skr
            records.append(RunRecord(kind=spec.kind,
                                     config=_spec_snapshot(spec, **axis, mode=mode),
                                     outputs=outputs, seed=env.seed,
                                     wall_time_s=elapsed))
    return records


def _grid_points(spec: SweepSpec):
    """Yield the axis values and the link config of each grid point."""
    if spec.kind == "bits-sweep":
        for b in spec.bits:
            quant = QuantizerSpec(bits=int(b))
            yield {"bits": int(b)}, replace(spec.env, dac=quant, adc=quant)
    elif spec.kind == "distance-sweep":
        for d in spec.distances_km:
            yield {"distance_km": float(d)}, replace(spec.env, distance_km=float(d))
    elif spec.kind == "taps-bits-grid":
        for taps in spec.taps:
            for b in spec.bits:
                quant = QuantizerSpec(bits=int(b))
                yield ({"taps": int(taps), "bits": int(b)},
                       replace(spec.env, dac=quant, adc=quant, tx_len=int(taps),
                               rx_len=int(taps)))


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


def _write_csv(path: Path, kind: str, rows: list[dict]) -> Path:
    """Write ``rows`` under ``kind``'s fixed schema, one line per row."""
    header = CSV_SCHEMAS[kind]
    columns = header.split(",")
    lines = [header] + [",".join(_fmt(row[c]) for c in columns) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def report(records: list[RunRecord], out_dir: str | Path) -> list[Path]:
    """Write one fixed-schema CSV per sweep kind plus a run manifest.

    The manifest lists the kinds, seeds and configs of the records and the
    Python and numpy versions that wrote them.
    """
    if not records:
        raise ValueError("no records to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    by_kind: dict[str, list[RunRecord]] = {}
    for rec in records:
        by_kind.setdefault(rec.kind, []).append(rec)

    for kind, rows in by_kind.items():
        written.append(_write_csv(out / f"{kind}.csv", kind,
                                  [{**rec.outputs, "seed": rec.seed} for rec in rows]))

    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "kinds": sorted(by_kind),
        "num_records": len(records),
        "seeds": sorted({rec.seed for rec in records}),
        "configs": [rec.config for rec in records],
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(_to_json(manifest, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written


def save_records(records: list[RunRecord], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(_to_json([_jsonable(asdict(r)) for r in records]) + "\n")
    return path


def _to_json(obj, sort_keys: bool = False) -> str:
    """The one JSON writer of ``records.json``, ``manifest.json`` and the
    CLI's summaries: strict (RFC 8259), so a NaN or infinity raises
    ``ValueError``."""
    return json.dumps(obj, indent=2, sort_keys=sort_keys, allow_nan=False)


def write_trace_csv(trace, path: str | Path) -> Path:
    """Write an optimizer trace with the fixed trace schema."""
    return _write_csv(Path(path), "trace", [asdict(row) for row in trace])

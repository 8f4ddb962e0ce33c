"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 budget refusal,
4 runtime/numerical error or out of memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as cfg
from .experiments import (BudgetError, _to_json, report, run_sweep, save_records,
                          write_trace_csv)
from .keyrate import DEFAULT_BETA, SkrInputs, secure_key_rate
from .link import (assemble_budget, baseline_filters, estimate_parameters,
                   run_chain)
from .reinforce import PolicyState, TransceiverParams, _check_workers, optimize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_RUNTIME = 4


def _cmd_simulate(args) -> int:
    try:  # the key rate's own range checks, before the config loads
        SkrInputs(args.mean_photon, 1.0, 0.0, args.beta)
    except ValueError as exc:
        raise cfg.ConfigError(str(exc)) from None
    link = cfg.load_link_config(args.config)
    h_tx, h_rx = baseline_filters(link)
    result = run_chain(link, h_tx, h_rx, args.mean_photon)
    budget = assemble_budget(link, result.isi, args.mean_photon,
                             result.dac_report, result.adc_report)
    est = estimate_parameters(result.tx_symbols, result.rx_symbols)
    skr_est = secure_key_rate(est.key_rate_inputs(
        args.mean_photon, link.channel_excess_photons, args.beta))
    skr_analytic = secure_key_rate(SkrInputs(
        mean_photon=args.mean_photon, transmittance=budget.transmittance,
        excess_photons=budget.total, beta=args.beta))
    print(_to_json({
        "distance_km": link.distance_km,
        "mean_photon": args.mean_photon,
        "beta": args.beta,
        "budget": {"channel": budget.channel, "isi": budget.isi,
                   "dac": budget.dac, "adc": budget.adc, "total": budget.total},
        "transmittance": budget.transmittance,
        "estimated": {"tau_hat": est.tau_hat, "n_ex_hat": est.n_ex_hat},
        "skr_bits_per_symbol": {"estimated": skr_est, "analytic": skr_analytic},
    }))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    run = cfg.load_optimize_run(args.config)
    opt = run.optimizer
    init = PolicyState.from_params(
        TransceiverParams(*baseline_filters(run.env), run.mean_photon),
        sigma=opt.sigma_init)
    result = optimize(run.env, init, opt, workers=args.workers)
    write_trace_csv(result.trace, args.out)
    print(_to_json({
        "best_reward": result.best_reward,
        "best_mean_photon": result.best_params.mean_photon,
        "iterations": opt.iterations,
        "trace_csv": str(args.out),
    }))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = cfg.load_sweep_spec(args.spec)
    records = run_sweep(spec, workers=args.workers)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    save_records(records, f"{args.out_dir}/records.json")
    paths = report(records, args.out_dir)
    print(_to_json({"records": len(records), "files": [str(p) for p in paths]}))
    return EXIT_OK


def _cmd_defaults(_args) -> int:
    print(_to_json(cfg.all_defaults(), sort_keys=True))
    return EXIT_OK


def _cmd_report(args) -> int:
    records = cfg.load_records(args.records)
    paths = report(records, args.out_dir)
    print(_to_json({"files": [str(p) for p in paths]}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqkdsim",
        description="CV-QKD transceiver chain simulation and optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one chain and print budget + SKR")
    p.add_argument("--config", required=True, help="LinkConfig JSON file")
    p.add_argument("--mean-photon", type=float, default=6.0)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimize", help="run the RL loop and emit a trace CSV")
    p.add_argument("--config", required=True,
                   help='JSON with "env", "optimizer" and "mean_photon" sections')
    p.add_argument("--out", default="trace.csv")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="evaluate a sweep spec and write CSV reports")
    p.add_argument("--spec", required=True, help="SweepSpec JSON file")
    p.add_argument("--out-dir", default="sweep-out")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("defaults", help="dump every configurable default as JSON")
    p.set_defaults(func=_cmd_defaults)

    p = sub.add_parser("report", help="regenerate CSVs from saved records")
    p.add_argument("--records", required=True)
    p.add_argument("--out-dir", default="report-out")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            _check_workers(getattr(args, "workers", 1), "--workers")
        except ValueError as exc:
            raise cfg.ConfigError(str(exc)) from None
        return args.func(args)
    except cfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

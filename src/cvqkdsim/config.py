"""Strict JSON configuration loading for the CLI.

Documents map onto the library dataclasses field-for-field; unknown keys
are rejected so that typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from pathlib import Path

from .experiments import (CSV_SCHEMAS, SWEEP_KINDS, ReferencePoint, RunRecord,
                          SweepSpec, _check_spec)
from .link import BudgetError, LinkConfig, LpfConfig, chain_bytes, transient_margin
from .quantization import QuantizerSpec
from .reinforce import GroupSigmas, OptimizerConfig


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclasses.dataclass(frozen=True)
class OptimizeRun:
    """The ``cvqkdsim optimize`` document: the link, the optimizer and the
    photon number of the truncated-RRC start."""

    env: LinkConfig = dataclasses.field(default_factory=LinkConfig)
    optimizer: OptimizerConfig = dataclasses.field(default_factory=OptimizerConfig)
    mean_photon: float = 6.0

    def __post_init__(self):
        if not 0 < self.mean_photon <= sys.float_info.max:
            raise ValueError(
                f"mean_photon must be positive and finite, got {self.mean_photon}")


def _convert(value, hint, path: str):
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(hint)
        if value is None:
            if type(None) in args:
                return None
            raise ConfigError(f"{path}: null is not allowed")
        non_none = [a for a in args if a is not type(None)]
        return _convert(value, non_none[0], path)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        (elem_hint,) = typing.get_args(hint)
        return [_convert(v, elem_hint, f"{path}[{i}]") for i, v in enumerate(value)]
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object for {hint.__name__}")
        return dataclass_from_dict(hint, value, path)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        # json reads NaN, Infinity and -Infinity, and integers past any float
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if hint is dict and not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    return value


def dataclass_from_dict(cls, data: dict, path: str = ""):
    """Build a dataclass instance from a plain dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__}: expected an object")
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(
            f"{path or cls.__name__}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(fields)}")
    kwargs = {}
    for name, value in data.items():
        kwargs[name] = _convert(value, hints[name], f"{path}.{name}" if path else name)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


def load_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _check_block(env: LinkConfig, path: str = "") -> None:
    """Refuse a block over the per-chain budget (``chain_bytes``,
    ``BudgetError``) or too short for ``env``'s own filters
    (``transient_margin``, ``ConfigError``)."""
    try:
        chain_bytes(env, env.tx_len, env.rx_len)
        transient_margin(env, env.tx_len, env.rx_len)
    except BudgetError as exc:
        raise BudgetError(f"{path}{exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from None


def load_link_config(path: str | Path) -> LinkConfig:
    """The ``simulate`` link, its block checked before the chain runs."""
    link = dataclass_from_dict(LinkConfig, load_json(path))
    _check_block(link)
    return link


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Load a sweep spec, checked before any chain runs: a grid over
    ``max_points`` or a block over the per-chain budget (``chain_bytes``)
    raises ``BudgetError``, and a block too short for a filter transient
    (``transient_margin``) is a config error."""
    spec = dataclass_from_dict(SweepSpec, load_json(path))
    try:
        _check_spec(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec


def load_optimize_run(path: str | Path) -> OptimizeRun:
    """The ``optimize`` document, its ``env`` block checked before any episode."""
    run = dataclass_from_dict(OptimizeRun, load_json(path))
    _check_block(run.env, "env: ")
    return run


def load_records(path: str | Path) -> list[RunRecord]:
    """The ``records.json`` that ``report`` rebuilds its CSVs from: a list
    of ``RunRecord`` objects, each of a sweep kind, with every number in its
    ``config`` finite and every column of its kind's CSV in its outputs:
    ``mode`` is ``unoptimized`` or ``optimized``, and every other column a
    finite number, not a bool."""
    raw = load_json(path)
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of records")
    records = [dataclass_from_dict(RunRecord, entry, f"record {i}")
               for i, entry in enumerate(raw)]
    for i, rec in enumerate(records):
        if rec.kind not in SWEEP_KINDS:
            raise ConfigError(f"record {i}.kind: unknown sweep kind {rec.kind!r}")
        _check_finite(rec.config, f"record {i}.config")
        for column in CSV_SCHEMAS[rec.kind].split(","):
            if column == "seed":
                continue
            if column not in rec.outputs:
                raise ConfigError(f"record {i}.outputs: no {column!r} for the "
                                  f"{rec.kind} CSV")
            value, where = rec.outputs[column], f"record {i}.outputs.{column}"
            if column != "mode":
                _convert(value, float, where)
            elif value not in ("unoptimized", "optimized"):
                raise ConfigError(f"{where}: expected 'unoptimized' or 'optimized', "
                                  f"got {value!r}")
    return records


def _check_finite(value, path: str) -> None:
    """``_convert``'s finite check on every number in ``value``, through
    nested objects and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for j, item in enumerate(value):
            _check_finite(item, f"{path}[{j}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        _convert(value, float, path)


def all_defaults() -> dict:
    """Every configurable default in one document."""
    from .keyrate import DEFAULT_BETA

    return {
        "beta": DEFAULT_BETA,
        "link": dataclasses.asdict(LinkConfig()),
        "lpf": dataclasses.asdict(LpfConfig()),
        "quantizer": dataclasses.asdict(QuantizerSpec(bits=10)),
        "optimizer": dataclasses.asdict(OptimizerConfig()),
        "sigma": dataclasses.asdict(GroupSigmas()),
        "sweep": dataclasses.asdict(SweepSpec()),
        "reference": dataclasses.asdict(ReferencePoint()),
    }

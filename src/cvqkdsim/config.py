"""Strict JSON configuration loading for the CLI.

Documents map onto the library dataclasses field-for-field; unknown keys
are rejected so that typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from pathlib import Path

from .experiments import ReferencePoint, SweepSpec
from .link import LinkConfig, LpfConfig
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
        if not self.mean_photon > 0:
            raise ValueError(f"mean_photon must be positive, got {self.mean_photon}")


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
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
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


def load_link_config(path: str | Path) -> LinkConfig:
    return dataclass_from_dict(LinkConfig, load_json(path))


def load_sweep_spec(path: str | Path) -> SweepSpec:
    return dataclass_from_dict(SweepSpec, load_json(path))


def load_optimize_run(path: str | Path) -> OptimizeRun:
    return dataclass_from_dict(OptimizeRun, load_json(path))


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

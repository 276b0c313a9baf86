"""Run configuration: JSON file with full defaults.

Every command resolves its configuration (defaults overlaid with the
optional ``--config`` file and command-line flags) and writes the result
next to its outputs, so any run can be reproduced from that snapshot.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .fdnn import FdnnConfig
from .features import SegmentConfig, SelectionConfig, SplitConfig
from .kan import KanConfig
from .orientation import FilterConfig, unit_body_up
from .sisfall import CalibrationSpec
from .streaming import StreamSettings
from .synthetic import SynthConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class OrientationConfig(FilterConfig):
    """The filter settings, plus how the tilt is read from its attitude."""

    # Device mounting: the body-frame axis pointing up when the subject
    # stands.  The corpus wears the unit at the waist with -y up.
    body_up: tuple[float, float, float] = (0.0, -1.0, 0.0)
    deriv_order: int = 2

    def __post_init__(self):
        super().__post_init__()     # a filter that cannot run fails at load
        unit_body_up(self.body_up)          # as does a tilt that cannot
        if (not isinstance(self.deriv_order, int)
                or isinstance(self.deriv_order, bool)
                or self.deriv_order not in (1, 2)):
            raise ConfigError(
                f"deriv_order must be 1 or 2, got {self.deriv_order!r}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    orientation: OrientationConfig = field(default_factory=OrientationConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    segment: SegmentConfig = field(default_factory=SegmentConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    fdnn: FdnnConfig = field(default_factory=FdnnConfig)
    kan: KanConfig = field(default_factory=KanConfig)
    kan_grid: tuple[dict, ...] = ()
    stream: StreamSettings = field(default_factory=StreamSettings)
    synth: SynthConfig = field(default_factory=SynthConfig)


# Each config class's field types, resolved once per class; every caller
# gets the same dict, so it is only read.
_type_hints = functools.cache(typing.get_type_hints)

# The object-valued keys of a run config, each its own dataclass.
_SECTION_TYPES = {name: kind for name, kind in
                  _type_hints(RunConfig).items()
                  if dataclasses.is_dataclass(kind)}


def _check_integers(cls, data: dict, where: str) -> None:
    """Refuse a fraction, bool or string given for an int field, and a
    negative seed (NumPy's generators take none)."""
    hints = _type_hints(cls)
    for name, value in data.items():
        if hints[name] is int and (not isinstance(value, int)
                                   or isinstance(value, bool)):
            raise ConfigError(
                f"{where}{name} must be an integer, got {value!r}")
        if name == "seed" and value < 0:
            raise ConfigError(
                f"{where}seed must be non-negative, got {value}")


def _build_section(cls, data: dict, path: str):
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {sorted(unknown)}")
    _check_integers(cls, data, f"invalid {path} section: ")
    coerced = {}
    for f in fields(cls):
        if f.name in data:
            value = data[f.name]
            if isinstance(value, list):
                value = tuple(value)
            coerced[f.name] = value
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path} section: {exc}") from None


def load_config(path: Path | str | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid with a JSON file, overlaid with overrides."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if overrides:
        data = {**data, **{k: v for k, v in overrides.items()
                           if v is not None}}

    top_names = {f.name for f in fields(RunConfig)}
    unknown = set(data) - top_names
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    kwargs: dict = {}
    for key, value in data.items():
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigError(f"{key} section must be an object")
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key)
        elif key == "kan_grid":
            if not (isinstance(value, (list, tuple))
                    and all(isinstance(entry, dict) for entry in value)):
                raise ConfigError("kan_grid must be a list of objects")
            kwargs[key] = tuple(value)
        else:
            _check_integers(RunConfig, {key: value}, "")
            kwargs[key] = value
    config = RunConfig(**kwargs)
    kan_grid_configs(config)   # every candidate fails here, not in cv-kan
    return config


def dump_config(config: RunConfig, path: Path | str) -> None:
    Path(path).write_text(
        json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True)
        + "\n")


def kan_grid_configs(config: RunConfig) -> list[KanConfig]:
    """Candidate configs for cross-validation: base overlaid per entry."""
    if not config.kan_grid:
        return [config.kan]
    base = dataclasses.asdict(config.kan)
    out = []
    for entry in config.kan_grid:
        merged = {**base, **entry}
        out.append(_build_section(KanConfig, merged, "kan_grid entry"))
    return out

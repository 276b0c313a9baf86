"""Run configuration: JSON file with full defaults.

Every command resolves its configuration (defaults overlaid with the
optional ``--config`` file and command-line flags) and writes the result
next to its outputs, so any run can be reproduced from that snapshot.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .fdnn import FdnnConfig
from .kan import KanConfig
from .orientation import FilterConfig, unit_body_up
from .sisfall import CalibrationSpec, SensorSpec


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CalibrationConfig:
    adxl345_range_g: float = 16.0
    adxl345_bits: int = 13
    itg3200_range_dps: float = 2000.0
    itg3200_bits: int = 16
    mma8451q_range_g: float = 8.0
    mma8451q_bits: int = 14

    def __post_init__(self):
        self.to_spec()          # a sensor that cannot calibrate fails at load

    def to_spec(self) -> CalibrationSpec:
        return CalibrationSpec(
            adxl345=SensorSpec(self.adxl345_range_g, self.adxl345_bits),
            itg3200=SensorSpec(self.itg3200_range_dps, self.itg3200_bits),
            mma8451q=SensorSpec(self.mma8451q_range_g, self.mma8451q_bits),
        )


@dataclass(frozen=True)
class OrientationConfig:
    gyro_noise: float = 0.01
    accel_noise: float = 0.05
    gate_low_g: float = 0.7
    gate_high_g: float = 1.3
    init_window_s: float = 0.5
    # Device mounting: the body-frame axis pointing up when the subject
    # stands.  The corpus wears the unit at the waist with -y up.
    body_up: tuple[float, float, float] = (0.0, -1.0, 0.0)
    deriv_order: int = 2

    def __post_init__(self):
        self.filter_config()    # a filter that cannot run fails at load
        unit_body_up(self.body_up)          # as does a tilt that cannot
        if (not isinstance(self.deriv_order, int)
                or isinstance(self.deriv_order, bool)
                or self.deriv_order not in (1, 2)):
            raise ConfigError(
                f"deriv_order must be 1 or 2, got {self.deriv_order!r}")

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            gyro_noise=self.gyro_noise, accel_noise=self.accel_noise,
            gate_low_g=self.gate_low_g, gate_high_g=self.gate_high_g,
            init_window_s=self.init_window_s)

    def body_up_vector(self) -> np.ndarray:
        return np.asarray(self.body_up, dtype=float)


@dataclass(frozen=True)
class SelectionConfig:
    corr_threshold: float = 0.3
    mrmr_k: int = 2
    bins: int = 32
    kan_features: tuple[str, ...] = (
        "ay_adxl345", "ay_mma8451q", "wy_itg3200", "theta", "theta_deriv")


@dataclass(frozen=True)
class SegmentConfig:
    stillness_window_ms: float = 200.0
    stillness_threshold_g: float = 0.05


@dataclass(frozen=True)
class SplitConfig:
    train: float = 0.6
    validation: float = 0.2
    test: float = 0.2
    seed: int = 0

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self.train, self.validation, self.test)


@dataclass(frozen=True)
class StreamSettings:
    deadline_us: float = 5000.0
    kan_gating: bool = True


@dataclass(frozen=True)
class SynthConfig:
    subjects: int = 2
    falls_per_subject: int = 3
    adls_per_subject: int = 2
    repetitions: int = 2
    duration_s: float = 8.0
    noise_g: float = 0.005


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    orientation: OrientationConfig = field(default_factory=OrientationConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    segment: SegmentConfig = field(default_factory=SegmentConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    fdnn: FdnnConfig = field(default_factory=FdnnConfig)
    kan: KanConfig = field(default_factory=KanConfig)
    kan_grid: tuple[dict, ...] = ()
    stream: StreamSettings = field(default_factory=StreamSettings)
    synth: SynthConfig = field(default_factory=SynthConfig)


_SECTION_TYPES = {
    "calibration": CalibrationConfig,
    "orientation": OrientationConfig,
    "selection": SelectionConfig,
    "segment": SegmentConfig,
    "split": SplitConfig,
    "fdnn": FdnnConfig,
    "kan": KanConfig,
    "stream": StreamSettings,
    "synth": SynthConfig,
}


def _build_section(cls, data: dict, path: str):
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {sorted(unknown)}")
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
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    return RunConfig(**kwargs)


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

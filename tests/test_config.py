import ast
import dataclasses
import json
from pathlib import Path

import pytest

from fallsense import features, streaming, synthetic
from fallsense.config import (
    ConfigError,
    dump_config,
    kan_grid_configs,
    load_config,
)
from fallsense.orientation import FilterConfig
from fallsense.sisfall import CalibrationSpec

ROOT = Path(__file__).resolve().parents[1]


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.fdnn.inner_dim == 16
        assert cfg.fdnn.epochs == 64
        assert cfg.fdnn.batch_size == 128
        assert cfg.kan.n_inner_nodes == 4
        assert cfg.kan.q_outer_nodes == 64
        assert cfg.kan.mu == 0.0625
        assert cfg.kan.window_ms == 50.0
        assert cfg.kan.epochs == 10
        assert cfg.orientation.body_up == (0.0, -1.0, 0.0)

    def test_overlay(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "seed": 5,
            "fdnn": {"epochs": 2},
            "kan": {"mu": 0.125},
        }))
        cfg = load_config(p)
        assert cfg.seed == 5
        assert cfg.fdnn.epochs == 2
        assert cfg.fdnn.inner_dim == 16  # untouched default
        assert cfg.kan.mu == 0.125

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"fdnn": {"bogus": 1}}')
        with pytest.raises(ConfigError, match="bogus"):
            load_config(p)

    def test_unknown_top_level_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"nonsense": {}}')
        with pytest.raises(ConfigError):
            load_config(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_section_validation_propagates(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"kan": {"mu": 3.0}}')
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("section", [
        {"accel_noise": 0.0},
        {"gyro_noise": -0.01},
        {"gate_low_g": 1.5},
        {"init_window_s": 0.0},
    ])
    def test_unrunnable_filter_rejected(self, tmp_path, section):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"orientation": section}))
        with pytest.raises(ConfigError, match="invalid orientation section"):
            load_config(p)

    # Each makes every tilt NaN or cannot be computed; the derivative
    # exists for orders 1 and 2 only.
    @pytest.mark.parametrize("section", [
        {"body_up": [0, 0, 0]},
        {"body_up": [1, 2]},
        {"body_up": [float("nan"), 0, 1]},
        {"body_up": [0, float("inf"), 1]},
        {"deriv_order": 3},
        {"deriv_order": 0},
        {"deriv_order": 1.5},
    ])
    def test_uncomputable_tilt_rejected(self, section):
        with pytest.raises(ConfigError, match="invalid orientation section"):
            load_config(None, overrides={"orientation": section})

    def test_scaled_body_up_and_first_order_load(self):
        cfg = load_config(None, overrides={
            "orientation": {"body_up": [0, 0, 2], "deriv_order": 1}})
        assert cfg.orientation.body_up == (0, 0, 2)
        assert cfg.orientation.deriv_order == 1

    # Settings the CLI takes only as flags (--root, --annotations,
    # --subjects, --jobs, --mode): a config file naming one fails at load
    # rather than being recorded as if it had been used.
    @pytest.mark.parametrize("data, key", [
        ({"dataset_root": "corpus"}, "dataset_root"),
        ({"annotations": "spans.csv"}, "annotations"),
        ({"subjects_file": "subjects.csv"}, "subjects_file"),
        ({"jobs": 4}, "jobs"),
        ({"stream": {"mode": "realtime"}}, "mode"),
    ], ids=["dataset_root", "annotations", "subjects_file", "jobs", "mode"])
    def test_flag_only_keys_rejected(self, tmp_path, data, key):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=key):
            load_config(p)

    @pytest.mark.parametrize("section", [
        {"adxl345_bits": 12},
        {"mma8451q_range_g": 0.0},
    ])
    def test_unrunnable_calibration_rejected(self, tmp_path, section):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"calibration": section}))
        with pytest.raises(ConfigError, match="invalid calibration section"):
            load_config(p)

    # Each would fail only when synth runs, some after writing part of
    # the corpus (a 24th subject or 6th repetition has no trial id), or
    # write an empty one.
    @pytest.mark.parametrize("section", [
        {"duration_s": 2.0},
        {"duration_s": float("inf")},
        {"noise_g": -0.01},
        {"noise_g": float("nan")},
        {"subjects": 0},
        {"subjects": 24},
        {"repetitions": 0},
        {"repetitions": 6},
        {"falls_per_subject": -1},
        {"adls_per_subject": 1.5},
    ])
    def test_unwritable_synth_rejected(self, section):
        with pytest.raises(ConfigError, match="invalid synth section"):
            load_config(None, overrides={"synth": section})

    @pytest.mark.parametrize("section", [
        {"train": 0.5},
        {"test": -0.2, "train": 1.0},
        {"validation": float("nan")},
    ])
    def test_unsplittable_ratios_rejected(self, section):
        with pytest.raises(ConfigError, match="invalid split section"):
            load_config(None, overrides={"split": section})

    # Each would load and then fail only partway through a command:
    # ``features`` after creating its output folders, ``select`` at the
    # ranking, or the stillness window as a NaN sample count.
    @pytest.mark.parametrize("section", [
        {"kan_features": ["bogus"]},
        {"kan_features": []},
        {"mrmr_k": 0},
        {"mrmr_k": 20},
        {"mrmr_k": 2.0},
        {"bins": 1},
        {"bins": True},
        {"corr_threshold": -0.1},
        {"corr_threshold": 1.5},
        {"corr_threshold": float("nan")},
    ])
    def test_unrunnable_selection_rejected(self, section):
        with pytest.raises(ConfigError, match="invalid selection section"):
            load_config(None, overrides={"selection": section})

    @pytest.mark.parametrize("section", [
        {"stillness_window_ms": float("nan")},
        {"stillness_window_ms": 0.0},
        {"stillness_window_ms": float("inf")},
        {"stillness_threshold_g": -0.05},
        {"stillness_threshold_g": float("nan")},
    ])
    def test_unrunnable_segment_rejected(self, section):
        with pytest.raises(ConfigError, match="invalid segment section"):
            load_config(None, overrides={"segment": section})

    # A NaN deadline would count no sample as a miss, and the string "no"
    # is truthy, so it would leave the impact-model gate on.
    @pytest.mark.parametrize("section", [
        {"deadline_us": float("nan")},
        {"deadline_us": -1.0},
        {"deadline_us": 0.0},
        {"deadline_us": float("inf")},
        {"deadline_us": "5000"},
        {"deadline_us": True},
        {"kan_gating": "no"},
        {"kan_gating": 0},
    ])
    def test_unusable_stream_rejected(self, section):
        with pytest.raises(ConfigError, match="invalid stream section"):
            load_config(None, overrides={"stream": section})

    # Each loaded before and failed only once a command ran, most with a
    # traceback: an infinite window overflows round(), a fractional count
    # or seed is a TypeError in range() or the RNG, a grid entry is built
    # only by cv-kan, and an infinite full scale reads every sample as
    # non-finite.
    @pytest.mark.parametrize("text, match", [
        ('{"kan": {"window_ms": Infinity}}', "invalid kan section: window"),
        ('{"orientation": {"init_window_s": Infinity}}',
         "invalid orientation section: init_window_s"),
        ('{"kan": {"epochs": 2.5}}', "epochs must be an integer"),
        ('{"kan": {"n_inner_nodes": 4.5}}',
         "n_inner_nodes must be an integer"),
        ('{"split": {"seed": 1.5}}', "invalid split section: seed"),
        ('{"fdnn": {"seed": 1.5}}', "invalid fdnn section: seed"),
        ('{"seed": "x"}', "seed must be an integer"),
        ('{"kan_grid": "abc"}', "kan_grid must be a list of objects"),
        ('{"kan_grid": [{"mu": 5}]}', "invalid kan_grid entry section: mu"),
        ('{"calibration": {"adxl345_range_g": NaN}}',
         "invalid calibration section: sensor full scale"),
        ('{"calibration": {"adxl345_range_g": Infinity}}',
         "invalid calibration section: sensor full scale"),
        ('{"seed": -1}', "^seed must be non-negative, got -1"),
        ('{"split": {"seed": -1}}', "invalid split section: seed must be"),
        ('{"fdnn": {"seed": -2}}', "invalid fdnn section: seed must be"),
        ('{"kan": {"seed": -3}}', "invalid kan section: seed must be"),
        ('{"kan_grid": [{"seed": -1}]}',
         "invalid kan_grid entry section: seed must be"),
        # A fit that cannot run: no epoch to log, an inner grid that is
        # not strictly increasing, or NaN or infinite node values.
        ('{"kan": {"epochs": 0}}', "invalid kan section: epochs must be"),
        ('{"kan": {"epochs": -2}}', "invalid kan section: epochs must be"),
        ('{"kan": {"inner_span": 0}}', "inner_span must be finite and > 0"),
        ('{"kan": {"inner_span": -3.0}}', "inner_span must be finite"),
        ('{"kan": {"inner_span": NaN}}', "inner_span must be finite"),
        ('{"kan": {"inner_span": Infinity}}', "inner_span must be finite"),
        ('{"kan": {"init_scale": -0.01}}',
         "init_scale must be finite and >= 0"),
        ('{"kan": {"init_scale": NaN}}', "init_scale must be finite"),
        ('{"kan": {"init_scale": Infinity}}', "init_scale must be finite"),
        ('{"kan": {"damping": -1e-12}}', "damping must be finite and >= 0"),
        ('{"kan": {"damping": NaN}}', "damping must be finite"),
        ('{"kan": {"damping": Infinity}}', "damping must be finite"),
        ('{"kan_grid": [{"epochs": 0}]}',
         "invalid kan_grid entry section: epochs must be"),
        ('{"kan_grid": [{"mu": 0.25}, {"inner_span": 0}]}',
         "invalid kan_grid entry section: inner_span must be"),
        ('{"kan_grid": [{"damping": NaN}]}',
         "invalid kan_grid entry section: damping must be"),
    ], ids=["kan_window_inf", "init_window_inf", "kan_epochs_frac",
            "kan_nodes_frac", "split_seed_frac", "fdnn_seed_frac",
            "seed_str", "grid_str", "grid_entry_mu", "range_nan",
            "range_inf", "seed_negative", "split_seed_negative",
            "fdnn_seed_negative", "kan_seed_negative",
            "grid_entry_seed_negative", "kan_epochs_zero",
            "kan_epochs_negative", "kan_span_zero", "kan_span_negative",
            "kan_span_nan", "kan_span_inf", "kan_init_negative",
            "kan_init_nan", "kan_init_inf", "kan_damping_negative",
            "kan_damping_nan", "kan_damping_inf", "grid_entry_epochs_zero",
            "grid_entry_span_zero", "grid_entry_damping_nan"])
    def test_unrunnable_values_rejected_at_load(self, tmp_path, text, match):
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config(p)

    def test_grid_dumped_as_written(self, tmp_path):
        grid = [{"mu": 0.25}, {"n_inner_nodes": 8, "window_ms": 100.0}]
        cfg = load_config(None, overrides={"kan_grid": grid})
        p = tmp_path / "resolved.json"
        dump_config(cfg, p)
        assert json.loads(p.read_text())["kan_grid"] == grid
        assert load_config(p) == cfg

    def test_round_trip(self, tmp_path):
        cfg = load_config(None, overrides={"seed": 9})
        p = tmp_path / "resolved.json"
        dump_config(cfg, p)
        again = load_config(p)
        assert again == cfg

    def test_calibration_spec(self):
        spec = load_config(None).calibration
        assert spec.adxl345.scale == pytest.approx(2 * 16 / 2 ** 13)
        assert spec.itg3200.scale == pytest.approx(2 * 2000 / 2 ** 16)
        assert spec.mma8451q.scale == pytest.approx(2 * 8 / 2 ** 14)


# resolved_config.json with every default, byte for byte as written before
# the calibration and orientation sections became the library's own types.
DEFAULT_RESOLVED = """\
{
  "calibration": {
    "adxl345_bits": 13,
    "adxl345_range_g": 16.0,
    "itg3200_bits": 16,
    "itg3200_range_dps": 2000.0,
    "mma8451q_bits": 14,
    "mma8451q_range_g": 8.0
  },
  "fdnn": {
    "adam_eps": 1e-08,
    "batch_size": 128,
    "beta1": 0.9,
    "beta2": 0.999,
    "bn_eps": 1e-05,
    "bn_momentum": 0.9,
    "classes": 2,
    "dropout_rate": 0.5,
    "epochs": 64,
    "fc1_units": 16,
    "grad_clip": 5.0,
    "inner_dim": 16,
    "input_dim": 18,
    "learning_rate": 0.001,
    "seed": 0,
    "static_dim": 4,
    "threshold": 0.5
  },
  "kan": {
    "damping": 1e-12,
    "epochs": 10,
    "init_scale": 0.01,
    "inner_span": 3.0,
    "mu": 0.0625,
    "n_inner_nodes": 4,
    "q_outer_nodes": 64,
    "seed": 0,
    "shuffle": true,
    "standardize_targets": true,
    "warmup": "epoch",
    "window_ms": 50.0
  },
  "kan_grid": [],
  "orientation": {
    "accel_noise": 0.05,
    "body_up": [
      0.0,
      -1.0,
      0.0
    ],
    "deriv_order": 2,
    "gate_high_g": 1.3,
    "gate_low_g": 0.7,
    "gyro_noise": 0.01,
    "init_window_s": 0.5
  },
  "seed": 0,
  "segment": {
    "stillness_threshold_g": 0.05,
    "stillness_window_ms": 200.0
  },
  "selection": {
    "bins": 32,
    "corr_threshold": 0.3,
    "kan_features": [
      "ay_adxl345",
      "ay_mma8451q",
      "wy_itg3200",
      "theta",
      "theta_deriv"
    ],
    "mrmr_k": 2
  },
  "split": {
    "seed": 0,
    "test": 0.2,
    "train": 0.6,
    "validation": 0.2
  },
  "stream": {
    "deadline_us": 5000.0,
    "kan_gating": true
  },
  "synth": {
    "adls_per_subject": 2,
    "duration_s": 8.0,
    "falls_per_subject": 3,
    "noise_g": 0.005,
    "repetitions": 2,
    "subjects": 2
  }
}
"""


def _flatten(tree: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


class TestFormatUnchanged:
    def test_default_file_round_trips_byte_identical(self, tmp_path):
        p = tmp_path / "resolved_config.json"
        p.write_text(DEFAULT_RESOLVED)
        cfg = load_config(p)
        assert cfg == load_config(None)
        again = tmp_path / "again.json"
        dump_config(cfg, again)
        assert again.read_text() == DEFAULT_RESOLVED

    def test_settable_values_and_defaults(self):
        want = _flatten(json.loads(DEFAULT_RESOLVED))
        got = _flatten(json.loads(json.dumps(
            dataclasses.asdict(load_config(None)))))
        assert len(want) == 62
        assert got == want

    def test_sections_are_the_library_types(self):
        cfg = load_config(None)
        assert type(cfg.calibration) is CalibrationSpec
        assert type(cfg.selection) is features.SelectionConfig
        assert type(cfg.segment) is features.SegmentConfig
        assert type(cfg.split) is features.SplitConfig
        assert type(cfg.stream) is streaming.StreamSettings
        assert type(cfg.synth) is synthetic.SynthConfig
        assert isinstance(cfg.orientation, FilterConfig)
        own = ({f.name for f in dataclasses.fields(cfg.orientation)}
               - {f.name for f in dataclasses.fields(FilterConfig)})
        assert own == {"body_up", "deriv_order"}

    def test_benchmark_config_loads(self, tmp_path):
        # the train-eval workload's CONFIG literal, read without importing
        # the benchmark harness
        tree = ast.parse((ROOT / "perfbench" / "train_eval.py").read_text())
        config = next(
            ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and [t.id for t in node.targets if isinstance(t, ast.Name)]
            == ["CONFIG"])
        p = tmp_path / "c.json"
        p.write_text(json.dumps(config))
        cfg = load_config(p)
        assert cfg.orientation.body_up == (0.0, 0.0, 1.0)
        assert cfg.kan.standardize_targets is True
        assert len(kan_grid_configs(cfg)) == len(config["kan_grid"])


class TestKanGrid:
    def test_empty_grid_uses_base(self):
        cfg = load_config(None)
        assert kan_grid_configs(cfg) == [cfg.kan]

    def test_grid_overlays_base(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "kan": {"epochs": 3},
            "kan_grid": [{"mu": 0.0625}, {"mu": 0.25, "n_inner_nodes": 8}],
        }))
        grid = kan_grid_configs(load_config(p))
        assert len(grid) == 2
        assert all(g.epochs == 3 for g in grid)
        assert grid[1].n_inner_nodes == 8

import json

import pytest

from fallsense.config import (
    ConfigError,
    dump_config,
    kan_grid_configs,
    load_config,
)


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

    def test_round_trip(self, tmp_path):
        cfg = load_config(None, overrides={"seed": 9})
        p = tmp_path / "resolved.json"
        dump_config(cfg, p)
        again = load_config(p)
        assert again == cfg

    def test_calibration_spec(self):
        spec = load_config(None).calibration.to_spec()
        assert spec.adxl345.scale == pytest.approx(2 * 16 / 2 ** 13)
        assert spec.mma8451q.scale == pytest.approx(2 * 8 / 2 ** 14)


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

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fallsense.evaluation import (
    ConfusionCounts,
    EvaluationError,
    MetricTable,
    ReportBundle,
    SegmentPrediction,
    TrajectoryTrace,
    TrialMetric,
    confusion,
    metric_table,
    rates,
    render_report,
    rmse_by_group,
    trajectory,
)
from fallsense.kan import KanConfig, fit
from fallsense.sisfall import TrialId
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial

from conftest import blank_frames
from test_kan import make_segment


class TestConfusion:
    def test_all_correct(self):
        c = confusion(np.array([1, 0, 1]), np.array([1, 0, 1]))
        assert c.fp == 0 and c.fn == 0
        assert c.tp == 2 and c.tn == 1

    def test_hand_enumerated(self):
        c = confusion(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 1]))
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)

    def test_empty_mask(self):
        m = np.zeros(2, dtype=bool)
        c = confusion(np.array([1, 0])[m], np.array([1, 0])[m])
        assert c == ConfusionCounts()

    def test_total_equals_unmasked(self):
        rng = np.random.default_rng(0)
        d = rng.integers(0, 2, 500)
        l = rng.integers(0, 2, 500)
        m = rng.random(500) < 0.7
        c = confusion(d[m], l[m])
        assert c.tp + c.fp + c.tn + c.fn == int(m.sum())

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            confusion(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        d = rng.integers(0, 2, n).astype(bool)
        l = rng.integers(0, 2, n)
        m = rng.random(n) < 0.8
        c = confusion(d[m], l[m])
        tp = fp = tn = fn = 0
        for i in range(n):
            if not m[i]:
                continue
            if l[i] == 1 and d[i]:
                tp += 1
            elif l[i] == 1:
                fn += 1
            elif d[i]:
                fp += 1
            else:
                tn += 1
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        got_tpr, got_tnr = rates(c)
        want_tpr = tp / (tp + fn) if tp + fn else None
        want_tnr = tn / (tn + fp) if tn + fp else None
        assert got_tpr == want_tpr
        assert got_tnr == want_tnr


class TestRates:
    def test_simple(self):
        assert rates(ConfusionCounts(tp=1, fn=1)) == (0.5, None)

    def test_undefined_is_none(self):
        tpr, tnr = rates(ConfusionCounts(tn=5))
        assert tpr is None
        assert tnr == 1.0

    def test_perfect(self):
        assert rates(ConfusionCounts(tp=3, tn=7)) == (1.0, 1.0)


class TestMetricTable:
    def test_single_trial_cell(self):
        t = metric_table([TrialMetric(TrialId("F01", "SA01", 1), 0.8)])
        assert (t.subjects, t.activities) == (("SA01",), ("F01",))
        assert t.values[0, 0] == pytest.approx(0.8)

    def test_mean_over_repetitions(self):
        entries = [TrialMetric(TrialId("F01", "SA01", r), v)
                   for r, v in [(1, 0.5), (2, 1.0)]]
        t = metric_table(entries)
        assert t.values.shape == (1, 1)
        assert t.values[0, 0] == pytest.approx(0.75)

    def test_blank_cells_and_average(self):
        entries = [
            TrialMetric(TrialId("F01", "SA01", 1), 1.0),
            TrialMetric(TrialId("F02", "SA02", 1), 0.5),
            TrialMetric(TrialId("F02", "SA01", 1), None),  # undefined rate
        ]
        t = metric_table(entries)
        assert (t.subjects, t.activities) == (("SA01", "SA02"),
                                              ("F01", "F02"))
        assert np.isnan(t.values[0, 1])                 # SA01 F02
        assert np.isnan(t.values[1, 0])                 # SA02 F01
        assert t.average() == pytest.approx(0.75)  # mean over non-blank

    def test_csv_round_trip(self, tmp_path):
        entries = [TrialMetric(TrialId("F01", "SA01", 1), 0.8),
                   TrialMetric(TrialId("F03", "SA02", 2), 0.25)]
        t = metric_table(entries)
        p = tmp_path / "table.csv"
        t.to_csv(p)
        back = MetricTable.from_csv(p)
        assert back.subjects == t.subjects
        assert back.activities == t.activities
        assert np.allclose(back.values, t.values, equal_nan=True)


class TestRmseByGroup:
    def _entry(self, subject, activity, rep, preds, targets):
        return SegmentPrediction(TrialId(activity, subject, rep),
                                 np.asarray(preds, dtype=float),
                                 np.asarray(targets, dtype=float))

    def test_exact_predictions(self):
        h = rmse_by_group([self._entry("SA01", "F01", 1, [1, 2], [1, 2])])
        assert h.table.values.tolist() == [[0.0]]
        assert h.global_rmse == 0.0

    def test_constant_offset(self):
        h = rmse_by_group(
            [self._entry("SA01", "F01", 1, [10, 20, 30], [0, 10, 20])])
        assert h.table.values[0, 0] == pytest.approx(10.0)

    def test_alternating_offset(self):
        targets = np.zeros(10)
        preds = np.where(np.arange(10) % 2 == 0, 10.0, -10.0)
        h = rmse_by_group([self._entry("SA01", "F01", 1, preds, targets)])
        assert h.table.values[0, 0] == pytest.approx(10.0)

    def test_global_pools_all_samples(self):
        rng = np.random.default_rng(1)
        entries = []
        all_p, all_t = [], []
        for i, (subj, act) in enumerate(
                [("SA01", "F01"), ("SA01", "F02"), ("SA02", "F01")]):
            n = int(rng.integers(5, 40))
            p = rng.normal(0, 30, n)
            t = rng.normal(0, 30, n)
            entries.append(self._entry(subj, act, 1, p, t))
            all_p.append(p)
            all_t.append(t)
        h = rmse_by_group(entries)
        direct = float(np.sqrt(np.mean(
            (np.concatenate(all_p) - np.concatenate(all_t)) ** 2)))
        assert h.global_rmse == pytest.approx(direct, rel=1e-12)

    def test_empty(self):
        h = rmse_by_group([])
        assert h.global_rmse is None


class TestTrajectory:
    def test_columns_and_length(self):
        segs = [make_segment("SA01", "F01", r, seed=r) for r in (1, 2, 3)]
        model, _ = fit(KanConfig(epochs=2, seed=0), segs[:2], [segs[2]])
        trace = trajectory(model, segs[0])
        assert len(trace.t_s) == len(segs[0])
        assert np.array_equal(trace.truth_ms, segs[0].tti_ms)
        assert np.all(trace.predicted_ms >= 0)


class TestSyntheticGenerator:
    def test_span_index_arithmetic(self):
        spec = SyntheticSpec(fall_onset_s=5.0, impact_s=5.7)
        annotated, truth = generate_synthetic_trial(spec, seed=0)
        assert truth.fall_span == (1000, 1140)
        assert annotated.fall_span() == (1000, 1140)

    def test_deterministic(self):
        a1, _ = generate_synthetic_trial(SyntheticSpec(), seed=5)
        a2, _ = generate_synthetic_trial(SyntheticSpec(), seed=5)
        assert np.array_equal(a1.trial.accel_adxl345, a2.trial.accel_adxl345)
        assert np.array_equal(a1.trial.gyro_itg3200, a2.trial.gyro_itg3200)

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(fall_onset_s=6.0, impact_s=5.0)

    def test_noise_free_closed_loop(self):
        from fallsense.features import extract_fall_segment
        spec = SyntheticSpec(noise_g=0.0)
        annotated, truth = generate_synthetic_trial(spec, seed=1)
        seg = extract_fall_segment(annotated, blank_frames(annotated))
        assert seg.end_index == truth.impact_index

    def test_walk_has_no_labels(self):
        annotated, truth = generate_synthetic_trial(
            SyntheticSpec(kind="walk", duration_s=4.0), seed=2,
            trial_id=TrialId("D01", "SA01", 1))
        assert annotated.fall_span() is None
        assert truth.impact_index is None


class TestRenderReport:
    def _bundle(self):
        fall_tpr = metric_table(
            [TrialMetric(TrialId("F01", "SA01", 1), 0.9)])
        rmse = rmse_by_group([SegmentPrediction(
            TrialId("F01", "SA01", 1), np.array([10.0]), np.array([0.0]))])
        trace = TrajectoryTrace(
            trial_id=TrialId("F03", "SA18", 3),
            t_s=np.array([0.0, 0.005]),
            truth_ms=np.array([10.0, 5.0]),
            predicted_ms=np.array([8.0, 6.0]))
        return ReportBundle(fall_tpr=fall_tpr, fall_tnr=None, adl_tnr=None,
                            rmse=rmse, trajectories=[trace])

    def test_files_written(self, tmp_path):
        files = render_report(self._bundle(), tmp_path)
        names = {f.name for f in files}
        assert {"fall_tpr.csv", "fall_tnr.csv", "adl_tnr.csv",
                "rmse_heatmap.csv", "summary.json",
                "trajectory_F03_SA18_R03.csv"} <= names

    def test_summary_schema(self, tmp_path):
        render_report(self._bundle(), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"fall_tpr_avg", "fall_tnr_avg",
                                "adl_tnr_avg", "tti_rmse_ms"}
        assert summary["fall_tpr_avg"] == pytest.approx(0.9)
        assert summary["fall_tnr_avg"] is None
        assert summary["tti_rmse_ms"] == pytest.approx(10.0)

    def test_empty_bundle(self, tmp_path):
        render_report(ReportBundle(), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert all(v is None for v in summary.values())
        first = (tmp_path / "fall_tpr.csv").read_text()
        assert first.startswith("subject")

    def test_svg_parses_as_xml(self, tmp_path):
        files = render_report(self._bundle(), tmp_path)
        for f in files:
            if f.suffix == ".svg":
                ET.fromstring(f.read_text())

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        render_report(self._bundle(), d1)
        render_report(self._bundle(), d2)
        for f in sorted(d1.iterdir()):
            assert f.read_bytes() == (d2 / f.name).read_bytes()

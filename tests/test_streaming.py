import csv
import dataclasses
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fallsense import fdnn as fdnn_mod
from fallsense import kan as kan_mod
from fallsense.features import apply_standardizer, feature_indices
from fallsense.kan import KanConfig
from fallsense.pipeline import (
    collect_fall_segments,
    fit_frame_standardizer,
    frames_to_example,
    orient_and_frame,
)
from fallsense.sisfall import TrialId
from fallsense.checkpoint import CheckpointError
from fallsense.streaming import (
    FdnnStream,
    StreamError,
    StreamEvent,
    stream_trial,
    write_events_csv,
)
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial

STORED = Path(__file__).resolve().parents[1] / "perfbench" / "models"


@pytest.fixture(scope="module")
def trained(tmp_path_factory, subject):
    """Small trained pair of checkpoints plus the trials that fed them."""
    out = tmp_path_factory.mktemp("ckpts")
    falls, walks = [], []
    for i in range(4):
        ann, _ = generate_synthetic_trial(
            SyntheticSpec(duration_s=6.0, fall_onset_s=2.0,
                          impact_s=2.0 + 0.5 + 0.05 * i),
            seed=100 + i,
            trial_id=TrialId(f"F{i + 1:02d}", "SA01", i % 5 + 1))
        falls.append(ann)
    for i in range(3):
        ann, _ = generate_synthetic_trial(
            SyntheticSpec(kind="walk", duration_s=6.0), seed=200 + i,
            trial_id=TrialId(f"D{i + 1:02d}", "SA01", i % 5 + 1))
        walks.append(ann)

    pairs = [(a, orient_and_frame(a, subject)) for a in falls + walks]
    frames = [f for _, f in pairs]
    stats = fit_frame_standardizer(frames)
    examples = [frames_to_example(f, stats) for f in frames]

    cfg = fdnn_mod.FdnnConfig(epochs=12, batch_size=4, dropout_rate=0.0,
                              learning_rate=3e-3, seed=0)
    params, _ = fdnn_mod.train(cfg, examples, examples)
    fdnn_path = out / "detector.ckpt"
    fdnn_mod.save_checkpoint(fdnn_path, params, cfg, stats)

    segments = collect_fall_segments(pairs)
    kan_model, _ = kan_mod.fit(KanConfig(epochs=3, seed=0),
                               segments[:3], segments[3:])
    kan_path = out / "impact.ckpt"
    kan_mod.save_checkpoint(kan_path, kan_model)

    return fdnn_path, kan_path, pairs, params, cfg, stats


class TestStreamTrial:
    def test_event_count_equals_sample_count(self, trained, subject):
        fdnn_path, kan_path, pairs, *_ = trained
        annotated, _ = pairs[0]
        events, report = stream_trial(fdnn_path, kan_path, annotated.trial,
                                      subject)
        assert len(events) == len(annotated.trial)
        assert report.count == len(annotated.trial)
        assert [e.index for e in events] == list(range(len(events)))

    # None, the corpus mounting the CLI passes by default, and an oblique
    # axis that is not unit length
    @pytest.mark.parametrize(
        "body_up", [None, (0.0, -1.0, 0.0), (0.3, -0.9, 0.1)],
        ids=["None", "minus_y", "oblique"])
    @pytest.mark.bitexact
    def test_stream_matches_batch_forward_bitexact(self, trained, subject,
                                                   body_up):
        fdnn_path, kan_path, pairs, params, cfg, stats = trained
        for annotated, _ in pairs[:3]:
            events, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                                     subject, body_up=body_up)
            frames = orient_and_frame(annotated, subject, body_up=body_up)
            example = frames_to_example(frames, stats)
            trace = fdnn_mod.predict_trace(params, cfg, example.static,
                                           example.sequence)
            streamed = np.array([e.p_falling for e in events])
            assert np.array_equal(streamed, trace.p_falling)

    @pytest.mark.parametrize(
        "body_up", [None, (0.0, -1.0, 0.0), (0.3, -0.9, 0.1)],
        ids=["None", "minus_y", "oblique"])
    @pytest.mark.bitexact
    def test_streamed_detector_inputs_equal_batch_rows(
            self, trained, subject, monkeypatch, body_up):
        # not only the outputs: every standardized row the stream feeds
        # the detector is the batch row, so the frames agree bit for bit
        fdnn_path, kan_path, pairs, params, cfg, stats = trained
        real_step = FdnnStream.step
        for annotated, _ in (pairs[0], pairs[-1]):       # a fall, a walk
            rows = []

            def captured(self):
                # the stream writes the row into the detector's own input
                # row; capture that row as the step reads it
                rows.append(self.inputs[0].copy())
                return real_step(self)

            monkeypatch.setattr(FdnnStream, "step", captured)
            stream_trial(fdnn_path, kan_path, annotated.trial, subject,
                         body_up=body_up)
            frames = orient_and_frame(annotated, subject, body_up=body_up)
            want = apply_standardizer(stats, frames.fdnn_matrix())
            assert np.array_equal(np.array(rows), want)

    @pytest.mark.parametrize("body_up", [
        (0.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (1.0, 2.0)])
    def test_body_up_without_a_tilt_refused_up_front(self, subject, tmp_path,
                                                     body_up):
        # refused before the checkpoints are even read
        annotated, _ = generate_synthetic_trial(
            SyntheticSpec(kind="walk", duration_s=1.0), seed=6)
        with pytest.raises(StreamError, match="body_up"):
            stream_trial(tmp_path / "missing.ckpt", tmp_path / "missing.kan",
                         annotated.trial, subject, body_up=body_up)

    # The checks the config path makes (StreamSettings): a NaN deadline
    # would count no miss, a negative one every sample, and "no" or 0
    # would leave the impact-model gate on.
    @pytest.mark.parametrize("settings", [
        {"kan_gating": "no"}, {"kan_gating": 0},
        {"deadline_us": math.nan}, {"deadline_us": -5.0}],
        ids=["gating_no", "gating_0", "deadline_nan", "deadline_negative"])
    def test_unusable_settings_refused_up_front(self, subject, tmp_path,
                                                settings):
        annotated, _ = generate_synthetic_trial(
            SyntheticSpec(kind="walk", duration_s=1.0), seed=6)
        with pytest.raises(StreamError, match="deadline_us|kan_gating"):
            stream_trial(tmp_path / "missing.ckpt", tmp_path / "missing.kan",
                         annotated.trial, subject, **settings)

    def test_fast_and_realtime_identical(self, trained, subject):
        fdnn_path, kan_path, *_ = trained
        annotated, _ = generate_synthetic_trial(
            SyntheticSpec(duration_s=1.2, fall_onset_s=0.6, impact_s=1.0),
            seed=5)
        fast, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                               _subject(), mode="fast")
        real, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                               _subject(), mode="realtime")
        assert [(e.p_falling, e.decision, e.tti_ms) for e in fast] == \
            [(e.p_falling, e.decision, e.tti_ms) for e in real]

    def test_realtime_sleeps_between_samples(self, trained, subject,
                                             monkeypatch):
        # pacing sleeps until each sample's deadline, at most once per
        # sample, instead of polling the clock
        fdnn_path, kan_path, *_ = trained
        annotated, _ = generate_synthetic_trial(
            SyntheticSpec(kind="walk", duration_s=1.0), seed=6)
        sleeps = []
        real_sleep = time.sleep

        def counted_sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", counted_sleep)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        stream_trial(fdnn_path, kan_path, annotated.trial, subject,
                     mode="realtime")
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        assert wall >= 0.99
        assert cpu < 0.5 * wall, f"cpu {cpu:.2f} s of {wall:.2f} s wall"
        assert 0 < len(sleeps) <= len(annotated.trial)
        assert min(sleeps) > 0.0

    def test_prefix_equivalence(self, trained, subject):
        # causality: streaming a prefix (past the init window) yields the
        # identical event prefix
        fdnn_path, kan_path, pairs, *_ = trained
        annotated, _ = pairs[1]
        full, _ = stream_trial(fdnn_path, kan_path, annotated.trial, subject)
        trial = annotated.trial
        cut = 700
        import dataclasses
        prefix_trial = dataclasses.replace(
            trial,
            accel_adxl345=trial.accel_adxl345[:cut],
            gyro_itg3200=trial.gyro_itg3200[:cut],
            accel_mma8451q=trial.accel_mma8451q[:cut])
        prefix, _ = stream_trial(fdnn_path, kan_path, prefix_trial, subject)
        assert [(e.p_falling, e.decision, e.tti_ms) for e in prefix] == \
            [(e.p_falling, e.decision, e.tti_ms) for e in full[:cut]]

    # The edges of the 100-sample warm-up window: a trial shorter than it
    # starts the filter on all its samples, and the deferred events and
    # the first undeferred ones come from one loop.
    @pytest.mark.parametrize("gating", [True, False],
                             ids=["gated", "ungated"])
    @pytest.mark.parametrize("n", [3, 99, 100, 101])
    def test_window_edges_match_batch_bitexact(self, trained, subject, n,
                                               gating):
        fdnn_path, kan_path, pairs, params, cfg, stats = trained
        annotated = _prefix(pairs[0][0], n)
        events, report = stream_trial(fdnn_path, kan_path, annotated.trial,
                                      subject, kan_gating=gating)
        assert [e.index for e in events] == list(range(n))
        assert report.count == n
        frames = orient_and_frame(annotated, subject)
        example = frames_to_example(frames, stats)
        trace = fdnn_mod.predict_trace(params, cfg, example.static,
                                       example.sequence)
        assert np.array_equal([e.p_falling for e in events],
                              trace.p_falling)
        model = kan_mod.load_checkpoint(kan_path)
        kernel = kan_mod.KanKernel(model)
        rows = list(frames.data[:, feature_indices(model.feature_names)])
        w = model.config.window_samples
        for k, e in enumerate(events):
            if gating and not e.decision:
                assert e.tti_ms is None
            else:
                assert e.tti_ms == kan_mod.predict_smoothed_row(
                    kernel, np.mean(rows[max(0, k - w + 1):k + 1], axis=0))

    # The tilt derivative of order d needs d + 1 samples; the batch path
    # (orientation.angular_derivative) refuses shorter trials, and so does
    # the stream, before it reads a checkpoint.
    @pytest.mark.parametrize("n, order", [(0, 1), (1, 1), (1, 2), (2, 2)])
    def test_too_short_for_the_derivative_refused_up_front(
            self, subject, tmp_path, n, order):
        annotated = _prefix(generate_synthetic_trial(
            SyntheticSpec(kind="walk", duration_s=1.0), seed=6)[0], n)
        with pytest.raises(StreamError, match=f"needs >= {order + 1}"):
            stream_trial(tmp_path / "missing.ckpt", tmp_path / "missing.kan",
                         annotated.trial, subject, deriv_order=order)

    def test_two_samples_stream_at_first_order(self, trained, subject):
        fdnn_path, kan_path, pairs, params, cfg, stats = trained
        annotated = _prefix(pairs[0][0], 2)
        events, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                                 subject, deriv_order=1)
        frames = orient_and_frame(annotated, subject, deriv_order=1)
        example = frames_to_example(frames, stats)
        trace = fdnn_mod.predict_trace(params, cfg, example.static,
                                       example.sequence)
        assert np.array_equal([e.p_falling for e in events],
                              trace.p_falling)

    def test_tti_present_iff_falling(self, trained, subject):
        fdnn_path, kan_path, pairs, *_ = trained
        annotated, _ = pairs[0]
        events, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                                 subject)
        for e in events:
            assert (e.tti_ms is not None) == e.decision
            if e.tti_ms is not None:
                assert e.tti_ms >= 0.0

    @pytest.mark.parametrize("gating", [False, True])
    def test_impact_model_called_once_per_estimate(self, trained, subject,
                                                   monkeypatch, gating):
        # profilers wrap kan.predict_smoothed_row (the benchmark's kan.eval
        # span): the stream must call it through the module, once for every
        # sample that gets an impact time
        fdnn_path, kan_path, pairs, *_ = trained
        annotated, _ = pairs[0]
        calls = []
        real = kan_mod.predict_smoothed_row

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kan_mod, "predict_smoothed_row", counted)
        events, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                                 subject, kan_gating=gating)
        flagged = sum(e.decision for e in events)
        assert flagged > 0
        assert len(calls) == (flagged if gating else len(events))

    def test_tti_is_kernel_on_numpy_trailing_mean(self, trained, subject):
        # the stream's plain-float window sums add in the order np.mean
        # adds a list of row vectors, so every streamed tti is
        # bit-identical to the kernel applied to that NumPy trailing mean
        fdnn_path, kan_path, pairs, *_ = trained
        annotated, frames = pairs[1]
        model = kan_mod.load_checkpoint(kan_path)
        kernel = kan_mod.KanKernel(model)
        rows = list(frames.data[:, feature_indices(model.feature_names)])
        w = model.config.window_samples
        events, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                                 subject, kan_gating=False)
        want = [kan_mod.predict_smoothed_row(
                    kernel, np.mean(rows[max(0, k - w + 1):k + 1], axis=0))
                for k in range(len(events))]
        assert [e.tti_ms for e in events] == want

    def test_all_background_trial_has_no_tti(self, trained, subject):
        fdnn_path, kan_path, pairs, *_ = trained
        walk_pairs = [(a, f) for a, f in pairs
                      if not a.trial_id.activity.startswith("F")]
        annotated, _ = walk_pairs[0]
        events, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                                 subject)
        assert all(e.tti_ms is None for e in events)

    def test_latency_report_consistency(self, trained, subject):
        fdnn_path, kan_path, pairs, *_ = trained
        annotated, _ = pairs[0]
        events, report = stream_trial(fdnn_path, kan_path, annotated.trial,
                                      subject, deadline_us=5000.0)
        lats = np.array([e.latency_us for e in events])
        assert report.p99_us <= report.max_us
        assert report.deadline_misses == int((lats > 5000.0).sum())
        assert report.mean_us == pytest.approx(lats.mean())

    def test_feature_mismatch_rejected(self, trained, subject, tmp_path):
        fdnn_path, kan_path, pairs, *_ = trained
        model = kan_mod.load_checkpoint(kan_path)
        model.feature_names = ("bogus",) * len(model.feature_names)
        bad = tmp_path / "bad.kan"
        kan_mod.save_checkpoint(bad, model)
        annotated, _ = pairs[0]
        with pytest.raises(StreamError, match="not in the frame"):
            stream_trial(fdnn_path, bad, annotated.trial, subject)

    def test_detector_reset_replays_bit_for_bit(self, trained):
        # a stream is reset by making a new one: a second stream over the
        # trial gives what the first gave, which is the batch trace
        _, _, pairs, params, cfg, stats = trained
        example = frames_to_example(pairs[0][1], stats)
        rows = np.hstack([
            np.tile(example.static, (len(example.sequence), 1)),
            example.sequence])
        def replay(stream):
            out = []
            for r in rows:
                stream.inputs[0] = r
                out.append(stream.step())
            return out

        first = replay(FdnnStream(params, cfg))
        assert replay(FdnnStream(params, cfg)) == first
        trace = fdnn_mod.predict_trace(params, cfg, example.static,
                                       example.sequence)
        assert np.array_equal(first, trace.p_falling)

    def test_misshapen_detector_rejected_at_load(self, trained, subject,
                                                  tmp_path):
        fdnn_path, kan_path, pairs, params, cfg, stats = trained
        bad = params.copy()
        bad.fc2_w = bad.fc2_w[1:]
        bad_path = tmp_path / "bad.ckpt"
        fdnn_mod.save_checkpoint(bad_path, bad, cfg, stats)
        with pytest.raises(CheckpointError, match="fc2_w has shape"):
            stream_trial(bad_path, kan_path, pairs[0][0].trial, subject)

    @pytest.mark.parametrize("kan_gating", [True, False],
                             ids=["gated", "ungated"])
    @pytest.mark.parametrize("sensor, attr", [
        ("ADXL345", "accel_adxl345"), ("ITG3200", "gyro_itg3200"),
        ("MMA8451Q", "accel_mma8451q")])
    def test_non_finite_sample_rejected(self, trained, subject, monkeypatch,
                                        sensor, attr, kan_gating):
        # refused before the first detector step, so no event is emitted
        fdnn_path, kan_path, pairs, *_ = trained
        trial = pairs[0][0].trial
        values = getattr(trial, attr).copy()
        values[300, 1] = np.nan
        bad = dataclasses.replace(trial, **{attr: values})
        steps = []
        monkeypatch.setattr(FdnnStream, "step",
                            lambda self: steps.append(self))
        with pytest.raises(StreamError,
                           match=f"{sensor}: non-finite sample at index 300"):
            stream_trial(fdnn_path, kan_path, bad, subject,
                         kan_gating=kan_gating)
        assert steps == []

    @pytest.mark.parametrize("attr, sensor, cut", [
        ("gyro_itg3200", "ITG3200", np.s_[:-5]),
        ("accel_mma8451q", "MMA8451Q", np.s_[:-5]),
        ("accel_adxl345", "ITG3200", np.s_[:-5]),   # the others are longer
        ("gyro_itg3200", "ITG3200", np.s_[:, :2]),
        ("gyro_itg3200", "ITG3200", None),          # 5 rows longer
    ], ids=["short_gyro", "short_mma", "short_adxl", "two_column_gyro",
            "long_gyro"])
    def test_misshapen_sensors_refused_up_front(self, subject, tmp_path,
                                                monkeypatch, attr, sensor,
                                                cut):
        # all three sensors must be (n, 3) with one n; refused before the
        # checkpoints are read, so before any tick
        trial = generate_synthetic_trial(
            SyntheticSpec(kind="walk", duration_s=1.0), seed=6)[0].trial
        values = getattr(trial, attr)
        values = (np.vstack([values, values[:5]]) if cut is None
                  else values[cut])
        bad = dataclasses.replace(trial, **{attr: values})
        steps = []
        monkeypatch.setattr(FdnnStream, "step",
                            lambda self: steps.append(self))
        with pytest.raises(StreamError, match=f"{sensor}: samples must be"):
            stream_trial(tmp_path / "missing.ckpt", tmp_path / "missing.kan",
                         bad, subject)
        assert steps == []

    @pytest.mark.parametrize("kan_gating", [True, False],
                             ids=["gated", "ungated"])
    def test_float32_sensors_stream_as_their_float64_copy(
            self, trained, subject, kan_gating):
        fdnn_path, kan_path, pairs, *_ = trained
        trial = pairs[0][0].trial
        attrs = ("accel_adxl345", "gyro_itg3200", "accel_mma8451q")
        single = dataclasses.replace(trial, **{
            a: getattr(trial, a).astype(np.float32) for a in attrs})
        double = dataclasses.replace(trial, **{
            a: getattr(single, a).astype(np.float64) for a in attrs})
        assert not np.array_equal(double.gyro_itg3200, trial.gyro_itg3200)
        got, want = (
            _fields(stream_trial(fdnn_path, kan_path, t, subject,
                                 kan_gating=kan_gating)[0])
            for t in (single, double))
        assert got == want

    def test_events_csv(self, trained, subject, tmp_path):
        fdnn_path, kan_path, pairs, *_ = trained
        annotated, _ = pairs[0]
        events, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                                 subject)
        p = tmp_path / "events.csv"
        write_events_csv(p, events)
        lines = p.read_text().splitlines()
        assert lines[0] == "index,p_falling,decision,tti_ms,latency_us"
        assert len(lines) == len(events) + 1

    def test_events_csv_bytes_equal_csv_writer(self, tmp_path):
        # no impact time, signed zeros and a large one, probabilities 0
        # and 1, and latencies on .1f rounding ties
        events = [StreamEvent(k, p, p > 0.5, tti, lat) for k, (p, tti, lat)
                  in enumerate([(0.0, None, 0.05), (1.0, 0.0, 0.15),
                                (0.5, -0.0, 0.25), (0.25, 1e6, 2.675),
                                (1 / 3, None, 1e-9), (0.999999999, 12.3456,
                                                      123456.75)])]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_events_csv(got, events)
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "p_falling", "decision", "tti_ms",
                             "latency_us"])
            for e in events:
                writer.writerow([
                    e.index, f"{e.p_falling:.9f}", int(e.decision),
                    "" if e.tti_ms is None else f"{e.tti_ms:.3f}",
                    f"{e.latency_us:.1f}"])
        assert got.read_bytes() == want.read_bytes()


class TestCallsShareNoState:
    """No ``stream_trial`` call changes another's events: not an earlier
    call on the same or other models, not one running in another
    thread."""

    @pytest.mark.bitexact
    def test_repeated_and_interleaved_calls_bitexact(self, trained,
                                                     subject):
        fdnn_path, kan_path, pairs, *_ = trained
        trial = pairs[0][0].trial
        model_pairs = [(fdnn_path, kan_path),
                       (STORED / "detector.ckpt", STORED / "impact.ckpt")]

        def fields(i):
            return _fields(stream_trial(*model_pairs[i], trial, subject,
                                        kan_gating=False)[0])

        first = [fields(0), fields(1)]
        assert first[0] != first[1]
        for i in (1, 1, 0, 0, 1, 0, 1):
            assert fields(i) == first[i]

    def test_threads_get_their_solo_events(self, trained, subject):
        # two threads on the same checkpoints, a fall and a walk, each
        # stream three times
        fdnn_path, kan_path, pairs, *_ = trained
        trials = [pairs[0][0].trial, pairs[-1][0].trial]
        solo = [_fields(stream_trial(fdnn_path, kan_path, t, subject,
                                     kan_gating=False)[0]) for t in trials]
        barrier = threading.Barrier(len(trials))
        got = [[] for _ in trials]

        def run(i):
            barrier.wait()
            for _ in range(3):
                events, _ = stream_trial(fdnn_path, kan_path, trials[i],
                                         subject, kan_gating=False)
                got[i].append(_fields(events))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)         # switch often, mid-tick
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(trials))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == [[s] * 3 for s in solo]


def _fields(events):
    """Each event's outputs: all but its latency."""
    return [(e.index, e.p_falling, e.decision, e.tti_ms) for e in events]


def _subject():
    from fallsense.sisfall import SubjectProfile
    return SubjectProfile(subject_id="SA01", age=30.0, height_cm=175.0,
                          weight_kg=70.0, gender=1.0)


def _prefix(annotated, n):
    """The first n samples of an annotated trial."""
    trial = annotated.trial
    cut = dataclasses.replace(
        trial, accel_adxl345=trial.accel_adxl345[:n],
        gyro_itg3200=trial.gyro_itg3200[:n],
        accel_mma8451q=trial.accel_mma8451q[:n])
    return dataclasses.replace(annotated, trial=cut,
                               labels=annotated.labels[:n])

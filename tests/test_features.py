import dataclasses
import math
import zipfile
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallsense import features as feat
from fallsense.features import (
    FDNN_FEATURES,
    FEATURE_NAMES,
    KAN_DEFAULT_FEATURES,
    FeatureError,
    SegmentError,
    SplitConfig,
    apply_standardizer,
    build_feature_frames,
    correlation_select,
    extract_fall_segment,
    fit_standardizer,
    load_segment,
    mrmr_select,
    save_segment,
    split_sequences,
    tti_targets,
)
from fallsense.orientation import estimate_orientation
from fallsense.sisfall import TrialId
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial


@pytest.fixture(scope="module")
def frames(fall_trial, subject):
    annotated, _ = fall_trial
    quats = estimate_orientation(
        annotated.trial.accel_adxl345, annotated.trial.gyro_itg3200)
    return build_feature_frames(annotated, subject, quats)


class TestFeatureFrames:
    def test_one_frame_per_sample(self, frames, fall_trial):
        annotated, _ = fall_trial
        assert len(frames) == len(annotated)

    def test_view_widths(self, frames):
        assert frames.fdnn_matrix().shape[1] == 18
        assert frames.data.shape[1] == 19
        assert len(FEATURE_NAMES) == 19
        assert len(FDNN_FEATURES) == 18

    def test_static_fields_constant(self, frames):
        assert np.allclose(frames.data[0, :4], frames.data[-1, :4])
        assert np.all(frames.data[:, :4].std(axis=0) == 0.0)

    def test_length_mismatch_rejected(self, fall_trial, subject):
        annotated, _ = fall_trial
        with pytest.raises(FeatureError):
            build_feature_frames(annotated, subject, np.zeros((10, 4)))

    def test_theta_column_in_range(self, frames):
        theta = frames.column("theta")
        assert np.all(theta >= 0) and np.all(theta <= math.pi)

    def test_theta_deriv_is_causal(self, frames):
        # backward second difference of the tilt: 0 until two past
        # samples exist, and never reads a later sample
        theta = frames.column("theta")
        deriv = frames.column("theta_deriv")
        dt = 0.005
        assert np.array_equal(deriv[:2], [0.0, 0.0])
        assert np.array_equal(
            deriv[2:], (theta[2:] - 2.0 * theta[1:-1] + theta[:-2]) / (dt * dt))

    def test_npz_round_trip(self, frames, tmp_path):
        p = tmp_path / "frames.npz"
        feat.save_frames(p, frames)
        loaded = feat.load_frames(p)
        assert loaded.trial_id == frames.trial_id
        assert np.array_equal(loaded.data, frames.data)
        assert np.array_equal(loaded.labels, frames.labels)

    def test_npz_round_trip_is_bit_exact_and_stored(self, frames, tmp_path):
        p = tmp_path / "frames.npz"
        data = frames.data.copy()
        data[0, 5:8] = [-0.0, 5e-324, np.nextafter(1.0, 2.0)]
        feat.save_frames(p, dataclasses.replace(frames, data=data))
        loaded = feat.load_frames(p)
        for got, want in ((loaded.data, data),
                          (loaded.labels, frames.labels)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        with zipfile.ZipFile(p) as z:
            assert {i.compress_type for i in z.infolist()} == \
                {zipfile.ZIP_STORED}

    def test_compressed_frames_still_load(self, frames, tmp_path):
        p = tmp_path / "frames.npz"
        np.savez_compressed(
            p, trial_id=str(frames.trial_id), data=frames.data,
            labels=frames.labels, names=np.array(FEATURE_NAMES))
        loaded = feat.load_frames(p)
        assert loaded.trial_id == frames.trial_id
        assert loaded.data.tobytes() == frames.data.tobytes()
        assert np.array_equal(loaded.labels, frames.labels)


class TestFeatureIndices:
    def test_unknown_name_is_named(self):
        with pytest.raises(FeatureError,
                           match="unknown feature name: 'bogus'"):
            feat.feature_indices(("theta", "bogus"))


class TestStandardizer:
    def test_two_point_column(self):
        stats = fit_standardizer(np.array([[1.0], [3.0]]))
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0  # population std
        out = apply_standardizer(stats, np.array([[1.0], [3.0]]))
        assert np.allclose(out.ravel(), [-1.0, 1.0])

    def test_constant_column_clamped(self):
        stats = fit_standardizer(np.full((5, 1), 7.0))
        assert stats.std[0] == feat.STD_FLOOR
        out = apply_standardizer(stats, np.full((5, 1), 7.0))
        assert np.allclose(out, 0.0)

    def test_refit_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(200, 4))
        z = apply_standardizer(fit_standardizer(x), x)
        stats2 = fit_standardizer(z)
        assert np.allclose(stats2.mean, 0.0, atol=1e-9)
        assert np.allclose(stats2.std, 1.0, atol=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 3)) * [10, 0.01, 1000]
        stats = fit_standardizer(x)
        z = apply_standardizer(stats, x)
        assert np.allclose(z * stats.std + stats.mean, x, rtol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(FeatureError):
            fit_standardizer(np.empty((0, 3)))
        with pytest.raises(FeatureError):
            fit_standardizer([np.empty((0, 3)), np.empty((0, 3))])

    @staticmethod
    def trial_parts(width):
        # Trials of unequal length, some empty and one long, as views of
        # wider frames and one in Fortran order.
        rng = np.random.default_rng(2)
        lengths = (5, 0, 9000, 1, 4096, 333)
        parts = [(rng.normal(size=(n, width + 1))
                  * rng.lognormal(size=(n, 1)) + 50.0)[:, :width]
                 for n in lengths]
        parts[2] = np.asfortranarray(parts[2])
        return parts

    @pytest.mark.parametrize("width", [18, 5, 1])
    def test_list_adds_per_trial_sums_in_list_order(self, width):
        parts = self.trial_parts(width)
        n = sum(len(m) for m in parts)
        total = parts[0].sum(axis=0)
        for m in parts[1:]:
            total = total + m.sum(axis=0)
        mean = total / n
        sq = np.square(parts[0] - mean).sum(axis=0)
        for m in parts[1:]:
            sq = sq + np.square(m - mean).sum(axis=0)
        stats = fit_standardizer(parts)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.std.tobytes() == np.sqrt(sq / n).tobytes()
        # the stacked moments, to rounding
        stacked = np.vstack(parts)
        np.testing.assert_allclose(stats.mean, stacked.mean(axis=0),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(stats.std, stacked.std(axis=0),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("width", [18, 5, 1])
    def test_one_matrix_gives_numpy_bits(self, width):
        parts = [p for p in self.trial_parts(width) if len(p)]
        for m in (*parts, *map(np.ascontiguousarray, parts),
                  *map(np.asfortranarray, parts)):
            for matrix in (m, [m]):
                stats = fit_standardizer(matrix)
                assert stats.mean.tobytes() == np.mean(m, axis=0).tobytes()
                want = np.maximum(np.std(m, axis=0), feat.STD_FLOOR)
                assert stats.std.tobytes() == want.tobytes()

    def test_mixed_widths_rejected(self):
        with pytest.raises(FeatureError, match="one width"):
            fit_standardizer([np.ones((3, 2)), np.ones((3, 1))])


class TestCorrelationSelect:
    def test_identical_feature_ranks_first(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=300)
        x = np.column_stack([rng.normal(size=300), y, rng.normal(size=300)])
        ranked = correlation_select(x, y, ["a", "b", "c"], threshold=0.0)
        assert ranked[0][0] == "b"
        assert ranked[0][1] == pytest.approx(1.0)

    def test_constant_feature_excluded(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=100)
        x = np.column_stack([np.full(100, 5.0), y])
        ranked = correlation_select(x, y, ["const", "sig"], threshold=0.1)
        names = [n for n, _ in ranked]
        assert "const" not in names

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=500)
        x = rng.normal(size=(500, 4)) + 0.3 * y[:, None] * [1, 2, 3, 4]
        base = [n for n, _ in correlation_select(x, y, "abcd", 0.0)]
        x2 = x * [2.0, 0.5, 10.0, 1.0] + [5.0, -3.0, 0.0, 100.0]
        scaled = [n for n, _ in correlation_select(x2, y, "abcd", 0.0)]
        assert base == scaled


# Independent greedy oracle for the mRMR check: plain-Python binning,
# Counter-based joint distributions, explicit loops.
def _oracle_bin(col, bins):
    lo, hi = min(col), max(col)
    if hi <= lo:
        return [0] * len(col)
    step = (hi - lo) / bins
    edges = [lo + step * k for k in range(1, bins)]
    return [bisect_right(edges, v) for v in col]


def _oracle_mi(a, b):
    n = len(a)
    joint = Counter(zip(a, b))
    pa = Counter(a)
    pb = Counter(b)
    total = 0.0
    for (va, vb), c in joint.items():
        pj = c / n
        total += pj * math.log2(pj * n * n / (pa[va] * pb[vb]))
    return total


def _oracle_step_scores(codes, ycodes, chosen, remaining):
    rel = {i: _oracle_mi(codes[i], ycodes) for i in remaining}
    scores = {}
    for i in remaining:
        red = (sum(_oracle_mi(codes[i], codes[j]) for j in chosen)
               / len(chosen)) if chosen else 0.0
        scores[i] = rel[i] - red
    return scores


def assert_greedy_optimal(x, y, k, got_names, names, bins=32, tol=1e-9):
    """Check a selection against the brute-force greedy oracle.

    Near-injective binnings can produce mathematically exact score ties
    (the scores collapse to H(y) - H(chosen)), which float roundoff breaks
    arbitrarily; the oracle therefore accepts any pick whose score is
    within tolerance of its own per-step maximum, and demands the unique
    argmax otherwise.
    """
    nfeat = x.shape[1]
    codes = [_oracle_bin(list(x[:, i]), bins) for i in range(nfeat)]
    ycodes = _oracle_bin(list(y), bins)
    assert len(got_names) == k
    chosen: list[int] = []
    remaining = list(range(nfeat))
    for name in got_names:
        i = names.index(name)
        assert i in remaining, f"{name} picked twice"
        scores = _oracle_step_scores(codes, ycodes, chosen, remaining)
        best = max(scores.values())
        assert scores[i] >= best - tol, (
            f"pick {name} scored {scores[i]}, oracle best {best}")
        chosen.append(i)
        remaining.remove(i)


class TestMrmr:
    def test_exact_copy_of_target_first(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=400)
        x = np.column_stack([rng.normal(size=400), y.copy(),
                             rng.normal(size=400)])
        steps = mrmr_select(x, y, ["a", "target_twin", "c"], k=1)
        assert steps[0].name == "target_twin"

    def test_duplicate_feature_deferred(self):
        # an exact copy of an already-chosen feature never beats a feature
        # with positive marginal score
        rng = np.random.default_rng(6)
        f1 = rng.normal(size=500)
        f2 = f1.copy()
        f3 = rng.normal(size=500)
        y = f1 + 0.8 * f3
        steps = mrmr_select(np.column_stack([f1, f2, f3]), y,
                            ["f1", "f2", "f3"], k=2)
        assert [s.name for s in steps] == ["f1", "f3"]

    def test_noise_feature_low_relevance(self):
        # Histogram MI bias for independent signals is about
        # (bins-1)^2 / (2 N ln 2) = 0.069 bits at 32 bins and 1e4 rows;
        # measured max over 30 seeds is 0.074.
        rng = np.random.default_rng(7)
        n = 10_000
        y = rng.normal(size=n)
        noise = rng.uniform(size=n)
        steps = mrmr_select(noise[:, None], y, ["noise"], k=1)
        assert steps[0].relevance <= 0.08

    def test_k_out_of_range(self):
        with pytest.raises(FeatureError):
            mrmr_select(np.zeros((10, 2)), np.zeros(10), ["a", "b"], k=3)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        nfeat = int(rng.integers(2, 7))
        rows = int(rng.integers(30, 301))
        k = int(rng.integers(1, nfeat + 1))
        x = rng.normal(size=(rows, nfeat))
        # give some features signal so selections are non-trivial
        y = x @ rng.normal(size=nfeat) + rng.normal(size=rows)
        names = [f"f{i}" for i in range(nfeat)]
        got = [s.name for s in mrmr_select(x, y, names, k)]
        assert_greedy_optimal(x, y, k, got, names)


class TestTtiTargets:
    def test_known_values(self):
        t = tti_targets(141)
        assert t[0] == 700.0
        assert t[-1] == 0.0
        assert len(t) == 141

    def test_single_sample(self):
        assert tti_targets(1).tolist() == [0.0]

    @given(st.integers(min_value=1, max_value=4000))
    @settings(max_examples=60, deadline=None)
    def test_construction_law(self, n):
        t = tti_targets(n)
        assert len(t) == n
        assert t[-1] == 0.0
        assert t.max() == (n - 1) * 5.0
        if n > 1:
            assert np.all(np.diff(t) == -5.0)
        assert np.all(t >= 0)
        assert np.all(t % 5.0 == 0)


def ref_rolling_std_forward(values, window):
    """The per-sample loop over one running cumsum that
    ``rolling_std_forward`` replaced."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    out = np.empty(n)
    c1 = np.concatenate([[0.0], np.cumsum(v)])
    c2 = np.concatenate([[0.0], np.cumsum(v * v)])
    for i in range(n):
        j = min(n, i + window)
        m = j - i
        if m < 2:
            out[i] = np.inf
            continue
        s1 = c1[j] - c1[i]
        s2 = c2[j] - c2[i]
        out[i] = np.sqrt(max(0.0, s2 / m - (s1 / m) ** 2))
    return out


def exact_rolling_std_forward(values, window):
    """Per window: the mean, then the mean squared deviation from it, each
    summed exactly with math.fsum."""
    out = np.full(len(values), np.inf)
    for i in range(len(values)):
        w = [float(x) for x in values[i:i + window]]
        if len(w) >= 2:
            mean = math.fsum(w) / len(w)
            out[i] = math.sqrt(math.fsum((x - mean) ** 2 for x in w)
                               / len(w))
    return out


FALL_SPECS = [
    (11, SyntheticSpec()),
    (3, SyntheticSpec(duration_s=9.0, fall_onset_s=3.0, impact_s=3.9)),
    (5, SyntheticSpec(impact_spike_g=2.0, noise_g=0.02)),
    (8, SyntheticSpec(fall_jitter_g=0.3, tilt_axis=(0.0, 1.0, 0.0))),
]


class TestRollingStdForward:
    @given(st.integers(1, 300), st.integers(1, 60),
           st.floats(1e-3, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_exact_window_std(self, n, window, spread, seed):
        v = 1.0 + spread * np.random.default_rng(seed).normal(size=n)
        got = feat.rolling_std_forward(v, window)
        want = exact_rolling_std_forward(v, window)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("seed, spec", FALL_SPECS)
    def test_matches_loop_reference_on_falls(self, monkeypatch, seed, spec):
        annotated, _ = generate_synthetic_trial(spec, seed=seed)
        mag = np.linalg.norm(annotated.trial.accel_adxl345, axis=1)
        tail = mag[annotated.fall_span()[0]:]
        got = feat.rolling_std_forward(tail, 40)
        want = ref_rolling_std_forward(tail, 40)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        # The loop's running-sum differences are off the exact window
        # std by up to 2.2e-11 on these trials (the new form by < 1e-15).
        finite = np.isfinite(want)
        assert np.abs(got[finite] - want[finite]).max() <= 1e-10
        seg = extract_fall_segment(annotated)
        monkeypatch.setattr(feat, "rolling_std_forward",
                            ref_rolling_std_forward)
        old = extract_fall_segment(annotated)
        assert (seg.start_index, seg.end_index, seg.stillness_flagged) == \
            (old.start_index, old.end_index, old.stillness_flagged)

    def test_tail_windows_under_two_samples_are_inf(self):
        out = feat.rolling_std_forward(np.arange(10.0), 4)
        assert np.isinf(out[-1]) and np.isfinite(out[:-1]).all()
        assert np.isinf(feat.rolling_std_forward(np.ones(3), 1)).all()
        assert feat.rolling_std_forward(np.empty(0), 40).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reaches_only_its_windows(self, bad):
        v = 1.0 + 0.1 * np.random.default_rng(2).normal(size=200)
        clean = feat.rolling_std_forward(v, 40)
        v[120] = bad
        with np.errstate(invalid="ignore"):      # inf - inf in its windows
            got = feat.rolling_std_forward(v, 40)
        holds = (np.arange(200) <= 120) & (np.arange(200) > 120 - 40)
        assert np.isnan(got[holds]).all()
        assert np.array_equal(got[~holds], clean[~holds])


class TestExtractFallSegment:
    def test_recovers_synthetic_impact(self, fall_trial):
        annotated, truth = fall_trial
        seg = extract_fall_segment(annotated)
        assert seg.start_index == truth.onset_index
        assert abs(seg.end_index - truth.impact_index) <= 1
        assert not seg.stillness_flagged

    def test_duration_of_default_fall(self, fall_trial):
        annotated, _ = fall_trial
        seg = extract_fall_segment(annotated)
        # 700 ms fall: 141 samples, 140 intervals of 5 ms
        assert len(seg) == 141
        assert seg.tti_ms[0] == 700.0

    def test_adl_trial_rejected(self, walk_trial):
        annotated, _ = walk_trial
        with pytest.raises(SegmentError):
            extract_fall_segment(annotated)

    def test_never_still_flagged(self):
        spec = SyntheticSpec(duration_s=6.0, fall_onset_s=5.0, impact_s=5.9)
        annotated, _ = generate_synthetic_trial(spec, seed=3)
        # chop the motionless tail off so stillness is never reached
        annotated.trial.accel_adxl345 = annotated.trial.accel_adxl345[:1181]
        annotated.trial.gyro_itg3200 = annotated.trial.gyro_itg3200[:1181]
        annotated.trial.accel_mma8451q = annotated.trial.accel_mma8451q[:1181]
        annotated.trial.t = annotated.trial.t[:1181]
        annotated.labels = annotated.labels[:1181]
        seg = extract_fall_segment(annotated)
        assert seg.stillness_flagged
        assert seg.end_index == annotated.fall_span()[1]

    def test_rows_and_json_round_trip(self, fall_trial, subject, tmp_path):
        annotated, _ = fall_trial
        quats = estimate_orientation(
            annotated.trial.accel_adxl345, annotated.trial.gyro_itg3200)
        frames = build_feature_frames(annotated, subject, quats)
        seg = extract_fall_segment(annotated, frames)
        assert seg.rows is not None
        assert seg.rows.shape == (len(seg), len(KAN_DEFAULT_FEATURES))
        assert len(seg.tti_ms) == len(seg)
        p = tmp_path / "seg.json"
        save_segment(p, seg)
        loaded = load_segment(p)
        assert loaded.trial_id == seg.trial_id
        assert np.allclose(loaded.rows, seg.rows)
        assert np.array_equal(loaded.tti_ms, seg.tti_ms)
        assert loaded.feature_names == seg.feature_names
        # the rows a trailing window reaches before the onset
        cols = feat.feature_indices(KAN_DEFAULT_FEATURES)
        lo = seg.start_index - (feat.MAX_SMOOTHING_SAMPLES - 1)
        assert np.array_equal(seg.context,
                              frames.data[lo:seg.start_index, cols])
        assert np.array_equal(loaded.context, seg.context)

    def test_context_clipped_at_trial_start(self, fall_trial, frames):
        annotated, _ = fall_trial
        labels = np.zeros_like(annotated.labels)
        labels[30:annotated.fall_span()[1] + 1] = 1
        early = dataclasses.replace(annotated, labels=labels)
        seg = extract_fall_segment(early, frames)
        assert seg.start_index == 30
        assert seg.context.shape == (30, len(KAN_DEFAULT_FEATURES))

    def test_segment_without_context_loads(self, tmp_path):
        # segment files written before the context field load with none
        p = tmp_path / "old.json"
        p.write_text('{"trial_id": "F01_SA01_R01", "start_index": 5, '
                     '"end_index": 6, "feature_names": ["a"], '
                     '"rows": [[1.0], [2.0]], "tti_ms": [5.0, 0.0], '
                     '"stillness_flagged": false}')
        assert load_segment(p).context.size == 0


class TestSplitSequences:
    @staticmethod
    def _ids(n):
        out = []
        for i in range(n):
            act = f"F{(i % 15) + 1:02d}"
            subj = f"SA{(i // 75) % 23 + 1:02d}"
            rep = (i // 15) % 5 + 1
            out.append(TrialId(act, subj, rep))
        return out

    def test_paper_sized_split(self):
        ids = self._ids(1798)
        split = split_sequences(ids, SplitConfig(0.6, 0.2, 0.2, seed=0))
        assert (len(split.train), len(split.validation), len(split.test)) == \
            (1078, 360, 360)

    def test_deterministic(self):
        ids = self._ids(100)
        a = split_sequences(ids, SplitConfig(seed=42))
        b = split_sequences(ids, SplitConfig(seed=42))
        assert a == b

    def test_all_train(self):
        ids = self._ids(50)
        split = split_sequences(ids, SplitConfig(1.0, 0.0, 0.0, seed=1))
        assert len(split.train) == 50
        assert not split.validation and not split.test

    def test_partition_is_disjoint_cover(self):
        ids = self._ids(137)
        split = split_sequences(ids, SplitConfig(seed=9))
        all_ids = list(split.train) + list(split.validation) + list(split.test)
        assert sorted(map(str, all_ids)) == sorted(map(str, ids))
        assert len(set(map(str, all_ids))) == len(ids)

    def test_empty_rejected(self):
        with pytest.raises(FeatureError):
            split_sequences([])

    def test_bad_ratios(self):
        with pytest.raises(FeatureError):
            split_sequences(self._ids(10), SplitConfig(0.5, 0.2, 0.2))

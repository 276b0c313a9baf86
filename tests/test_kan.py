import numpy as np
import pytest

from fallsense import kan
from fallsense.checkpoint import CheckpointError
from fallsense.features import (
    FallSegment,
    StandardizationStats,
    apply_standardizer,
    tti_targets,
)
from fallsense.kan import (
    KanConfig,
    KanError,
    KanModel,
    PwlFunction,
    build_cv_plan,
    cross_validate,
    fit,
    fit_records,
    kaczmarz_update,
    kan_eval,
    kan_eval_batch,
    load_checkpoint,
    predict_segment,
    predict_smoothed_row,
    pwl_eval,
    pwl_grad_nodes,
    save_checkpoint,
    smooth_rows,
)
from fallsense.pipeline import collect_fall_segments, orient_and_frame
from fallsense.sisfall import TrialId
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial

D = 5
NAMES = ("a", "b", "c", "d", "e")


def unit_stats():
    return StandardizationStats(mean=np.zeros(D), std=np.ones(D))


def training_style_model(y_scale=400.0, seed=0, config=None):
    """A model initialized exactly the way fit() starts one."""
    cfg = config or KanConfig()
    rng = np.random.default_rng(seed)
    xs = rng.normal(0.0, 1.0, (400, D))
    model = kan._init_model(cfg, NAMES, unit_stats(), D,
                            np.random.default_rng(cfg.seed), y_scale)
    kan._respan_outer(model, xs, y_scale)
    return model, xs


class TestPwl:
    def test_midpoint(self):
        f = PwlFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert pwl_eval(f, 0.5) == 0.5
        idx, w = pwl_grad_nodes(f, 0.5)
        assert idx.tolist() == [0, 1]
        assert np.allclose(w, [0.5, 0.5])

    def test_clamp_below(self):
        f = PwlFunction(np.array([0.0, 1.0]), np.array([2.0, 5.0]))
        assert pwl_eval(f, -7.0) == 2.0
        idx, w = pwl_grad_nodes(f, -7.0)
        assert np.allclose(w, [1.0, 0.0])

    def test_exactly_at_node(self):
        f = PwlFunction(np.array([0.0, 1.0, 2.0]), np.array([3.0, 8.0, 1.0]))
        assert pwl_eval(f, 1.0) == 8.0
        idx, w = pwl_grad_nodes(f, 1.0)
        assert idx.tolist() == [1, 2]
        assert np.allclose(w, [1.0, 0.0])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        f = PwlFunction(np.sort(rng.uniform(-3, 3, 7)), rng.normal(size=7))
        for x in rng.uniform(-5, 5, 40):
            _, w = pwl_grad_nodes(f, x)
            assert w.sum() == pytest.approx(1.0)

    def test_bad_grid_rejected(self):
        with pytest.raises(KanError):
            PwlFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))


class TestEval:
    def test_zero_outer_values(self):
        model, _ = training_style_model()
        model.outer_values[...] = 0.0
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert kan_eval(model, rng.normal(size=D)) == 0.0

    def test_additive_construction_recovered(self):
        # Phi_j identity on its grid, phi_ij encoding g_i(x_i)/(2d+1):
        # the model reproduces sum_i g_i(x_i) exactly at inner grid points.
        cfg = KanConfig(n_inner_nodes=6, q_outer_nodes=16)
        branches = 2 * D + 1
        inner_grid = np.linspace(-2.0, 2.0, cfg.n_inner_nodes)
        funcs = [np.sin, np.cos, np.tanh, np.abs, np.exp]
        inner_values = np.stack([
            np.tile(f(inner_grid) / branches, (branches, 1)) for f in funcs])
        span = np.abs(inner_values).sum(axis=(0,)).max() * branches + 1.0
        outer_grid = np.linspace(-span, span, cfg.q_outer_nodes)
        model = KanModel(
            feature_names=NAMES, stats=unit_stats(), config=cfg,
            inner_grid=inner_grid, inner_values=inner_values,
            outer_grids=np.tile(outer_grid, (branches, 1)),
            outer_values=np.tile(outer_grid, (branches, 1)))
        rng = np.random.default_rng(2)
        for _ in range(30):
            x = rng.choice(inner_grid, size=D)
            want = sum(f(x[i]) for i, f in enumerate(funcs))
            assert kan_eval(model, x) == pytest.approx(want, abs=1e-9)

    def test_perturbation_locality(self):
        model, _ = training_style_model()
        x_inside = np.zeros(D)  # brackets the middle inner segment
        y0 = kan_eval(model, x_inside)
        # perturb an inner node NOT bracketed by x (the far-left node;
        # x=0 sits in the middle of the 4-node grid)
        model2 = model.copy()
        model2.inner_values[0, :, 0] += 10.0
        assert kan_eval(model2, x_inside) == y0
        # but an x clamped at the left edge is affected
        x_left = np.full(D, -99.0)
        assert kan_eval(model2, x_left) != kan_eval(model, x_left)

    def test_batch_matches_scalar(self):
        model, xs = training_style_model()
        batch = kan_eval_batch(model, xs[:50])
        single = [kan_eval(model, x) for x in xs[:50]]
        assert np.allclose(batch, single, atol=1e-12)

    def test_clamp_totality(self):
        model, _ = training_style_model()
        for x in (np.full(D, 1e12), np.full(D, -1e12), np.zeros(D)):
            assert np.isfinite(kan_eval(model, x))

    def test_dimension_mismatch(self):
        model, _ = training_style_model()
        with pytest.raises(KanError):
            kan_eval(model, np.zeros(D + 1))


class TestKaczmarz:
    def test_zero_residual_no_change(self):
        model, _ = training_style_model()
        x = np.zeros(D)
        y = kan_eval(model, x)
        updated, info = kaczmarz_update(model, x, y)
        assert info.residual == 0.0
        assert np.array_equal(updated.inner_values, model.inner_values)
        assert np.array_equal(updated.outer_values, model.outer_values)

    def test_contraction_factor_exact(self):
        # flat outer functions: inner gradients vanish, the dependence on
        # the active outer nodes is exactly linear, so the residual shrinks
        # by exactly (1 - mu) up to the damping term
        model, _ = training_style_model()
        model.outer_values[...] = 3.0
        x = np.random.default_rng(4).normal(size=D)
        y = 150.0
        r0 = y - kan_eval(model, x)
        updated, _ = kaczmarz_update(model, x, y)
        r1 = y - kan_eval(updated, x)
        mu = model.config.mu
        assert r1 == pytest.approx((1.0 - mu) * r0, abs=1e-9 * abs(r0))

    def test_fixed_point_within_500_iterations(self):
        model, xs = training_style_model(seed=6)
        rng = np.random.default_rng(7)
        x = xs[3]
        y = float(rng.uniform(0, 700))
        m = model.copy()
        for _ in range(500):
            kan._update_inplace(m, x, y, m.config.mu)
        assert abs(y - kan_eval(m, x)) < 1e-6

    def test_update_support_is_sparse(self):
        model, xs = training_style_model(seed=8)
        x = xs[0]
        updated, _ = kaczmarz_update(model, x, 321.0)
        d_outer = updated.outer_values != model.outer_values
        d_inner = updated.inner_values != model.inner_values
        # at most 2 nodes per outer branch and per inner function
        assert np.all(d_outer.sum(axis=1) <= 2)
        assert np.all(d_inner.sum(axis=2) <= 2)

    def test_node_gradient_matches_finite_differences(self):
        # moderate target scale keeps FD cancellation error well below the
        # tolerance; x is redrawn if an inner sum sits on an outer knot
        model, xs = training_style_model(y_scale=4.0, seed=9)
        rng = np.random.default_rng(10)
        eps = 1e-6
        checked = 0
        while checked < 5:
            x = rng.normal(0, 1.2, D)
            y0, ik, it, ok, ot, slopes = kan._eval_with_gradient(model, x)
            s = kan._inner_sums(model, x)
            near_knot = any(
                np.abs(model.outer_grids[j] - s[j]).min() < 50 * eps
                for j in range(model.branches))
            if near_knot:
                continue
            checked += 1
            # outer nodes
            for j in range(model.branches):
                for which, want in ((ok[j], 1 - ot[j]), (ok[j] + 1, ot[j])):
                    orig = model.outer_values[j, which]
                    model.outer_values[j, which] = orig + eps
                    yp = kan_eval(model, x)
                    model.outer_values[j, which] = orig - eps
                    ym = kan_eval(model, x)
                    model.outer_values[j, which] = orig
                    num = (yp - ym) / (2 * eps)
                    assert num == pytest.approx(want, rel=1e-6, abs=1e-9)
            # inner nodes
            for i in range(D):
                for j in range(model.branches):
                    want = slopes[j] * (1 - it[i])
                    orig = model.inner_values[i, j, ik[i]]
                    model.inner_values[i, j, ik[i]] = orig + eps
                    yp = kan_eval(model, x)
                    model.inner_values[i, j, ik[i]] = orig - eps
                    ym = kan_eval(model, x)
                    model.inner_values[i, j, ik[i]] = orig
                    num = (yp - ym) / (2 * eps)
                    assert num == pytest.approx(want, rel=1e-5, abs=1e-7)

    def test_gram_never_degenerates(self):
        # Outer interpolation weights satisfy (1-t)^2 + t^2 >= 1/2 per
        # branch, so the Kaczmarz denominator is bounded away from zero
        # for any valid model; the degenerate guard is purely defensive.
        model, xs = training_style_model(seed=11)
        for x in xs[:50]:
            _, _, it, _, ot, slopes = kan._eval_with_gradient(model, x)
            assert kan._gram(it, ot, slopes) >= 0.5 * model.branches
        _, info = kaczmarz_update(model, xs[0], 100.0)
        assert not info.degenerate


class TestFit:
    def test_sin_target_learnable(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(-3, 3, (3000, D))
        y = np.sin(X).sum(axis=1)
        cfg = KanConfig(n_inner_nodes=8, seed=42)
        model, log = fit_records(cfg, X[:2400], y[:2400], X[2400:], y[2400:])
        best = min(l.val_rmse for l in log)
        assert best < 0.2 * float(y[2400:].std())
        assert len(log) == cfg.epochs

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (200, D))
        y = X.sum(axis=1) * 10
        cfg = KanConfig(epochs=3, seed=5)
        _, log1 = fit_records(cfg, X, y, X, y)
        _, log2 = fit_records(cfg, X, y, X, y)
        assert [(l.train_rmse, l.val_rmse) for l in log1] == \
            [(l.train_rmse, l.val_rmse) for l in log2]

    def test_returned_model_is_argmin(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (300, D))
        y = (X ** 2).sum(axis=1) * 50
        cfg = KanConfig(epochs=5, seed=3)
        model, log = fit_records(cfg, X[:200], y[:200], X[200:], y[200:])
        best = min(l.val_rmse for l in log)
        got = kan.rmse(kan_eval_batch(
            model, apply_standardizer(model.stats, X[200:])), y[200:])
        assert got == pytest.approx(best, rel=1e-12)

    def test_empty_train_rejected(self):
        with pytest.raises(KanError):
            fit_records(KanConfig(), np.empty((0, D)), np.empty(0),
                        np.empty((0, D)), np.empty(0))

    def test_standardized_targets_still_predict_ms(self):
        # training in scaled target space must return a model whose
        # predictions are in the original ms units
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (600, D))
        y = 350.0 + 100.0 * X.sum(axis=1)
        cfg_raw = KanConfig(epochs=4, seed=1, standardize_targets=False)
        cfg_std = KanConfig(epochs=4, seed=1, standardize_targets=True)
        m_raw, log_raw = fit_records(cfg_raw, X[:400], y[:400],
                                     X[400:], y[400:])
        m_std, log_std = fit_records(cfg_std, X[:400], y[:400],
                                     X[400:], y[400:])
        preds = kan_eval_batch(m_std, apply_standardizer(m_std.stats,
                                                         X[400:]))
        assert abs(float(preds.mean()) - 350.0) < 100.0
        assert min(l.val_rmse for l in log_std) < 2.0 * \
            min(l.val_rmse for l in log_raw) + 50.0

    def test_default_config_learns_synthetic_falls(self, subject):
        # the default config must do better than predicting the mean
        # countdown; unscaled ms targets stall near the mean predictor
        pairs = []
        for i in range(12):
            ann, _ = generate_synthetic_trial(
                SyntheticSpec(duration_s=3.0, fall_onset_s=1.0,
                              impact_s=1.5 + 0.06 * i),
                seed=500 + i, trial_id=TrialId(f"F{i + 1:02d}", "SA01", 1))
            pairs.append((ann, orient_and_frame(ann, subject)))
        segs = collect_fall_segments(pairs)
        train = [s for i, s in enumerate(segs) if i % 3]
        val = segs[::3]
        model, log = fit(KanConfig(), train, val)
        train_y = np.concatenate([s.tti_ms for s in train])
        val_y = np.concatenate([s.tti_ms for s in val])
        mean_rmse = kan.rmse(np.full_like(val_y, train_y.mean()), val_y)
        got = kan.rmse(np.concatenate([predict_segment(model, s)
                                       for s in val]), val_y)
        assert got < 0.6 * mean_rmse, f"{got:.1f} vs mean {mean_rmse:.1f} ms"


def make_segment(subject, activity, rep, length=120, seed=0):
    rng = np.random.default_rng(seed)
    targets = tti_targets(length)
    rows = np.column_stack([
        targets / 700.0 + rng.normal(0, 0.05, length),
        targets / 700.0 + rng.normal(0, 0.05, length),
        rng.normal(0, 1, length),
        np.linspace(0, 1.5, length) + rng.normal(0, 0.02, length),
        rng.normal(0, 1, length),
    ])
    return FallSegment(
        trial_id=TrialId(activity, subject, rep),
        start_index=1000, end_index=1000 + length - 1,
        feature_names=NAMES, rows=rows, tti_ms=targets)


class TestSmoothing:
    def test_partial_then_full_window(self):
        rows = np.arange(10, dtype=float)[:, None]
        sm = smooth_rows(rows, 4)
        assert sm[0, 0] == 0.0
        assert sm[1, 0] == 0.5            # mean(0, 1)
        assert sm[3, 0] == pytest.approx(1.5)   # mean(0..3)
        assert sm[9, 0] == pytest.approx(7.5)   # mean(6..9)

    def test_window_one_is_identity(self):
        rows = np.random.default_rng(0).normal(size=(20, 3))
        assert np.array_equal(smooth_rows(rows, 1), rows)

    def test_matches_direct_trailing_means(self):
        rows = np.random.default_rng(1).normal(size=(40, 3))
        want = [rows[max(0, i - 6):i + 1].mean(axis=0) for i in range(40)]
        assert np.allclose(smooth_rows(rows, 7), want, rtol=0, atol=1e-12)

    def test_window_longer_than_bound_rejected(self):
        assert KanConfig(window_ms=500.0).window_samples == 100
        with pytest.raises(KanError, match="at most 500 ms"):
            KanConfig(window_ms=505.0)


class TestPredict:
    def _model(self):
        segs = [make_segment("SA01", "F01", r, seed=r) for r in (1, 2, 3)]
        model, _ = fit(KanConfig(epochs=2, seed=0), segs[:2], segs[2:])
        return model

    def test_segment_window_crosses_onset(self):
        # predict_segment smooths each instant over the trailing window
        # that a stream sees, reaching into the rows before the onset
        model = self._model()
        w = model.config.window_samples
        trial_rows = np.random.default_rng(4).normal(size=(60, D))
        start = 25
        seg = FallSegment(
            trial_id=TrialId("F01", "SA01", 1), start_index=start,
            end_index=59, feature_names=NAMES, rows=trial_rows[start:],
            tti_ms=tti_targets(60 - start), context=trial_rows[:start])
        want = [predict_smoothed_row(
                    model, trial_rows[k - w + 1:k + 1].mean(axis=0))
                for k in range(start, 60)]
        assert np.allclose(predict_segment(model, seg), want,
                           rtol=0, atol=1e-9)
        # without context the window restarts at the onset
        bare = FallSegment(seg.trial_id, start, 59, NAMES, seg.rows,
                           seg.tti_ms)
        assert predict_segment(model, bare)[0] == pytest.approx(
            predict_smoothed_row(model, seg.rows[0]))

    def test_negative_clamped_to_zero(self):
        model = self._model()
        model.outer_values[...] = -5.0
        assert predict_smoothed_row(model, np.zeros(D)) == 0.0

    def test_prediction_not_rounded(self):
        model = self._model()
        rng = np.random.default_rng(3)
        vals = [predict_smoothed_row(model, rng.normal(size=D))
                for _ in range(20)]
        assert any(v % 5.0 != 0.0 for v in vals)


class TestCrossValidation:
    def _segments(self):
        segs = []
        for subj in ("SA01", "SA02"):
            for act in ("F01", "F02"):
                for rep in range(1, 6):
                    segs.append(make_segment(subj, act, rep,
                                             seed=hash((subj, act, rep)) % 100))
        return segs

    def test_plan_disjoint_roles(self):
        segs = self._segments()
        plan = build_cv_plan([s.trial_id for s in segs], seed=0)
        for entry in plan.assignments.values():
            roles = entry["train"] + entry["validation"] + entry["test"]
            assert len(roles) == len(set(roles)) == 5
            assert len(entry["train"]) == 3

    def test_short_groups_noted(self):
        ids = [TrialId("F01", "SA01", r) for r in (1, 2, 3)]
        plan = build_cv_plan(ids, seed=0)
        assert plan.notes
        entry = plan.assignments[("SA01", "F01")]
        assert len(entry["test"]) == 1
        assert len(entry["validation"]) == 1
        assert len(entry["train"]) == 1

    def test_single_candidate_returned(self):
        segs = self._segments()
        plan = build_cv_plan([s.trial_id for s in segs], seed=1)
        cfg = KanConfig(epochs=1, seed=0)
        best, table = cross_validate([cfg], plan, segs)
        assert best == cfg
        assert len(table) == 1

    def test_grid_rows_and_best(self):
        segs = self._segments()
        plan = build_cv_plan([s.trial_id for s in segs], seed=1)
        grid = [KanConfig(epochs=1, seed=0, mu=m) for m in (0.0625, 0.5)]
        best, table = cross_validate(grid, plan, segs)
        assert len(table) == 2
        assert best in grid
        assert min(table, key=lambda r: r.val_rmse).config == best

    def test_paper_optimum_expressible(self):
        cfg = KanConfig(n_inner_nodes=4, q_outer_nodes=64, mu=0.0625,
                        window_ms=50.0)
        assert cfg.window_samples == 10


class TestCheckpointRoundTrip:
    def test_round_trip(self, tmp_path):
        segs = [make_segment("SA01", "F01", r, seed=r) for r in (1, 2)]
        model, _ = fit(KanConfig(epochs=1, seed=0), segs, [])
        p = tmp_path / "model.kan"
        save_checkpoint(p, model)
        loaded = load_checkpoint(p)
        assert loaded.feature_names == model.feature_names
        assert np.array_equal(loaded.inner_values, model.inner_values)
        assert np.array_equal(loaded.outer_values, model.outer_values)
        assert np.array_equal(loaded.outer_grids, model.outer_grids)
        x = np.random.default_rng(0).normal(size=D)
        assert kan_eval(loaded, x) == kan_eval(model, x)

    def test_wrong_kind_rejected(self, tmp_path):
        from fallsense import checkpoint as ck
        p = tmp_path / "bogus.kan"
        ck.write_container(p, "fdnn", {"standardizer": {}}, {})
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

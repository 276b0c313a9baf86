import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallsense import checkpoint as ck
from fallsense import kan
from fallsense.checkpoint import CheckpointError
from fallsense.features import (
    FallSegment,
    StandardizationStats,
    apply_standardizer,
    fit_standardizer,
    tti_targets,
)
from fallsense.kan import (
    KanConfig,
    KanError,
    KanKernel,
    KanModel,
    build_cv_plan,
    cross_validate,
    fit,
    fit_records,
    kan_eval_batch,
    load_checkpoint,
    predict_segment,
    predict_smoothed_row,
    rmse,
    save_checkpoint,
    segment_records,
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
    model = kan._init_model(cfg, NAMES, unit_stats(), xs,
                            np.random.default_rng(cfg.seed), y_scale)
    return model, xs


def random_grid_model(model, xs, seed=7):
    """The model with strictly increasing, unevenly spaced inner and outer
    grids (each outer grid spanning its observed inner sums) and random
    node values."""
    rng = np.random.default_rng(seed)

    def uneven(lo, hi, n):
        steps = np.cumsum(rng.uniform(0.2, 1.0, n - 1))
        return np.r_[lo, lo + (hi - lo) * steps / steps[-1]]

    out = model.copy()
    out.inner_grid = uneven(-2.5, 3.5, out.inner_grid.size)
    out.inner_values[...] = rng.normal(0.0, 1.0, out.inner_values.shape)
    s = kan._inner_sums_batch(out, xs)
    q = out.outer_grids.shape[1]
    out.outer_grids = np.array([uneven(lo, hi, q)
                                for lo, hi in zip(s.min(0), s.max(0))])
    out.outer_values[...] = rng.normal(0.0, 100.0, out.outer_values.shape)
    return out


def overshooting_grid(x, n, seed):
    """An uneven n-node grid whose last node is one ulp above x, and on
    which the mean-step guess for x, ``int((x - lo) * inv_step)``, rounds
    up to one past the last interval, so that the guess must be clamped."""
    hi = math.nextafter(x, math.inf)
    steps = np.cumsum(np.random.default_rng(seed).uniform(0.2, 1.0, n - 1))
    fractions = np.r_[0.0, steps / steps[-1]]
    for width in np.linspace(0.5, 8.0, 751):
        grid = (hi - width * (1.0 - fractions)).tolist()
        _, _, lo, _, inv_step, last = kan._grid_spec(grid)
        if grid[-1] == hi and int((x - lo) * inv_step) > last:
            return grid
    raise AssertionError(f"no overshooting grid ends just above {x}")


def bracket(spec, x):
    """Left node index k and interpolation weight t of x on a grid
    (``kan._grid_spec``), one bracket per call: the scalar reference for
    the walks that ``KanKernel`` writes inline.

    k is ``searchsorted(grid, x, side="right") - 1`` clamped to the grid's
    intervals: guessed from the mean step, then walked to the exact node.
    Clamped ends give t = 0 or t = 1; a NaN x gives the last interval and
    a NaN t.
    """
    grid, gaps, lo, hi, inv_step, last = spec
    if x > lo:
        if x < hi:
            k = min(int((x - lo) * inv_step), last)
            while grid[k] > x:
                k -= 1
            while grid[k + 1] <= x:
                k += 1
            return k, (x - grid[k]) / gaps[k]
        return last, 1.0
    if x <= lo:
        return 0, 0.0
    return last, x


def walk_branch(spec, x):
    """The branch of ``KanKernel.eval``'s bracket walk that x takes on a
    grid: a clamp (either end or the guess), NaN, or the guess from the
    mean step being exact or walked up or down to the left node."""
    grid, _, lo, hi, inv_step, last = spec
    if not x > lo:
        return "nan" if math.isnan(x) else "left end"
    if not x < hi:
        return "right end"
    guess = int((x - lo) * inv_step)
    if guess > last:
        return "guess clamped"
    k = int(np.searchsorted(grid, x, side="right")) - 1
    return ("exact guess" if guess == k
            else "walk down" if guess > k else "walk up")


def pwl(grid, values, x):
    """Value, node indices and node weights of the piecewise-linear
    function (grid, values) at x, through the kernel's bracket."""
    k, t = bracket(kan._grid_spec(list(grid)), x)
    value = (1.0 - t) * values[k] + t * values[k + 1]
    return value, [k, k + 1], np.array([1.0 - t, t])


@pytest.fixture(scope="module")
def synthetic_falls(subject):
    """Fall segments of twelve seeded 3 s synthetic fall trials."""
    pairs = []
    for i in range(12):
        ann, _ = generate_synthetic_trial(
            SyntheticSpec(duration_s=3.0, fall_onset_s=1.0,
                          impact_s=1.5 + 0.06 * i),
            seed=500 + i, trial_id=TrialId(f"F{i + 1:02d}", "SA01", 1))
        pairs.append((ann, orient_and_frame(ann, subject)))
    return collect_fall_segments(pairs)


class TestPwl:
    def test_midpoint(self):
        value, idx, w = pwl([0.0, 1.0], [0.0, 1.0], 0.5)
        assert value == 0.5
        assert idx == [0, 1]
        assert np.allclose(w, [0.5, 0.5])

    def test_clamp_below(self):
        value, idx, w = pwl([0.0, 1.0], [2.0, 5.0], -7.0)
        assert value == 2.0
        assert np.allclose(w, [1.0, 0.0])

    def test_exactly_at_node(self):
        value, idx, w = pwl([0.0, 1.0, 2.0], [3.0, 8.0, 1.0], 1.0)
        assert value == 8.0
        assert idx == [1, 2]
        assert np.allclose(w, [1.0, 0.0])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        grid = np.sort(rng.uniform(-3, 3, 7))
        values = rng.normal(size=7)
        for x in rng.uniform(-5, 5, 40):
            _, _, w = pwl(grid, values, x)
            assert w.sum() == pytest.approx(1.0)

    def test_bad_grid_rejected(self, tmp_path):
        # The kernel's bracket needs strictly increasing grids; a model
        # file with a repeated node is refused at load.
        model, _ = training_style_model()
        model.inner_grid = np.array([-3.0, 0.0, 0.0, 3.0])
        p = tmp_path / "repeated.kan"
        save_checkpoint(p, model)
        with pytest.raises(CheckpointError, match="strictly increasing"):
            load_checkpoint(p)


class TestEval:
    def test_zero_outer_values(self):
        model, _ = training_style_model()
        model.outer_values[...] = 0.0
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert KanKernel(model).eval(rng.normal(size=D).tolist()) == 0.0

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
            assert KanKernel(model).eval(x.tolist()) == pytest.approx(
                want, abs=1e-9)

    def test_perturbation_locality(self):
        model, _ = training_style_model()
        x_inside = np.zeros(D)  # brackets the middle inner segment
        y0 = KanKernel(model).eval(x_inside.tolist())
        # perturb an inner node NOT bracketed by x (the far-left node;
        # x=0 sits in the middle of the 4-node grid)
        model2 = model.copy()
        model2.inner_values[0, :, 0] += 10.0
        assert KanKernel(model2).eval(x_inside.tolist()) == y0
        # but an x clamped at the left edge is affected
        x_left = [-99.0] * D
        assert KanKernel(model2).eval(x_left) != KanKernel(model).eval(x_left)

    def test_batch_matches_scalar(self):
        # one arithmetic in two layouts: the batch reader is the kernel
        # bit for bit, on random rows, every inner node, both grid ends
        # +/-1e-12, +/-1e12, +/-inf and NaN, in each column, for evenly
        # and unevenly spaced grids
        model, xs = training_style_model()
        for m in (model, random_grid_model(model, xs)):
            g = m.inner_grid
            probes = [*g, g[0] - 1e-12, g[0] + 1e-12, g[-1] - 1e-12,
                      g[-1] + 1e-12, 1e12, -1e12, math.inf, -math.inf,
                      math.nan]
            rows = xs[:50].tolist()
            for p in probes:
                for i in range(D):
                    row = xs[50 + i].tolist()
                    row[i] = p
                    rows.append(row)
            single = [KanKernel(m).eval(row) for row in rows]
            assert sum(map(math.isnan, single)) == D
            # exact, with NaN required at the same positions
            np.testing.assert_array_equal(
                kan_eval_batch(m, np.array(rows)), single)

    def test_batch_matches_scalar_on_every_walk_branch(self):
        # hand-built rows that take every branch of both of eval's bracket
        # walks: exact nodes, guesses walked up and down (uneven grids),
        # one ulp below the last node where the mean-step guess rounds up
        # past the last interval and is clamped, both end clamps and NaN
        model, xs = training_style_model()
        x_top = 1.7
        model.inner_grid = np.array(overshooting_grid(
            x_top, model.inner_grid.size, seed=4))
        model.inner_values[...] = np.random.default_rng(4).normal(
            0.0, 1.0, model.inner_values.shape)
        g = model.inner_grid.tolist()
        probes = [*g, *np.linspace(g[0], g[-1], 41).tolist(), x_top,
                  g[0] - 1.0, g[-1] + 1.0, -math.inf, math.inf, math.nan]
        rows = []
        for p in probes:
            for i in range(D):
                row = xs[i].tolist()
                row[i] = p
                rows.append(row)
        inner_spec = kan._grid_spec(g)
        inner_hit = {walk_branch(inner_spec, x) for row in rows for x in row}

        # Each branch's outer grid placed around the sum of one base row:
        # past the grid's ends, on them, on a node, inside an interval
        # (a different one per branch) and one ulp below the last node.
        q = model.outer_grids.shape[1]
        offsets = np.r_[0.0, np.cumsum(
            np.random.default_rng(5).uniform(0.2, 1.0, q - 1))]
        cases = ("overshoot", "node", "inside", "left", "right", "at lo",
                 "at hi")

        def placed_grid(sj, case, j):
            if case == "overshoot":
                return overshooting_grid(sj, q, seed=j)
            m = j % (q - 1)
            anchor = {"node": offsets[m],
                      "inside": (offsets[m] + offsets[m + 1]) / 2,
                      "left": offsets[0] + 1.0, "right": offsets[-1] - 1.0,
                      "at lo": offsets[0], "at hi": offsets[-1]}[case]
            return (sj + (offsets - anchor)).tolist()

        base = xs[D]
        rows.append(base.tolist())
        s = kan._inner_sums_batch(model, base[None, :])[0].tolist()
        outer_hit = set()
        for shift in range(len(cases)):
            placed = model.copy()
            placed.outer_grids = np.array([
                placed_grid(sj, cases[(j + shift) % len(cases)], j)
                for j, sj in enumerate(s)])
            assert np.all(np.diff(placed.outer_grids, axis=1) > 0)
            sums = kan._inner_sums_batch(placed, np.array(rows)).tolist()
            outer_hit |= {walk_branch(kan._grid_spec(grid), sj)
                          for row_sums in sums
                          for grid, sj in zip(
                              placed.outer_grids.tolist(), row_sums)}
            single = [KanKernel(placed).eval(row) for row in rows]
            np.testing.assert_array_equal(
                kan_eval_batch(placed, np.array(rows)), single)
        every = {"left end", "right end", "nan", "guess clamped",
                 "exact guess", "walk down", "walk up"}
        assert inner_hit == every
        assert outer_hit == every

    def test_brackets_match_scalar_bracket(self):
        # BIG, the largest finite float, overflows an unclamped division
        BIG = np.finfo(float).max
        model, xs = training_style_model()
        model = random_grid_model(model, xs)
        for grid in [model.inner_grid, *model.outer_grids]:
            spec = kan._grid_spec(grid.tolist())
            probes = np.r_[grid, grid[[0, -1]] - 1e-12, grid[[0, -1]] + 1e-12,
                           1e12, -1e12, BIG, -BIG, math.inf, -math.inf,
                           math.nan]
            k, t = kan._brackets(grid, probes)
            want = [bracket(spec, x) for x in probes.tolist()]
            assert k.tolist() == [kw for kw, _ in want]
            assert np.array_equal(t, [tw for _, tw in want], equal_nan=True)

    def test_records_match_per_row_brackets(self):
        # every inner node and one ulp either side of it, both clamped
        # ends, +/-inf and NaN, in each input column: the batched records
        # (and record(), their one-row case) hold each row's bracket()
        # brackets as table rows, weights and element indices, and its
        # inner gradient weight in _pairwise_sum's order
        model, xs = training_style_model()
        model = random_grid_model(model, xs)
        kernel = KanKernel(model)
        n, b = model.inner_grid.size, model.branches
        g = model.inner_grid.tolist()
        probes = [*g, *np.nextafter(g, math.inf).tolist(),
                  *np.nextafter(g, -math.inf).tolist(), g[0] - 1.0,
                  g[-1] + 1.0, -1e12, 1e12, math.inf, -math.inf, math.nan]
        rows = []
        for p in probes:
            for i in range(D):
                row = xs[i].tolist()
                row[i] = p
                rows.append(row)
        for row, got in zip(rows, kernel.records(np.array(rows))):
            ks, ts = zip(*(bracket(kernel.inner, xi) for xi in row))
            us = [1.0 - t for t in ts]
            table_rows = [i * n + k for i, k in enumerate(ks)]
            table_rows += [r + 1 for r in table_rows]
            for rec in (got, kernel.record(row)):
                assert rec[0].tolist() == table_rows
                assert np.array_equal(
                    rec[1], np.repeat([[w] for w in us + list(ts)], b, 1),
                    equal_nan=True)
                assert rec[2].tolist() == [list(range(r * b, r * b + b))
                                           for r in table_rows]
                assert same_float(rec[3], kan._pairwise_sum(
                    [u * u + t * t for u, t in zip(us, ts)]))

    def test_clamp_totality(self):
        model, _ = training_style_model()
        for x in (np.full(D, 1e12), np.full(D, -1e12), np.zeros(D)):
            assert np.isfinite(KanKernel(model).eval(x.tolist()))


def updated_copy(model, x, y):
    """The model after one Kaczmarz step; the original is left as is."""
    updated = model.copy()
    kernel = KanKernel(updated)
    info = kernel.update(x.tolist(), y, model.config.mu)
    kernel.store(updated)
    return updated, info


class TestKaczmarz:
    def test_zero_residual_no_change(self):
        model, _ = training_style_model()
        x = np.zeros(D)
        y = KanKernel(model).eval(x.tolist())
        updated, info = updated_copy(model, x, y)
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
        r0 = y - KanKernel(model).eval(x.tolist())
        updated, _ = updated_copy(model, x, y)
        r1 = y - KanKernel(updated).eval(x.tolist())
        mu = model.config.mu
        assert r1 == pytest.approx((1.0 - mu) * r0, abs=1e-9 * abs(r0))

    def test_fixed_point_within_500_iterations(self):
        model, xs = training_style_model(seed=6)
        rng = np.random.default_rng(7)
        x = xs[3]
        y = float(rng.uniform(0, 700))
        kernel = KanKernel(model)
        for _ in range(500):
            kernel.update(x.tolist(), y, model.config.mu)
        assert abs(y - kernel.eval(x.tolist())) < 1e-6

    def test_update_support_is_sparse(self):
        model, xs = training_style_model(seed=8)
        x = xs[0]
        updated, _ = updated_copy(model, x, 321.0)
        d_outer = updated.outer_values != model.outer_values
        d_inner = updated.inner_values != model.inner_values
        # at most 2 nodes per outer branch and per inner function
        assert np.all(d_outer.sum(axis=1) <= 2)
        assert np.all(d_inner.sum(axis=2) <= 2)

    def test_node_gradient_matches_finite_differences(self):
        # moderate target scale keeps FD cancellation error well below the
        # tolerance; x is redrawn if an inner sum sits on an outer knot.
        # The node gradient is read off one Kaczmarz step: each node moves
        # by step size * its gradient entry, and by nothing off the support.
        model, xs = training_style_model(y_scale=4.0, seed=9)
        rng = np.random.default_rng(10)
        eps = 1e-6
        checked = 0
        while checked < 5:
            x = rng.normal(0, 1.2, D)
            s = kan._inner_sums_batch(model, x[None, :])[0]
            near_knot = any(
                np.abs(model.outer_grids[j] - s[j]).min() < 50 * eps
                for j in range(model.branches))
            if near_knot:
                continue
            checked += 1
            stepped = model.copy()
            kernel = KanKernel(stepped)
            info = kernel.step(kernel.record(x.tolist()),
                               KanKernel(model).eval(x.tolist()) + 1.0,
                               model.config.mu)
            kernel.store(stepped)
            size = model.config.mu * info.residual / (
                info.gram + model.config.damping)
            grad_outer = (stepped.outer_values - model.outer_values) / size
            grad_inner = (stepped.inner_values - model.inner_values) / size
            # outer nodes
            for j in range(model.branches):
                for which in range(model.outer_values.shape[1]):
                    orig = model.outer_values[j, which]
                    model.outer_values[j, which] = orig + eps
                    yp = KanKernel(model).eval(x.tolist())
                    model.outer_values[j, which] = orig - eps
                    ym = KanKernel(model).eval(x.tolist())
                    model.outer_values[j, which] = orig
                    num = (yp - ym) / (2 * eps)
                    assert num == pytest.approx(grad_outer[j, which],
                                                rel=1e-6, abs=1e-9)
            # inner nodes
            for i in range(D):
                for j in range(model.branches):
                    for node in range(model.inner_values.shape[2]):
                        orig = model.inner_values[i, j, node]
                        model.inner_values[i, j, node] = orig + eps
                        yp = KanKernel(model).eval(x.tolist())
                        model.inner_values[i, j, node] = orig - eps
                        ym = KanKernel(model).eval(x.tolist())
                        model.inner_values[i, j, node] = orig
                        num = (yp - ym) / (2 * eps)
                        assert num == pytest.approx(grad_inner[i, j, node],
                                                    rel=1e-5, abs=1e-7)

    def test_eval_after_update_sees_the_write(self):
        # reads and writes alternate on one kernel (as demo 03 runs them):
        # every read equals a fresh kernel's read of the stored model
        model, xs = training_style_model(seed=14)
        kernel = KanKernel(model)
        rows = xs[:30].tolist()
        for i, x in enumerate(rows):
            kernel.eval(x)
            kernel.update(x, 300.0 + 10.0 * i, model.config.mu)
            stored = model.copy()
            kernel.store(stored)
            fresh = KanKernel(stored)
            for probe in (x, *rows[:4]):
                assert kernel.eval(probe) == fresh.eval(probe)

    def test_eval_reads_the_table_written_in_place(self):
        # reads and writes share one node table, so rows overwritten in
        # place after a first read are what the next read sees
        model, xs = training_style_model(seed=15)
        placed = random_grid_model(model, xs)
        kernel = KanKernel(placed)
        rows = xs[:40]
        kernel.eval(rows[0].tolist())
        rng = np.random.default_rng(15)
        kernel.table[::2] = rng.normal(0.0, 1.0, kernel.table[::2].shape)
        kernel.table[1] *= -3.0
        stored = placed.copy()
        kernel.store(stored)
        want = kan_eval_batch(stored, rows)
        got = np.array([kernel.eval(x) for x in rows.tolist()])
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() != kan_eval_batch(placed, rows).tobytes()

    def test_gram_never_degenerates(self):
        # Outer interpolation weights satisfy (1-t)^2 + t^2 >= 1/2 per
        # branch, so the Kaczmarz denominator is bounded away from zero
        # for any valid model; the degenerate guard is purely defensive.
        model, xs = training_style_model(seed=11)
        for x in xs[:50].tolist():
            kernel = KanKernel(model)
            info = kernel.step(kernel.record(x), 100.0, model.config.mu)
            assert info.gram >= 0.5 * model.branches
        _, info = updated_copy(model, xs[0], 100.0)
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

    def test_default_config_learns_synthetic_falls(self, synthetic_falls):
        # the default config must do better than predicting the mean
        # countdown; unscaled ms targets stall near the mean predictor
        segs = synthetic_falls
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

    def test_sums_each_window_oldest_first(self):
        # the order the stream sums its trailing window in
        rows = np.random.default_rng(2).normal(size=(30, 3))
        for k, got in enumerate(smooth_rows(rows, 6)):
            window = rows[max(0, k - 5):k + 1]
            for j in range(3):
                total = 0.0
                for v in window[:, j]:
                    total += v
                assert got[j] == total / len(window)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_row_stays_in_its_window(self, bad):
        rows = np.random.default_rng(3).normal(size=(40, 3))
        clean = smooth_rows(rows, 5)
        rows[10, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = smooth_rows(rows, 5)
        outside = np.r_[0:10, 15:40]          # windows without row 10
        assert np.array_equal(got[outside], clean[outside])
        assert np.array_equal(got[10:15, [0, 2]], clean[10:15, [0, 2]])
        assert not np.isfinite(got[10:15, 1]).any()

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
        kernel = KanKernel(model)
        w = model.config.window_samples
        trial_rows = np.random.default_rng(4).normal(size=(60, D))
        start = 25
        seg = FallSegment(
            trial_id=TrialId("F01", "SA01", 1), start_index=start,
            end_index=59, feature_names=NAMES, rows=trial_rows[start:],
            tti_ms=tti_targets(60 - start), context=trial_rows[:start])
        want = [predict_smoothed_row(
                    kernel, trial_rows[k - w + 1:k + 1].mean(axis=0))
                for k in range(start, 60)]
        assert predict_segment(model, seg).tolist() == want
        # without context the window restarts at the onset
        bare = FallSegment(seg.trial_id, start, 59, NAMES, seg.rows,
                           seg.tti_ms)
        assert predict_segment(model, bare)[0] == predict_smoothed_row(
            kernel, seg.rows[0])

    def test_negative_clamped_to_zero(self):
        model = self._model()
        model.outer_values[...] = -5.0
        assert predict_smoothed_row(KanKernel(model), np.zeros(D)) == 0.0

    def test_prediction_not_rounded(self):
        model = self._model()
        kernel = KanKernel(model)
        rng = np.random.default_rng(3)
        vals = [predict_smoothed_row(kernel, rng.normal(size=D))
                for _ in range(20)]
        assert any(v % 5.0 != 0.0 for v in vals)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_raises(self, bad):
        # max(0.0, nan) is 0.0: a NaN row must not read as "impact now"
        model = self._model()
        row = np.zeros(D)
        row[2] = bad
        with pytest.raises(KanError, match="'c'"):
            predict_smoothed_row(KanKernel(model), row)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_segment_raises(self, bad):
        model = self._model()
        seg = make_segment("SA01", "F01", 1, seed=1)
        seg.rows[7, 3] = bad
        with pytest.raises(KanError, match="'d'"):
            predict_segment(model, seg)

    def test_row_length_checked(self):
        with pytest.raises(KanError, match="5 entries"):
            predict_smoothed_row(KanKernel(self._model()), np.zeros(D + 1))

    def test_raw_read_equals_standardize_then_eval(self):
        # the read standardizes each input inside its bracket walk; it
        # equals standardizing the row first and reading that, bit for
        # bit: at every inner node and one ulp either side of it, beyond
        # both ends and at +/-1e300, standardized or raw, in each input
        model = self._model()
        kernel = KanKernel(model)
        g = model.inner_grid
        standardized = np.r_[g, np.nextafter(g, math.inf),
                             np.nextafter(g, -math.inf), g[0] - 1.0,
                             g[-1] + 1.0, 1e300, -1e300]
        probes = np.r_[standardized[:, None] * model.stats.std
                       + model.stats.mean, np.full((1, D), 1e300),
                       np.full((1, D), -1e300)]
        base = np.random.default_rng(5).normal(size=D) * model.stats.std \
            + model.stats.mean

        def outcome(read):
            """The read's value, or its KanError's message."""
            try:
                return read()
            except KanError as exc:
                return str(exc)

        reads = 0
        for probe in probes:
            for i in range(D):
                row = base.tolist()
                row[i] = probe[i]
                want = outcome(lambda: max(0.0, kernel.eval(
                    ref_standardize(kernel, row))))
                got = outcome(lambda: predict_smoothed_row(kernel, row))
                assert type(got) is type(want) and got == want, (row, got)
                reads += isinstance(got, float)
        assert reads >= (len(probes) - 2) * D

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_standardized_input_message(self, bad):
        # NaN, +/-inf, and a finite input whose standardized value
        # overflows: the message standardizing first gives
        model = self._model()
        model.stats = StandardizationStats(
            model.stats.mean, np.full(D, 0.5))
        kernel = KanKernel(model)
        for i in range(D):
            row = [0.0] * D
            row[i] = bad
            with pytest.raises(KanError) as want:
                ref_standardize(kernel, row)
            with pytest.raises(KanError) as got:
                predict_smoothed_row(kernel, row)
            assert str(got.value) == str(want.value)
            assert repr(NAMES[i]) in str(got.value)


class TestCrossValidation:
    def _segments(self):
        segs = []
        for subj in ("SA01", "SA02"):
            for act in ("F01", "F02"):
                for rep in range(1, 6):
                    # crc32, not hash(): string hashing is salted per
                    # process, so the data would change from run to run.
                    seed = zlib.crc32(f"{subj}_{act}_{rep}".encode()) % 100
                    segs.append(make_segment(subj, act, rep, seed=seed))
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

    @pytest.mark.parametrize("overrides", [
        {"q_outer_nodes": 32}, {"q_outer_nodes": 64}, {"window_ms": 100.0},
        {"mu": 1.0},                # overshoots: its best epoch is not the last
    ], ids=["q32", "q64", "w100", "mu1"])
    def test_score_equals_refit_model_on_validation(self, overrides):
        # Reference: the returned model re-evaluated on the validation
        # records, smoothed again.  The fit log's lowest val_rmse is that
        # model's score, to the bit.
        segs = self._segments()
        plan = build_cv_plan([s.trial_id for s in segs], seed=1)
        cfg = KanConfig(epochs=4, seed=0, **overrides)
        _, (result,) = cross_validate([cfg], plan, segs)
        train = [s for s in segs if plan.role_of(s.trial_id) == "train"]
        val = [s for s in segs if plan.role_of(s.trial_id) == "validation"]
        model, _ = fit(cfg, train, val)
        val_x, val_y = segment_records(val, cfg.window_samples)
        want = rmse(kan_eval_batch(
            model, apply_standardizer(model.stats, val_x)), val_y)
        assert result.val_rmse == want

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
        x = np.random.default_rng(0).normal(size=D).tolist()
        assert KanKernel(loaded).eval(x) == KanKernel(model).eval(x)

    def test_wrong_kind_rejected(self, tmp_path):
        from fallsense import checkpoint as ck
        p = tmp_path / "bogus.kan"
        ck.write_container(p, "fdnn", {"standardizer": {}}, {})
        with pytest.raises(CheckpointError):
            load_checkpoint(p)


class TestCheckpointValidation:
    """load_checkpoint refuses containers the scalar kernel cannot run."""

    @pytest.fixture
    def saved(self, tmp_path):
        model, _ = training_style_model()
        p = tmp_path / "model.kan"
        save_checkpoint(p, model)
        header, arrays = ck.read_container(p, "kan")
        header = {k: v for k, v in header.items()
                  if k not in ("kind", "arrays")}
        return p, header, arrays

    def _rewrite_and_load(self, saved, edit):
        p, header, arrays = saved
        edit(header, arrays)
        ck.write_container(p, "kan", header, arrays)
        return load_checkpoint(p)

    def test_unedited_loads(self, saved):
        model = self._rewrite_and_load(saved, lambda h, a: None)
        assert model.d == D

    @pytest.mark.parametrize("edit, match", [
        (lambda h, a: h.update(inner_grid=[[-3.0, -1.0, 1.0, 3.0]]),
         "1-D"),
        (lambda h, a: h.update(inner_grid=[0.0]), "at least 2 nodes"),
        (lambda h, a: h.update(inner_grid=[-3.0, 1.0, -1.0, 3.0]),
         "strictly increasing"),
        (lambda h, a: h.update(inner_grid=[-3.0, -1.0, 1.0]),
         r"inner_grid has shape \(3,\)"),
        (lambda h, a: h.update(outer_grids=h["outer_grids"][:-1]),
         "outer_grids has shape"),
        (lambda h, a: h.update(outer_grids=[g[:-1] for g in h["outer_grids"]]),
         "outer_grids has shape"),
        (lambda h, a: h["outer_grids"][4].reverse(),
         "every outer grid must be strictly increasing"),
        (lambda h, a: a.update(inner_values=a["inner_values"][:, :, :3]),
         "inner_values has shape"),
        (lambda h, a: a.update(inner_values=a["inner_values"][:4]),
         "inner_values has shape"),
        (lambda h, a: a.update(outer_values=a["outer_values"][:, :-1]),
         "outer_values has shape"),
        (lambda h, a: h.update(d=4), "has shape"),
        (lambda h, a: h["standardizer"]["mean"].append(0.0),
         "standardizer mean has shape"),
        (lambda h, a: a["outer_values"].__setitem__((3, 7), np.nan),
         "outer_values has non-finite"),
        (lambda h, a: a["inner_values"].__setitem__((1, 2, 0), np.inf),
         "inner_values has non-finite"),
        (lambda h, a: h["outer_grids"][2].__setitem__(5, float("nan")),
         "outer_grids has non-finite"),
        (lambda h, a: h["inner_grid"].__setitem__(0, float("-inf")),
         "inner_grid has non-finite"),
        (lambda h, a: h["standardizer"]["std"].__setitem__(1, float("nan")),
         "standardizer std has non-finite"),
        (lambda h, a: h["standardizer"]["std"].__setitem__(1, 0.0),
         "std must be positive"),
        (lambda h, a: h.pop("d"), "lacks 'd'"),
        (lambda h, a: h.pop("standardizer"), "lacks 'standardizer'"),
        (lambda h, a: h.pop("outer_grids"), "lacks 'outer_grids'"),
        (lambda h, a: a.pop("inner_values"), "lacks 'inner_values'"),
        (lambda h, a: h["config"].update(bogus=1), "malformed"),
        (lambda h, a: h["config"].update(mu=5.0), "malformed"),
        (lambda h, a: h.update(outer_grids=[[0.0, 1.0], [2.0]]),
         "malformed"),
    ])
    def test_rejected(self, saved, edit, match):
        with pytest.raises(CheckpointError, match=match):
            self._rewrite_and_load(saved, edit)


def ref_standardize(kernel, row):
    """A raw feature row standardized on its own, before any read: the
    list of (v - m) / s, and KanError naming the first feature whose
    value is not finite."""
    if len(row) != len(kernel.mean):
        raise KanError(
            f"input must have {len(kernel.mean)} entries, got {len(row)}")
    x = [(v - m) / s for v, m, s in zip(row, kernel.mean, kernel.std)]
    if not all(map(math.isfinite, x)):
        name = kernel.names[[math.isfinite(v) for v in x].index(False)]
        raise KanError(f"non-finite standardized input {name!r}")
    return x


# ---------------------------------------------------------------------------
# Reference: the NumPy per-scalar kernel the scalar KanKernel replaced.
# Reads and Kaczmarz writes must match it bit for bit.
# ---------------------------------------------------------------------------

def ref_bracket(grid, x):
    k = int(np.searchsorted(grid, x, side="right")) - 1
    k = min(max(k, 0), grid.shape[0] - 2)
    if x <= grid[0]:
        return k, 0.0
    if x >= grid[-1]:
        return k, 1.0
    return k, (x - grid[k]) / (grid[k + 1] - grid[k])


def ref_kan_eval(model, x):
    grid = model.inner_grid
    s = np.zeros(model.branches)
    for i in range(model.d):
        k, t = ref_bracket(grid, float(x[i]))
        s += (1.0 - t) * model.inner_values[i, :, k] \
            + t * model.inner_values[i, :, k + 1]
    y = 0.0
    for j in range(model.branches):
        k, t = ref_bracket(model.outer_grids[j], float(s[j]))
        ov = model.outer_values[j]
        y += (1.0 - t) * ov[k] + t * ov[k + 1]
    return float(y)


def ref_eval_with_gradient(model, x):
    grid = model.inner_grid
    inner_k = np.empty(model.d, dtype=np.intp)
    inner_t = np.empty(model.d)
    s = np.zeros(model.branches)
    for i in range(model.d):
        k, t = ref_bracket(grid, float(x[i]))
        inner_k[i], inner_t[i] = k, t
        s += (1.0 - t) * model.inner_values[i, :, k] \
            + t * model.inner_values[i, :, k + 1]
    outer_k = np.empty(model.branches, dtype=np.intp)
    outer_t = np.empty(model.branches)
    slopes = np.empty(model.branches)
    y = 0.0
    for j in range(model.branches):
        og = model.outer_grids[j]
        ov = model.outer_values[j]
        k, t = ref_bracket(og, float(s[j]))
        outer_k[j], outer_t[j] = k, t
        y += (1.0 - t) * ov[k] + t * ov[k + 1]
        if s[j] <= og[0] or s[j] >= og[-1]:
            slopes[j] = 0.0
        else:
            slopes[j] = (ov[k + 1] - ov[k]) / (og[k + 1] - og[k])
    return y, inner_k, inner_t, outer_k, outer_t, slopes


def ref_update_inplace(model, x, y, mu):
    pred, inner_k, inner_t, outer_k, outer_t, slopes = \
        ref_eval_with_gradient(model, x)
    r = float(y) - pred
    gram = float(((1.0 - outer_t) ** 2 + outer_t ** 2).sum()) \
        + float((slopes ** 2).sum()) \
        * float(((1.0 - inner_t) ** 2 + inner_t ** 2).sum())
    if gram == 0.0:
        return kan.UpdateInfo(residual=r, gram=0.0, degenerate=True)
    if r == 0.0:
        return kan.UpdateInfo(residual=0.0, gram=gram, degenerate=False)
    step = mu * r / (gram + model.config.damping)
    rows = np.arange(model.branches)
    model.outer_values[rows, outer_k] += step * (1.0 - outer_t)
    model.outer_values[rows, outer_k + 1] += step * outer_t
    for i in range(model.d):
        k = inner_k[i]
        model.inner_values[i, :, k] += step * slopes * (1.0 - inner_t[i])
        model.inner_values[i, :, k + 1] += step * slopes * inner_t[i]
    return kan.UpdateInfo(residual=r, gram=gram, degenerate=False)


def ref_fit_records(config, train_x, train_y, val_x, val_y, names):
    """fit_records as written on the NumPy update, record by record."""
    stats = fit_standardizer(train_x)
    xs = apply_standardizer(stats, train_x)
    xv = apply_standardizer(stats, val_x)
    y_shift, y_scale, ys = 0.0, 1.0, train_y
    if config.standardize_targets:
        y_shift = float(train_y.mean())
        y_scale = max(float(train_y.std()), 1e-8)
        ys = (train_y - y_shift) / y_scale

    def to_ms(model):
        out = model.copy()
        if config.standardize_targets:
            out.outer_values *= y_scale
            out.outer_values += y_shift / out.branches
        return out

    rng = np.random.default_rng(config.seed)
    ramp = kan._target_ramp_scale(ys)
    model = kan._init_model(config, names, stats, xs, rng, ramp)
    if config.warmup == "epoch":
        for idx in rng.permutation(xs.shape[0]):
            ref_update_inplace(model, xs[idx], ys[idx], config.mu)
        kan._respan_outer(model, xs)
    best_model, best_rmse, log = to_ms(model), np.inf, []
    for _ in range(config.epochs):
        infos = [ref_update_inplace(model, xs[idx], ys[idx], config.mu)
                 for idx in rng.permutation(xs.shape[0])]
        in_ms = to_ms(model)
        train_rmse = kan.rmse(kan_eval_batch(in_ms, xs), train_y)
        val_rmse = kan.rmse(kan_eval_batch(in_ms, xv), val_y)
        residuals = np.array([abs(i.residual) for i in infos])
        log.append((train_rmse, val_rmse,
                    sum(i.degenerate for i in infos),
                    y_scale * residuals.mean()))
        if val_rmse < best_rmse:
            best_rmse, best_model = val_rmse, in_ms
    return best_model, log


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300]


@st.composite
def grids(draw, min_nodes=2, max_nodes=12):
    """Strictly increasing grids: uniform linspaces or uneven ones."""
    n = draw(st.integers(min_nodes, max_nodes))
    lo = draw(st.floats(-50.0, 50.0))
    if draw(st.booleans()):
        return np.linspace(lo, lo + draw(st.floats(1e-3, 100.0)), n)
    gaps = draw(st.lists(st.floats(1e-6, 20.0), min_size=n - 1,
                         max_size=n - 1))
    grid = lo + np.concatenate([[0.0], np.cumsum(gaps)])
    if not np.all(np.diff(grid) > 0):      # rounding merged two nodes
        grid = np.linspace(lo, lo + 1.0, n)
    return grid


def grid_points(draw, grid):
    """A node, a point beyond either end, a special value or any float."""
    return draw(st.one_of(
        st.sampled_from(grid.tolist()),
        st.sampled_from(SPECIAL),
        st.floats(float(grid[0]) - 10.0, float(grid[-1]) + 10.0),
        st.floats(allow_nan=False)))


@st.composite
def models_and_rows(draw):
    """A random model (uneven grids included) and standardized rows that
    hit inner nodes, both ends and special values.  With ``snap`` the
    first input's inner values are outer-grid nodes, so rows at inner
    nodes put inner sums exactly on outer nodes."""
    d = draw(st.integers(1, 4))
    b = 2 * d + 1
    inner_grid = draw(grids(2, 6))
    n = inner_grid.size
    q = draw(st.integers(2, 16))
    outer_grids = np.stack([draw(grids(q, q)) for _ in range(b)])
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** draw(st.integers(-3, 3))
    inner_values = rng.normal(0.0, scale, (d, b, n))
    outer_values = rng.normal(0.0, scale, (b, q))
    if draw(st.booleans()):
        inner_values[1:] = 0.0
        for j in range(b):
            inner_values[0, j] = rng.choice(
                np.concatenate([outer_grids[j], outer_grids[j][[0, -1]]
                                + [-1.0, 1.0]]), n)
    cfg = KanConfig(n_inner_nodes=n, q_outer_nodes=q)
    model = KanModel(
        feature_names=tuple("abcd"[:d]),
        stats=StandardizationStats(mean=np.zeros(d), std=np.ones(d)),
        config=cfg, inner_grid=inner_grid, inner_values=inner_values,
        outer_grids=outer_grids, outer_values=outer_values)
    rows = [[grid_points(draw, inner_grid) for _ in range(d)]
            for _ in range(draw(st.integers(1, 6)))]
    return model, rows


class TestKernelMatchesNumpyReference:
    @given(grids(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_bracket(self, grid, data):
        spec = kan._grid_spec(grid.tolist())
        for _ in range(8):
            x = grid_points(data.draw, grid)
            k, t = bracket(spec, x)
            want_k, want_t = ref_bracket(grid, x)
            assert k == want_k and same_float(t, want_t), (x, k, t)

    @given(models_and_rows())
    @settings(max_examples=300, deadline=None)
    def test_eval_and_gradient(self, case):
        # the read, and a record's inner brackets and gradient weight; the
        # outer half of the gradient is held by test_update's UpdateInfo
        # and node values
        model, rows = case
        kernel = KanKernel(model)
        d, n = model.d, model.inner_grid.size
        for row in rows:
            x = np.array(row)
            assert same_float(kernel.eval(row), ref_kan_eval(model, x))
            table_rows, weights, _, weight = kernel.record(row)
            _, inner_k, inner_t, _, _, _ = ref_eval_with_gradient(model, x)
            assert (table_rows[:d] - n * np.arange(d)).tolist() == \
                inner_k.tolist()
            got_t = np.c_[weights[d:, 0], weights[:d, 0]]
            assert np.array_equal(got_t, np.c_[inner_t, 1.0 - inner_t],
                                  equal_nan=True)
            assert same_float(weight, float(
                ((1.0 - inner_t) ** 2 + inner_t ** 2).sum()))

    @given(models_and_rows(), st.floats(-1e3, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_update(self, case, y):
        model, rows = case
        rows = [r for r in rows if all(map(math.isfinite, r))]
        ref = model.copy()
        kernel = KanKernel(model)
        for row in rows:
            got = kernel.update(row, y, 0.3)
            want = ref_update_inplace(ref, np.array(row), y, 0.3)
            assert got == want
        kernel.store(model)
        assert np.array_equal(model.inner_values, ref.inner_values)
        assert np.array_equal(model.outer_values, ref.outer_values)

    @given(st.lists(st.floats(-1e6, 1e6), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_pairwise_sum_is_ndarray_sum(self, values):
        assert kan._pairwise_sum(values) == float(np.array(values).sum())

    def test_kaczmarz_sequence_3000_records(self):
        model, _ = training_style_model(seed=12)
        ref = model.copy()
        rng = np.random.default_rng(13)
        xs = rng.normal(0.0, 1.6, (3000, D))     # some beyond the grid
        ys = rng.uniform(0.0, 700.0, 3000)
        kernel = KanKernel(model)
        for x, y in zip(xs, ys):
            got = kernel.update(x.tolist(), float(y), model.config.mu)
            assert got == ref_update_inplace(ref, x, y, model.config.mu)
        kernel.store(model)
        assert np.array_equal(model.inner_values, ref.inner_values)
        assert np.array_equal(model.outer_values, ref.outer_values)

    @pytest.mark.parametrize("standardize_targets", [True, False],
                             ids=["std_y", "raw_y"])
    @pytest.mark.parametrize("q_outer_nodes", [32, 64])
    @pytest.mark.parametrize("warmup", ["epoch", "static"])
    def test_fit_records_on_synthetic_falls(self, synthetic_falls, warmup,
                                            q_outer_nodes,
                                            standardize_targets):
        cfg = KanConfig(epochs=3, seed=4, warmup=warmup,
                        q_outer_nodes=q_outer_nodes,
                        standardize_targets=standardize_targets)
        train, val = synthetic_falls[::2], synthetic_falls[1::2]
        window = cfg.window_samples
        tx, ty = kan.segment_records(train, window)
        vx, vy = kan.segment_records(val, window)
        names = train[0].feature_names
        model, log = fit_records(cfg, tx, ty, vx, vy, names)
        want, want_log = ref_fit_records(cfg, tx, ty, vx, vy, names)
        assert np.array_equal(model.inner_values, want.inner_values)
        assert np.array_equal(model.outer_values, want.outer_values)
        assert np.array_equal(model.outer_grids, want.outer_grids)
        got_log = [(e.train_rmse, e.val_rmse, e.degenerate,
                    e.mean_abs_residual) for e in log]
        assert np.allclose(got_log, want_log, rtol=1e-12, atol=0)
        assert [g[:3] for g in got_log] == [w[:3] for w in want_log]


def model_of_width(d, seed):
    """A model of d inputs with ``random_grid_model``'s uneven grids and
    random node values, a standardizer that is not the identity, and the
    400 standardized rows its outer grids span."""
    rng = np.random.default_rng(seed)
    stats = StandardizationStats(mean=rng.normal(0.0, 3.0, d),
                                 std=rng.uniform(0.5, 2.0, d))
    xs = rng.normal(0.0, 1.0, (400, d))
    model = kan._init_model(KanConfig(), tuple(f"x{i}" for i in range(d)),
                            stats, xs, rng, 400.0)
    return random_grid_model(model, xs, seed), xs


class TestOtherInputCounts:
    """The kernel at input counts other than D: its packed read buffers
    and their ``struct`` formats are sized by d, and ``_pairwise_sum``
    changes order at 8 entries (the gradient weight sums d of them)."""

    @pytest.mark.parametrize("d", [1, 2, 8, 9])
    def test_reads_agree(self, d):
        # eval, the raw read under predict_smoothed_row and kan_eval_batch,
        # bit for bit: on random rows, and with each input in turn at
        # every inner node, beyond both ends, at +/-1e12 and NaN
        model, xs = model_of_width(d, seed=d)
        kernel = KanKernel(model)
        g = model.inner_grid
        probes = np.r_[g, g[0] - 1.0, g[-1] + 1.0, 1e12, -1e12, math.nan]
        rows = [xs[:50]]
        for i in range(d):
            at = np.repeat(xs[50:51], probes.size, axis=0)
            at[:, i] = probes
            rows.append(at)
        rows = np.concatenate(rows)
        for x, want in zip(rows.tolist(), kan_eval_batch(model, rows)):
            assert same_float(kernel.eval(x), want), x
        raws = rows * model.stats.std + model.stats.mean
        zs = (raws - model.stats.mean) / model.stats.std
        reads = 0
        for raw, z, want in zip(raws.tolist(), zs.tolist(),
                                kan_eval_batch(model, zs).tolist()):
            if not all(map(math.isfinite, z)):
                with pytest.raises(KanError, match="non-finite"):
                    predict_smoothed_row(kernel, raw)
                continue
            assert kernel._read(raw, True) == want == kernel.eval(z), raw
            assert predict_smoothed_row(kernel, raw) == max(0.0, want)
            reads += 1
        assert reads == rows.shape[0] - d

    @pytest.mark.parametrize("d", [1, 2, 8, 9])
    def test_kaczmarz_sequence(self, d):
        # steps on rows inside, at and beyond the inner grid equal
        # ref_update_inplace, update by update and in the final nodes
        model, _ = model_of_width(d, seed=d)
        ref = model.copy()
        rng = np.random.default_rng(100 + d)
        xs = rng.normal(0.0, 1.6, (600, d))
        xs[::7, rng.integers(d)] = rng.choice(model.inner_grid, 86)
        xs[3::50, 0] = 1e12
        xs[4::50, -1] = -1e12
        ys = rng.uniform(-300.0, 300.0, 600)
        kernel = KanKernel(model)
        mu = model.config.mu
        for x, y in zip(xs, ys):
            got = kernel.update(x.tolist(), float(y), mu)
            assert got == ref_update_inplace(ref, x, y, mu)
        kernel.store(model)
        assert np.array_equal(model.inner_values, ref.inner_values)
        assert np.array_equal(model.outer_values, ref.outer_values)


# ---------------------------------------------------------------------------
# Reference: the kernel as composed from ``bracket`` calls, one per
# input and one per branch, before the walks were written inline.  The
# inline read and ``step(record(x))`` must match it bit for bit.
# ---------------------------------------------------------------------------

def composed_inner_sums(kernel, x):
    s = [0.0] * len(kernel.outer)
    inner_rows, inner_t = [], []
    n = len(kernel.inner[0])
    for i, xi in enumerate(x):
        k, t = bracket(kernel.inner, xi)
        row = i * n + k         # the kernel's table row of input i, node k
        u = 1.0 - t
        s = [sj + (u * a + t * b) for sj, a, b in zip(
            s, kernel.table[row].tolist(), kernel.table[row + 1].tolist())]
        inner_rows.append(row)
        inner_t.append(t)
    return s, inner_rows, inner_t


def composed_eval(kernel, x):
    y = 0.0
    for sj, spec, ov in zip(composed_inner_sums(kernel, x)[0], kernel.outer,
                            kernel.outer_values):
        k, t = bracket(spec, sj)
        y += (1.0 - t) * ov[k] + t * ov[k + 1]
    return y


def composed_update(kernel, x, y, mu):
    s, inner_rows, inner_t = composed_inner_sums(kernel, x)
    pred = 0.0
    outer_k, outer_t, slopes = [], [], []
    for sj, spec, ov in zip(s, kernel.outer, kernel.outer_values):
        k, t = bracket(spec, sj)
        pred += (1.0 - t) * ov[k] + t * ov[k + 1]
        _, gaps, lo, hi, _, _ = spec
        if sj <= lo or sj >= hi:
            slopes.append(0.0)
        else:
            slopes.append((ov[k + 1] - ov[k]) / gaps[k])
        outer_k.append(k)
        outer_t.append(t)
    r = y - pred
    gram = kan._pairwise_sum([(1.0 - t) * (1.0 - t) + t * t
                              for t in outer_t]) \
        + kan._pairwise_sum([sl * sl for sl in slopes]) \
        * kan._pairwise_sum([(1.0 - t) * (1.0 - t) + t * t for t in inner_t])
    if gram == 0.0:
        return kan.UpdateInfo(residual=r, gram=0.0, degenerate=True)
    if r == 0.0:
        return kan.UpdateInfo(residual=0.0, gram=gram, degenerate=False)
    step = mu * r / (gram + kernel.damping)
    for ov, k, t in zip(kernel.outer_values, outer_k, outer_t):
        ov[k] += step * (1.0 - t)
        ov[k + 1] += step * t
    scaled = [step * sl for sl in slopes]
    table = kernel.table
    for row, t in zip(inner_rows, inner_t):
        u = 1.0 - t
        table[row] = [v + g * u for v, g in zip(table[row].tolist(), scaled)]
        table[row + 1] = [v + g * t
                          for v, g in zip(table[row + 1].tolist(), scaled)]
    return kan.UpdateInfo(residual=r, gram=gram, degenerate=False)


def same_info(a, b):
    return (same_float(a.residual, b.residual)
            and same_float(a.gram, b.gram) and a.degenerate == b.degenerate)


def same_state(a, b):
    return (np.array_equal(a.inner_values, b.inner_values, equal_nan=True)
            and np.array_equal(a.outer_values, b.outer_values,
                               equal_nan=True))


def outer_grid_cases(q, seed):
    """Cases and a maker of q-node outer grids with uneven gaps that put
    an inner sum s_j exactly on a node, one ulp either side of one, on
    either end, or beyond either end."""
    rng = np.random.default_rng(seed)
    offsets = np.r_[0.0, np.cumsum(rng.uniform(0.2, 1.0, q - 1))]
    mid = q // 2

    def grid(sj, case):
        if case == "node":
            return sj + (offsets - offsets[mid])
        if case in ("ulp_below", "ulp_above"):
            # s_j one ulp below (above) the middle node
            g = sj + (offsets - offsets[mid])
            g[mid] = np.nextafter(sj, math.inf if case == "ulp_below"
                                  else -math.inf)
            return g
        if case == "lo":
            return sj + offsets
        if case == "hi":
            return sj - offsets[::-1]
        if case == "below_lo":
            return sj + 1.0 + offsets
        return sj - 1.0 - offsets[::-1]                       # above hi

    cases = ("node", "ulp_below", "ulp_above", "lo", "hi", "below_lo",
             "above_hi")
    return cases, grid


class TestInlineWalkMatchesBracketComposition:
    """``KanKernel.eval`` and ``step(record(x))`` walk their brackets
    inline; they equal the ``bracket`` composition bit for bit."""

    def _models(self):
        model, xs = training_style_model(seed=21)
        return [model, random_grid_model(model, xs, seed=22)], xs

    def _check_row(self, model, row, y):
        kernel = KanKernel(model)
        assert same_float(kernel.eval(row), composed_eval(kernel, row))
        stepped, composed = model.copy(), model.copy()
        kernel = KanKernel(stepped)
        info = kernel.step(kernel.record(row), y, model.config.mu)
        kernel.store(stepped)
        ref_kernel = KanKernel(composed)
        want = composed_update(ref_kernel, row, y, model.config.mu)
        ref_kernel.store(composed)
        assert same_info(info, want), (row, info, want)
        assert same_state(stepped, composed)

    def test_inner_nodes_ulps_ends_and_non_finite(self):
        # every inner node and one ulp either side of it, both clamped
        # ends, +/-inf and NaN, in each input column
        models, xs = self._models()
        for model in models:
            g = model.inner_grid.tolist()
            probes = [*g, *(np.nextafter(g, math.inf).tolist()),
                      *(np.nextafter(g, -math.inf).tolist()),
                      g[0] - 1.0, g[-1] + 1.0, -1e12, 1e12,
                      math.inf, -math.inf, math.nan]
            nan_reads = 0
            for p in probes:
                for i in range(D):
                    row = xs[60 + i].tolist()
                    row[i] = p
                    self._check_row(model, row, 250.0)
                    nan_reads += math.isnan(KanKernel(model).eval(row))
            # NaN at the same positions: exactly the NaN inputs read NaN
            assert nan_reads == D

    def test_outer_nodes_ulps_and_ends(self):
        # inner sums exactly on an outer node, one ulp either side of
        # one, on both ends and beyond both ends, case per branch rotated
        # so every branch meets every case
        models, xs = self._models()
        for model in models:
            for r, row in enumerate(xs[:4].tolist()):
                s = composed_inner_sums(KanKernel(model), row)[0]
                cases, grid = outer_grid_cases(model.outer_grids.shape[1],
                                               seed=r)
                for shift in range(len(cases)):
                    placed = model.copy()
                    placed.outer_grids = np.array([
                        grid(sj, cases[(j + shift) % len(cases)])
                        for j, sj in enumerate(s)])
                    assert np.all(np.diff(placed.outer_grids, axis=1) > 0)
                    self._check_row(placed, row, -80.0)

    def test_shuffled_sweeps_of_1000_records(self):
        # records built once and stepped in two shuffled sweeps, against
        # the composed update on the rows: every UpdateInfo and the state
        models, _ = self._models()
        rng = np.random.default_rng(23)
        xs = rng.normal(0.0, 1.6, (1000, D))        # some beyond the grid
        ys = rng.uniform(0.0, 700.0, 1000).tolist()
        for model in models:
            stepped, composed = model.copy(), model.copy()
            kernel = KanKernel(stepped)
            records = [kernel.record(x) for x in xs.tolist()]
            ref_kernel = KanKernel(composed)
            got, want = [], []
            for _ in range(2):
                order = rng.permutation(len(records)).tolist()
                got += [kernel.step(records[i], ys[i], model.config.mu)
                        for i in order]
                want += [composed_update(ref_kernel, xs[i].tolist(), ys[i],
                                         model.config.mu) for i in order]
            assert got == want
            kernel.store(stepped)
            ref_kernel.store(composed)
            assert same_state(stepped, composed)

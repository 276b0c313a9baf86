"""Kolmogorov-Arnold time-of-impact regressor.

Model form: y(x) = sum_j Phi_j( sum_i phi_ij(x_i) ) with j = 0..2d and
i = 1..d, where every phi and Phi is a piecewise-linear function given by
node abscissas and ordinates (clamped outside its grid).  Identification
runs one projected Gauss-Newton (Kaczmarz) update per training record:
only the node values bracketing the record's evaluation points move.

With 5 inputs the model is 11 branches of a few dozen nodes, so a row
costs far more in NumPy call overhead than in arithmetic.  Single rows
therefore run on one kernel, ``KanKernel``: a snapshot of the model's
grids and node values (plus the input standardizer), bracketed in O(1)
from each grid's first node and mean step and then walked to the exact
node, so any strictly increasing grid is bracketed as ``searchsorted``
would.  The stream's single-row reads and ``fit_records``' Kaczmarz
writes both run on it, on one layout: the inner node values in one NumPy
table of (input, node) rows by branch columns.  A read and a Kaczmarz
step both gather the 2d rows their inputs bracket and form the 2d+1
inner sums in a few whole-block ufuncs (element work that in list
comprehensions was most of a step); a step then moves those 2d*(2d+1)
nodes and scatters them back.  Both walk the outer grids on Python
floats, one bracket per branch.  The table is the only copy of the
inner nodes, so a read after a write sees the write.

A fit brackets all records' inputs in one call (``KanKernel.records``),
and the sweeps write the node values back to the model's arrays once per
pass.  The arithmetic keeps a fixed order (inner sums as
s_j + (u*a + t*b), gradient norms in NumPy's pairwise summation order),
so reads and writes are bit-identical to the per-scalar NumPy form the
tests keep as a reference.

Reads have one arithmetic in two layouts: ``kan_eval_batch`` runs the
kernel's bracket, inner-sum order and outer form over whole columns, so a
streamed impact time equals what evaluation scores bit for bit.  Each
layout is the fast one for its shape (one row on the kernel takes about
a fifth of a one-row batch call), so both stay.

Inputs are the five selected signals, smoothed by a trailing moving
average and standardized; targets stay in milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import checkpoint
from .features import (
    KAN_DEFAULT_FEATURES,
    MAX_SMOOTHING_SAMPLES,
    FallSegment,
    StandardizationStats,
    apply_standardizer,
    fit_standardizer,
)
from .sisfall import SAMPLE_PERIOD_S, TrialId


class KanError(ValueError):
    pass


@dataclass(frozen=True)
class KanConfig:
    n_inner_nodes: int = 4
    q_outer_nodes: int = 64
    mu: float = 0.0625            # Kaczmarz step scale
    window_ms: float = 50.0       # trailing smoothing window
    epochs: int = 10
    seed: int = 0
    shuffle: bool = True
    inner_span: float = 3.0       # inner grids cover +/- span (std units)
    init_scale: float = 0.01      # symmetry-breaking inner value noise
    damping: float = 1e-12        # Kaczmarz denominator regularizer
    warmup: str = "epoch"         # "epoch": one fitting pass before the
    #                               outer grids are frozen; "static": grids
    #                               from the initial inner sums directly
    standardize_targets: bool = True

    def __post_init__(self):
        if self.n_inner_nodes < 2 or self.q_outer_nodes < 2:
            raise KanError("node counts must be >= 2")
        if not 0.0 < self.mu < 2.0:
            raise KanError(f"mu must be in (0, 2), got {self.mu}")
        if not 0 < self.window_ms < math.inf or abs(
                self.window_ms / 5.0 - round(self.window_ms / 5.0)) > 1e-9:
            raise KanError("window must be a positive multiple of 5 ms")
        if self.window_samples > MAX_SMOOTHING_SAMPLES:
            raise KanError(
                f"window must be at most "
                f"{MAX_SMOOTHING_SAMPLES * SAMPLE_PERIOD_S * 1000:g} ms")
        if self.warmup not in ("epoch", "static"):
            raise KanError(f"unknown warmup mode {self.warmup!r}")
        if self.epochs < 1:
            raise KanError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.inner_span < math.inf:
            raise KanError(
                f"inner_span must be finite and > 0, got {self.inner_span}")
        for name in ("init_scale", "damping"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise KanError(f"{name} must be finite and >= 0, got {value}")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms / 1000.0 / SAMPLE_PERIOD_S))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class KanModel:
    feature_names: tuple[str, ...]
    stats: StandardizationStats        # input standardizer
    config: KanConfig
    inner_grid: np.ndarray             # (n,) shared by all inner functions
    inner_values: np.ndarray           # (d, 2d+1, n)
    outer_grids: np.ndarray            # (2d+1, q), each row increasing
    outer_values: np.ndarray           # (2d+1, q)

    @property
    def d(self) -> int:
        return self.inner_values.shape[0]

    @property
    def branches(self) -> int:
        return self.inner_values.shape[1]

    def copy(self) -> "KanModel":
        return replace(
            self,
            inner_values=self.inner_values.copy(),
            outer_grids=self.outer_grids.copy(),
            outer_values=self.outer_values.copy(),
        )


@dataclass
class UpdateInfo:
    residual: float
    gram: float          # squared gradient norm
    degenerate: bool     # all active slopes were zero: no update applied


# ---------------------------------------------------------------------------
# Single-row kernel
# ---------------------------------------------------------------------------

def _grid_spec(grid: list[float]) -> tuple:
    """(nodes, gaps, first node, last node, 1 / mean step, last interval)."""
    lo, hi, last = grid[0], grid[-1], len(grid) - 2
    inv_step = (last + 1) / (hi - lo) if hi > lo else 0.0
    gaps = [b - a for a, b in zip(grid, grid[1:])]
    return grid, gaps, lo, hi, inv_step, last


def _pairwise_sum(values: list[float]) -> float:
    """The sum in the order NumPy's ``ndarray.sum()`` adds a contiguous
    float64 vector: in sequence below 8 entries, over 8 interleaved
    accumulators up to 128, and as two halves (split at a multiple of 8)
    beyond."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    acc = values[:8]
    full = n - n % 8
    for i in range(8, full, 8):
        acc = [a + v for a, v in zip(acc, values[i:i + 8])]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) \
        + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for v in values[full:]:
        total += v
    return total


class KanKernel:
    """A model's grids and node values with its input standardizer: the
    one evaluator of single rows and the state the Kaczmarz sweeps update.

    The inner node values live in one (d*n, 2d+1) float64 table: row
    ``i*n + k`` is input i's node k across the branches.  ``eval`` and
    ``step`` both gather a row's 2d bracketing rows and form the inner
    sums in a few whole-block NumPy calls; ``step`` then scatters the rows
    back updated.  Outer grids and values are nested lists, read and
    written in Python by both.  ``store`` writes the node values back to
    the model's arrays.

    Reads and ``step`` walk their grid brackets inline, with no call per
    bracket: at these sizes the calls cost more than the arithmetic.  A
    bracket is the left node k = ``searchsorted(grid, x, side="right") -
    1`` clamped to the grid's intervals, guessed from the mean step and
    walked to the exact node, and the weight t; clamped ends give t = 0 or
    1 and a NaN x the last interval and t = NaN.  A read of a raw feature
    row (``predict_smoothed_row``) standardizes each input in its walk.
    """

    __slots__ = ("names", "mean", "std", "_unit", "damping", "inner",
                 "table", "outer", "outer_values", "_work")

    def __init__(self, model: KanModel):
        self.names = model.feature_names
        self.mean = model.stats.mean.tolist()
        self.std = model.stats.std.tolist()
        self._unit = ([0.0] * len(self.mean), [1.0] * len(self.std))
        self.damping = model.config.damping
        self.inner = _grid_spec(model.inner_grid.tolist())
        d, b, n = model.inner_values.shape
        self.table = model.inner_values.transpose(0, 2, 1).copy().reshape(
            d * n, b)
        self.outer = [_grid_spec(g) for g in model.outer_grids.tolist()]
        self.outer_values = model.outer_values.tolist()
        # eval's and step's buffers: products (2d, b), its two halves,
        # their sums (d, b), and step's scaled slopes (b,)
        products = np.empty((2 * d, b))
        self._work = (products, products[:d], products[d:],
                      np.empty((d, b)), np.empty(b))

    def store(self, model: KanModel) -> None:
        d, b, n = model.inner_values.shape
        model.inner_values[...] = self.table.reshape(d, n, b).transpose(
            0, 2, 1)
        model.outer_values[...] = self.outer_values

    def eval(self, x) -> float:
        """Prediction in ms for one standardized row (can be negative)."""
        return self._read(x, False)

    def _read(self, x, raw: bool) -> float:
        """Prediction in ms for one row.  A ``raw`` feature row is
        standardized input by input, as (v - m) / s, inside the bracket
        walk, and a non-finite result raises KanError naming the feature.
        A standardized row goes through the same walk with mean 0 and std
        1, which leave every bit, NaN and infinities included, as it is."""
        mean, std = (self.mean, self.std) if raw else self._unit
        if len(x) != len(mean):
            raise KanError(
                f"input must have {len(mean)} entries, got {len(x)}")
        grid, gaps, lo, hi, inv_step, last = self.inner
        n = last + 2
        # Each input's bracketing table rows and their weights 1 - t, t.
        left_rows, right_rows, us, ts = [], [], [], []
        row = 0                 # input i's first node: table row i*n
        for v, m, sd in zip(x, mean, std):
            xi = (v - m) / sd
            if lo < xi < hi:
                k = int((xi - lo) * inv_step)
                if k > last:
                    k = last
                while grid[k] > xi:
                    k -= 1
                while grid[k + 1] <= xi:
                    k += 1
                t = (xi - grid[k]) / gaps[k]
            else:
                if raw and not -math.inf < xi < math.inf:
                    name = self.names[len(us)]
                    raise KanError(f"non-finite standardized input {name!r}")
                # Clamped ends; a NaN takes the last interval and t = NaN.
                k, t = ((0, 0.0) if xi <= lo else (last, 1.0) if xi >= hi
                        else (last, xi))
            k += row
            left_rows.append(k)
            right_rows.append(k + 1)
            us.append(1.0 - t)
            ts.append(t)
            row += n
        products, left, right, pairs, _ = self._work
        np.multiply(self.table.take(left_rows + right_rows, 0),
                    np.array(us + ts)[:, None], out=products)
        s = np.add.reduce(np.add(left, right, out=pairs), axis=0,
                          initial=0.0).tolist()
        y = 0.0
        for sj, (grid, gaps, lo, hi, inv_step, last), ov in zip(
                s, self.outer, self.outer_values):
            if sj > lo:
                if sj < hi:
                    k = int((sj - lo) * inv_step)
                    if k > last:
                        k = last
                    while grid[k] > sj:
                        k -= 1
                    while grid[k + 1] <= sj:
                        k += 1
                    t = (sj - grid[k]) / gaps[k]
                else:
                    k, t = last, 1.0
            elif sj <= lo:
                k, t = 0, 0.0
            else:       # NaN
                k, t = last, sj
            y += (1.0 - t) * ov[k] + t * ov[k + 1]
        return y

    def records(self, xs: np.ndarray) -> list[tuple]:
        """Each row of an (M, d) standardized matrix as a record
        ``(rows, weights, elements, inner_weight)``: the 2d table rows its
        inputs bracket (``i*n + k_i`` for every input, then
        ``i*n + k_i + 1``), their weights (1 - t_i, then t_i) repeated
        across the branches, the flat table indices of those rows'
        elements, and the inner gradient weight, the sum over inputs of
        (1 - t)^2 + t^2 in ``_pairwise_sum``'s order.  All depend only on
        the row and the inner grid, which no fit changes, so a fit makes
        them once per record."""
        ks, ts = _brackets(np.array(self.inner[0]), xs)
        b = len(self.outer)
        left = ks + np.arange(0, self.table.shape[0], len(self.inner[0]))
        rows = np.concatenate([left, left + 1], axis=1)
        us = 1.0 - ts
        weights = np.repeat(np.concatenate([us, ts], axis=1)[:, :, None], b,
                            axis=2)
        elements = rows[:, :, None] * b + np.arange(b)
        inner = [_pairwise_sum(w) for w in (us * us + ts * ts).tolist()]
        return list(zip(rows, weights, elements, inner))

    def record(self, x) -> tuple:
        """``records`` of one standardized row."""
        return self.records(np.array([x], dtype=float))[0]

    def step(self, record, y: float, mu: float) -> UpdateInfo:
        """One projected Gauss-Newton step for a (``record``, target) pair.
        Only the node values bracketing the record's evaluation points
        change; a record whose gradient vanishes is degenerate and leaves
        the state untouched.

        The inner sums add u*a + t*b per input from 0.0, and each inner
        node moves by (step * slope) * its weight, as the per-scalar form
        does, so the NumPy blocks give its bits."""
        rows, weights, elements, inner_weight = record
        products, left, right, pairs, scaled = self._work
        nodes = self.table.take(rows, 0)
        np.multiply(nodes, weights, out=products)
        s = np.add.reduce(np.add(left, right, out=pairs), axis=0,
                          initial=0.0).tolist()
        pred = 0.0
        outer, grams, slopes = [], [], []
        for sj, (grid, gaps, lo, hi, inv_step, last), ov in zip(
                s, self.outer, self.outer_values):
            # Clamped regions are flat: no gradient flows to inner nodes.
            if sj > lo:
                if sj < hi:
                    k = int((sj - lo) * inv_step)
                    if k > last:
                        k = last
                    while grid[k] > sj:
                        k -= 1
                    while grid[k + 1] <= sj:
                        k += 1
                    gap = gaps[k]
                    a = ov[k]
                    b = ov[k + 1]
                    t = (sj - grid[k]) / gap
                    slope = (b - a) / gap
                else:
                    k, t, slope = last, 1.0, 0.0
                    a = ov[k]
                    b = ov[k + 1]
            elif sj <= lo:
                k, t, slope = 0, 0.0, 0.0
                a = ov[0]
                b = ov[1]
            else:       # NaN: neither clamp applies
                k, t = last, sj
                a = ov[k]
                b = ov[k + 1]
                slope = (b - a) / gaps[k]
            u = 1.0 - t
            pred += u * a + t * b
            outer.append((ov, k, t, u))
            grams.append(u * u + t * t)
            slopes.append(slope)
        r = y - pred
        gram = _pairwise_sum(grams) \
            + _pairwise_sum([sl * sl for sl in slopes]) * inner_weight
        if gram == 0.0:
            return UpdateInfo(r, 0.0, True)
        if r == 0.0:
            return UpdateInfo(0.0, gram, False)
        step = mu * r / (gram + self.damping)

        for ov, k, t, u in outer:
            ov[k] += step * u
            ov[k + 1] += step * t
        scaled[:] = slopes
        scaled *= step
        np.multiply(weights, scaled, out=products)
        nodes += products
        self.table.put(elements, nodes)
        return UpdateInfo(r, gram, False)

    def update(self, x, y: float, mu: float) -> UpdateInfo:
        """``step`` on one standardized row."""
        return self.step(self.record(x), y, mu)


def _brackets(grid: np.ndarray,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``KanKernel``'s bracket over an array: left node indices k and
    weights t, with t = 0 or 1 at clamped ends and a NaN t for a NaN x.

    Searching the interior nodes gives ``searchsorted(grid, x,
    side="right") - 1`` already clamped to the grid's intervals.  x is
    clamped to the grid first, so the ends give t = 0 or 1 exactly and a
    huge x cannot overflow the division.
    """
    x = np.clip(x, grid[0], grid[-1])
    k = np.searchsorted(grid[1:-1], x, side="right")
    left = grid[k]
    return k, (x - left) / (grid[k + 1] - left)


def _inner_sums_batch(model: KanModel, xs: np.ndarray) -> np.ndarray:
    """(M, 2d+1) inner sums for an (M, d) standardized matrix, added per
    input from 0.0 in ``KanKernel.eval``'s order."""
    ks, ts = _brackets(model.inner_grid, xs)
    out = np.zeros((xs.shape[0], model.branches))
    for i in range(model.d):
        nodes = model.inner_values[i].T              # (n, 2d+1)
        t = ts[:, i, None]
        out += (1.0 - t) * nodes[ks[:, i]] + t * nodes[ks[:, i] + 1]
    return out


def kan_eval_batch(model: KanModel, xs: np.ndarray) -> np.ndarray:
    """``KanKernel.eval`` over the rows of an (M, d) standardized matrix,
    bit for bit."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != model.d:
        raise KanError(f"expected (M, {model.d}) inputs, got {xs.shape}")
    s = _inner_sums_batch(model, xs)
    y = np.zeros(xs.shape[0])
    for j in range(model.branches):
        k, t = _brackets(model.outer_grids[j], s[:, j])
        ov = model.outer_values[j]
        y += (1.0 - t) * ov[k] + t * ov[k + 1]
    return y


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def smooth_rows(rows: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average per column; partial windows at the start.

    Each mean is summed from 0.0 over its own window, oldest row first,
    the order the stream sums its trailing window in, so a row outside
    the window (a non-finite one included) cannot reach it.
    """
    rows = np.asarray(rows, dtype=float)
    if window <= 1:
        return rows.copy()
    n = rows.shape[0]
    total = np.zeros_like(rows)
    for lag in range(min(window, n) - 1, -1, -1):
        total[lag:] += rows[:n - lag]
    count = np.minimum(np.arange(1, n + 1), window)
    return total / count[:, None]


def _smoothed_segment_rows(seg: FallSegment, window: int) -> np.ndarray:
    """The segment's rows smoothed by a trailing window that reaches back
    across the onset into its context rows, as the stream's window does."""
    if seg.rows is None:
        raise KanError(f"{seg.trial_id}: segment carries no feature rows")
    context = seg.context.reshape(-1, seg.rows.shape[1])
    return smooth_rows(np.vstack([context, seg.rows]), window)[len(context):]


def segment_records(segments: list[FallSegment],
                    window: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack (smoothed feature row, target) records across segments."""
    if not segments:
        raise KanError("no segments given")
    xs = [_smoothed_segment_rows(seg, window) for seg in segments]
    return np.vstack(xs), np.concatenate([seg.tti_ms for seg in segments])


def _target_ramp_scale(y: np.ndarray) -> float:
    """Amplitude of the initial outer-value ramp.

    The mean target, unless the target is (near) zero-mean, in which case
    its spread sets the scale so the initial slopes are not degenerate.
    """
    mean, std = float(np.mean(y)), float(np.std(y))
    if abs(mean) > 0.1 * std:
        return mean
    return std if std > 0 else 1.0


def _init_model(config: KanConfig, feature_names: tuple[str, ...],
                stats: StandardizationStats, d: int,
                rng: np.random.Generator, ramp_scale: float) -> KanModel:
    branches = 2 * d + 1
    inner_grid = np.linspace(-config.inner_span, config.inner_span,
                             config.n_inner_nodes)
    inner_values = rng.uniform(
        -config.init_scale, config.init_scale,
        size=(d, branches, config.n_inner_nodes))
    # Placeholder outer grids; re-spanned from the observed inner sums.
    outer_grids = np.tile(np.linspace(-1.0, 1.0, config.q_outer_nodes),
                          (branches, 1))
    outer_values = np.tile(
        np.linspace(0.0, ramp_scale / branches, config.q_outer_nodes),
        (branches, 1))
    return KanModel(
        feature_names=feature_names, stats=stats, config=config,
        inner_grid=inner_grid, inner_values=inner_values,
        outer_grids=outer_grids, outer_values=outer_values)


def _respan_outer(model: KanModel, xs: np.ndarray,
                  ramp_scale: float | None = None) -> None:
    """Span each outer grid over the observed inner sums.

    With a ramp scale the values restart as a linear ramp (initial
    spanning); otherwise the learned function is resampled onto the new
    grid so a warm-up pass is not thrown away.
    """
    s = _inner_sums_batch(model, xs)
    q = model.config.q_outer_nodes
    for j in range(model.branches):
        lo, hi = float(s[:, j].min()), float(s[:, j].max())
        if hi - lo < 1e-9:
            lo, hi = lo - 1.0, hi + 1.0
        new_grid = np.linspace(lo, hi, q)
        if ramp_scale is None:
            # A fit-time resample, not a read, so it keeps np.interp's
            # formula: the Kaczmarz epochs that follow amplify ulp-level
            # changes here into tens of ms of the trained countdown.
            model.outer_values[j] = np.interp(
                new_grid, model.outer_grids[j], model.outer_values[j])
        else:
            model.outer_values[j] = np.linspace(
                0.0, ramp_scale / model.branches, q)
        model.outer_grids[j] = new_grid


@dataclass
class FitEpochLog:
    epoch: int
    train_rmse: float
    val_rmse: float
    degenerate: int               # Kaczmarz updates skipped: no gradient
    mean_abs_residual: float      # mean |pre-update residual|, ms


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def fit_records(
    config: KanConfig,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    feature_names: tuple[str, ...] = KAN_DEFAULT_FEATURES,
) -> tuple[KanModel, list[FitEpochLog]]:
    """Identify the model from raw (unstandardized) records.

    Seeded-shuffle Kaczmarz sweeps; the returned model is the epoch
    snapshot with the lowest validation RMSE.
    """
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y, dtype=float)
    if train_x.size == 0:
        raise KanError("empty training set")
    if train_x.shape[0] != train_y.shape[0]:
        raise KanError("training rows and targets differ in length")
    d = train_x.shape[1]
    if len(feature_names) != d:
        raise KanError("feature_names length must match input dimension")

    stats = fit_standardizer(train_x, tuple(feature_names))
    xs = apply_standardizer(stats, train_x)
    xv = apply_standardizer(stats, val_x) if len(val_x) else xs[:0]
    yv = np.asarray(val_y, dtype=float)

    # Optionally fit in standardized target space; the trained outer node
    # values are mapped back to ms afterward (the model is linear in them),
    # so the stored model always predicts in ms.
    y_shift, y_scale = 0.0, 1.0
    ys = train_y
    if config.standardize_targets:
        y_shift = float(train_y.mean())
        y_scale = max(float(train_y.std()), 1e-8)
        ys = (train_y - y_shift) / y_scale

    def to_ms(model: KanModel) -> KanModel:
        out = model.copy()
        if config.standardize_targets:
            out.outer_values *= y_scale
            out.outer_values += y_shift / out.branches
        return out

    rng = np.random.default_rng(config.seed)
    ramp = _target_ramp_scale(ys)
    model = _init_model(config, tuple(feature_names), stats, d, rng, ramp)
    _respan_outer(model, xs, ramp)
    # The sweeps move node values and re-span the outer grids, never the
    # inner grid, so each record's inner brackets are computed once.
    records = KanKernel(model).records(xs)
    targets = ys.tolist()

    def sweep() -> list[UpdateInfo]:
        """One Kaczmarz pass over the records on the kernel; the
        node values are written back to the model at its end."""
        order = rng.permutation(len(records)).tolist() if config.shuffle \
            else range(len(records))
        kernel = KanKernel(model)
        step, mu = kernel.step, config.mu
        infos = [step(records[i], targets[i], mu) for i in order]
        kernel.store(model)
        return infos

    if config.warmup == "epoch":
        # One warm-up pass lets the inner sums reach their working range;
        # the outer grids are then re-spanned (values resampled) and stay
        # fixed for the logged epochs.
        sweep()
        _respan_outer(model, xs)

    best_model = to_ms(model)
    best_rmse = np.inf
    log: list[FitEpochLog] = []
    for epoch in range(1, config.epochs + 1):
        infos = sweep()
        in_ms = to_ms(model)
        train_rmse = rmse(kan_eval_batch(in_ms, xs), train_y)
        val_rmse = rmse(kan_eval_batch(in_ms, xv), yv) if len(yv) \
            else train_rmse
        # A loop from 0.0, not sum(), which compensates floats on 3.12+.
        abs_residual = 0.0
        for info in infos:
            abs_residual += abs(info.residual)
        log.append(FitEpochLog(
            epoch, train_rmse, val_rmse,
            degenerate=sum(info.degenerate for info in infos),
            mean_abs_residual=y_scale * abs_residual / len(infos)))
        if val_rmse < best_rmse:
            best_rmse = val_rmse
            best_model = in_ms
    return best_model, log


def fit(
    config: KanConfig,
    train_segments: list[FallSegment],
    val_segments: list[FallSegment],
) -> tuple[KanModel, list[FitEpochLog]]:
    """Fit from fall segments (rows smoothed over the configured window)."""
    if not train_segments:
        raise KanError("empty training segment list")
    names = train_segments[0].feature_names
    window = config.window_samples
    train_x, train_y = segment_records(train_segments, window)
    if val_segments:
        val_x, val_y = segment_records(val_segments, window)
    else:
        val_x, val_y = train_x[:0], train_y[:0]
    return fit_records(config, train_x, train_y, val_x, val_y, names)


def write_fit_log(path: Path | str, log: list[FitEpochLog]) -> None:
    lines = ["epoch,train_rmse,val_rmse,degenerate,mean_abs_residual"]
    for row in log:
        lines.append(f"{row.epoch},{row.train_rmse:.6f},{row.val_rmse:.6f},"
                     f"{row.degenerate},{row.mean_abs_residual:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_smoothed_row(kernel: KanKernel, smoothed_row) -> float:
    """Standardize an already-smoothed raw feature row, evaluate, clamp.

    Raises KanError, naming the feature, on a non-finite standardized
    input (clamping would otherwise read a NaN as "impact now").
    """
    return max(0.0, kernel._read(smoothed_row, True))


def predict_segment(model: KanModel, segment: FallSegment) -> np.ndarray:
    """Per-instant clamped predictions over a whole segment."""
    smoothed = _smoothed_segment_rows(segment, model.config.window_samples)
    xs = apply_standardizer(model.stats, smoothed)
    finite = np.isfinite(xs).all(axis=0)
    if not finite.all():
        name = model.feature_names[int(np.argmin(finite))]
        raise KanError(f"{segment.trial_id}: non-finite standardized "
                       f"input {name!r}")
    return np.maximum(0.0, kan_eval_batch(model, xs))


# ---------------------------------------------------------------------------
# Cross-validation over the repetition folds
# ---------------------------------------------------------------------------

@dataclass
class CvPlan:
    """Per-(subject, activity) assignment of repetitions to roles."""

    assignments: dict[tuple[str, str], dict[str, list[int]]]
    notes: list[str] = field(default_factory=list)

    def role_of(self, trial_id: TrialId) -> str | None:
        entry = self.assignments.get((trial_id.subject, trial_id.activity))
        if entry is None:
            return None
        for role in ("train", "validation", "test"):
            if trial_id.repetition in entry[role]:
                return role
        return None

    def segments_in(self, segments: list[FallSegment],
                    role: str) -> list[FallSegment]:
        """The segments whose trial has ``role``, in their given order."""
        return [s for s in segments if self.role_of(s.trial_id) == role]


def build_cv_plan(trial_ids: list[TrialId], seed: int = 0) -> CvPlan:
    """3 train / 1 validation / 1 test repetitions per subject-activity.

    Groups with fewer than 5 repetitions contribute what they have
    (test first, then validation, remainder train) and are noted.
    """
    rng = np.random.default_rng(seed)
    groups: dict[tuple[str, str], list[int]] = {}
    for tid in trial_ids:
        groups.setdefault((tid.subject, tid.activity), []).append(
            tid.repetition)
    assignments = {}
    notes = []
    for key in sorted(groups):
        reps = sorted(set(groups[key]))
        order = list(rng.permutation(len(reps)))
        shuffled = [reps[i] for i in order]
        entry = {"train": [], "validation": [], "test": []}
        if len(shuffled) >= 2:
            entry["test"] = [shuffled.pop()]
        if len(shuffled) >= 2:
            entry["validation"] = [shuffled.pop()]
        entry["train"] = sorted(shuffled)
        if len(reps) < 5:
            notes.append(
                f"{key[0]} {key[1]}: only {len(reps)} repetitions")
        assignments[key] = entry
    return CvPlan(assignments=assignments, notes=notes)


@dataclass
class CvResult:
    config: KanConfig
    val_rmse: float


def cross_validate(
    grid: list[KanConfig],
    plan: CvPlan,
    segments: list[FallSegment],
) -> tuple[KanConfig, list[CvResult]]:
    """Fit every candidate on the train repetitions, score on validation.

    The test repetition never participates.  A candidate's score is the
    lowest validation RMSE of its fit log, that of the epoch ``fit``
    returns; best candidate = lowest score.
    """
    if not grid:
        raise KanError("empty hyperparameter grid")
    train_segs = plan.segments_in(segments, "train")
    val_segs = plan.segments_in(segments, "validation")
    if not train_segs or not val_segs:
        raise KanError("cross-validation needs train and validation folds")

    results: list[CvResult] = []
    for candidate in grid:
        _, log = fit(candidate, train_segs, val_segs)
        results.append(CvResult(config=candidate,
                                val_rmse=min(l.val_rmse for l in log)))
    best = min(results, key=lambda r: r.val_rmse)
    return best.config, results


def write_cv_table(path: Path | str, results: list[CvResult]) -> None:
    lines = ["n_inner_nodes,q_outer_nodes,mu,window_ms,val_rmse"]
    for r in results:
        c = r.config
        lines.append(f"{c.n_inner_nodes},{c.q_outer_nodes},{c.mu},"
                     f"{c.window_ms},{r.val_rmse:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(path: Path | str, model: KanModel) -> None:
    header = {
        "config": asdict(model.config),
        "d": model.d,
        "feature_names": list(model.feature_names),
        "standardizer": {
            "mean": model.stats.mean.tolist(),
            "std": model.stats.std.tolist(),
        },
        "inner_grid": model.inner_grid.tolist(),
        "outer_grids": model.outer_grids.tolist(),
    }
    arrays = {
        "inner_values": model.inner_values,
        "outer_values": model.outer_values,
    }
    checkpoint.write_container(path, "kan", header, arrays)


def _check_loaded(name: str, d: int, model: KanModel) -> None:
    """Shapes from d and the configured node counts, finite values, and
    strictly increasing grids (which the kernel's bracket relies on)."""
    def fail(message: str):
        raise checkpoint.CheckpointError(f"{name}: {message}")

    b, n, q = 2 * d + 1, model.config.n_inner_nodes, model.config.q_outer_nodes
    expected = {
        "inner_grid": (model.inner_grid, (n,)),
        "outer_grids": (model.outer_grids, (b, q)),
        "inner_values": (model.inner_values, (d, b, n)),
        "outer_values": (model.outer_values, (b, q)),
        "standardizer mean": (model.stats.mean, (d,)),
        "standardizer std": (model.stats.std, (d,)),
    }
    for key, (values, _) in expected.items():
        if not np.all(np.isfinite(values)):
            fail(f"{key} has non-finite values")
    grid = model.inner_grid
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        fail("inner_grid must be a strictly increasing 1-D grid of at "
             "least 2 nodes")
    for key, (values, shape) in expected.items():
        if values.shape != shape:
            fail(f"{key} has shape {values.shape}, expected {shape} "
                 f"for d={d}, n={n}, q={q}")
    if not np.all(np.diff(model.outer_grids, axis=1) > 0):
        fail("every outer grid must be strictly increasing")
    if not np.all(model.stats.std > 0):
        fail("standardizer std must be positive")
    if len(model.feature_names) != d:
        fail(f"{len(model.feature_names)} feature names for d={d}")


def load_checkpoint(path: Path | str) -> KanModel:
    header, arrays = checkpoint.read_container(path, "kan")
    name = Path(path).name
    try:
        names = tuple(header["feature_names"])
        std = header["standardizer"]
        model = KanModel(
            feature_names=names,
            stats=StandardizationStats(
                mean=np.asarray(std["mean"], dtype=float),
                std=np.asarray(std["std"], dtype=float),
                names=names,
            ),
            config=KanConfig(**header["config"]),
            inner_grid=np.asarray(header["inner_grid"], dtype=float),
            inner_values=arrays["inner_values"],
            outer_grids=np.asarray(header["outer_grids"], dtype=float),
            outer_values=arrays["outer_values"],
        )
        d = int(header["d"])
    except KeyError as exc:
        raise checkpoint.CheckpointError(
            f"{name}: checkpoint lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise checkpoint.CheckpointError(
            f"{name}: malformed checkpoint: {exc}") from None
    _check_loaded(name, d, model)
    return model

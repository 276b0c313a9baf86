"""Kolmogorov-Arnold time-of-impact regressor.

Model form: y(x) = sum_j Phi_j( sum_i phi_ij(x_i) ) with j = 0..2d and
i = 1..d, where every phi and Phi is a piecewise-linear function given by
node abscissas and ordinates (clamped outside its grid).  Identification
runs one projected Gauss-Newton (Kaczmarz) update per training record:
only the node values bracketing the record's evaluation points move.

Inputs are the five selected signals, smoothed by a trailing moving
average and standardized; targets stay in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
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
        if self.window_ms <= 0 or abs(
                self.window_ms / 5.0 - round(self.window_ms / 5.0)) > 1e-9:
            raise KanError("window must be a positive multiple of 5 ms")
        if self.window_samples > MAX_SMOOTHING_SAMPLES:
            raise KanError(
                f"window must be at most "
                f"{MAX_SMOOTHING_SAMPLES * SAMPLE_PERIOD_S * 1000:g} ms")
        if self.warmup not in ("epoch", "static"):
            raise KanError(f"unknown warmup mode {self.warmup!r}")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms / 1000.0 / SAMPLE_PERIOD_S))


# ---------------------------------------------------------------------------
# Piecewise-linear primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PwlFunction:
    """Linear interpolation between nodes, clamped outside the grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise KanError("grid/values must be matching 1-D arrays, size >= 2")
        if not np.all(np.diff(grid) > 0):
            raise KanError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise KanError("node values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def _bracket(grid: np.ndarray, x: float) -> tuple[int, float]:
    """Left node index and interpolation weight t in [0, 1] (clamped)."""
    k = int(np.searchsorted(grid, x, side="right")) - 1
    k = min(max(k, 0), grid.shape[0] - 2)
    if x <= grid[0]:
        return k, 0.0
    if x >= grid[-1]:
        return k, 1.0
    return k, (x - grid[k]) / (grid[k + 1] - grid[k])


def pwl_eval(f: PwlFunction, x):
    """Evaluate at scalar or array argument (clamped extrapolation)."""
    return np.interp(x, f.grid, f.values)


def pwl_grad_nodes(f: PwlFunction, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices and weights of the (at most two) nodes that x activates.

    The weights are the interpolation coefficients and sum to 1; exactly
    at a node (or beyond the grid ends) a single node has weight 1.
    """
    k, t = _bracket(f.grid, float(x))
    return np.array([k, k + 1]), np.array([1.0 - t, t])


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

    def inner_function(self, i: int, j: int) -> PwlFunction:
        return PwlFunction(self.inner_grid, self.inner_values[i, j])

    def outer_function(self, j: int) -> PwlFunction:
        return PwlFunction(self.outer_grids[j], self.outer_values[j])


@dataclass
class UpdateInfo:
    residual: float
    gram: float          # squared gradient norm
    degenerate: bool     # all active slopes were zero: no update applied


def _inner_sums(model: KanModel, x: np.ndarray) -> np.ndarray:
    """s_j = sum_i phi_ij(x_i) for one standardized input, shape (2d+1,)."""
    grid = model.inner_grid
    s = np.zeros(model.branches)
    for i in range(model.d):
        k, t = _bracket(grid, float(x[i]))
        s += (1.0 - t) * model.inner_values[i, :, k] \
            + t * model.inner_values[i, :, k + 1]
    return s


def _inner_sums_batch(model: KanModel, xs: np.ndarray) -> np.ndarray:
    """(M, 2d+1) inner sums for an (M, d) standardized matrix."""
    grid = model.inner_grid
    n = grid.shape[0]
    ks = np.clip(np.searchsorted(grid, xs, side="right") - 1, 0, n - 2)
    ts = (xs - grid[ks]) / (grid[ks + 1] - grid[ks])
    ts = np.clip(ts, 0.0, 1.0)
    out = np.zeros((xs.shape[0], model.branches))
    for i in range(model.d):
        left = model.inner_values[i][:, ks[:, i]]   # (2d+1, M)
        right = model.inner_values[i][:, ks[:, i] + 1]
        out += ((1.0 - ts[:, i]) * left + ts[:, i] * right).T
    return out


def kan_eval(model: KanModel, x: np.ndarray) -> float:
    """Prediction in ms for one standardized d-vector (can be negative)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise KanError(f"input must have shape ({model.d},), got {x.shape}")
    s = _inner_sums(model, x)
    y = 0.0
    for j in range(model.branches):
        k, t = _bracket(model.outer_grids[j], float(s[j]))
        ov = model.outer_values[j]
        y += (1.0 - t) * ov[k] + t * ov[k + 1]
    return float(y)


def kan_eval_batch(model: KanModel, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != model.d:
        raise KanError(f"expected (M, {model.d}) inputs, got {xs.shape}")
    s = _inner_sums_batch(model, xs)
    y = np.zeros(xs.shape[0])
    for j in range(model.branches):
        y += np.interp(s[:, j], model.outer_grids[j], model.outer_values[j])
    return y


def _eval_with_gradient(model: KanModel, x: np.ndarray):
    """Prediction plus the sparse node-gradient structure for one record."""
    grid = model.inner_grid
    inner_k = np.empty(model.d, dtype=np.intp)
    inner_t = np.empty(model.d)
    s = np.zeros(model.branches)
    for i in range(model.d):
        k, t = _bracket(grid, float(x[i]))
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
        k, t = _bracket(og, float(s[j]))
        outer_k[j], outer_t[j] = k, t
        y += (1.0 - t) * ov[k] + t * ov[k + 1]
        # Clamped regions are flat: no gradient flows to inner nodes.
        if s[j] <= og[0] or s[j] >= og[-1]:
            slopes[j] = 0.0
        else:
            slopes[j] = (ov[k + 1] - ov[k]) / (og[k + 1] - og[k])
    return y, inner_k, inner_t, outer_k, outer_t, slopes


def _gram(inner_t: np.ndarray, outer_t: np.ndarray,
          slopes: np.ndarray) -> float:
    outer_part = float(((1.0 - outer_t) ** 2 + outer_t ** 2).sum())
    inner_weights = float(((1.0 - inner_t) ** 2 + inner_t ** 2).sum())
    inner_part = float((slopes ** 2).sum()) * inner_weights
    return outer_part + inner_part


def _update_inplace(model: KanModel, x: np.ndarray, y: float,
                    mu: float) -> UpdateInfo:
    pred, inner_k, inner_t, outer_k, outer_t, slopes = \
        _eval_with_gradient(model, x)
    r = float(y) - pred
    gram = _gram(inner_t, outer_t, slopes)
    if gram == 0.0:
        return UpdateInfo(residual=r, gram=0.0, degenerate=True)
    if r == 0.0:
        return UpdateInfo(residual=0.0, gram=gram, degenerate=False)
    step = mu * r / (gram + model.config.damping)

    rows = np.arange(model.branches)
    model.outer_values[rows, outer_k] += step * (1.0 - outer_t)
    model.outer_values[rows, outer_k + 1] += step * outer_t
    for i in range(model.d):
        k = inner_k[i]
        model.inner_values[i, :, k] += step * slopes * (1.0 - inner_t[i])
        model.inner_values[i, :, k + 1] += step * slopes * inner_t[i]
    return UpdateInfo(residual=r, gram=gram, degenerate=False)


def kaczmarz_update(model: KanModel, x: np.ndarray, y: float,
                    mu: float | None = None) -> tuple[KanModel, UpdateInfo]:
    """One projected Gauss-Newton step for a single (input, target) record.

    Returns a new model; only the node values bracketing the record's
    evaluation points change.  A record whose active slopes are all zero
    is degenerate and leaves the model untouched.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise KanError(f"input must have shape ({model.d},), got {x.shape}")
    updated = model.copy()
    info = _update_inplace(updated, x, y, model.config.mu if mu is None else mu)
    return updated, info


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def smooth_rows(rows: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average per column; partial windows at the start."""
    rows = np.asarray(rows, dtype=float)
    if window <= 1:
        return rows.copy()
    c = np.cumsum(np.vstack([np.zeros((1, rows.shape[1])), rows]), axis=0)
    hi = np.arange(1, rows.shape[0] + 1)
    lo = np.maximum(0, hi - window)
    return (c[hi] - c[lo]) / (hi - lo)[:, None]


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
    if config.warmup == "epoch":
        # One warm-up pass lets the inner sums reach their working range;
        # the outer grids are then re-spanned (values resampled) and stay
        # fixed for the logged epochs.
        order = rng.permutation(xs.shape[0]) if config.shuffle \
            else np.arange(xs.shape[0])
        for idx in order:
            _update_inplace(model, xs[idx], ys[idx], config.mu)
        _respan_outer(model, xs)

    best_model = to_ms(model)
    best_rmse = np.inf
    log: list[FitEpochLog] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(xs.shape[0]) if config.shuffle \
            else np.arange(xs.shape[0])
        for idx in order:
            _update_inplace(model, xs[idx], ys[idx], config.mu)
        in_ms = to_ms(model)
        train_rmse = rmse(kan_eval_batch(in_ms, xs), train_y)
        val_rmse = rmse(kan_eval_batch(in_ms, xv), yv) if len(yv) \
            else train_rmse
        log.append(FitEpochLog(epoch, train_rmse, val_rmse))
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
    lines = ["epoch,train_rmse,val_rmse"]
    for row in log:
        lines.append(f"{row.epoch},{row.train_rmse:.6f},{row.val_rmse:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_smoothed_row(model: KanModel, smoothed_row: np.ndarray) -> float:
    """Standardize an already-smoothed raw feature row, evaluate, clamp."""
    x = apply_standardizer(model.stats, np.asarray(smoothed_row, dtype=float))
    return max(0.0, kan_eval(model, x))


def predict_segment(model: KanModel, segment: FallSegment) -> np.ndarray:
    """Per-instant clamped predictions over a whole segment."""
    smoothed = _smoothed_segment_rows(segment, model.config.window_samples)
    xs = apply_standardizer(model.stats, smoothed)
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

    The test repetition never participates.  Best candidate = lowest
    validation RMSE.
    """
    if not grid:
        raise KanError("empty hyperparameter grid")
    train_segs = [s for s in segments if plan.role_of(s.trial_id) == "train"]
    val_segs = [s for s in segments
                if plan.role_of(s.trial_id) == "validation"]
    if not train_segs or not val_segs:
        raise KanError("cross-validation needs train and validation folds")

    results: list[CvResult] = []
    for candidate in grid:
        model, _ = fit(candidate, train_segs, val_segs)
        val_x, val_y = segment_records(val_segs, candidate.window_samples)
        score = rmse(kan_eval_batch(
            model, apply_standardizer(model.stats, val_x)), val_y)
        results.append(CvResult(config=candidate, val_rmse=score))
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
        "config": {f.name: getattr(model.config, f.name)
                   for f in fields(model.config)},
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


def load_checkpoint(path: Path | str) -> KanModel:
    header, arrays = checkpoint.read_container(path, "kan")
    if "standardizer" not in header:
        raise checkpoint.CheckpointError(
            f"{Path(path).name}: checkpoint lacks the standardizer block")
    config = KanConfig(**header["config"])
    std = header["standardizer"]
    names = tuple(header["feature_names"])
    stats = StandardizationStats(
        mean=np.asarray(std["mean"], dtype=float),
        std=np.asarray(std["std"], dtype=float),
        names=names,
    )
    return KanModel(
        feature_names=names,
        stats=stats,
        config=config,
        inner_grid=np.asarray(header["inner_grid"], dtype=float),
        inner_values=arrays["inner_values"],
        outer_grids=np.asarray(header["outer_grids"], dtype=float),
        outer_values=arrays["outer_values"],
    )

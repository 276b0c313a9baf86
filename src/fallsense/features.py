"""Per-sample feature assembly, standardization, selection, fall segments.

The full signal set has 19 columns: 4 static subject attributes, the 9
calibrated sensor channels, the 4 quaternion components, the gravity tilt
angle, and its derivative.  The detector consumes the first 18 (everything
except the tilt derivative); the impact-time regressor uses a 5-signal
subset.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .orientation import angular_derivative, tilt_angles
from .sisfall import (
    SAMPLE_PERIOD_S,
    AnnotatedTrial,
    SubjectProfile,
    TrialId,
)

STATIC_FEATURES = ("age", "height_cm", "weight_kg", "gender")
SENSOR_FEATURES = (
    "ax_adxl345", "ay_adxl345", "az_adxl345",
    "ax_mma8451q", "ay_mma8451q", "az_mma8451q",
    "wx_itg3200", "wy_itg3200", "wz_itg3200",
)
ORIENTATION_FEATURES = ("q1", "q2", "q3", "q4", "theta")
FEATURE_NAMES = (
    STATIC_FEATURES + SENSOR_FEATURES + ORIENTATION_FEATURES + ("theta_deriv",)
)
FDNN_FEATURES = FEATURE_NAMES[:-1]          # 18 detector inputs
KAN_DEFAULT_FEATURES = (
    "ay_adxl345", "ay_mma8451q", "wy_itg3200", "theta", "theta_deriv",
)

STD_FLOOR = 1e-8
# Longest trailing smoothing window of the impact model (500 ms).  A fall
# segment keeps the raw rows that such a window reaches before the onset.
MAX_SMOOTHING_SAMPLES = 100


class FeatureError(ValueError):
    pass


class SegmentError(FeatureError):
    pass


def feature_indices(names: tuple[str, ...] | list[str]) -> np.ndarray:
    unknown = [n for n in names if n not in FEATURE_NAMES]
    if unknown:
        raise FeatureError(
            f"unknown feature name: {', '.join(map(repr, unknown))}")
    return np.array([FEATURE_NAMES.index(n) for n in names])


# ---------------------------------------------------------------------------
# Frame assembly
# ---------------------------------------------------------------------------

@dataclass
class FeatureFrames:
    """All 19 signals for one trial, one row per sample, plus labels."""

    trial_id: TrialId
    data: np.ndarray    # (N, 19) float64, columns in FEATURE_NAMES order
    labels: np.ndarray  # (N,) uint8

    def __len__(self) -> int:
        return self.data.shape[0]

    def fdnn_matrix(self) -> np.ndarray:
        """The 18-entry detector view (drops the tilt derivative)."""
        return self.data[:, :18]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, FEATURE_NAMES.index(name)]


def build_feature_frames(
    annotated: AnnotatedTrial,
    subject: SubjectProfile,
    quats: np.ndarray,
    body_up: np.ndarray | None = None,
    deriv_order: int = 2,
    dt: float = SAMPLE_PERIOD_S,
) -> FeatureFrames:
    """Assemble the (N, 19) signal matrix for one trial.

    ``quats`` must be the orientation estimate aligned 1:1 with the trial
    samples.  Static subject attributes repeat on every row.
    """
    trial = annotated.trial
    n = len(trial)
    quats = np.asarray(quats, dtype=float)
    if quats.shape != (n, 4):
        raise FeatureError(
            f"orientation length {quats.shape} does not match {n} samples")

    theta = tilt_angles(quats, body_up)
    theta_deriv = angular_derivative(theta, dt, order=deriv_order)

    data = np.empty((n, len(FEATURE_NAMES)))
    data[:, 0:4] = subject.static_vector()
    data[:, 4:7] = trial.accel_adxl345
    data[:, 7:10] = trial.accel_mma8451q
    data[:, 10:13] = trial.gyro_itg3200
    data[:, 13:17] = quats
    data[:, 17] = theta
    data[:, 18] = theta_deriv
    return FeatureFrames(
        trial_id=annotated.trial_id, data=data,
        labels=annotated.labels.copy())


def save_frames(path: Path | str, frames: FeatureFrames) -> None:
    """Uncompressed: compression costs more time than the file size
    saves.  ``load_frames`` reads compressed files too."""
    np.savez(
        path, trial_id=str(frames.trial_id), data=frames.data,
        labels=frames.labels, names=np.array(FEATURE_NAMES))


def load_frames(path: Path | str) -> FeatureFrames:
    with np.load(path, allow_pickle=False) as z:
        names = tuple(str(x) for x in z["names"])
        if names != FEATURE_NAMES:
            raise FeatureError(f"{path}: unexpected feature columns")
        return FeatureFrames(
            trial_id=TrialId.parse(str(z["trial_id"])),
            data=z["data"], labels=z["labels"])


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

@dataclass
class StandardizationStats:
    mean: np.ndarray
    std: np.ndarray   # population std, clamped at STD_FLOOR
    names: tuple[str, ...] | None = None


def fit_standardizer(matrix: np.ndarray | list[np.ndarray],
                     names: tuple[str, ...] | None = None) -> StandardizationStats:
    """Column means and population stds of ``matrix``, or of the rows of
    a list of matrices (one per trial, say) without stacking them.  Each
    matrix's column sums, added in list order, give the mean; each one's
    summed squared deviations from it, added the same way, the variance.
    One matrix so gets ``np.mean``'s and ``np.std``'s bits."""
    parts = [np.asarray(m, dtype=float)
             for m in (matrix if isinstance(matrix, list) else [matrix])]
    if any(m.ndim != 2 or m.shape[1] != parts[0].shape[1] for m in parts):
        raise FeatureError(
            "a standardizer is fitted on (rows, columns) data of one width")
    if not sum(m.size for m in parts):
        raise FeatureError("cannot fit a standardizer on empty data")
    n = sum(len(m) for m in parts)
    mean = functools.reduce(np.add, [m.sum(axis=0) for m in parts]) / n
    sq = functools.reduce(
        np.add, [np.square(m - mean).sum(axis=0) for m in parts])
    return StandardizationStats(mean=mean,
                                std=np.maximum(np.sqrt(sq / n), STD_FLOOR),
                                names=names)


def apply_standardizer(stats: StandardizationStats,
                       matrix: np.ndarray) -> np.ndarray:
    return (np.asarray(matrix, dtype=float) - stats.mean) / stats.std


# ---------------------------------------------------------------------------
# Feature selection
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SelectionConfig:
    """The selection audit: the correlation cut, the mRMR ranking depth and
    discretization bins, and the impact model's chosen inputs.  Settings
    that cannot run (an unknown feature, k or bins out of range, a cut
    outside [0, 1]) fail on construction."""

    corr_threshold: float = 0.3
    mrmr_k: int = 2
    bins: int = 32
    kan_features: tuple[str, ...] = KAN_DEFAULT_FEATURES

    def __post_init__(self):
        if not self.kan_features:
            raise FeatureError("kan_features must name at least one feature")
        feature_indices(self.kan_features)
        if not (_is_int(self.mrmr_k)
                and 1 <= self.mrmr_k <= len(FEATURE_NAMES)):
            raise FeatureError(
                f"mrmr_k must be an integer in [1, {len(FEATURE_NAMES)}], "
                f"got {self.mrmr_k!r}")
        if not (_is_int(self.bins) and self.bins >= 2):
            raise FeatureError(
                f"bins must be an integer >= 2, got {self.bins!r}")
        if not 0.0 <= self.corr_threshold <= 1.0:
            raise FeatureError(f"corr_threshold must be in [0, 1], "
                               f"got {self.corr_threshold}")


def pearson_scores(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Absolute Pearson correlation per column; 0 for constant columns."""
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(target, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise FeatureError("feature rows and target length differ")
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).mean(axis=0))
    sy = np.sqrt((yc * yc).mean())
    cov = (xc * yc[:, None]).mean(axis=0)
    denom = sx * sy
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    return np.abs(r)


def correlation_select(
    matrix: np.ndarray,
    target: np.ndarray,
    names: tuple[str, ...] | list[str],
    threshold: float = SelectionConfig.corr_threshold,
) -> list[tuple[str, float]]:
    """Features with |Pearson r| >= threshold, ranked descending."""
    scores = pearson_scores(matrix, target)
    order = np.argsort(-scores, kind="stable")
    return [(names[i], float(scores[i])) for i in order
            if scores[i] >= threshold]


def discretize(column: np.ndarray,
               bins: int = SelectionConfig.bins) -> np.ndarray:
    """Equal-width binning into integer codes 0..bins-1."""
    col = np.asarray(column, dtype=float)
    lo, hi = col.min(), col.max()
    if hi <= lo:
        return np.zeros(col.shape[0], dtype=np.intp)
    edges = np.linspace(lo, hi, bins + 1)[1:-1]
    return np.searchsorted(edges, col, side="right")


def mutual_information_bits(a: np.ndarray, b: np.ndarray,
                            bins: int = SelectionConfig.bins) -> float:
    """MI between two discretized code vectors, in bits."""
    n = a.shape[0]
    joint = np.bincount(a * bins + b, minlength=bins * bins).astype(float)
    joint = joint.reshape(bins, bins) / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    outer = pa[:, None] * pb[None, :]
    return float(np.sum(joint[nz] * np.log2(joint[nz] / outer[nz])))


@dataclass
class MrmrStep:
    name: str
    relevance: float
    redundancy: float

    @property
    def score(self) -> float:
        return self.relevance - self.redundancy


def mrmr_select(
    matrix: np.ndarray,
    target: np.ndarray,
    names: tuple[str, ...] | list[str],
    k: int,
    bins: int = SelectionConfig.bins,
) -> list[MrmrStep]:
    """Greedy forward selection: max relevance minus mean redundancy.

    Relevance and redundancy are mutual information on equal-width
    discretized signals (target binned the same way).  Ties break toward
    the lower column index, making the ranking deterministic.
    """
    x = np.asarray(matrix, dtype=float)
    nfeat = x.shape[1]
    if not 1 <= k <= nfeat:
        raise FeatureError(f"k={k} outside [1, {nfeat}]")
    if x.shape[0] != np.asarray(target).shape[0]:
        raise FeatureError("feature rows and target length differ")

    codes = [discretize(x[:, i], bins) for i in range(nfeat)]
    ycodes = discretize(target, bins)
    relevance = np.array(
        [mutual_information_bits(c, ycodes, bins) for c in codes])

    chosen: list[MrmrStep] = []
    chosen_idx: list[int] = []
    remaining = list(range(nfeat))
    pair_mi: dict[tuple[int, int], float] = {}

    def mi_pair(i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in pair_mi:
            pair_mi[key] = mutual_information_bits(codes[i], codes[j], bins)
        return pair_mi[key]

    for _ in range(k):
        best_i = None
        best_score = -np.inf
        best_red = 0.0
        for i in remaining:
            # A loop from 0.0, not sum(), which compensates floats on 3.12+.
            red = 0.0
            for j in chosen_idx:
                red += mi_pair(i, j)
            if chosen_idx:
                red /= len(chosen_idx)
            score = relevance[i] - red
            if score > best_score:
                best_i, best_score, best_red = i, score, red
        assert best_i is not None
        chosen.append(MrmrStep(
            name=names[best_i], relevance=float(relevance[best_i]),
            redundancy=float(best_red)))
        chosen_idx.append(best_i)
        remaining.remove(best_i)
    return chosen


@dataclass
class SelectionReport:
    """Audit record for both selectors plus the configured chosen set."""

    correlation: dict[str, float]
    correlation_selected: list[str]
    mrmr: list[MrmrStep]
    chosen: tuple[str, ...]

    def to_csv(self, path: Path | str) -> None:
        mrmr_rank = {s.name: i + 1 for i, s in enumerate(self.mrmr)}
        mrmr_by_name = {s.name: s for s in self.mrmr}
        lines = ["feature,correlation,mrmr_rank,relevance,redundancy,chosen"]
        for name in self.correlation:
            step = mrmr_by_name.get(name)
            lines.append(",".join([
                name,
                f"{self.correlation[name]:.6f}",
                str(mrmr_rank.get(name, "")),
                f"{step.relevance:.6f}" if step else "",
                f"{step.redundancy:.6f}" if step else "",
                "1" if name in self.chosen else "0",
            ]))
        Path(path).write_text("\n".join(lines) + "\n")


def build_selection_report(
    matrix: np.ndarray,
    target: np.ndarray,
    names: tuple[str, ...] | list[str],
    selection: SelectionConfig = SelectionConfig(),
) -> SelectionReport:
    scores = pearson_scores(matrix, target)
    return SelectionReport(
        correlation={names[i]: float(scores[i]) for i in range(len(names))},
        correlation_selected=[
            n for n, _ in correlation_select(matrix, target, names,
                                             selection.corr_threshold)],
        mrmr=mrmr_select(matrix, target, names, selection.mrmr_k,
                         selection.bins),
        chosen=tuple(selection.kan_features),
    )


# ---------------------------------------------------------------------------
# Fall segments and impact-time targets
# ---------------------------------------------------------------------------

def tti_targets(n: int) -> np.ndarray:
    """Time to impact in ms for an n-sample segment: (n-1)*5 down to 0."""
    if n < 1:
        raise SegmentError("segment must have at least 1 sample")
    return np.arange(n - 1, -1, -1, dtype=float) * 5.0


@dataclass
class FallSegment:
    """The fall interval of one trial, with its impact-countdown targets."""

    trial_id: TrialId
    start_index: int
    end_index: int          # impact sample, inclusive
    feature_names: tuple[str, ...]
    rows: np.ndarray | None     # (L, d) raw selected-feature rows
    tti_ms: np.ndarray          # (L,) targets
    stillness_flagged: bool = False
    # Raw rows just before the onset (at most MAX_SMOOTHING_SAMPLES - 1),
    # so a trailing window smooths across the onset as the stream does.
    context: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __len__(self) -> int:
        return self.end_index - self.start_index + 1


def rolling_std_forward(values: np.ndarray, window: int) -> np.ndarray:
    """Population std over the forward-looking window [i, i+window).

    Truncated windows at the tail; one of fewer than 2 samples gives inf.
    Each window's mean, then its squared deviations from that mean, are
    summed from its own samples, as ``kan.smooth_rows`` sums: no
    cancellation against a running sum, and a non-finite sample reaches
    only the windows that hold it.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    lags = range(min(window, n))
    m = np.maximum(1, np.minimum(window, np.arange(n, 0, -1)))
    mean = np.zeros(n)
    for lag in lags:
        mean[:n - lag] += v[lag:]
    mean /= m
    var = np.zeros(n)
    for lag in lags:
        d = v[lag:] - mean[:n - lag]
        var[:n - lag] += d * d
    out = np.sqrt(var / m)
    out[m < 2] = np.inf
    return out


@dataclass(frozen=True)
class SegmentConfig:
    """The stillness rule that ends a fall segment: impact is where the
    forward rolling std of the accelerometer magnitude, over the window,
    first drops below the threshold.  Both must be finite and positive."""

    stillness_window_ms: float = 200.0
    stillness_threshold_g: float = 0.05

    def __post_init__(self):
        for name in ("stillness_window_ms", "stillness_threshold_g"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise SegmentError(
                    f"{name} must be finite and positive, got {value}")


def extract_fall_segment(
    annotated: AnnotatedTrial,
    frames: FeatureFrames | None = None,
    segment: SegmentConfig = SegmentConfig(),
    feature_names: tuple[str, ...] = KAN_DEFAULT_FEATURES,
) -> FallSegment:
    """From the first FALL label to the detected impact.

    Impact = first index at or after the fall onset where the rolling
    standard deviation of the primary accelerometer magnitude stays below
    the stillness threshold, i.e. the start of the motionless tail.  If
    stillness is never reached the segment ends at the last FALL label and
    is flagged.
    """
    span = annotated.fall_span()
    if span is None:
        raise SegmentError(f"{annotated.trial_id}: no FALL labels")
    start = span[0]

    window = int(round(segment.stillness_window_ms / 1000.0
                       / SAMPLE_PERIOD_S))
    window = max(2, window)
    mag = np.linalg.norm(annotated.trial.accel_adxl345, axis=1)
    stds = rolling_std_forward(mag[start:], window)
    below = np.flatnonzero(stds < segment.stillness_threshold_g)
    if below.size:
        end = start + int(below[0])
        flagged = False
    else:
        end = span[1]
        flagged = True

    rows = None
    context = np.empty((0, 0))
    if frames is not None:
        if len(frames) != len(annotated):
            raise SegmentError("frames and trial have different lengths")
        lo = max(0, start - MAX_SMOOTHING_SAMPLES + 1)
        selected = frames.data[lo:end + 1, feature_indices(feature_names)]
        context, rows = selected[:start - lo], selected[start - lo:]
    return FallSegment(
        trial_id=annotated.trial_id,
        start_index=start,
        end_index=end,
        feature_names=tuple(feature_names),
        rows=rows,
        tti_ms=tti_targets(end - start + 1),
        stillness_flagged=flagged,
        context=context,
    )


def save_segment(path: Path | str, segment: FallSegment) -> None:
    payload = {
        "trial_id": str(segment.trial_id),
        "start_index": segment.start_index,
        "end_index": segment.end_index,
        "feature_names": list(segment.feature_names),
        "rows": None if segment.rows is None else segment.rows.tolist(),
        "tti_ms": segment.tti_ms.tolist(),
        "stillness_flagged": segment.stillness_flagged,
        "context": segment.context.tolist(),
    }
    Path(path).write_text(json.dumps(payload))


def load_segment(path: Path | str) -> FallSegment:
    payload = json.loads(Path(path).read_text())
    rows = payload["rows"]
    return FallSegment(
        trial_id=TrialId.parse(payload["trial_id"]),
        start_index=int(payload["start_index"]),
        end_index=int(payload["end_index"]),
        feature_names=tuple(payload["feature_names"]),
        rows=None if rows is None else np.asarray(rows, dtype=float),
        tti_ms=np.asarray(payload["tti_ms"], dtype=float),
        stillness_flagged=bool(payload["stillness_flagged"]),
        context=np.asarray(payload.get("context", []), dtype=float),
    )


# ---------------------------------------------------------------------------
# Sequence splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitConfig:
    """Whole-trial split ratios and the shuffle seed.  Ratios that are
    negative or do not sum to 1 fail on construction."""

    train: float = 0.6
    validation: float = 0.2
    test: float = 0.2
    seed: int = 0

    def __post_init__(self):
        ratios = (self.train, self.validation, self.test)
        if not (all(r >= 0 for r in ratios)
                and abs(sum(ratios) - 1.0) <= 1e-9):
            raise FeatureError(
                f"ratios must be non-negative and sum to 1: {ratios}")


@dataclass(frozen=True)
class SplitSets:
    train: tuple[TrialId, ...]
    validation: tuple[TrialId, ...]
    test: tuple[TrialId, ...]


def split_sequences(
    trial_ids: list[TrialId] | tuple[TrialId, ...],
    split: SplitConfig = SplitConfig(),
) -> SplitSets:
    """Shuffle and partition whole trials into train/validation/test.

    Validation and test sizes are the ratios rounded half-up; the
    remainder goes to train.  Deterministic for a fixed seed.
    """
    ids = list(trial_ids)
    if not ids:
        raise FeatureError("cannot split an empty trial list")
    n = len(ids)
    n_val = int(np.floor(n * split.validation + 0.5))
    n_test = int(np.floor(n * split.test + 0.5))
    if n_val + n_test > n:
        n_test = n - n_val
    order = np.random.default_rng(split.seed).permutation(n)
    shuffled = [ids[i] for i in order]
    test = tuple(shuffled[:n_test])
    val = tuple(shuffled[n_test:n_test + n_val])
    train = tuple(shuffled[n_test + n_val:])
    return SplitSets(train=train, validation=val, test=test)

"""Sample-level metrics, per-subject/activity tables, and report rendering.

FALL is the positive class.  Table cells average the metric over the
repetitions of a (subject, activity) pair; cells with no data stay blank
and are excluded from table-wide averages.  Reports are deterministic
CSV/JSON/SVG files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import FallSegment
from .kan import KanModel, predict_segment
from .sisfall import FALL, SAMPLE_PERIOD_S, TrialId

__all__ = [
    "ConfusionCounts", "confusion", "rates", "TrialMetric", "MetricTable",
    "metric_table", "SegmentPrediction", "RmseHeatmap", "rmse_by_group",
    "TrajectoryTrace", "trajectory", "ReportBundle", "render_report",
]


class EvaluationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Confusion counts and rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.tn + other.tn, self.fn + other.fn)


def confusion(decisions: np.ndarray, labels: np.ndarray) -> ConfusionCounts:
    """Sample-level confusion counts; FALL (label 1) is positive."""
    decisions = np.asarray(decisions).astype(bool)
    labels = np.asarray(labels)
    if decisions.shape != labels.shape:
        raise EvaluationError(
            f"decisions {decisions.shape} vs labels {labels.shape}")
    pos = labels == FALL
    neg = ~pos
    return ConfusionCounts(
        tp=int((decisions & pos).sum()),
        fp=int((decisions & neg).sum()),
        tn=int((~decisions & neg).sum()),
        fn=int((~decisions & pos).sum()),
    )


def rates(c: ConfusionCounts) -> tuple[float | None, float | None]:
    """(TPR, TNR); an undefined denominator yields None, never 0/0."""
    tpr = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    tnr = c.tn / (c.tn + c.fp) if (c.tn + c.fp) > 0 else None
    return tpr, tnr


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialMetric:
    trial_id: TrialId
    value: float | None


@dataclass
class MetricTable:
    subjects: tuple[str, ...]
    activities: tuple[str, ...]
    values: np.ndarray  # (S, A), NaN = blank

    def average(self) -> float | None:
        """Mean over non-blank cells."""
        if np.all(np.isnan(self.values)):
            return None
        return float(np.nanmean(self.values))

    def to_csv(self, path: Path | str) -> None:
        lines = ["subject," + ",".join(self.activities)]
        for i, subj in enumerate(self.subjects):
            cells = ["" if math.isnan(v) else f"{v:.6f}"
                     for v in self.values[i]]
            lines.append(subj + "," + ",".join(cells))
        avg = self.average()
        lines.append(f"AVERAGE,{'' if avg is None else f'{avg:.6f}'}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: Path | str) -> "MetricTable":
        lines = Path(path).read_text().strip().splitlines()
        activities = tuple(lines[0].split(",")[1:])
        subjects = []
        rows = []
        for line in lines[1:]:
            parts = line.split(",")
            if parts[0] == "AVERAGE":
                continue
            subjects.append(parts[0])
            rows.append([float(p) if p else math.nan
                         for p in parts[1:len(activities) + 1]])
        return cls(subjects=tuple(subjects), activities=activities,
                   values=np.array(rows) if rows
                   else np.empty((0, len(activities))))


def _grid(groups, cell) -> tuple[MetricTable, dict]:
    """Sorted subjects x activities of ``(trial_id, value)`` pairs: each
    cell is ``cell`` of its group's non-None values, NaN if it has none.
    Also returns those values per group, in first-appearance order."""
    cells: dict[tuple[str, str], list] = {}
    subjects: set[str] = set()
    activities: set[str] = set()
    for tid, value in groups:
        subjects.add(tid.subject)
        activities.add(tid.activity)
        if value is not None:
            cells.setdefault((tid.subject, tid.activity), []).append(value)
    subj = tuple(sorted(subjects))
    acts = tuple(sorted(activities))
    values = np.full((len(subj), len(acts)), math.nan)
    for (s, a), vals in cells.items():
        values[subj.index(s), acts.index(a)] = cell(vals)
    return MetricTable(subjects=subj, activities=acts, values=values), cells


def metric_table(entries: list[TrialMetric]) -> MetricTable:
    """Cell = mean metric over repetitions of each (subject, activity)."""
    return _grid(((e.trial_id, e.value) for e in entries),
                 lambda vals: float(np.mean(vals)))[0]


# ---------------------------------------------------------------------------
# RMSE heatmap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentPrediction:
    trial_id: TrialId
    predictions: np.ndarray  # (L,) ms
    targets: np.ndarray      # (L,) ms


@dataclass
class RmseHeatmap:
    table: MetricTable
    global_rmse: float | None


def rmse_by_group(entries: list[SegmentPrediction]) -> RmseHeatmap:
    """Cell = RMSE pooled over all of a (subject, activity)'s samples.

    The global figure pools every sample, so it equals the RMSE computed
    directly over the concatenation of all groups.
    """
    for e in entries:
        if e.predictions.shape != e.targets.shape:
            raise EvaluationError(f"{e.trial_id}: prediction/target mismatch")
    table, sq = _grid(
        ((e.trial_id, (np.asarray(e.predictions) - np.asarray(e.targets)) ** 2)
         for e in entries),
        lambda chunks: float(np.sqrt(np.concatenate(chunks).mean())))
    pooled = [c for chunks in sq.values() for c in chunks]
    global_rmse = (float(np.sqrt(np.concatenate(pooled).mean()))
                   if pooled else None)
    return RmseHeatmap(table=table, global_rmse=global_rmse)


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryTrace:
    trial_id: TrialId
    t_s: np.ndarray          # seconds within the segment
    truth_ms: np.ndarray
    predicted_ms: np.ndarray

    def to_csv(self, path: Path | str) -> None:
        lines = ["t_s,truth_ms,predicted_ms"]
        for t, g, p in zip(self.t_s, self.truth_ms, self.predicted_ms):
            lines.append(f"{t:.3f},{g:.1f},{p:.3f}")
        Path(path).write_text("\n".join(lines) + "\n")


def trajectory(model: KanModel, segment: FallSegment) -> TrajectoryTrace:
    """Ground-truth countdown next to the model's per-instant estimate."""
    preds = predict_segment(model, segment)
    n = len(segment)
    return TrajectoryTrace(
        trial_id=segment.trial_id,
        t_s=np.arange(n) * SAMPLE_PERIOD_S,
        truth_ms=segment.tti_ms.copy(),
        predicted_ms=preds,
    )


# ---------------------------------------------------------------------------
# SVG rendering (dependency-free, deterministic)
# ---------------------------------------------------------------------------

def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _heat_color(frac: float) -> str:
    """Linear blue (low) to red (high) color map."""
    frac = min(1.0, max(0.0, frac))
    r = int(round(255 * frac))
    b = int(round(255 * (1.0 - frac)))
    return f"#{r:02x}40{b:02x}"


def svg_heatmap(table: MetricTable, title: str,
                vmin: float | None = None, vmax: float | None = None) -> str:
    """Colored-cell table; blank cells render gray.

    Color map: linear blue -> red over [vmin, vmax] (data range by
    default).
    """
    cell, left, top = 28, 70, 40
    rows, cols = len(table.subjects), len(table.activities)
    width = left + cols * cell + 10
    height = top + rows * cell + 10
    finite = table.values[np.isfinite(table.values)]
    lo = vmin if vmin is not None else (float(finite.min()) if finite.size else 0.0)
    hi = vmax if vmax is not None else (float(finite.max()) if finite.size else 1.0)
    span = hi - lo if hi > lo else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="10">',
        f'<text x="{left}" y="16">{_esc(title)}</text>',
    ]
    for j, act in enumerate(table.activities):
        parts.append(f'<text x="{left + j * cell + 4}" y="{top - 6}">'
                     f'{_esc(act)}</text>')
    for i, subj in enumerate(table.subjects):
        parts.append(f'<text x="4" y="{top + i * cell + 18}">'
                     f'{_esc(subj)}</text>')
        for j in range(cols):
            v = table.values[i, j]
            color = "#cccccc" if math.isnan(v) else \
                _heat_color((v - lo) / span)
            parts.append(
                f'<rect x="{left + j * cell}" y="{top + i * cell}" '
                f'width="{cell - 2}" height="{cell - 2}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_trajectory(trace: TrajectoryTrace, title: str) -> str:
    """Two polylines: ground-truth countdown and the model estimate."""
    width, height, pad = 480, 280, 40
    t = trace.t_s
    series = [("#3060c0", trace.truth_ms), ("#c03030", trace.predicted_ms)]
    y_hi = max(1.0, max(float(np.max(s)) for _, s in series))
    t_hi = max(1e-9, float(t[-1]) if len(t) else 1.0)

    def sx(x):
        return pad + (width - 2 * pad) * x / t_hi

    def sy(y):
        return height - pad - (height - 2 * pad) * y / y_hi

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="10">',
        f'<text x="{pad}" y="16">{_esc(title)}</text>',
        f'<text x="{pad}" y="28">blue: ground truth, red: estimate '
        f'(ms vs s)</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#000"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="#000"/>',
    ]
    for color, ys in series:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(t, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Report bundle
# ---------------------------------------------------------------------------

@dataclass
class ReportBundle:
    fall_tpr: MetricTable | None = None
    fall_tnr: MetricTable | None = None
    adl_tnr: MetricTable | None = None
    rmse: RmseHeatmap | None = None
    trajectories: list[TrajectoryTrace] = field(default_factory=list)


_EMPTY = MetricTable(subjects=(), activities=(), values=np.empty((0, 0)))


def render_report(bundle: ReportBundle, out_dir: Path | str) -> list[Path]:
    """Write the CSV/SVG/JSON report files; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(path: Path, text: str):
        path.write_text(text)
        written.append(path)

    tables = [
        ("fall_tpr", bundle.fall_tpr, "Fall TPR by subject and activity"),
        ("fall_tnr", bundle.fall_tnr, "Fall TNR by subject and activity"),
        ("adl_tnr", bundle.adl_tnr, "ADL TNR by subject and activity"),
    ]
    for name, table, title in tables:
        t = table if table is not None else _EMPTY
        t.to_csv(out / f"{name}.csv")
        written.append(out / f"{name}.csv")
        emit(out / f"{name}.svg", svg_heatmap(t, title, vmin=0.0, vmax=1.0))

    rmse_table = bundle.rmse.table if bundle.rmse is not None else _EMPTY
    rmse_table.to_csv(out / "rmse_heatmap.csv")
    written.append(out / "rmse_heatmap.csv")
    emit(out / "rmse_heatmap.svg",
         svg_heatmap(rmse_table, "Impact-time RMSE [ms]"))

    for trace in bundle.trajectories:
        stem = f"trajectory_{trace.trial_id}"
        trace.to_csv(out / f"{stem}.csv")
        written.append(out / f"{stem}.csv")
        emit(out / f"{stem}.svg",
             svg_trajectory(trace, f"Time of impact: {trace.trial_id}"))

    summary = {
        "fall_tpr_avg": bundle.fall_tpr.average() if bundle.fall_tpr else None,
        "fall_tnr_avg": bundle.fall_tnr.average() if bundle.fall_tnr else None,
        "adl_tnr_avg": bundle.adl_tnr.average() if bundle.adl_tnr else None,
        "tti_rmse_ms": bundle.rmse.global_rmse if bundle.rmse else None,
    }
    emit(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    return written

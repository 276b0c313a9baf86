"""High-level assembly steps shared by the command-line tool and tests.

These functions tie the ingestion, orientation, feature, and model layers
together for whole-corpus work: building per-trial feature frames,
preparing detector training sets, and scoring trained models back into
metric tables.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import fdnn as fdnn_mod
from .evaluation import (
    ConfusionCounts,
    SegmentPrediction,
    TrialMetric,
    confusion,
    rates,
)
from .features import (
    FDNN_FEATURES,
    FallSegment,
    FeatureFrames,
    StandardizationStats,
    build_feature_frames,
    extract_fall_segment,
    fit_standardizer,
)
from .kan import KanModel, predict_segment
from .orientation import FilterConfig, estimate_orientation
from .sisfall import FALL, AnnotatedTrial, SubjectProfile, TrialId


def orient_and_frame(
    annotated: AnnotatedTrial,
    subject: SubjectProfile,
    filter_config: FilterConfig | None = None,
    body_up: np.ndarray | None = None,
    deriv_order: int = 2,
) -> FeatureFrames:
    """Run the orientation filter and assemble the 19-signal frames.

    The filter reads the primary accelerometer, as the stream does.
    """
    trial = annotated.trial
    quats = estimate_orientation(trial.accel_adxl345, trial.gyro_itg3200,
                                 filter_config)
    return build_feature_frames(annotated, subject, quats,
                                body_up=body_up, deriv_order=deriv_order)


# ---------------------------------------------------------------------------
# Detector data preparation and scoring
# ---------------------------------------------------------------------------

def fit_frame_standardizer(frames: list[FeatureFrames]) -> StandardizationStats:
    """Standardizer over the 18 detector inputs, training frames only:
    each trial's sums added in list order, with no stacked copy."""
    return fit_standardizer([f.fdnn_matrix() for f in frames], FDNN_FEATURES)


def detector_example(inputs: np.ndarray, labels: np.ndarray,
                     stats: StandardizationStats) -> fdnn_mod.SequenceExample:
    """One trial's detector example from its own (N, 18) float array of
    inputs (``FeatureFrames.fdnn_matrix``), standardized in place with
    ``apply_standardizer``'s bits, so no second copy is made."""
    inputs -= stats.mean
    inputs /= stats.std
    return fdnn_mod.SequenceExample(
        static=inputs[0, :4],
        sequence=inputs[:, 4:],
        labels=(labels == FALL).astype(np.intp),
    )


def frames_to_example(frames: FeatureFrames,
                      stats: StandardizationStats) -> fdnn_mod.SequenceExample:
    return detector_example(np.array(frames.fdnn_matrix(), dtype=float),
                            frames.labels, stats)


@dataclass
class TrialScore:
    trial_id: TrialId
    tpr: float | None
    tnr: float | None
    counts: ConfusionCounts | None = None


def score_trials(params: fdnn_mod.FdnnParams, config: fdnn_mod.FdnnConfig,
                 stats: StandardizationStats,
                 frames: Iterable[FeatureFrames]) -> list[TrialScore]:
    """Each trial's confusion counts and rates, from
    ``fdnn.predict_traces``: its own ``predict_trace`` bits.  Each trial's
    frames are dropped once its example is built, so an iterator that
    loads them holds one trial's frames at a time."""
    ids, examples = [], []
    for f in frames:
        ids.append(f.trial_id)
        examples.append(frames_to_example(f, stats))
    traces = fdnn_mod.predict_traces(params, config, examples)
    counts = [confusion(t.decisions, e.labels)
              for t, e in zip(traces, examples)]
    return [TrialScore(tid, *rates(c), counts=c)
            for tid, c in zip(ids, counts)]


def tpr_entries(scores: list[TrialScore]) -> list[TrialMetric]:
    return [TrialMetric(s.trial_id, s.tpr) for s in scores]


def tnr_entries(scores: list[TrialScore]) -> list[TrialMetric]:
    return [TrialMetric(s.trial_id, s.tnr) for s in scores]


def pooled_rates(scores: list[TrialScore]) -> tuple[float | None, float | None]:
    """Sample-pooled TPR/TNR: sum confusions across trials, then divide."""
    total = ConfusionCounts()
    for s in scores:
        total = total + s.counts
    return rates(total)


# ---------------------------------------------------------------------------
# Impact-model scoring
# ---------------------------------------------------------------------------

def segment_predictions(model: KanModel,
                        segments: list[FallSegment]) -> list[SegmentPrediction]:
    out = []
    for seg in segments:
        out.append(SegmentPrediction(
            trial_id=seg.trial_id,
            predictions=predict_segment(model, seg),
            targets=seg.tti_ms.copy(),
        ))
    return out


def collect_fall_segments(
    annotated_frames: list[tuple[AnnotatedTrial, FeatureFrames]],
) -> list[FallSegment]:
    """The default-rule fall segment of each trial that has a fall."""
    return [extract_fall_segment(annotated, frames)
            for annotated, frames in annotated_frames
            if annotated.fall_span() is not None]

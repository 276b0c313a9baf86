"""High-level assembly steps shared by the command-line tool and tests.

These functions tie the ingestion, orientation, feature, and model layers
together for whole-corpus work: building per-trial feature frames,
preparing detector training sets, and scoring trained models back into
metric tables.
"""

from __future__ import annotations

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
    apply_standardizer,
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
    """Standardizer over the 18 detector inputs, training frames only."""
    stacked = np.vstack([f.fdnn_matrix() for f in frames])
    return fit_standardizer(stacked, FDNN_FEATURES)


def frames_to_example(frames: FeatureFrames,
                      stats: StandardizationStats) -> fdnn_mod.SequenceExample:
    x = apply_standardizer(stats, frames.fdnn_matrix())
    return fdnn_mod.SequenceExample(
        static=x[0, :4],
        sequence=x[:, 4:],
        labels=(frames.labels == FALL).astype(np.intp),
    )


@dataclass
class TrialScore:
    trial_id: TrialId
    tpr: float | None
    tnr: float | None
    counts: ConfusionCounts | None = None


def score_trials(params: fdnn_mod.FdnnParams, config: fdnn_mod.FdnnConfig,
                 stats: StandardizationStats,
                 frames: list[FeatureFrames]) -> list[TrialScore]:
    """Each trial's confusion counts and rates, from
    ``fdnn.predict_traces``: its own ``predict_trace`` bits."""
    examples = [frames_to_example(f, stats) for f in frames]
    traces = fdnn_mod.predict_traces(params, config, examples)
    counts = [confusion(t.decisions, e.labels)
              for t, e in zip(traces, examples)]
    return [TrialScore(f.trial_id, *rates(c), counts=c)
            for f, c in zip(frames, counts)]


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

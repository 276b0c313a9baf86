"""High-level assembly steps shared by the command-line tool and tests.

These functions tie the ingestion, orientation, feature, and model layers
together for whole-corpus work: building per-trial feature frames,
preparing detector examples, and cutting fall segments.
"""

from __future__ import annotations

import numpy as np

from . import fdnn as fdnn_mod
from .features import (
    FDNN_FEATURES,
    FallSegment,
    FeatureFrames,
    StandardizationStats,
    build_feature_frames,
    extract_fall_segment,
    fit_standardizer,
)
from .orientation import FilterConfig, estimate_orientation
from .sisfall import FALL, AnnotatedTrial, SubjectProfile


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
# Detector examples and fall segments
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


def collect_fall_segments(
    annotated_frames: list[tuple[AnnotatedTrial, FeatureFrames]],
) -> list[FallSegment]:
    """The default-rule fall segment of each trial that has a fall."""
    return [extract_fall_segment(annotated, frames)
            for annotated, frames in annotated_frames
            if annotated.fall_span() is not None]

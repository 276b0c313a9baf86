"""Waist-worn IMU fall detection and time-of-impact estimation.

Two models over one 200 Hz sensor stream: a recurrent per-sample fall
detector and a Kolmogorov-Arnold regressor counting down the milliseconds
to ground impact, plus the full data path (corpus ingestion, calibration,
orientation estimation, feature selection) and an evaluation harness.
"""

from .evaluation import (
    ConfusionCounts,
    MetricTable,
    ReportBundle,
    RmseHeatmap,
    SegmentPrediction,
    TrajectoryTrace,
    TrialMetric,
    confusion,
    metric_table,
    rates,
    render_report,
    rmse_by_group,
    trajectory,
)
from .fdnn import (
    FdnnConfig,
    FdnnParams,
    PredictionTrace,
    SequenceExample,
    classify,
    forward,
    init_params,
    loss_and_gradients,
    predict_trace,
    train,
)
from .features import (
    FDNN_FEATURES,
    FEATURE_NAMES,
    KAN_DEFAULT_FEATURES,
    FallSegment,
    FeatureFrames,
    StandardizationStats,
    apply_standardizer,
    build_feature_frames,
    correlation_select,
    extract_fall_segment,
    fit_standardizer,
    mrmr_select,
    split_sequences,
    tti_targets,
)
from .kan import (
    CvPlan,
    KanConfig,
    KanModel,
    build_cv_plan,
    cross_validate,
    fit,
    fit_records,
    kan_eval,
)
from .orientation import (
    FilterConfig,
    FilterState,
    angular_derivative,
    estimate_orientation,
    predict_step,
    tilt_angle,
    tilt_angles,
    update_step,
)
from .sisfall import (
    AnnotatedTrial,
    CalibratedSample,
    CalibratedTrial,
    CalibrationSpec,
    SubjectProfile,
    TrialId,
    calibrate,
    calibrate_trial,
    import_annotations,
    load_subjects,
    load_trial,
    parse_trial_file,
    verify_corpus,
)
from .streaming import LatencyReport, StreamEvent, stream_trial
from .synthetic import (
    SyntheticSpec,
    SyntheticTruth,
    generate_synthetic_trial,
    write_synthetic_corpus,
)

__version__ = "0.1.0"

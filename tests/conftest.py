import numpy as np
import pytest

from fallsense.features import FEATURE_NAMES, FeatureFrames
from fallsense.sisfall import CalibrationSpec, SubjectProfile, TrialId
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial


@pytest.fixture(scope="session")
def calibration_spec():
    return CalibrationSpec()


@pytest.fixture(scope="session")
def subject():
    return SubjectProfile(
        subject_id="SA01", age=30.0, height_cm=175.0, weight_kg=70.0,
        gender=1.0)


@pytest.fixture(scope="session")
def fall_trial():
    """Default synthetic fall: onset 5.0 s, impact 5.7 s, 15 s trial."""
    annotated, truth = generate_synthetic_trial(SyntheticSpec(), seed=11)
    return annotated, truth


@pytest.fixture(scope="session")
def walk_trial():
    annotated, truth = generate_synthetic_trial(
        SyntheticSpec(kind="walk", duration_s=8.0),
        seed=12, trial_id=TrialId("D01", "SA01", 1))
    return annotated, truth


def make_trial_text(records: np.ndarray) -> str:
    return "\n".join(",".join(str(int(v)) for v in row) for row in records)


def blank_frames(annotated) -> FeatureFrames:
    """All-zero frames of a trial's length: a fall segment's bounds read
    the trial's accelerometer, not its frames."""
    return FeatureFrames(annotated.trial_id,
                         np.zeros((len(annotated), len(FEATURE_NAMES))),
                         annotated.labels)

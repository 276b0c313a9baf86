"""Kinematically plausible synthetic trials with exact ground truth.

Used as the dataset-free oracle: the generator knows the fall span, the
impact index, and the true orientation at every sample, so segment
extraction, orientation estimation, and the end-to-end pipeline can be
checked in closed loop without the real corpus.

Model: the body tilts about a horizontal axis by an angle ramping from 0
to 90 degrees during the fall.  The specific-force magnitude is ~1 g
while upright (with a gait oscillation for walking), drops toward free
fall while falling, and snaps back to exactly 1 g at the impact sample,
after which the body is motionless.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .orientation import quat_from_rotvec, quat_to_matrix
from .sisfall import (
    ADL_CODES,
    ADULT_SUBJECTS,
    FALL,
    FALL_CODES,
    MAX_REPETITION,
    SAMPLE_RATE_HZ,
    AnnotatedTrial,
    CalibratedTrial,
    CalibrationSpec,
    SensorSpec,
    SubjectProfile,
    TrialId,
)

KINDS = ("fall", "walk", "sit")


class SyntheticSpecError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str = "fall"
    duration_s: float = 15.0
    fall_onset_s: float = 5.0       # fall kind only
    impact_s: float = 5.7           # fall kind only
    noise_g: float = 0.005
    noise_dps: float = 0.2
    walk_amp_g: float = 0.08        # gait bobbing amplitude
    walk_freq_hz: float = 2.0
    fall_jitter_g: float = 0.10     # flailing during the fall
    fall_floor_g: float = 0.35      # specific force just before impact
    impact_spike_g: float = 0.0     # optional single-sample impact transient
    tilt_axis: tuple[float, float, float] = (1.0, 0.0, 0.0)
    sit_tilt_rad: float = 0.5       # sit kind: slow lean amplitude

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SyntheticSpecError(f"unknown kind {self.kind!r}")
        if self.duration_s <= 0:
            raise SyntheticSpecError("duration must be positive")
        if self.kind == "fall":
            if not 0 < self.fall_onset_s < self.impact_s:
                raise SyntheticSpecError(
                    "need 0 < fall onset < impact time")
            if self.impact_s >= self.duration_s:
                raise SyntheticSpecError("impact must precede trial end")


@dataclass
class SyntheticTruth:
    """Exact per-sample ground truth emitted alongside the trial."""

    quats: np.ndarray           # (N, 4) true orientation
    theta: np.ndarray           # (N,) true tilt, radians
    fall_span: tuple[int, int] | None   # inclusive FALL label span
    impact_index: int | None    # first motionless sample

    @property
    def onset_index(self) -> int | None:
        return None if self.fall_span is None else self.fall_span[0]


def _tilt_profile(spec: SyntheticSpec, n: int) -> np.ndarray:
    """True tilt angle per sample."""
    t = np.arange(n) / SAMPLE_RATE_HZ
    if spec.kind == "fall":
        onset, impact = spec.fall_onset_s, spec.impact_s
        theta = np.clip((t - onset) / (impact - onset), 0.0, 1.0) * (math.pi / 2)
    elif spec.kind == "sit":
        # Slow lean out and back over the middle of the trial.
        theta = spec.sit_tilt_rad * np.sin(
            np.pi * np.clip(t / spec.duration_s, 0, 1)) ** 2
    else:
        theta = np.zeros(n)
    return theta


def _magnitude_profile(spec: SyntheticSpec, n: int,
                       onset_i: int | None, impact_i: int | None) -> np.ndarray:
    """Specific-force magnitude per sample, in g."""
    t = np.arange(n) / SAMPLE_RATE_HZ
    mag = np.ones(n)
    if spec.kind == "walk":
        mag += spec.walk_amp_g * np.sin(2 * np.pi * spec.walk_freq_hz * t)
    elif spec.kind == "fall":
        assert onset_i is not None and impact_i is not None
        pre = slice(0, onset_i)
        mag[pre] += spec.walk_amp_g * np.sin(
            2 * np.pi * spec.walk_freq_hz * t[pre])
        # Free-fall ramp: decreasing toward the floor, discontinuous at
        # impact (sudden stop), vigorous enough to defeat the stillness
        # detector until the body actually lands.
        fall = np.arange(onset_i, impact_i)
        if fall.size:
            frac = (fall - onset_i) / max(1, impact_i - onset_i)
            mag[fall] = 1.0 + frac * (spec.fall_floor_g - 1.0)
            mag[fall] += spec.fall_jitter_g * np.sin(
                2 * np.pi * 10.0 * t[fall])
        if spec.impact_spike_g > 0:
            mag[impact_i] += spec.impact_spike_g
    return mag


def generate_synthetic_trial(
    spec: SyntheticSpec,
    seed: int = 0,
    trial_id: TrialId | None = None,
) -> tuple[AnnotatedTrial, SyntheticTruth]:
    """Deterministic 9-channel trial plus exact ground truth.

    Both accelerometers observe the same motion with independent noise;
    the gyro observes the true tilt rate about the tilt axis.
    """
    rng = np.random.default_rng(seed)
    n = int(round(spec.duration_s * SAMPLE_RATE_HZ))
    if n < 1:
        raise SyntheticSpecError("trial too short")

    if trial_id is None:
        activity = "F01" if spec.kind == "fall" else "D01"
        trial_id = TrialId(activity, "SA01", 1)

    onset_i = impact_i = None
    if spec.kind == "fall":
        onset_i = int(round(spec.fall_onset_s * SAMPLE_RATE_HZ))
        impact_i = int(round(spec.impact_s * SAMPLE_RATE_HZ))
        if impact_i <= onset_i or impact_i >= n:
            raise SyntheticSpecError("impact index out of range")

    theta = _tilt_profile(spec, n)
    mag = _magnitude_profile(spec, n, onset_i, impact_i)

    # Norms in float arithmetic, added left to right: np.linalg.norm is a
    # BLAS dot whose last bits depend on the BLAS kernel.
    axis = np.asarray(spec.tilt_axis, dtype=float)
    ax, ay, az = axis
    axis = axis / math.sqrt(ax * ax + ay * ay + az * az)

    quats = np.empty((n, 4))
    up_body = np.empty((n, 3))
    for k in range(n):
        q = quat_from_rotvec(axis * theta[k])
        if q[0] < 0:
            q = -q
        w, x, y, z = q
        quats[k] = q / math.sqrt(w * w + x * x + y * y + z * z)
        up_body[k] = quat_to_matrix(quats[k])[2]        # R^T e_z

    accel = mag[:, None] * up_body
    accel_adxl = accel + rng.normal(0.0, spec.noise_g, size=(n, 3))
    accel_mma = accel + rng.normal(0.0, spec.noise_g, size=(n, 3))

    # deg/s about the (body) tilt axis; the body rotates by -theta about
    # the axis as seen from the body frame of the gravity vector, but the
    # gyro measures the body's own rotation: +theta_dot about the axis.
    theta_dot = np.gradient(theta) * SAMPLE_RATE_HZ
    gyro = (theta_dot[:, None] * axis[None, :]) / math.pi * 180.0
    gyro = gyro + rng.normal(0.0, spec.noise_dps, size=(n, 3))

    trial = CalibratedTrial(
        trial_id=trial_id,
        accel_adxl345=accel_adxl,
        gyro_itg3200=gyro,
        accel_mma8451q=accel_mma,
        t=np.arange(n) / SAMPLE_RATE_HZ,
    )
    labels = np.zeros(n, dtype=np.uint8)
    span = None
    if spec.kind == "fall":
        labels[onset_i:impact_i + 1] = FALL
        span = (onset_i, impact_i)
    annotated = AnnotatedTrial(trial=trial, labels=labels)
    truth = SyntheticTruth(
        quats=quats, theta=theta, fall_span=span, impact_index=impact_i)
    return annotated, truth


def synthetic_profile(subject_id: str = "SA01",
                      seed: int = 0) -> SubjectProfile:
    """A plausible subject profile for synthetic corpora."""
    rng = np.random.default_rng(seed)
    return SubjectProfile(
        subject_id=subject_id,
        age=float(rng.integers(20, 60)),
        height_cm=float(rng.integers(150, 195)),
        weight_kg=float(rng.integers(50, 100)),
        gender=float(rng.integers(0, 2)),
    )


def _to_counts(values: np.ndarray, spec: SensorSpec) -> np.ndarray:
    return np.clip(np.round(values / spec.scale),
                   *spec.count_range).astype(np.int64)


@dataclass(frozen=True)
class SynthConfig:
    """The shape of a synthetic corpus.  One that cannot be written fails
    on construction: the trial ids must exist in the corpus layout (adult
    subjects, fall and ADL codes, repetitions), and fall onsets are drawn
    from U(2 s, duration - 3 s), so a trial lasts at least 5 s."""

    subjects: int = 2
    falls_per_subject: int = 3
    adls_per_subject: int = 2
    repetitions: int = 2
    duration_s: float = 8.0
    noise_g: float = 0.005

    def __post_init__(self):
        for name, least, most in (
                ("subjects", 1, len(ADULT_SUBJECTS)),
                ("falls_per_subject", 0, len(FALL_CODES)),
                ("adls_per_subject", 0, len(ADL_CODES)),
                ("repetitions", 1, MAX_REPETITION)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or not least <= value <= most:
                raise SyntheticSpecError(f"{name} must be an integer in "
                                         f"[{least}, {most}], got {value!r}")
        if not 5.0 <= self.duration_s < math.inf:
            raise SyntheticSpecError(
                f"duration_s must be finite and >= 5, got {self.duration_s}")
        if not 0.0 <= self.noise_g < math.inf:
            raise SyntheticSpecError(
                f"noise_g must be finite and >= 0, got {self.noise_g}")


def write_synthetic_corpus(
    out_dir,
    synth: SynthConfig = SynthConfig(),
    seed: int = 0,
    calibration: CalibrationSpec | None = None,
):
    """Materialize a synthetic corpus in the on-disk trial-file layout.

    Writes ``corpus/<SUBJ>/<ACT>_<SUBJ>_R<NN>.txt`` (raw ADC counts),
    ``subjects.csv``, ``annotations.csv``, and ``truth.json`` with the
    generator's exact fall spans.  Deterministic per seed.
    """
    calibration = calibration or CalibrationSpec()
    out = Path(out_dir)
    corpus = out / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    subject_rows = ["subject_id,age,height_cm,weight_kg,gender"]
    ann_rows = ["trial_id,start_index,end_index"]
    truth: dict[str, dict] = {}

    for si in range(synth.subjects):
        sid = f"SA{si + 1:02d}"
        profile = synthetic_profile(sid, seed=seed + si)
        subject_rows.append(
            f"{sid},{profile.age:.0f},{profile.height_cm:.0f},"
            f"{profile.weight_kg:.0f},{'M' if profile.gender else 'F'}")
        sdir = corpus / sid
        sdir.mkdir(exist_ok=True)

        specs = []
        for a in range(synth.falls_per_subject):
            onset = float(rng.uniform(2.0, synth.duration_s - 3.0))
            impact = onset + float(rng.uniform(0.5, 1.0))
            specs.append((f"F{a + 1:02d}", SyntheticSpec(
                kind="fall", duration_s=synth.duration_s,
                fall_onset_s=onset, impact_s=impact, noise_g=synth.noise_g)))
        for a in range(synth.adls_per_subject):
            kind = "walk" if a % 2 == 0 else "sit"
            specs.append((f"D{a + 1:02d}", SyntheticSpec(
                kind=kind, duration_s=synth.duration_s,
                noise_g=synth.noise_g)))

        for activity, spec in specs:
            for rep in range(1, synth.repetitions + 1):
                tid = TrialId(activity, sid, rep)
                annotated, tr = generate_synthetic_trial(
                    spec, seed=int(rng.integers(0, 2 ** 31)), trial_id=tid)
                trial = annotated.trial
                counts = np.hstack([
                    _to_counts(trial.accel_adxl345, calibration.adxl345),
                    _to_counts(trial.gyro_itg3200, calibration.itg3200),
                    _to_counts(trial.accel_mma8451q, calibration.mma8451q),
                ])
                lines = [",".join(str(v) for v in row) + ";"
                         for row in counts]
                (sdir / f"{tid}.txt").write_text("\n".join(lines) + "\n")
                if tr.fall_span is not None:
                    ann_rows.append(
                        f"{tid},{tr.fall_span[0]},{tr.fall_span[1]}")
                    truth[str(tid)] = {
                        "onset_index": tr.fall_span[0],
                        "impact_index": tr.impact_index,
                    }

    (out / "subjects.csv").write_text("\n".join(subject_rows) + "\n")
    (out / "annotations.csv").write_text("\n".join(ann_rows) + "\n")
    (out / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True)
                                    + "\n")
    return corpus

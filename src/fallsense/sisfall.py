"""SisFall corpus ingestion: trial parsing, ADC calibration, annotations.

The corpus layout is one folder per subject, one text file per trial
(``<ACT>_<SUBJ>_R<NN>.txt``), one row of 9 comma-separated ADC counts per
sample at 200 Hz.  Column order: ADXL345 x/y/z, ITG3200 x/y/z,
MMA8451Q x/y/z.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 200
SAMPLE_PERIOD_S = 1.0 / SAMPLE_RATE_HZ

FALL_CODES = tuple(f"F{i:02d}" for i in range(1, 16))
ADL_CODES = tuple(f"D{i:02d}" for i in range(1, 20))
ACTIVITY_CODES = FALL_CODES + ADL_CODES

ADULT_SUBJECTS = tuple(f"SA{i:02d}" for i in range(1, 24))
ELDERLY_SUBJECTS = tuple(f"SE{i:02d}" for i in range(1, 16))
MAX_REPETITION = 5

# Per-sample labels.
BACKGROUND = 0
FALL = 1

_TRIAL_FILE_RE = re.compile(r"^([FD]\d{2})_(S[AE]\d{2})_R(\d{2})\.txt$")


class IngestError(ValueError):
    """Base class for corpus ingestion failures."""


class TrialParseError(IngestError):
    """Malformed trial file (bad row, wrong field count, empty file)."""


class CalibrationError(IngestError):
    """ADC count non-finite or outside the signed range of the sensor
    resolution."""


class AnnotationError(IngestError):
    """Invalid fall span (out of range, overlapping, or on an ADL trial)."""


class IntegrityError(IngestError):
    """Corpus-level inconsistency (missing profile, duplicate subject)."""


# ---------------------------------------------------------------------------
# Identifiers and metadata
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class TrialId:
    activity: str
    subject: str
    repetition: int

    def __post_init__(self):
        if self.activity not in ACTIVITY_CODES:
            raise IngestError(f"unknown activity code {self.activity!r}")
        if self.subject not in ADULT_SUBJECTS + ELDERLY_SUBJECTS:
            raise IngestError(f"unknown subject id {self.subject!r}")
        if not 1 <= self.repetition <= MAX_REPETITION:
            raise IngestError(f"repetition {self.repetition} outside "
                              f"[1, {MAX_REPETITION}]")

    @property
    def is_fall(self) -> bool:
        return self.activity.startswith("F")

    def __str__(self) -> str:
        return f"{self.activity}_{self.subject}_R{self.repetition:02d}"

    @classmethod
    def parse(cls, text: str) -> "TrialId":
        """Parse ``F01_SA05_R03`` (optionally with a .txt suffix)."""
        name = text if text.endswith(".txt") else text + ".txt"
        m = _TRIAL_FILE_RE.match(name)
        if m is None:
            raise IngestError(f"cannot parse trial id from {text!r}")
        return cls(m.group(1), m.group(2), int(m.group(3)))


@dataclass(frozen=True)
class SubjectProfile:
    subject_id: str
    age: float
    height_cm: float
    weight_kg: float
    gender: float  # 0.0 = F, 1.0 = M

    def __post_init__(self):
        if self.age <= 0 or self.height_cm <= 0 or self.weight_kg <= 0:
            raise IntegrityError(
                f"{self.subject_id}: age/height/weight must be positive")
        if self.gender not in (0.0, 1.0):
            raise IntegrityError(
                f"{self.subject_id}: gender must encode to 0.0 or 1.0")

    def static_vector(self) -> np.ndarray:
        """The four per-subject network inputs: age, height, weight, gender."""
        return np.array(
            [self.age, self.height_cm, self.weight_kg, self.gender])


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensorSpec:
    """Full-scale range (the +/- bound, in g or deg/s) and ADC bit depth."""

    full_scale: float
    resolution_bits: int

    def __post_init__(self):
        if not 0 < self.full_scale < math.inf:
            raise IngestError("sensor full scale must be positive and finite")
        if self.resolution_bits not in (13, 14, 16):
            raise IngestError(
                f"unsupported resolution {self.resolution_bits} bits")

    @property
    def scale(self) -> float:
        """Physical units per ADC count: 2*range / 2^bits."""
        return 2.0 * self.full_scale / float(2 ** self.resolution_bits)

    @property
    def count_range(self) -> tuple[int, int]:
        half = 2 ** (self.resolution_bits - 1)
        return (-half, half - 1)


@dataclass(frozen=True)
class CalibrationSpec:
    """Each sensor's full-scale range and bit depth, flat as the run
    config's ``calibration`` section holds them; the corpus defaults."""

    adxl345_range_g: float = 16.0
    adxl345_bits: int = 13
    itg3200_range_dps: float = 2000.0
    itg3200_bits: int = 16
    mma8451q_range_g: float = 8.0
    mma8451q_bits: int = 14

    def __post_init__(self):
        # a sensor that cannot calibrate fails here, not at the first trial
        self.adxl345, self.itg3200, self.mma8451q

    @property
    def adxl345(self) -> SensorSpec:
        return SensorSpec(self.adxl345_range_g, self.adxl345_bits)

    @property
    def itg3200(self) -> SensorSpec:
        return SensorSpec(self.itg3200_range_dps, self.itg3200_bits)

    @property
    def mma8451q(self) -> SensorSpec:
        return SensorSpec(self.mma8451q_range_g, self.mma8451q_bits)


@dataclass
class CalibratedTrial:
    trial_id: TrialId | None
    accel_adxl345: np.ndarray   # (N, 3) g
    gyro_itg3200: np.ndarray    # (N, 3) deg/s
    accel_mma8451q: np.ndarray  # (N, 3) g
    t: np.ndarray               # (N,) seconds

    def __len__(self) -> int:
        return self.accel_adxl345.shape[0]


def _check_counts(counts: np.ndarray, spec: SensorSpec, sensor: str) -> None:
    if not np.isfinite(counts).all():
        raise CalibrationError(f"{sensor}: non-finite counts")
    lo, hi = spec.count_range
    if counts.size and (counts.min() < lo or counts.max() > hi):
        raise CalibrationError(
            f"{sensor}: counts outside signed {spec.resolution_bits}-bit "
            f"range [{lo}, {hi}]")


def calibrate_trial(records: np.ndarray, spec: CalibrationSpec | None = None,
                    trial_id: TrialId | None = None) -> CalibratedTrial:
    """Vectorized conversion of an (N, 9) count matrix."""
    spec = spec or CalibrationSpec()
    records = np.asarray(records)
    if records.ndim != 2 or records.shape[1] != 9:
        raise CalibrationError(f"expected (N, 9) counts, got {records.shape}")
    _check_counts(records[:, 0:3], spec.adxl345, "ADXL345")
    _check_counts(records[:, 3:6], spec.itg3200, "ITG3200")
    _check_counts(records[:, 6:9], spec.mma8451q, "MMA8451Q")
    n = records.shape[0]
    return CalibratedTrial(
        trial_id=trial_id,
        accel_adxl345=records[:, 0:3] * spec.adxl345.scale,
        gyro_itg3200=records[:, 3:6] * spec.itg3200.scale,
        accel_mma8451q=records[:, 6:9] * spec.mma8451q.scale,
        t=np.arange(n) * SAMPLE_PERIOD_S,
    )


# ---------------------------------------------------------------------------
# Trial files
# ---------------------------------------------------------------------------

def parse_trial_file(data: bytes | str) -> np.ndarray:
    """Parse trial text into an (N, 9) int32 count matrix, in file order.

    A field is an optional sign followed by ASCII digits, within int32;
    spaces around it, trailing semicolons and blank lines are tolerated
    (all occur in the public distribution).  Raises TrialParseError with
    the 1-based line number on any malformed row.

    One pass over the whole text: each line is cleaned, the kept lines
    are joined and split into fields once, and ``int()`` reads every
    field.  Only a refused text is scanned again line by line
    (``_first_fault``), to name its first bad line.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TrialParseError(f"trial file is not text: {exc}") from None
    lines = [line.strip().rstrip(";").strip() for line in data.splitlines()]
    kept = list(filter(None, lines))
    # Each kept line after the first starts a field with its "\n", so the
    # lines hold 9 fields each iff there are 9 fields a line and every
    # ninth field starts one.  int() also reads digit-group underscores
    # and non-ASCII digits; it strips the whitespace str.strip() does
    # except "\x1f", the one such character a line can hold inside it.
    text = ",\n".join(kept)
    fields = text.replace("\x1f", " ").split(",")
    if (kept and "_" not in text and text.isascii()
            and len(fields) == 9 * len(kept)
            and "".join(fields[9::9]).count("\n") == len(kept) - 1):
        try:
            return np.fromiter(map(int, fields), np.int32,
                               len(fields)).reshape(-1, 9)
        except (ValueError, OverflowError):
            pass
    raise _first_fault(lines) from None


def _first_fault(lines: list[str]) -> TrialParseError:
    """The error of the first malformed one of these cleaned lines, else
    of the first row outside int32, else of an empty file."""
    info = np.iinfo(np.int32)
    out_of_range = None
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 9:
            return TrialParseError(
                f"line {lineno}: expected 9 fields, got {len(fields)}")
        try:
            if "_" in line or not line.isascii():
                raise ValueError
            row = [int(f) for f in fields]
        except ValueError:
            return TrialParseError(
                f"line {lineno}: non-integer field in {line!r}")
        if out_of_range is None and not (
                info.min <= min(row) <= max(row) <= info.max):
            out_of_range = TrialParseError(
                f"line {lineno}: count outside int32 in {row}")
    return out_of_range or TrialParseError("empty trial file")


def load_trial(path: Path | str,
               spec: CalibrationSpec | None = None) -> CalibratedTrial:
    path = Path(path)
    trial_id = TrialId.parse(path.name)
    try:
        raw = parse_trial_file(path.read_bytes())
    except TrialParseError as exc:
        raise TrialParseError(f"{path.name}: {exc}") from None
    return calibrate_trial(raw, spec, trial_id)


# ---------------------------------------------------------------------------
# Subject metadata
# ---------------------------------------------------------------------------

_GENDER_CODES = {"F": 0.0, "M": 1.0}


def load_subjects(path: Path | str) -> dict[str, SubjectProfile]:
    """Read the subject metadata CSV.

    Header: ``subject_id,age,height_cm,weight_kg,gender`` with gender given
    as F or M (encoded as 0.0 / 1.0).
    """
    path = Path(path)
    profiles: dict[str, SubjectProfile] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"subject_id", "age", "height_cm", "weight_kg", "gender"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise IntegrityError(
                f"{path.name}: expected header with {sorted(required)}")
        for row in reader:
            sid = row["subject_id"].strip()
            if sid in profiles:
                raise IntegrityError(f"duplicate subject id {sid!r}")
            gender = row["gender"].strip().upper()
            if gender not in _GENDER_CODES:
                raise IntegrityError(
                    f"{sid}: gender must be F or M, got {row['gender']!r}")
            try:
                profiles[sid] = SubjectProfile(
                    subject_id=sid,
                    age=float(row["age"]),
                    height_cm=float(row["height_cm"]),
                    weight_kg=float(row["weight_kg"]),
                    gender=_GENDER_CODES[gender],
                )
            except ValueError:
                raise IntegrityError(f"{sid}: non-numeric metadata") from None
    return profiles


def require_profile(profiles: dict[str, SubjectProfile],
                    trial_id: TrialId) -> SubjectProfile:
    try:
        return profiles[trial_id.subject]
    except KeyError:
        raise IntegrityError(
            f"trial {trial_id} has no subject profile") from None


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------

@dataclass
class AnnotatedTrial:
    trial: CalibratedTrial
    labels: np.ndarray  # (N,) uint8 in {BACKGROUND, FALL}

    @property
    def trial_id(self) -> TrialId:
        assert self.trial.trial_id is not None
        return self.trial.trial_id

    def __len__(self) -> int:
        return len(self.trial)

    def fall_span(self) -> tuple[int, int] | None:
        """(first, last) FALL-labeled index, or None."""
        idx = np.flatnonzero(self.labels == FALL)
        if idx.size == 0:
            return None
        return int(idx[0]), int(idx[-1])


def read_annotation_spans(path: Path | str) -> dict[str, tuple[int, int]]:
    """Read the normalized annotation CSV: ``trial_id,start_index,end_index``.

    Indices are 0-based inclusive.  At most one span per trial: the fall
    interval is contiguous by construction, and a second span for the same
    trial is rejected.
    """
    path = Path(path)
    spans: dict[str, tuple[int, int]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"trial_id", "start_index", "end_index"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise AnnotationError(
                f"{path.name}: expected header with {sorted(required)}")
        for row in reader:
            tid = row["trial_id"].strip()
            try:
                start, end = int(row["start_index"]), int(row["end_index"])
            except ValueError:
                raise AnnotationError(
                    f"{tid}: non-integer span indices") from None
            if start < 0 or end < start:
                raise AnnotationError(f"{tid}: invalid span [{start}, {end}]")
            if tid in spans:
                raise AnnotationError(
                    f"{tid}: multiple spans (fall label set must be one "
                    f"contiguous interval)")
            spans[tid] = (start, end)
    return spans


def annotate_trial(trial: CalibratedTrial,
                   span: tuple[int, int] | None) -> AnnotatedTrial:
    """Materialize per-sample labels from a fall span (or none)."""
    if trial.trial_id is None:
        raise AnnotationError("trial must carry a TrialId to be annotated")
    n = len(trial)
    labels = np.zeros(n, dtype=np.uint8)
    if span is not None:
        start, end = span
        if not trial.trial_id.is_fall:
            raise AnnotationError(
                f"{trial.trial_id}: fall span on an ADL trial")
        if start < 0 or end >= n or end < start:
            raise AnnotationError(
                f"{trial.trial_id}: span [{start}, {end}] outside "
                f"0..{n - 1}")
        labels[start:end + 1] = FALL
    return AnnotatedTrial(trial=trial, labels=labels)


# ---------------------------------------------------------------------------
# Corpus verification
# ---------------------------------------------------------------------------

@dataclass
class CorpusSummary:
    adl_trials: int = 0
    fall_trials: int = 0
    per_subject: dict[str, int] = field(default_factory=dict)
    per_activity: dict[str, int] = field(default_factory=dict)
    unreadable: list[str] = field(default_factory=list)
    extra_files: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def total_trials(self) -> int:
        return self.adl_trials + self.fall_trials


def verify_corpus(root: Path | str, deep: bool = False) -> CorpusSummary:
    """Count trials by class/subject/activity and flag anomalies.

    Missing repetitions (elderly subjects skipped some tasks) produce
    warnings, never errors.  With ``deep=True`` every file is fully parsed;
    otherwise a one-byte read checks readability.
    """
    root = Path(root)
    summary = CorpusSummary()
    if not root.is_dir():
        summary.warnings.append(f"corpus root {root} does not exist")
        return summary

    seen_reps: dict[tuple[str, str], set[int]] = {}
    subject_dirs = sorted(
        d for d in root.iterdir()
        if d.is_dir() and d.name in ADULT_SUBJECTS + ELDERLY_SUBJECTS)
    if not subject_dirs:
        summary.warnings.append(f"no subject folders under {root}")

    for sdir in subject_dirs:
        for f in sorted(sdir.iterdir()):
            if not f.is_file():
                continue
            m = _TRIAL_FILE_RE.match(f.name)
            if m is None:
                summary.extra_files.append(str(f.relative_to(root)))
                continue
            try:
                tid = TrialId(m.group(1), m.group(2), int(m.group(3)))
            except IngestError:
                summary.extra_files.append(str(f.relative_to(root)))
                continue
            if tid.subject != sdir.name:
                summary.extra_files.append(str(f.relative_to(root)))
                continue
            try:
                if deep:
                    parse_trial_file(f.read_bytes())
                else:
                    with open(f, "rb") as fh:
                        if not fh.read(1):
                            raise TrialParseError("empty trial file")
            except (OSError, TrialParseError) as exc:
                summary.unreadable.append(
                    f"{f.relative_to(root)}: {exc}")
                continue
            if tid.is_fall:
                summary.fall_trials += 1
            else:
                summary.adl_trials += 1
            summary.per_subject[tid.subject] = (
                summary.per_subject.get(tid.subject, 0) + 1)
            summary.per_activity[tid.activity] = (
                summary.per_activity.get(tid.activity, 0) + 1)
            seen_reps.setdefault(
                (tid.subject, tid.activity), set()).add(tid.repetition)

    for (subject, activity), reps in sorted(seen_reps.items()):
        gaps = sorted(set(range(1, MAX_REPETITION + 1)) - reps)
        if gaps:
            for r in gaps:
                summary.missing.append(f"{activity}_{subject}_R{r:02d}")
            summary.warnings.append(
                f"{subject} {activity}: repetitions {gaps} absent")
    return summary

"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is made here, before any timed
region: synthetic trials with the generator's exact ground truth, and the
on-disk corpus the train-eval workload runs the CLI over.  The same seed
gives the same bytes, and the ``digest_*`` functions fingerprint them, so
a change to the synthetic generator shows up as a changed workload rather
than a silent one.

Generator seeds are kept in disjoint ranges: the stored models were
trained on seeds below ``REPLAY_SEED_BASE // 2``; the probe falls sit at
``PROBE_SEED_BASE``; replayed trials draw from ``REPLAY_SEED_BASE``
upward.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fallsense.sisfall import SubjectProfile, TrialId
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial

# One wearer: the stored detector standardizes the static inputs over the
# training trials, which are all this wearer's.
WEARER = SubjectProfile("SA01", age=35.0, height_cm=180.0, weight_kg=75.0,
                        gender=1.0)
TRIAL_S = 5.0
PROBE_SEED_BASE = 500_000
REPLAY_SEED_BASE = 1_000_000

# The stream mix per round: seeded falls and ADLs plus two fixed probe
# falls.  Falls are a minority so the gated KAN runs on few samples.
STREAM_FALL_S = (0.6, 0.85)     # onset-to-impact time of the seeded falls
STREAM_WALKS = 3
STREAM_SITS = 3
PROBE_SPECS = (
    SyntheticSpec(kind="fall", duration_s=TRIAL_S, fall_onset_s=2.0,
                  impact_s=2.6, noise_g=0.006),
    SyntheticSpec(kind="fall", duration_s=TRIAL_S, fall_onset_s=1.8,
                  impact_s=2.7, noise_g=0.006),
)

# SisFall sensor conventions (full scale, ADC bits), used to write counts.
SENSORS = {"adxl345": (16.0, 13), "itg3200": (2000.0, 16),
           "mma8451q": (8.0, 14)}


@dataclass
class Trial:
    kind: str                 # "fall", "walk" or "sit"
    probe: bool               # fixed across seeds (impact-equivalence probe)
    generator_seed: int
    spec: SyntheticSpec
    annotated: object         # fallsense.sisfall.AnnotatedTrial
    truth: object             # fallsense.synthetic.SyntheticTruth

    @property
    def trial(self):
        return self.annotated.trial

    def __len__(self) -> int:
        return len(self.annotated)


def random_spec(kind: str, rng: np.random.Generator,
                duration_s: float = TRIAL_S,
                fall_s: float | None = None) -> SyntheticSpec:
    """One trial spec drawn from the benchmark's activity distribution.

    ``fall_s`` fixes the time from fall onset to impact; the workloads fix
    it so that the amount of work (flagged samples, segment records) is
    the same for every seed.
    """
    noise = float(rng.uniform(0.004, 0.008))
    walk_amp = float(rng.uniform(0.05, 0.10))
    walk_freq = float(rng.uniform(1.6, 2.2))
    if kind == "fall":
        onset = float(rng.uniform(0.3 * duration_s, duration_s - 2.5))
        drawn = float(rng.uniform(0.5, 1.0))
        impact = onset + (drawn if fall_s is None else fall_s)
        return SyntheticSpec(kind="fall", duration_s=duration_s,
                             fall_onset_s=onset, impact_s=impact,
                             noise_g=noise, walk_amp_g=walk_amp,
                             walk_freq_hz=walk_freq)
    return SyntheticSpec(kind=kind, duration_s=duration_s, noise_g=noise,
                         walk_amp_g=walk_amp, walk_freq_hz=walk_freq,
                         sit_tilt_rad=float(rng.uniform(0.3, 0.6)))


def make_trial(kind: str, spec: SyntheticSpec, generator_seed: int,
               trial_id: TrialId, probe: bool = False) -> Trial:
    annotated, truth = generate_synthetic_trial(
        spec, seed=generator_seed, trial_id=trial_id)
    return Trial(kind, probe, generator_seed, spec, annotated, truth)


def _activity_ids():
    falls = iter(f"F{i:02d}" for i in range(1, 16))
    adls = iter(f"D{i:02d}" for i in range(1, 20))
    return falls, adls


def stream_mix(seed: int) -> list[Trial]:
    """The replayed trials: seeded falls and ADLs, then the fixed probes."""
    rng = np.random.default_rng([seed, 1])
    falls, adls = _activity_ids()
    kinds = ([("fall", s) for s in STREAM_FALL_S]
             + [("walk", None)] * STREAM_WALKS + [("sit", None)] * STREAM_SITS)
    trials = []
    for kind, fall_s in kinds:
        spec = random_spec(kind, rng, fall_s=fall_s)
        gseed = REPLAY_SEED_BASE + int(rng.integers(0, 2 ** 30))
        act = next(falls) if kind == "fall" else next(adls)
        trials.append(make_trial(kind, spec, gseed,
                                 TrialId(act, WEARER.subject_id, 1)))
    for i, spec in enumerate(PROBE_SPECS):
        trials.append(make_trial("fall", spec, PROBE_SEED_BASE + i,
                                 TrialId(next(falls), WEARER.subject_id, 1),
                                 probe=True))
    return trials


# ---------------------------------------------------------------------------
# On-disk corpus for the train-eval workload
# ---------------------------------------------------------------------------

CORPUS_SUBJECTS = 2
# One fall activity per entry: (trial length, onset-to-impact time) in s.
# Unequal lengths make train-fdnn pad its batches, as the real corpus does.
CORPUS_FALLS = ((4.0, 0.6), (4.5, 0.9))
CORPUS_ADLS = ("walk", "sit")  # ADL activities per subject
CORPUS_REPETITIONS = 3        # >= 3, or cv-kan has no validation fold
CORPUS_TRIAL_S = 4.0
# The stream stage's trial: 1200 samples, about half a second of streaming
# per call; train-eval streams it five times a round (STREAM_REPEATS).
# 1100 samples follow the warm-up burst, so 11 lie beyond the p99.
HOLDOUT_TRIAL_S = 6.0
HOLDOUT_FALL_S = 0.75


def sensor_scale(name: str) -> float:
    full_scale, bits = SENSORS[name]
    return 2.0 * full_scale / 2 ** bits


def to_counts(values: np.ndarray, name: str) -> np.ndarray:
    bits = SENSORS[name][1]
    half = 2 ** (bits - 1)
    return np.clip(np.round(values / sensor_scale(name)),
                   -half, half - 1).astype(np.int64)


@dataclass
class CorpusTrial:
    trial_id: TrialId
    path: Path
    truth: object             # fallsense.synthetic.SyntheticTruth


def _write_trial(path: Path, spec: SyntheticSpec, generator_seed: int,
                 tid: TrialId) -> CorpusTrial:
    """Generate one trial and write it as ADC counts, one line per sample."""
    annotated, truth = generate_synthetic_trial(
        spec, seed=generator_seed, trial_id=tid)
    t = annotated.trial
    counts = np.hstack([to_counts(t.accel_adxl345, "adxl345"),
                        to_counts(t.gyro_itg3200, "itg3200"),
                        to_counts(t.accel_mma8451q, "mma8451q")])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(",".join(map(str, row)) + ";\n"
                            for row in counts))
    return CorpusTrial(tid, path, truth)


def write_corpus(out: Path, seed: int) -> tuple[list[CorpusTrial], dict]:
    """A small corpus in the trial-file layout, with per-trial truth.

    Returns the corpus trials and a dict of paths: ``corpus`` (the root),
    ``subjects`` and ``annotations`` (the CSVs) and ``holdout``, a longer
    fall trial outside the corpus root for the CLI ``stream`` stage.
    """
    rng = np.random.default_rng([seed, 2])
    corpus = out / "corpus"
    subject_rows = ["subject_id,age,height_cm,weight_kg,gender"]
    ann_rows = ["trial_id,start_index,end_index"]
    trials: list[CorpusTrial] = []
    for si in range(CORPUS_SUBJECTS):
        sid = f"SA{si + 1:02d}"
        subject_rows.append(
            f"{sid},{int(rng.integers(20, 60))},{int(rng.integers(150, 195))},"
            f"{int(rng.integers(50, 100))},{'MF'[si % 2]}")
        plan = [(f"F{a + 1:02d}", "fall", trial_s, fall_s)
                for a, (trial_s, fall_s) in enumerate(CORPUS_FALLS)]
        plan += [(f"D{a + 1:02d}", kind, CORPUS_TRIAL_S, None)
                 for a, kind in enumerate(CORPUS_ADLS)]
        for activity, kind, trial_s, fall_s in plan:
            spec = random_spec(kind, rng, trial_s, fall_s)
            for rep in range(1, CORPUS_REPETITIONS + 1):
                tid = TrialId(activity, sid, rep)
                gseed = REPLAY_SEED_BASE + int(rng.integers(0, 2 ** 30))
                trial = _write_trial(corpus / sid / f"{tid}.txt", spec,
                                     gseed, tid)
                if trial.truth.fall_span is not None:
                    ann_rows.append(f"{tid},{trial.truth.fall_span[0]},"
                                    f"{trial.truth.fall_span[1]}")
                trials.append(trial)
    holdout_id = TrialId("F15", "SA01", 5)
    holdout = _write_trial(
        out / "holdout" / f"{holdout_id}.txt",
        random_spec("fall", rng, HOLDOUT_TRIAL_S, HOLDOUT_FALL_S),
        REPLAY_SEED_BASE + int(rng.integers(0, 2 ** 30)), holdout_id)
    files = {"corpus": corpus, "subjects": out / "subjects.csv",
             "annotations": out / "annotations.csv", "holdout": holdout}
    files["subjects"].write_text("\n".join(subject_rows) + "\n")
    files["annotations"].write_text("\n".join(ann_rows) + "\n")
    return trials, files


# ---------------------------------------------------------------------------
# Input digest
# ---------------------------------------------------------------------------

def digest_trials(trials: list[Trial]) -> str:
    h = hashlib.sha256()
    for tr in trials:
        t = tr.trial
        h.update(str(t.trial_id).encode())
        for a in (t.accel_adxl345, t.gyro_itg3200, t.accel_mma8451q,
                  tr.annotated.labels):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def digest_files(paths: list[Path], root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]

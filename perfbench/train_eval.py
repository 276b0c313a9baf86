"""The train-eval workload: the researcher's corpus pipeline through the CLI.

One round runs, in this process and through ``fallsense.cli.dispatch``,
``features --jobs 1``, ``select``, ``train-fdnn``, ``eval-fdnn``,
``train-kan``, ``cv-kan`` over a two-candidate grid and ``eval-kan`` on a
seeded synthetic corpus (``pipeline_s`` spans these), then ``stream`` on
one held-out fall trial with the models the round trained, which gives the
stream metrics of this workload.  The outputs are checked against an own
parse of the trial files, the generator's ground truth and baselines the
benchmark computes itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import env
import inputs
import reference
import speed
from fallsense.cli import dispatch
from stream_replay import WARMUP

CONFIG = {
    # Learns on this corpus: over seeds 1-9, eval-fdnn gave fall TPR
    # 0.84-0.97 and ADL TNR 0.88-1.0.  With 6 epochs (12 Adam steps) at a
    # learning rate of 0.003 or 0.01 the fall TPR fell to 0.3-0.6 on some
    # seeds.
    "fdnn": {"epochs": 8, "batch_size": 4, "dropout_rate": 0.0,
             "learning_rate": 0.02, "seed": 0},
    "kan": {"epochs": 3, "seed": 0, "standardize_targets": True},
    "kan_grid": [{"q_outer_nodes": 32}, {"q_outer_nodes": 64}],
    # The generator's device convention: body up is +z.
    "orientation": {"body_up": [0.0, 0.0, 1.0]},
    # The stream stage evaluates the impact model on every sample, so its
    # latency does not hang on what the freshly trained detector flags.
    "stream": {"kan_gating": False},
}
# The stream stage runs this many times per round on the held-out trial:
# short calls, each bracketed by speed probes, scale better than one long
# one (speed.py).
STREAM_REPEATS = 5
STAGES = ("features", "select", "train-fdnn", "eval-fdnn", "train-kan",
          "cv-kan", "eval-kan")
TRACE_ROOTS = {f"cli.{s.replace('-', '_')}" for s in STAGES + ("stream",)}
# Filter quality against the generator's true tilt, in radians; over
# seeds 1-15 the worst trial had mean error 0.0015 and max error 0.026.
TILT_MEAN_ERR = 0.01
TILT_MAX_ERR = 0.1
# eval-fdnn floors, sample-pooled.  train-fdnn sees only fall trials, so
# ADL specificity is generalisation and varies most; the floors catch a
# detector that flags all or nothing, with room for seed-to-seed spread.
FALL_TPR_FLOOR = 0.5          # fall samples of the test-split fall trials
FALL_TNR_FLOOR = 0.9          # background samples of those trials
ADL_TNR_FLOOR = 0.5           # all ADL trials


@dataclass
class TrainEvalState:
    work: object              # pathlib.Path of this run's scratch tree
    files: dict
    trials: list
    counts: dict              # trial id -> independently parsed counts
    digest: str
    # One entry per recorded round; times at the reference speed
    # (speed.py), except ``pipeline_raw_s`` as measured.
    pipeline_s: list[float] = field(default_factory=list)
    pipeline_raw_s: list[float] = field(default_factory=list)
    stream_s: list[float] = field(default_factory=list)
    stream_lat: list[np.ndarray] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)


def setup_code() -> str:
    return "import fallsense.cli\n"


def prepare(seed: int) -> TrainEvalState:
    work = env.WORK / f"train-eval-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    trials, files = inputs.write_corpus(work / "input", seed)
    files["config"] = work / "input" / "config.json"
    files["config"].write_text(json.dumps(CONFIG))
    counts = {str(t.trial_id): reference.parse_counts(t.path) for t in trials}
    digest = inputs.digest_files(
        [p for p in (work / "input").rglob("*") if p.is_file()], work)
    return TrainEvalState(work, files, trials, counts, digest)


def describe(state: TrainEvalState) -> str:
    falls = sum(t.trial_id.is_fall for t in state.trials)
    samples = sum(len(t.truth.theta) for t in state.trials)
    return (f"corpus of {len(state.trials)} trials ({falls} falls, "
            f"{samples} samples), {inputs.CORPUS_SUBJECTS} subjects, "
            f"{inputs.CORPUS_REPETITIONS} repetitions; config {CONFIG}")


def cleanup(state: TrainEvalState) -> None:
    shutil.rmtree(state.work, ignore_errors=True)


def _argv(stage: str, files: dict, out) -> list[str]:
    cfg = ["--config", str(files["config"])]
    feats = ["--features", str(out / "features")]
    return {
        "features": ["features", *cfg, "--root", str(files["corpus"]),
                     "--subjects", str(files["subjects"]),
                     "--annotations", str(files["annotations"]),
                     "--jobs", "1", "--out", str(out / "features")],
        "select": ["select", *cfg, *feats, "--out", str(out / "select")],
        "train-fdnn": ["train-fdnn", *cfg, *feats, "--out", str(out / "fdnn")],
        "eval-fdnn": ["eval-fdnn", *cfg, *feats,
                      "--checkpoint", str(out / "fdnn" / "fdnn.ckpt"),
                      "--split-file", str(out / "fdnn" / "split.json"),
                      "--out", str(out / "fdnn_eval")],
        "train-kan": ["train-kan", *cfg, *feats, "--out", str(out / "kan")],
        "cv-kan": ["cv-kan", *cfg, *feats, "--out", str(out / "cv")],
        "eval-kan": ["eval-kan", *cfg, *feats,
                     "--checkpoint", str(out / "kan" / "kan.ckpt"),
                     "--out", str(out / "kan_eval")],
    }[stage]


def _stage(name: str, argv: list[str], ops, tracer) -> tuple[bool, float]:
    sid = tracer.open(f"cli.{name.replace('-', '_')}") if tracer else None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = dispatch(argv)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.close(sid)
    ops.check(f"stage.{name}", rc == 0, f"exit code {rc}")
    return rc == 0, wall


def run_round(state: TrainEvalState, ops, tracer=None,
              record=True) -> float:
    """One pass of the pipeline, then the stream stage STREAM_REPEATS
    times; returns their summed wall time.  A recorded round brackets
    every stage with speed probes and keeps its times at the reference
    speed."""
    out = state.work / "run"
    shutil.rmtree(out, ignore_errors=True)
    scaler = speed.Scaler() if record else None
    pipeline_s = scaled_s = 0.0
    for name in STAGES:
        _, wall = _stage(name, _argv(name, state.files, out), ops, tracer)
        pipeline_s += wall
        scaled_s += wall * (scaler.next() if scaler else 1.0)

    _check_outputs(state, out, ops)
    if record:
        state.pipeline_s.append(scaled_s)
        state.pipeline_raw_s.append(pipeline_s)

    trial = state.files["holdout"]
    total_s = pipeline_s
    for _ in range(STREAM_REPEATS):
        stream_ok, stream_s = _stage("stream", [
            "stream", "--config", str(state.files["config"]),
            "--fdnn", str(out / "fdnn" / "fdnn.ckpt"),
            "--kan", str(out / "kan" / "kan.ckpt"),
            "--trial", str(trial.path),
            "--subjects", str(state.files["subjects"]),
            "--mode", "fast", "--out", str(out / "stream")], ops, tracer)
        factor = scaler.next() if scaler else 1.0
        total_s += stream_s
        lat = _check_stream(out / "stream" / "events.csv",
                            len(trial.truth.theta), ops) if stream_ok else None
        if record and lat is not None:
            state.stream_s.append(stream_s * factor)
            state.stream_lat.append(lat[WARMUP:] * factor)
    if record:
        state.factors += scaler.factors
    return total_s


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _guarded(ops, kind: str, fn) -> None:
    """Run one output check; a missing or malformed output fails it."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ok, detail = False, repr(exc)
    ops.check(kind, ok, detail)


def _check_outputs(state: TrainEvalState, out, ops) -> None:
    frames_dir = out / "features" / "frames"
    scale = {name: inputs.sensor_scale(name) for name in inputs.SENSORS}
    for t in state.trials:
        tid = str(t.trial_id)

        def calibration(tid=tid):
            with np.load(frames_dir / f"{tid}.npz") as z:
                data = z["data"]
            c = state.counts[tid]
            ok = (np.array_equal(data[:, 4:7], c[:, 0:3] * scale["adxl345"])
                  and np.array_equal(data[:, 7:10],
                                     c[:, 6:9] * scale["mma8451q"])
                  and np.array_equal(data[:, 10:13],
                                     c[:, 3:6] * scale["itg3200"]))
            return ok, f"{tid}: sensor columns differ from counts x scale"

        def orientation(tid=tid, truth=t.truth):
            with np.load(frames_dir / f"{tid}.npz") as z:
                data = z["data"]
            norm_err = np.abs(np.linalg.norm(data[:, 13:17], axis=1) - 1.0)
            tilt_err = np.abs(data[:, 17] - truth.theta)
            ok = (norm_err.max() <= 1e-9 and tilt_err.mean() <= TILT_MEAN_ERR
                  and tilt_err.max() <= TILT_MAX_ERR)
            return ok, (f"{tid}: |q| error {norm_err.max():.2e}, tilt error "
                        f"mean {tilt_err.mean():.3f} max {tilt_err.max():.3f}")

        _guarded(ops, "calibration", calibration)
        _guarded(ops, "orientation", orientation)
        if t.truth.fall_span is not None:
            def segment(tid=tid, truth=t.truth):
                seg = json.loads(
                    (out / "features" / "segments" / f"{tid}.json").read_text())
                ok = (seg["start_index"] == truth.onset_index
                      and abs(seg["end_index"] - truth.impact_index) <= 1)
                return ok, (f"{tid}: segment {seg['start_index']}.."
                            f"{seg['end_index']}, truth {truth.onset_index}.."
                            f"{truth.impact_index}")
            _guarded(ops, "segment", segment)

    def fdnn_learns():
        rows = _read_csv(out / "fdnn" / "train_log.csv")
        first, last = float(rows[0]["train_loss"]), float(rows[-1]["train_loss"])
        return last < first, f"train loss {first:.4f} -> {last:.4f}"

    def fdnn_rates():
        m = json.loads((out / "fdnn_eval" / "metrics.json").read_text())
        ok = (m["fall_tpr_pooled"] >= FALL_TPR_FLOOR
              and m["fall_tnr_pooled"] >= FALL_TNR_FLOOR
              and m["adl_tnr_pooled"] >= ADL_TNR_FLOOR)
        return ok, (f"fall TPR {m['fall_tpr_pooled']:.3f}, fall TNR "
                    f"{m['fall_tnr_pooled']:.3f}, ADL TNR "
                    f"{m['adl_tnr_pooled']:.3f}")

    def kan_beats_mean():
        plan = json.loads((out / "kan" / "plan.json").read_text())
        targets = {"train": [], "test": []}
        for t in state.trials:
            if t.truth.fall_span is None:
                continue
            tid = t.trial_id
            roles = plan[f"{tid.subject}_{tid.activity}"]
            role = next((r for r in targets if tid.repetition in roles[r]),
                        None)
            if role is None:
                continue
            seg = json.loads(
                (out / "features" / "segments" / f"{tid}.json").read_text())
            n = seg["end_index"] - seg["start_index"] + 1
            targets[role].append(5.0 * np.arange(n - 1, -1, -1))
        train_mean = np.concatenate(targets["train"]).mean()
        test = np.concatenate(targets["test"])
        baseline = float(np.sqrt(np.mean((test - train_mean) ** 2)))
        got = json.loads(
            (out / "kan_eval" / "metrics.json").read_text())["tti_rmse_ms"]
        return got < baseline, (f"eval-kan RMSE {got:.1f} ms vs train-mean "
                                f"baseline {baseline:.1f} ms")

    def cv_table():
        rows = (out / "cv" / "cv_table.csv").read_text().strip().splitlines()
        return (len(rows) - 1 == len(CONFIG["kan_grid"]),
                f"{len(rows) - 1} cv rows")

    _guarded(ops, "fdnn_learns", fdnn_learns)
    _guarded(ops, "fdnn_rates", fdnn_rates)
    _guarded(ops, "kan_beats_mean", kan_beats_mean)
    _guarded(ops, "cv_table", cv_table)


def _check_stream(events_csv, n: int, ops):
    """Checks the stream stage's events; returns their latencies (us)."""
    result = {}

    def stream_events():
        rows = _read_csv(events_csv)
        index = np.array([int(r["index"]) for r in rows])
        p = np.array([float(r["p_falling"]) for r in rows])
        has_tti = np.array([r["tti_ms"] != "" for r in rows])
        tti = np.array([float(r["tti_ms"]) for r in rows if r["tti_ms"]])
        result["lat"] = np.array([float(r["latency_us"]) for r in rows])
        ok = (np.array_equal(index, np.arange(n)) and np.all(np.isfinite(p))
              and np.all((p >= 0) & (p <= 1))
              and np.all(has_tti) and np.all(tti >= 0))
        return ok, f"{events_csv.name}: event invariants"

    _guarded(ops, "stream_events", stream_events)
    return result.get("lat")


def end_to_end(state: TrainEvalState) -> dict[str, float]:
    """At the reference speed: medians over the recorded rounds, and
    latency percentiles over the samples' medians (as on the stream
    workloads)."""
    samples = len(state.files["holdout"].truth.theta)
    p50, p99 = np.percentile(np.median(state.stream_lat, axis=0), [50, 99])
    return {
        "stream_samples_per_s": samples / float(np.median(state.stream_s)),
        "sample_latency_p50_us": float(p50),
        "sample_latency_p99_us": float(p99),
        "pipeline_s": float(np.median(state.pipeline_s)),
    }


def notes(state: TrainEvalState) -> list[str]:
    return [f"pipeline walls at reference speed (s): "
            f"{' '.join(f'{r:.3f}' for r in state.pipeline_s)}",
            f"pipeline walls as measured (s): "
            f"{' '.join(f'{r:.3f}' for r in state.pipeline_raw_s)}",
            speed.summary(state.factors),
            f"stream stage walls (s), p50/p99 (us), at reference speed: "
            + " ".join(f"{w:.3f} {a:.1f}/{b:.1f}" for w, (a, b) in zip(
                state.stream_s, (np.percentile(r, [50, 99])
                                 for r in state.stream_lat)))]

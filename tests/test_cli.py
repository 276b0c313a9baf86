"""End-to-end CLI test: synth -> features -> train -> eval -> report.

Uses a small synthetic corpus and fast model configs so the whole chain
runs in seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fallsense import fdnn, kan, pipeline
from fallsense.cli import build_parser, dispatch
from fallsense.config import dump_config, load_config
from fallsense.evaluation import confusion
from fallsense.features import (
    FeatureFrames,
    load_frames,
    load_segment,
    save_frames,
)
from fallsense.sisfall import TrialId

FAST_CONFIG = {
    "fdnn": {"epochs": 6, "batch_size": 4, "dropout_rate": 0.0,
             "learning_rate": 0.003, "seed": 0},
    "kan": {"epochs": 2, "seed": 0},
    "synth": {"subjects": 2, "falls_per_subject": 2, "adls_per_subject": 2,
              "repetitions": 5, "duration_s": 6.0},
    # synthetic trials are generated in the module's device convention
    # (body up = +z), not the corpus mounting
    "orientation": {"body_up": [0.0, 0.0, 1.0]},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(FAST_CONFIG))
    return root, config


@pytest.fixture(scope="module")
def synth_dir(workspace):
    root, config = workspace
    out = root / "synth"
    assert dispatch(["synth", "--config", str(config), "--seed", "7",
                     "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def features_dir(workspace, synth_dir):
    root, config = workspace
    out = root / "features"
    rc = dispatch([
        "features", "--config", str(config),
        "--root", str(synth_dir / "corpus"),
        "--subjects", str(synth_dir / "subjects.csv"),
        "--annotations", str(synth_dir / "annotations.csv"),
        "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fdnn_dir(workspace, features_dir):
    root, config = workspace
    out = root / "fdnn"
    rc = dispatch(["train-fdnn", "--config", str(config),
                   "--features", str(features_dir), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def kan_dir(workspace, features_dir):
    root, config = workspace
    out = root / "kan"
    rc = dispatch(["train-kan", "--config", str(config),
                   "--features", str(features_dir), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fdnn_eval_dir(workspace, features_dir, fdnn_dir):
    root, config = workspace
    out = root / "fdnn_eval"
    rc = dispatch(["eval-fdnn", "--config", str(config),
                   "--features", str(features_dir),
                   "--checkpoint", str(fdnn_dir / "fdnn.ckpt"),
                   "--split-file", str(fdnn_dir / "split.json"),
                   "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def kan_eval_dir(workspace, features_dir, kan_dir):
    root, config = workspace
    out = root / "kan_eval"
    rc = dispatch(["eval-kan", "--config", str(config),
                   "--features", str(features_dir),
                   "--checkpoint", str(kan_dir / "kan.ckpt"),
                   "--out", str(out)])
    assert rc == 0
    return out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert dispatch([]) == 1

    def test_unknown_subcommand(self):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        rc = dispatch(["features", "--root", str(tmp_path / "nope"),
                       "--subjects", str(tmp_path / "s.csv"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_bad_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kan": {"mu": 5.0}}')
        rc = dispatch(["synth", "--config", str(bad),
                       "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_unrunnable_filter_config_is_validation_error(self, tmp_path):
        # accel_noise 0 would make the filter's innovation covariance
        # singular at the first accepted accelerometer sample
        bad = tmp_path / "bad.json"
        bad.write_text('{"orientation": {"accel_noise": 0.0}}')
        rc = dispatch(["synth", "--config", str(bad),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_unwritable_synth_config_is_validation_error(self, tmp_path):
        # fall onsets are drawn from U(2 s, duration - 3 s): a 2 s trial
        # has none, and fails before any corpus file is written
        bad = tmp_path / "bad.json"
        bad.write_text('{"synth": {"duration_s": 2.0}}')
        rc = dispatch(["synth", "--config", str(bad),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_unusable_stream_config_is_validation_error(self, tmp_path):
        # a NaN deadline would report no miss for any latency
        bad = tmp_path / "bad.json"
        bad.write_text('{"stream": {"deadline_us": NaN}}')
        rc = dispatch(["stream", "--config", str(bad),
                       "--fdnn", str(tmp_path / "d.ckpt"),
                       "--kan", str(tmp_path / "k.ckpt"),
                       "--trial", str(tmp_path / "F01_SA01_R01.txt"),
                       "--subjects", str(tmp_path / "s.csv"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_kan_feature_is_validation_error(self, tmp_path):
        # features would fail only at the first fall segment, after
        # creating its frames/ and segments/ folders
        bad = tmp_path / "bad.json"
        bad.write_text('{"selection": {"kan_features": ["bogus"]}}')
        rc = dispatch(["features", "--config", str(bad),
                       "--root", str(tmp_path / "corpus"),
                       "--subjects", str(tmp_path / "s.csv"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("seed_args, text", [
        (["--seed", "-1"], None),
        ([], '{"seed": -1}'),
        ([], '{"split": {"seed": -1}}'),
        ([], '{"fdnn": {"seed": -1}}'),
        ([], '{"kan": {"seed": -1}}'),
    ], ids=["flag", "top", "split", "fdnn", "kan"])
    def test_negative_seed_is_validation_error(self, tmp_path, capsys,
                                               seed_args, text):
        # NumPy's generators refuse a negative seed only once a command
        # runs, after --out exists
        config = []
        if text is not None:
            (tmp_path / "c.json").write_text(text)
            config = ["--config", str(tmp_path / "c.json")]
        rc = dispatch(["synth", *config, *seed_args,
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

# Every subcommand, in the order the top-level help lists them.
ALL_COMMANDS = ("verify", "features", "select", "train-fdnn", "eval-fdnn",
                "train-kan", "cv-kan", "eval-kan", "trace", "stream",
                "synth", "report")


class TestParserPerCommand:
    """``dispatch`` builds only the named command's parser; what it
    prints reads as it does from the parser with every command."""

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_command_help(self, command, capsys):
        assert dispatch([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(
            f"usage: fallsense {command} ")

    def test_top_level_help_lists_every_command(self, capsys):
        assert dispatch(["--help"]) == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(ALL_COMMANDS) + "}" in out
        section = out.split("positional arguments:\n")[1].split("\n\n")[0]
        listed = [line.split()[0] for line in section.splitlines()
                  if line.startswith("    ")]
        assert listed == list(ALL_COMMANDS)

    @pytest.mark.parametrize("argv, message", [
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["stream", "--mode", "slow"],
         "argument --mode: invalid choice: 'slow'"),
        (["stream", "--out", "o", "--fdnn", "d", "--kan", "k", "--trial",
          "t", "--subjects", "s", "--mode", "slow"],
         "argument --mode: invalid choice: 'slow'"),
        # left over after the command: the top-level parser's error
        (["stream", "--out", "o", "--fdnn", "d", "--kan", "k", "--trial",
          "t", "--subjects", "s", "extra"], "unrecognized arguments: extra"),
    ], ids=["unknown_command", "bad_mode", "bad_mode_full", "extra"])
    def test_errors_read_as_from_the_whole_parser(self, argv, message,
                                                   capsys):
        assert dispatch(argv) == 1
        got = capsys.readouterr()
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        assert message in got.err
        assert (got.out, got.err) == (want.out, want.err)


class TestSynth:
    def test_outputs(self, synth_dir):
        assert (synth_dir / "corpus").is_dir()
        assert (synth_dir / "subjects.csv").is_file()
        assert (synth_dir / "annotations.csv").is_file()
        assert (synth_dir / "truth.json").is_file()
        assert (synth_dir / "resolved_config.json").is_file()

    def test_deterministic(self, workspace):
        root, config = workspace
        a, b = root / "synth_a", root / "synth_b"
        for out in (a, b):
            assert dispatch(["synth", "--config", str(config), "--seed",
                             "9", "--out", str(out)]) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_verify_counts_synth(self, synth_dir, capsys):
        assert dispatch(["verify", str(synth_dir / "corpus")]) == 0
        out = capsys.readouterr().out
        assert "Fall trials: 20" in out   # 2 subjects x 2 falls x 5 reps
        assert "ADL trials:  20" in out


class TestFeatures:
    def test_outputs(self, features_dir):
        frames = list((features_dir / "frames").glob("*.npz"))
        segments = list((features_dir / "segments").glob("*.json"))
        assert len(frames) == 40
        assert len(segments) == 20  # fall trials only
        assert (features_dir / "index.csv").is_file()

    def test_segment_matches_truth(self, features_dir, synth_dir):
        from fallsense.features import load_segment
        truth = json.loads((synth_dir / "truth.json").read_text())
        for tid, entry in truth.items():
            seg = load_segment(features_dir / "segments" / f"{tid}.json")
            assert seg.start_index == entry["onset_index"]
            assert abs(seg.end_index - entry["impact_index"]) <= 1


class TestMisplacedTrialFile:
    def test_trial_outside_its_subject_folder_is_refused(
            self, workspace, synth_dir, tmp_path, capsys):
        """A copy of one subject's trial in another's folder would be
        read with the other subject's profile and written twice."""
        _, config = workspace
        corpus = tmp_path / "corpus"
        shutil.copytree(synth_dir / "corpus", corpus)
        first, second = sorted(p for p in corpus.iterdir() if p.is_dir())[:2]
        stray = first / sorted(second.glob("*.txt"))[0].name
        shutil.copy(second / stray.name, stray)
        rc = dispatch([
            "features", "--config", str(config), "--root", str(corpus),
            "--subjects", str(synth_dir / "subjects.csv"),
            "--annotations", str(synth_dir / "annotations.csv"),
            "--jobs", "1", "--out", str(tmp_path / "features")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(stray) in err
        assert not (tmp_path / "features" / "index.csv").exists()


class TestCorruptFeatureFiles:
    """A feature file that lacks a field stops the stages that read it
    with ``error:`` naming the file, not a traceback."""

    def _copy(self, features_dir, tmp_path):
        features = tmp_path / "features"
        shutil.copytree(features_dir, features)
        return features

    def test_segment_without_targets(self, workspace, features_dir,
                                     tmp_path, capsys):
        _, config = workspace
        features = self._copy(features_dir, tmp_path)
        segment = sorted((features / "segments").glob("*.json"))[0]
        payload = json.loads(segment.read_text())
        del payload["tti_ms"]
        segment.write_text(json.dumps(payload))
        for command in ("select", "train-kan"):
            rc = dispatch([command, "--config", str(config),
                           "--features", str(features),
                           "--out", str(tmp_path / command)])
            assert rc == 1, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(segment) in err
            assert "tti_ms" in err

    def test_frames_without_labels(self, workspace, features_dir, fdnn_dir,
                                   tmp_path, capsys):
        _, config = workspace
        features = self._copy(features_dir, tmp_path)
        frames = sorted((features / "frames").glob("*.npz"))[0]
        with np.load(frames) as z:
            kept = {k: z[k] for k in z.files if k != "labels"}
        np.savez(frames, **kept)
        rc = dispatch(["eval-fdnn", "--config", str(config),
                       "--features", str(features),
                       "--checkpoint", str(fdnn_dir / "fdnn.ckpt"),
                       "--out", str(tmp_path / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(frames) in err
        assert "labels" in err


class TestParallelIngestion:
    def test_parallel_matches_sequential_bytes(self, workspace, synth_dir):
        root, config = workspace
        outs = []
        for jobs, name in ((1, "seq"), (3, "par")):
            out = root / f"features_{name}"
            rc = dispatch([
                "features", "--config", str(config),
                "--root", str(synth_dir / "corpus"),
                "--subjects", str(synth_dir / "subjects.csv"),
                "--annotations", str(synth_dir / "annotations.csv"),
                "--jobs", str(jobs), "--out", str(out)])
            assert rc == 0
            outs.append(out)
        seq, par = outs
        rel = sorted(p.relative_to(seq) for p in seq.rglob("*")
                     if p.is_file())
        assert rel == sorted(p.relative_to(par) for p in par.rglob("*")
                             if p.is_file())
        for r in rel:
            assert (seq / r).read_bytes() == (par / r).read_bytes(), r


class TestSelect:
    def test_selection_report(self, workspace, features_dir):
        root, config = workspace
        out = root / "select"
        rc = dispatch(["select", "--config", str(config),
                       "--features", str(features_dir), "--out", str(out)])
        assert rc == 0
        text = (out / "selection.csv").read_text()
        assert text.startswith(
            "feature,correlation,mrmr_rank,relevance,redundancy,chosen")
        # all 19 signals audited
        assert len(text.strip().splitlines()) == 20


class TestTrainEvalFdnn:
    def test_artifacts(self, fdnn_dir):
        assert (fdnn_dir / "fdnn.ckpt").is_file()
        assert (fdnn_dir / "train_log.csv").is_file()
        lines = (fdnn_dir / "train_log.csv").read_text().splitlines()
        assert lines[0] == ("epoch,train_loss,val_accuracy,wall_seconds,"
                            "grad_norm_mean,grad_norm_max,clipped_fraction")
        assert len(lines) > 1
        for line in lines[1:]:
            _, _, _, _, norm_mean, norm_max, clipped = line.split(",")
            assert 0.0 < float(norm_mean) <= float(norm_max) < float("inf")
            assert 0.0 <= float(clipped) <= 1.0
        split = json.loads((fdnn_dir / "split.json").read_text())
        assert set(split) == {"train", "validation", "test"}
        n = sum(len(v) for v in split.values())
        assert n == 20

    def test_eval(self, fdnn_eval_dir):
        out = fdnn_eval_dir
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"fall_tpr_avg", "fall_tnr_avg", "adl_tnr_avg",
                "fall_tpr_pooled", "fall_tnr_pooled",
                "adl_tnr_pooled"} <= set(metrics)
        assert (out / "fall_tpr.csv").is_file()
        assert (out / "adl_tnr.csv").is_file()
        # separable synthetic data: the detector should do well
        assert metrics["fall_tpr_avg"] > 0.7
        assert metrics["adl_tnr_avg"] > 0.9
        assert metrics["fall_tpr_pooled"] > 0.7


def _cell_average(values: dict) -> float:
    """A metric table's average: each (subject, activity) cell's mean over
    its repetitions, then the mean over the cells, in table order."""
    cells = {}
    for tid in sorted(values, key=lambda t: (t.subject, t.activity)):
        if values[tid] is not None:
            cells.setdefault((tid.subject, tid.activity), []).append(
                values[tid])
    return float(np.mean([float(np.mean(v)) for v in cells.values()]))


class TestEvalFiguresRecomputed:
    """Every figure of eval-fdnn's and eval-kan's metrics.json, recomputed
    trial by trial from the models' own one-trial predictions."""

    def test_eval_fdnn(self, features_dir, fdnn_dir, fdnn_eval_dir):
        params, config, stats, _ = fdnn.load_checkpoint(
            fdnn_dir / "fdnn.ckpt")
        split = json.loads((fdnn_dir / "split.json").read_text())
        index = [line.split(",")[0] for line in
                 (features_dir / "index.csv").read_text().splitlines()[1:]]
        groups = {"fall": split["test"],
                  "adl": [t for t in index if t.startswith("D")]}
        counts = {}
        for group, ids in groups.items():
            counts[group] = {}
            for tid in ids:
                ex = pipeline.frames_to_example(
                    load_frames(features_dir / "frames" / f"{tid}.npz"), stats)
                trace = fdnn.predict_trace(params, config, ex.static,
                                           ex.sequence)
                counts[group][TrialId.parse(tid)] = confusion(
                    trace.decisions, ex.labels)

        def tpr(c):
            return c.tp / (c.tp + c.fn) if c.tp + c.fn else None

        def tnr(c):
            return c.tn / (c.tn + c.fp) if c.tn + c.fp else None

        fall, adl = list(counts["fall"].values()), list(counts["adl"].values())
        want = {
            "fall_tpr_avg": _cell_average(
                {t: tpr(c) for t, c in counts["fall"].items()}),
            "fall_tnr_avg": _cell_average(
                {t: tnr(c) for t, c in counts["fall"].items()}),
            "adl_tnr_avg": _cell_average(
                {t: tnr(c) for t, c in counts["adl"].items()}),
            "fall_tpr_pooled": sum(c.tp for c in fall)
            / sum(c.tp + c.fn for c in fall),
            "fall_tnr_pooled": sum(c.tn for c in fall)
            / sum(c.tn + c.fp for c in fall),
            "adl_tnr_pooled": sum(c.tn for c in adl)
            / sum(c.tn + c.fp for c in adl),
            "n_fall_trials": len(fall),
            "n_adl_trials": len(adl),
        }
        got = json.loads((fdnn_eval_dir / "metrics.json").read_text())
        assert got == want

    def test_eval_kan(self, workspace, features_dir, kan_dir, kan_eval_dir):
        _, config = workspace
        model = kan.load_checkpoint(kan_dir / "kan.ckpt")
        segments = [load_segment(p) for p in
                    sorted((features_dir / "segments").glob("*.json"))]
        plan = kan.build_cv_plan([s.trial_id for s in segments],
                                 seed=load_config(config).split.seed)
        test = plan.segments_in(segments, "test")
        errors = np.concatenate([kan.predict_segment(model, s) - s.tti_ms
                                 for s in test])
        got = json.loads((kan_eval_dir / "metrics.json").read_text())
        assert got == {"tti_rmse_ms": float(np.sqrt(np.mean(errors ** 2))),
                       "n_segments": len(test)}


def _unequal_features(features_dir: Path, out: Path) -> Path:
    """A copy of the feature set with each trial cut to its own length."""
    (out / "frames").mkdir(parents=True)
    lines = (features_dir / "index.csv").read_text().splitlines()
    rows = [lines[0]]
    for k, line in enumerate(lines[1:]):
        tid, *rest, n, has_fall = line.split(",")
        frames = load_frames(features_dir / "frames" / f"{tid}.npz")
        n = int(n) - 41 * (k % 7)
        save_frames(out / "frames" / f"{tid}.npz", FeatureFrames(
            frames.trial_id, frames.data[:n], frames.labels[:n]))
        rows.append(",".join([tid, *rest, str(n), has_fall]))
    (out / "index.csv").write_text("\n".join(rows) + "\n")
    return out


class TestEvalFdnnScansTogether:
    def test_files_equal_per_trial_reference(self, workspace, features_dir,
                                             fdnn_dir, tmp_path, monkeypatch):
        """eval-fdnn scores its trials in padded chunks of rows; every file
        it writes is byte for byte that of scoring each trial alone with
        predict_trace.  Three rows to a chunk spread the trials of unequal
        length over many chunks."""
        _, config = workspace
        features = _unequal_features(features_dir, tmp_path / "features")
        args = ["eval-fdnn", "--config", str(config),
                "--features", str(features),
                "--checkpoint", str(fdnn_dir / "fdnn.ckpt"),
                "--split-file", str(fdnn_dir / "split.json")]
        monkeypatch.setattr(fdnn, "SCAN_ROWS", 3)
        assert dispatch([*args, "--out", str(tmp_path / "together")]) == 0

        def each_alone(params, config, examples):
            return [fdnn.predict_trace(params, config, e.static, e.sequence)
                    for e in examples]
        monkeypatch.setattr(fdnn, "predict_traces", each_alone)
        assert dispatch([*args, "--out", str(tmp_path / "alone")]) == 0

        metrics = json.loads((tmp_path / "alone" / "metrics.json").read_text())
        assert metrics["n_fall_trials"] >= 3 and metrics["n_adl_trials"] >= 3
        for name in ("metrics.json", "fall_tpr.csv", "fall_tnr.csv",
                     "adl_tnr.csv"):
            assert ((tmp_path / "together" / name).read_bytes()
                    == (tmp_path / "alone" / name).read_bytes()), name


class TestEvalFdnnSplitFile:
    @pytest.mark.parametrize("text", [
        '{"train": [], "validation": []}', '{"test": ["F01_SA01_R01", 7]}',
        '["F01_SA01_R01"]', '{"test": ["F15_SE15_R05"]}'],
        ids=["no_split", "non_string_id", "not_object", "not_in_index"])
    def test_bad_split_file_is_refused(self, workspace, features_dir,
                                       fdnn_dir, tmp_path, capsys, text):
        _, config = workspace
        split = tmp_path / "split.json"
        split.write_text(text)
        out = tmp_path / "out"
        rc = dispatch(["eval-fdnn", "--config", str(config),
                       "--features", str(features_dir),
                       "--checkpoint", str(fdnn_dir / "fdnn.ckpt"),
                       "--split-file", str(split), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.is_dir() and not any(out.iterdir())


def _traced_peak(argv: list[str]) -> int:
    """The tracemalloc peak of one CLI run, in bytes above what was held
    before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert dispatch(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def corpus_sizes(workspace, tmp_path_factory):
    """Feature sets of 20 and 80 trials, and the tracemalloc peak of the
    ``features`` run that wrote each.  The trials are copies of one
    synthetic fall (its first 3.5 s, past the impact) and one ADL (its
    first 1.5 s) under the names of SA01's first 2 (or 8) fall and ADL
    codes, 5 repetitions each.  Under tracemalloc the orientation filter's
    per-sample loop runs about 80 times slower, so the traced runs take a
    stand-in (identity quaternions); the filter holds one trial either
    way."""
    _, config = workspace
    root = tmp_path_factory.mktemp("corpus_sizes")
    cfg = json.loads(config.read_text())
    cfg["synth"] = {"subjects": 1, "falls_per_subject": 1,
                    "adls_per_subject": 1, "repetitions": 1,
                    "duration_s": 5.0}
    (root / "config.json").write_text(json.dumps(cfg))
    config = str(root / "config.json")
    synth = root / "synth"
    assert dispatch(["synth", "--config", config, "--seed", "5",
                     "--out", str(synth)]) == 0
    fall, adl = (b"".join((synth / "corpus" / "SA01" / f"{code}_SA01_R01.txt")
                          .read_bytes().splitlines(keepends=True)[:rows])
                 for code, rows in (("F01", 700), ("D01", 300)))
    span = (synth / "annotations.csv").read_text().splitlines()[1]
    span = span.split(",", 1)[1]
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "estimate_orientation",
                   lambda accel, gyro, config=None:
                   np.tile([1.0, 0.0, 0.0, 0.0], (len(accel), 1)))
        for n in (20, 80):
            corpus = root / f"corpus{n}"
            (corpus / "SA01").mkdir(parents=True)
            spans = ["trial_id,start_index,end_index"]
            for code in range(1, n // 10 + 1):
                for rep in range(1, 6):
                    tid = f"F{code:02d}_SA01_R{rep:02d}"
                    (corpus / "SA01" / f"{tid}.txt").write_bytes(fall)
                    (corpus / "SA01" / f"D{tid[1:]}.txt").write_bytes(adl)
                    spans.append(f"{tid},{span}")
            (corpus / "annotations.csv").write_text("\n".join(spans) + "\n")
            out = root / f"features{n}"
            peak = _traced_peak([
                "features", "--config", config, "--root", str(corpus),
                "--subjects", str(synth / "subjects.csv"),
                "--annotations", str(corpus / "annotations.csv"),
                "--jobs", "1", "--out", str(out)])
            assert len(list((out / "frames").glob("*.npz"))) == n
            runs[n] = (out, peak)
    return config, runs


class TestCorpusStagesHoldOneTrial:
    """``features`` writes each trial when it is done and ``eval-fdnn``
    loads one padded scan's trials at a time, so neither traced peak grows
    with the trial count: from 20 to 80 trials each may rise by 0.5 MiB
    (measured: 0.01 and 0.22 MiB, the latter each trial's score and index
    row).  Holding every trial, as both stages once did, they rose by 4.8
    and 9.5 MiB."""

    GROWTH = 2**19

    def test_features(self, corpus_sizes):
        _, runs = corpus_sizes
        (_, small), (_, large) = runs[20], runs[80]
        assert large <= small + self.GROWTH, f"{small} -> {large} bytes"

    def test_eval_fdnn(self, corpus_sizes, fdnn_dir, tmp_path, monkeypatch):
        # Scans of 8 rows, so both sizes fill whole scans.
        config, runs = corpus_sizes
        monkeypatch.setattr(fdnn, "SCAN_ROWS", 8)
        small, large = (_traced_peak([
            "eval-fdnn", "--config", config, "--features", str(runs[n][0]),
            "--checkpoint", str(fdnn_dir / "fdnn.ckpt"),
            "--out", str(tmp_path / f"eval{n}")]) for n in (20, 80))
        metrics = json.loads((tmp_path / "eval80" / "metrics.json")
                             .read_text())
        assert metrics["n_fall_trials"] + metrics["n_adl_trials"] == 80
        assert large <= small + self.GROWTH, f"{small} -> {large} bytes"


class TestTrainEvalKan:
    def test_artifacts(self, kan_dir):
        assert (kan_dir / "kan.ckpt").is_file()
        assert (kan_dir / "plan.json").is_file()
        lines = (kan_dir / "fit_log.csv").read_text().splitlines()
        assert lines[0] == ("epoch,train_rmse,val_rmse,degenerate,"
                            "mean_abs_residual")
        for line in lines[1:]:
            epoch, _, _, degenerate, residual = line.split(",")
            assert int(degenerate) >= 0
            assert 0.0 < float(residual) < float("inf")

    def test_eval_and_trace(self, workspace, features_dir, kan_dir,
                            kan_eval_dir):
        root, config = workspace
        out = kan_eval_dir
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["tti_rmse_ms"] is not None
        assert (out / "rmse_heatmap.csv").is_file()

        seg = sorted((features_dir / "segments").glob("*.json"))[0]
        trial_id = seg.stem
        trace_out = root / "trace"
        rc = dispatch(["trace", "--config", str(config),
                       "--features", str(features_dir),
                       "--checkpoint", str(kan_dir / "kan.ckpt"),
                       "--trial", trial_id, "--out", str(trace_out)])
        assert rc == 0
        assert (trace_out / f"trajectory_{trial_id}.csv").is_file()
        assert (trace_out / f"trajectory_{trial_id}.svg").is_file()

    @pytest.mark.parametrize("command, text", [
        ("train-kan", '{"kan": {"epochs": 0}}'),
        ("train-kan", '{"kan": {"inner_span": 0}}'),
        ("train-kan", '{"kan": {"init_scale": NaN}}'),
        ("train-kan", '{"kan": {"damping": -1.0}}'),
        ("cv-kan", '{"kan_grid": [{"mu": 0.25}, {"epochs": 0}]}'),
    ], ids=["epochs_zero", "span_zero", "init_nan", "damping_negative",
            "grid_epochs_zero"])
    def test_unfittable_config_is_validation_error(self, tmp_path,
                                                   features_dir, command,
                                                   text):
        # each once loaded: epochs 0 failed after writing kan.ckpt,
        # fit_log.csv and plan.json, and inner_span 0 wrote a kan.ckpt
        # that eval-kan refuses
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        rc = dispatch([command, "--config", str(bad),
                       "--features", str(features_dir), "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_cv_kan(self, workspace, features_dir):
        root, config_path = workspace
        cfg = json.loads(config_path.read_text())
        cfg["kan_grid"] = [{"mu": 0.0625}, {"mu": 0.25}]
        grid_config = root / "grid_config.json"
        grid_config.write_text(json.dumps(cfg))
        out = root / "cv"
        rc = dispatch(["cv-kan", "--config", str(grid_config),
                       "--features", str(features_dir), "--out", str(out)])
        assert rc == 0
        table = (out / "cv_table.csv").read_text().strip().splitlines()
        assert len(table) == 3
        best = json.loads((out / "best_config.json").read_text())
        assert best["mu"] in (0.0625, 0.25)


class TestStreamAndReport:
    def test_stream_cli(self, workspace, synth_dir, features_dir, fdnn_dir,
                        kan_dir):
        root, config = workspace
        trial = sorted((synth_dir / "corpus" / "SA01").glob("F*.txt"))[0]
        out = root / "stream"
        rc = dispatch(["stream", "--config", str(config),
                       "--fdnn", str(fdnn_dir / "fdnn.ckpt"),
                       "--kan", str(kan_dir / "kan.ckpt"),
                       "--trial", str(trial),
                       "--subjects", str(synth_dir / "subjects.csv"),
                       "--out", str(out)])
        assert rc == 0
        assert (out / "events.csv").is_file()
        latency = json.loads((out / "latency.json").read_text())
        assert latency["samples"] == 1200  # 6 s at 200 Hz

    def test_report(self, workspace, fdnn_eval_dir, kan_eval_dir):
        root, config = workspace
        rc = dispatch(["report", "--config", str(config),
                       "--fdnn-eval", str(fdnn_eval_dir),
                       "--kan-eval", str(kan_eval_dir),
                       "--out", str(root / "report")])
        assert rc == 0
        summary = json.loads(
            (root / "report" / "summary.json").read_text())
        assert set(summary) == {"fall_tpr_avg", "fall_tnr_avg",
                                "adl_tnr_avg", "tti_rmse_ms"}
        assert summary["fall_tpr_avg"] is not None
        assert (root / "report" / "rmse_heatmap.svg").is_file()

    # A folder that lacks a table would report null figures and exit 0.
    # adl_tnr.csv is optional: eval-fdnn writes it only for ADL trials.
    @pytest.mark.parametrize("flag, missing", [
        ("--fdnn-eval", "fall_tpr.csv"), ("--fdnn-eval", "fall_tnr.csv"),
        ("--kan-eval", "rmse_heatmap.csv"), ("--kan-eval", "metrics.json"),
        ("--fdnn-eval", "adl_tnr.csv")])
    def test_report_needs_the_eval_files(self, workspace, fdnn_eval_dir,
                                         kan_eval_dir, tmp_path, capsys,
                                         flag, missing):
        _, config = workspace
        given = tmp_path / "eval"
        shutil.copytree(fdnn_eval_dir if flag == "--fdnn-eval"
                        else kan_eval_dir, given)
        (given / missing).unlink()
        out = tmp_path / "report"
        rc = dispatch(["report", "--config", str(config), flag, str(given),
                       "--out", str(out)])
        if missing == "adl_tnr.csv":
            assert rc == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["adl_tnr_avg"] is None
            assert summary["fall_tpr_avg"] is not None
        else:
            assert rc == 1
            assert f"lacks {missing}" in capsys.readouterr().err
            assert not (out / "summary.json").exists()

    def test_report_refuses_missing_folders(self, workspace, tmp_path,
                                            capsys):
        _, config = workspace
        rc = dispatch(["report", "--config", str(config),
                       "--fdnn-eval", str(tmp_path / "nope1"),
                       "--kan-eval", str(tmp_path / "nope2"),
                       "--out", str(tmp_path / "report")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "report" / "summary.json").exists()


# Every command that writes files, with the inputs it reads from the
# module's pipeline; each also gets --config, --seed 3 and --out.
def _command_inputs(command, synth, features, fdnn, kan):
    ckpt_kan = ["--checkpoint", str(kan / "kan.ckpt")]
    return {
        "synth": [],
        "features": ["--root", str(synth / "corpus"),
                     "--subjects", str(synth / "subjects.csv"),
                     "--annotations", str(synth / "annotations.csv"),
                     "--jobs", "1"],
        "select": ["--features", str(features)],
        "train-fdnn": ["--features", str(features)],
        "eval-fdnn": ["--features", str(features),
                      "--checkpoint", str(fdnn / "fdnn.ckpt")],
        "train-kan": ["--features", str(features)],
        "cv-kan": ["--features", str(features)],
        "eval-kan": ["--features", str(features), *ckpt_kan],
        "trace": ["--features", str(features), *ckpt_kan, "--trial",
                  sorted((features / "segments").glob("*.json"))[0].stem],
        "stream": ["--fdnn", str(fdnn / "fdnn.ckpt"),
                   "--kan", str(kan / "kan.ckpt"),
                   "--trial", str(sorted(
                       (synth / "corpus" / "SA01").glob("F*.txt"))[0]),
                   "--subjects", str(synth / "subjects.csv")],
        "report": [],
    }[command]


class TestResolvedConfigRecorded:
    @pytest.mark.parametrize("command", [
        "synth", "features", "select", "train-fdnn", "eval-fdnn",
        "train-kan", "cv-kan", "eval-kan", "trace", "stream", "report"])
    def test_written_on_success(self, workspace, synth_dir, features_dir,
                                fdnn_dir, kan_dir, tmp_path, command):
        _, config = workspace
        out = tmp_path / "out"
        rc = dispatch([command, "--config", str(config), "--seed", "3",
                       "--out", str(out),
                       *_command_inputs(command, synth_dir, features_dir,
                                        fdnn_dir, kan_dir)])
        assert rc == 0
        want = tmp_path / "want.json"
        dump_config(load_config(config, {"seed": 3}), want)
        assert (out / "resolved_config.json").read_text() == \
            want.read_text()

    def test_none_on_failure(self, workspace, features_dir, kan_dir,
                             tmp_path):
        # A features dir with one fall segment: its only repetition is a
        # train one, so eval-kan finds no test fold, and trace is asked for
        # a trial it does not hold.
        _, config = workspace
        lone = tmp_path / "features"
        (lone / "segments").mkdir(parents=True)
        seg = sorted((features_dir / "segments").glob("*.json"))[0]
        (lone / "segments" / seg.name).write_bytes(seg.read_bytes())
        for command, extra in (
                ("eval-kan", []),
                ("trace", ["--trial", "F15_SE15_R01"])):
            out = tmp_path / command
            rc = dispatch([command, "--config", str(config),
                           "--features", str(lone),
                           "--checkpoint", str(kan_dir / "kan.ckpt"),
                           "--out", str(out), *extra])
            assert rc == 1, command
            assert out.is_dir() and not any(out.iterdir()), command


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "user_set"])
def test_blas_threads_default_to_one(preset):
    # importing the CLI sets each BLAS thread count to 1 before NumPy
    # loads, unless the user already exported one
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    code = ("import os, sys\n"
            "assert 'numpy' not in sys.modules\n"
            "import fallsense.cli\n"
            f"print(','.join(os.environ[v] for v in {BLAS_THREAD_VARS!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    want = ["1", preset or "1", "1"]
    assert done.stdout.strip() == ",".join(want)

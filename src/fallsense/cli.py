"""Command-line interface: the pipeline as subcommands over a JSON config.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.  Every
command that produces files takes ``--config``, ``--seed`` and ``--out``;
``dispatch`` resolves the configuration, creates the output directory and,
when the command succeeds, writes the configuration next to its outputs
as ``resolved_config.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

# One BLAS thread by default: the models are small, and a threaded BLAS
# pool only contends with other work on the machine.  Set before NumPy is
# first imported, since the pool reads these once; a value the user set
# is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import evaluation as eval_mod
from . import fdnn as fdnn_mod
from . import kan as kan_mod
from . import pipeline
from .config import RunConfig, dump_config, kan_grid_configs, load_config
from .evaluation import MetricTable, ReportBundle, TrajectoryTrace
from .features import (
    FEATURE_NAMES,
    apply_standardizer,
    build_selection_report,
    extract_fall_segment,
    fit_standardizer,
    load_frames,
    load_segment,
    save_frames,
    save_segment,
    split_sequences,
)
from .sisfall import (
    TrialId,
    annotate_trial,
    load_subjects,
    load_trial,
    read_annotation_spans,
    require_profile,
    verify_corpus,
)
from .streaming import stream_trial, write_events_csv
from .synthetic import write_synthetic_corpus

class CliError(ValueError):
    pass


def _trial_files(root: Path) -> list[Path]:
    if not root.is_dir():
        raise CliError(f"corpus root {root} is not a directory")
    files = sorted(root.glob("S[AE]*/[FD]*_S*_R*.txt"))
    if not files:
        raise CliError(f"no trial files under {root}")
    for path in files:
        if TrialId.parse(path.name).subject != path.parent.name:
            raise CliError(f"{path} is outside its subject's folder")
    return files


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    summary = verify_corpus(args.root, deep=args.deep)
    print(f"ADL trials:  {summary.adl_trials}")
    print(f"Fall trials: {summary.fall_trials}")
    print(f"Total:       {summary.total_trials}")
    for activity in sorted(summary.per_activity):
        print(f"  {activity}: {summary.per_activity[activity]}")
    for w in summary.warnings:
        print(f"warning: {w}")
    for u in summary.unreadable:
        print(f"unreadable: {u}")
    return 0


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def _feature_worker(task):
    path_str, span, profile, config = task
    trial = load_trial(path_str, config.calibration)
    annotated = annotate_trial(trial, span)
    frames = pipeline.orient_and_frame(
        annotated, profile,
        filter_config=config.orientation,
        body_up=config.orientation.body_up,
        deriv_order=config.orientation.deriv_order)
    segment = None
    if annotated.fall_span() is not None:
        segment = extract_fall_segment(
            annotated, frames, config.segment,
            feature_names=config.selection.kan_features)
    return frames, segment


def _cmd_features(args, config: RunConfig, out: Path) -> int:
    root = Path(args.root)
    profiles = load_subjects(args.subjects)
    spans = read_annotation_spans(args.annotations) if args.annotations else {}

    frames_dir = out / "frames"
    segments_dir = out / "segments"
    frames_dir.mkdir(exist_ok=True)
    segments_dir.mkdir(exist_ok=True)

    tasks = []
    for path in _trial_files(root):
        tid = TrialId.parse(path.name)
        profile = require_profile(profiles, tid)
        tasks.append((str(path), spans.get(str(tid)), profile, config))

    # Each trial's files are written as soon as it is done, in corpus
    # order, so only the trials in flight are held; index.csv is written
    # last, so that it stands for a complete feature set.
    index_rows = ["trial_id,subject,activity,repetition,n_samples,has_fall"]

    def write(frames, segment):
        tid = frames.trial_id
        save_frames(frames_dir / f"{tid}.npz", frames)
        has_fall = int(np.any(frames.labels == 1))
        index_rows.append(f"{tid},{tid.subject},{tid.activity},"
                          f"{tid.repetition},{len(frames)},{has_fall}")
        if segment is not None:
            save_segment(segments_dir / f"{tid}.json", segment)

    if args.jobs > 1:
        # Imported here, so that no other start pays for it (~10 ms).
        from multiprocessing import Pool
        with Pool(args.jobs) as pool:
            for result in pool.imap(_feature_worker, tasks):
                write(*result)
    else:
        for task in tasks:
            write(*_feature_worker(task))
    (out / "index.csv").write_text("\n".join(index_rows) + "\n")
    print(f"wrote {len(tasks)} trials to {out}")
    return 0


def _read_index(features_dir: Path) -> list[dict]:
    index = features_dir / "index.csv"
    if not index.is_file():
        raise CliError(f"{features_dir} has no index.csv (run features first)")
    rows = []
    lines = index.read_text().strip().splitlines()
    for line in lines[1:]:
        tid, subject, activity, rep, n, has_fall = line.split(",")
        rows.append({"trial_id": TrialId.parse(tid), "subject": subject,
                     "activity": activity, "repetition": int(rep),
                     "n_samples": int(n), "has_fall": bool(int(has_fall))})
    return rows


def _load_all_segments(features_dir: Path) -> list:
    seg_dir = features_dir / "segments"
    return [load_segment(p) for p in sorted(seg_dir.glob("*.json"))]


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def _cmd_select(args, config: RunConfig, out: Path) -> int:
    features_dir = Path(args.features)
    rows, targets = [], []
    for seg in _load_all_segments(features_dir):
        frames = load_frames(features_dir / "frames" / f"{seg.trial_id}.npz")
        # A copy, so that the trial's other rows are not kept.
        rows.append(frames.data[seg.start_index:seg.end_index + 1].copy())
        targets.append(seg.tti_ms)
    if not rows:
        raise CliError("no fall segments found; run features on fall trials")
    matrix = np.vstack(rows)
    target = np.concatenate(targets)
    matrix = apply_standardizer(fit_standardizer(matrix), matrix)

    report = build_selection_report(matrix, target, FEATURE_NAMES,
                                    config.selection)
    report.to_csv(out / "selection.csv")
    print(f"correlation-selected: {report.correlation_selected}")
    print(f"mrmr ranking: {[s.name for s in report.mrmr]}")
    print(f"chosen set: {list(report.chosen)}")
    return 0


# ---------------------------------------------------------------------------
# train / eval FDNN
# ---------------------------------------------------------------------------

def _detector_inputs(features_dir: Path, ids) -> list:
    """Each trial's (N, 18) detector inputs, copied out of its frames so
    that the frames themselves are not kept, with its labels."""
    inputs = []
    for tid in ids:
        frames = load_frames(features_dir / "frames" / f"{tid}.npz")
        inputs.append((np.array(frames.fdnn_matrix()), frames.labels))
    return inputs


def _cmd_train_fdnn(args, config: RunConfig, out: Path) -> int:
    features_dir = Path(args.features)
    index = _read_index(features_dir)

    fall_ids = [r["trial_id"] for r in index if r["has_fall"]]
    if not fall_ids:
        raise CliError("no fall trials in the feature set")
    split = split_sequences(fall_ids, config.split)

    # One copy of each trial's inputs: the standardizer is fitted over
    # them trial by trial, and each is then standardized in place.
    train = _detector_inputs(features_dir, split.train)
    val = _detector_inputs(features_dir, split.validation)
    stats = fit_standardizer([x for x, _ in train])
    train_set = [pipeline.detector_example(x, y, stats) for x, y in train]
    val_set = [pipeline.detector_example(x, y, stats) for x, y in val]
    del train, val

    params, log = fdnn_mod.train(config.fdnn, train_set, val_set)
    fdnn_mod.save_checkpoint(out / "fdnn.ckpt", params, config.fdnn, stats)
    fdnn_mod.write_training_log(out / "train_log.csv", log)
    (out / "split.json").write_text(json.dumps({
        "train": [str(t) for t in split.train],
        "validation": [str(t) for t in split.validation],
        "test": [str(t) for t in split.test],
    }, indent=2) + "\n")
    best = max(l.val_accuracy for l in log)
    print(f"trained {config.fdnn.epochs} epochs; "
          f"best validation accuracy {best:.4f}")
    return 0


def _split_ids(path: Path, name: str) -> list[TrialId]:
    """The trial ids under ``name`` in a ``train-fdnn`` split file."""
    split = json.loads(path.read_text())
    if not isinstance(split, dict):
        raise CliError(f"{path} is not a JSON object of splits")
    if name not in split:
        raise CliError(f"{path} has no {name!r} split")
    ids = split[name]
    if not isinstance(ids, list) or not all(isinstance(t, str) for t in ids):
        raise CliError(f"{path}: the {name!r} split is not a list of "
                       f"trial ids")
    return [TrialId.parse(t) for t in ids]


def _cmd_eval_fdnn(args, config: RunConfig, out: Path) -> int:
    features_dir = Path(args.features)
    params, fcfg, stats, _ = fdnn_mod.load_checkpoint(args.checkpoint)
    index = _read_index(features_dir)

    if args.split_file:
        fall_ids = _split_ids(Path(args.split_file), args.split)
    else:
        fall_ids = [r["trial_id"] for r in index if r["has_fall"]]
    adl_ids = [r["trial_id"] for r in index
               if not r["trial_id"].is_fall]
    ids = [*fall_ids, *adl_ids]
    lengths = {r["trial_id"]: r["n_samples"] for r in index}
    for tid in fall_ids:
        if tid not in lengths:
            raise CliError(f"trial {tid} of the split is not in "
                           f"{features_dir / 'index.csv'}")

    # Scored a padded scan at a time, loading only that scan's trials;
    # a chunk's examples and traces are dropped before the next loads.
    counts = {}
    for chunk in fdnn_mod.scan_chunks([lengths[t] for t in ids]):
        examples = [pipeline.frames_to_example(
            load_frames(features_dir / "frames" / f"{ids[k]}.npz"), stats)
            for k in chunk]
        traces = fdnn_mod.predict_traces(params, fcfg, examples)
        counts.update((k, eval_mod.confusion(t.decisions, e.labels))
                      for k, t, e in zip(chunk, traces, examples))
        del examples, traces
    fall_counts = [counts[k] for k in range(len(fall_ids))]
    adl_counts = [counts[k] for k in range(len(fall_ids), len(ids))]

    def table(trials, trial_counts, which):
        return eval_mod.metric_table([
            eval_mod.TrialMetric(tid, eval_mod.rates(c)[which])
            for tid, c in zip(trials, trial_counts)])

    fall_tpr = table(fall_ids, fall_counts, 0)
    fall_tnr = table(fall_ids, fall_counts, 1)
    adl_tnr = table(adl_ids, adl_counts, 1) if adl_ids else None

    fall_tpr.to_csv(out / "fall_tpr.csv")
    fall_tnr.to_csv(out / "fall_tnr.csv")
    if adl_tnr is not None:
        adl_tnr.to_csv(out / "adl_tnr.csv")
    fall_pooled = eval_mod.rates(sum(fall_counts, eval_mod.ConfusionCounts()))
    adl_pooled = eval_mod.rates(sum(adl_counts, eval_mod.ConfusionCounts()))
    metrics = {
        "fall_tpr_avg": fall_tpr.average(),
        "fall_tnr_avg": fall_tnr.average(),
        "adl_tnr_avg": adl_tnr.average() if adl_tnr else None,
        "fall_tpr_pooled": fall_pooled[0],
        "fall_tnr_pooled": fall_pooled[1],
        "adl_tnr_pooled": adl_pooled[1],
        "n_fall_trials": len(fall_ids),
        "n_adl_trials": len(adl_ids),
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    print(json.dumps(metrics, indent=2))
    return 0


# ---------------------------------------------------------------------------
# train / cv / eval KAN
# ---------------------------------------------------------------------------

def _plan_and_segments(features_dir: Path, config: RunConfig):
    segments = _load_all_segments(features_dir)
    if not segments:
        raise CliError("no fall segments found")
    plan = kan_mod.build_cv_plan([s.trial_id for s in segments],
                                 seed=config.split.seed)
    return plan, segments


def _cmd_train_kan(args, config: RunConfig, out: Path) -> int:
    plan, segments = _plan_and_segments(Path(args.features), config)
    model, log = kan_mod.fit(config.kan, plan.segments_in(segments, "train"),
                             plan.segments_in(segments, "validation"))
    kan_mod.save_checkpoint(out / "kan.ckpt", model)
    kan_mod.write_fit_log(out / "fit_log.csv", log)
    (out / "plan.json").write_text(json.dumps({
        f"{s}_{a}": roles for (s, a), roles in plan.assignments.items()
    }, indent=2, sort_keys=True) + "\n")
    print(f"fit {config.kan.epochs} epochs; "
          f"best validation RMSE {min(l.val_rmse for l in log):.2f} ms")
    return 0


def _cmd_cv_kan(args, config: RunConfig, out: Path) -> int:
    plan, segments = _plan_and_segments(Path(args.features), config)
    grid = kan_grid_configs(config)
    best, results = kan_mod.cross_validate(grid, plan, segments)
    kan_mod.write_cv_table(out / "cv_table.csv", results)
    (out / "best_config.json").write_text(
        json.dumps(dataclasses.asdict(best), indent=2) + "\n")
    print(f"best: n={best.n_inner_nodes} q={best.q_outer_nodes} "
          f"mu={best.mu} w={best.window_ms} ms")
    return 0


def _cmd_eval_kan(args, config: RunConfig, out: Path) -> int:
    plan, segments = _plan_and_segments(Path(args.features), config)
    model = kan_mod.load_checkpoint(args.checkpoint)
    test_segs = plan.segments_in(segments, "test")
    if not test_segs:
        raise CliError("no test-fold segments")
    heatmap = eval_mod.rmse_by_group([
        eval_mod.SegmentPrediction(seg.trial_id,
                                   kan_mod.predict_segment(model, seg),
                                   seg.tti_ms)
        for seg in test_segs])
    heatmap.table.to_csv(out / "rmse_heatmap.csv")
    metrics = {"tti_rmse_ms": heatmap.global_rmse,
               "n_segments": len(test_segs)}
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    print(json.dumps(metrics, indent=2))
    return 0


def _cmd_trace(args, config: RunConfig, out: Path) -> int:
    features_dir = Path(args.features)
    model = kan_mod.load_checkpoint(args.checkpoint)
    tid = TrialId.parse(args.trial)
    seg_path = features_dir / "segments" / f"{tid}.json"
    if not seg_path.is_file():
        raise CliError(f"no segment for trial {tid}")
    segment = load_segment(seg_path)
    trace = eval_mod.trajectory(model, segment)
    trace.to_csv(out / f"trajectory_{tid}.csv")
    (out / f"trajectory_{tid}.svg").write_text(
        eval_mod.svg_trajectory(trace, f"Time of impact: {tid}"))
    print(f"trace over {len(trace.t_s)} samples; "
          f"truth starts at {trace.truth_ms[0]:.0f} ms")
    return 0


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

def _cmd_stream(args, config: RunConfig, out: Path) -> int:
    profiles = load_subjects(args.subjects)
    trial_path = Path(args.trial)
    trial = load_trial(trial_path, config.calibration)
    subject = require_profile(profiles, trial.trial_id)
    events, report = stream_trial(
        args.fdnn, args.kan, trial, subject,
        mode=args.mode,
        filter_config=config.orientation,
        body_up=config.orientation.body_up,
        deriv_order=config.orientation.deriv_order,
        deadline_us=config.stream.deadline_us,
        kan_gating=config.stream.kan_gating)
    write_events_csv(out / "events.csv", events)
    (out / "latency.json").write_text(json.dumps({
        "mean_us": report.mean_us, "p99_us": report.p99_us,
        "max_us": report.max_us, "deadline_misses": report.deadline_misses,
        "deadline_us": report.deadline_us, "samples": report.count,
    }, indent=2) + "\n")
    falling = sum(1 for e in events if e.decision)
    print(f"{report.count} samples, {falling} flagged falling, "
          f"latency mean {report.mean_us:.0f} us / p99 {report.p99_us:.0f} us")
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _cmd_synth(args, config: RunConfig, out: Path) -> int:
    corpus = write_synthetic_corpus(out, config.synth, seed=config.seed,
                                    calibration=config.calibration)
    summary = verify_corpus(corpus)
    print(f"synthetic corpus at {corpus}: {summary.fall_trials} falls, "
          f"{summary.adl_trials} ADLs")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _cmd_report(args, config: RunConfig, out: Path) -> int:
    # adl_tnr.csv is optional: eval-fdnn writes it only for ADL trials
    for folder, name in ((args.fdnn_eval, "fall_tpr.csv"),
                         (args.fdnn_eval, "fall_tnr.csv"),
                         (args.kan_eval, "rmse_heatmap.csv"),
                         (args.kan_eval, "metrics.json")):
        if folder and not (Path(folder) / name).is_file():
            raise CliError(f"{folder} lacks {name}")
    bundle = ReportBundle()
    if args.fdnn_eval:
        d = Path(args.fdnn_eval)
        bundle.fall_tpr = MetricTable.from_csv(d / "fall_tpr.csv")
        bundle.fall_tnr = MetricTable.from_csv(d / "fall_tnr.csv")
        if (d / "adl_tnr.csv").is_file():
            bundle.adl_tnr = MetricTable.from_csv(d / "adl_tnr.csv")
    if args.kan_eval:
        d = Path(args.kan_eval)
        bundle.rmse = eval_mod.RmseHeatmap(
            table=MetricTable.from_csv(d / "rmse_heatmap.csv"),
            global_rmse=json.loads((d / "metrics.json").read_text()).get(
                "tti_rmse_ms"))
    for trace_csv in args.trace or []:
        p = Path(trace_csv)
        tid = TrialId.parse(p.stem.replace("trajectory_", ""))
        rows = np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
        bundle.trajectories.append(TrajectoryTrace(
            trial_id=tid, t_s=rows[:, 0], truth_ms=rows[:, 1],
            predicted_ms=rows[:, 2]))
    files = eval_mod.render_report(bundle, out)
    print(f"wrote {len(files)} report files to {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


_FEATURES_DIR = _arg("--features", required=True)
_CHECKPOINT = _arg("--checkpoint", required=True)

# name: (help, handler, its own arguments).  Every command but ``verify``
# writes files and takes --config, --seed and --out before its own.
COMMANDS = {
    "verify": ("count and sanity-check a corpus", _cmd_verify, [
        _arg("root"),
        _arg("--deep", action="store_true",
             help="fully parse every trial file")]),
    "features": ("calibrate, orient, and build feature frames",
                 _cmd_features, [
        _arg("--root", required=True, help="corpus root"),
        _arg("--subjects", required=True, help="subject metadata CSV"),
        _arg("--annotations", help="normalized fall-span CSV"),
        _arg("--jobs", type=int, default=os.cpu_count() or 1,
             help="parallel trial workers (default: all cores)")]),
    "select": ("correlation + mRMR feature audit", _cmd_select, [
        _arg("--features", required=True,
             help="features output directory")]),
    "train-fdnn": ("train the fall detector", _cmd_train_fdnn,
                   [_FEATURES_DIR]),
    "eval-fdnn": ("score the detector into tables", _cmd_eval_fdnn, [
        _FEATURES_DIR, _CHECKPOINT,
        _arg("--split-file", help="split.json from train-fdnn"),
        _arg("--split", default="test",
             choices=["train", "validation", "test"])]),
    "train-kan": ("fit the impact-time model", _cmd_train_kan,
                  [_FEATURES_DIR]),
    "cv-kan": ("cross-validate hyperparameters", _cmd_cv_kan,
               [_FEATURES_DIR]),
    "eval-kan": ("test-fold RMSE heatmap", _cmd_eval_kan,
                 [_FEATURES_DIR, _CHECKPOINT]),
    "trace": ("trajectory for one fall segment", _cmd_trace, [
        _FEATURES_DIR, _CHECKPOINT,
        _arg("--trial", required=True,
             help="trial id, e.g. F03_SA18_R03")]),
    "stream": ("replay a trial through both models", _cmd_stream, [
        _arg("--fdnn", required=True, help="detector checkpoint"),
        _arg("--kan", required=True, help="impact-model checkpoint"),
        _arg("--trial", required=True, help="trial file path"),
        _arg("--subjects", required=True),
        _arg("--mode", default="fast", choices=["fast", "realtime"])]),
    "synth": ("write a synthetic corpus", _cmd_synth, []),
    "report": ("render CSV/SVG/JSON reports", _cmd_report, [
        _arg("--fdnn-eval", help="eval-fdnn output directory"),
        _arg("--kan-eval", help="eval-kan output directory"),
        _arg("--trace", action="append",
             help="trajectory CSV (repeatable)")]),
}
_COMMON = [
    _arg("--config", help="JSON config file"),
    _arg("--seed", type=int, help="override the global seed"),
    _arg("--out", required=True, help="output directory"),
]


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser with every subcommand, or with ``command``'s alone.
    Its usage line lists every command either way, so a parse error after
    the command name reads the same."""
    parser = argparse.ArgumentParser(
        prog="fallsense",
        description="Waist-IMU fall detection and impact-time estimation")
    # argparse names the subcommand argument after its metavar in its
    # errors, so the metavar is set only where it is needed, for the one
    # command's parser.
    sub = parser.add_subparsers(
        dest="command",
        metavar=None if command is None else "{%s}" % ",".join(COMMANDS))
    for name, (help_text, func, arguments) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in (arguments if name == "verify"
                              else _COMMON + arguments):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def dispatch(argv: list[str]) -> int:
    # Only the named command's parser is built; no command, --help or an
    # unknown name gets the whole parser, which lists them all.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    if not argv:
        parser.print_usage()
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if not hasattr(args, "func"):
        parser.print_usage()
        return 1
    try:
        if not hasattr(args, "out"):        # verify: reads, writes nothing
            return args.func(args)
        # The one place a run's config is resolved and recorded; a failed
        # command leaves no resolved_config.json.
        config = load_config(args.config, {"seed": args.seed})
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rc = args.func(args, config, out)
        if rc == 0:
            dump_config(config, out / "resolved_config.json")
        return rc
    # Every error class of the package subclasses ValueError.
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

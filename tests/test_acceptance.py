"""Tiered acceptance suite.

Tier A: dataset-free property checks (fast).
Tier B: desk-scale learning and streaming-latency checks (minutes).
Tier C: full-corpus reproduction; needs the real corpus plus normalized
        annotations, pointed to by SISFALL_ROOT, SISFALL_ANNOTATIONS and
        SISFALL_SUBJECTS, and several CPU-hours.  Skipped otherwise.

Each criterion prints one PASS line (run with -s to see them inline);
a failing criterion shows up as the test failure itself.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fallsense import fdnn as fdnn_mod
from fallsense import kan as kan_mod
from fallsense import orientation as ori
from fallsense.evaluation import confusion, rates
from fallsense.features import (
    extract_fall_segment,
    mrmr_select,
    tti_targets,
)
from fallsense.kan import KanConfig, KanKernel, KanModel
from fallsense.pipeline import (
    collect_fall_segments,
    fit_frame_standardizer,
    frames_to_example,
    orient_and_frame,
)
from fallsense.sisfall import SubjectProfile, TrialId
from fallsense.streaming import stream_trial
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial

from conftest import blank_frames
from test_features import assert_greedy_optimal


def _ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


SUBJECT = SubjectProfile(subject_id="SA01", age=30.0, height_cm=175.0,
                         weight_kg=70.0, gender=1.0)


# ===========================================================================
# Tier A
# ===========================================================================

@pytest.mark.tier_a
def test_a1_fdnn_gradient_check():
    """Analytic BPTT gradients vs central finite differences (< 1e-4)."""
    cfg = fdnn_mod.FdnnConfig(input_dim=6, static_dim=2, inner_dim=4,
                              fc1_units=4, dropout_rate=0.0, seed=3)
    params = fdnn_mod.init_params(cfg)
    rng = np.random.default_rng(7)
    static = rng.normal(size=(2, 2))
    seq = rng.normal(size=(2, 2, 4))
    labels = rng.integers(0, 2, size=(2, 2))
    mask = np.ones((2, 2), dtype=bool)
    mask[1, 1] = False

    _, grads = fdnn_mod.loss_and_gradients(params, cfg, static, seq, labels,
                                           mask)
    eps = 1e-5
    worst = 0.0
    for name in fdnn_mod.TRAINABLE_FIELDS:
        arr = getattr(params, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = fdnn_mod.loss_and_gradients(params, cfg, static, seq,
                                                labels, mask)
            arr[idx] = orig - eps
            lm, _ = fdnn_mod.loss_and_gradients(params, cfg, static, seq,
                                                labels, mask)
            arr[idx] = orig
            num = (lp - lm) / (2 * eps)
            a = grads[name][idx]
            rel = abs(a - num) / max(abs(a) + abs(num), 1e-6)
            assert rel < 1e-4, f"{name}{idx}: rel err {rel}"
            worst = max(worst, rel)
    _ok("A1", f"(worst relative error {worst:.2e})")


@pytest.mark.tier_a
def test_a2_softmax_and_strict_threshold():
    cfg = fdnn_mod.FdnnConfig(input_dim=6, static_dim=2, inner_dim=4,
                              fc1_units=4, dropout_rate=0.0, seed=1)
    params = fdnn_mod.init_params(cfg)
    rng = np.random.default_rng(2)
    static, seq = rng.normal(size=(3, 2)), rng.normal(size=(3, 17, 4))
    p_fall = fdnn_mod.forward(params, cfg, static, seq, mode="infer")
    assert np.all((p_fall >= 0.0) & (p_fall <= 1.0))
    probs, _ = fdnn_mod.forward(params, cfg, static, seq, mode="train")
    dev = np.abs(probs.sum(axis=-1) - 1.0).max()
    assert dev < 1e-12
    assert not fdnn_mod.classify(np.array([0.5]), 0.5)[0]
    assert fdnn_mod.classify(np.array([0.5 + 1e-12]), 0.5)[0]
    _ok("A2", f"(softmax deviation {dev:.1e}; P=0.5 is not falling)")


@pytest.mark.tier_a
def test_a3_quaternion_norm_and_static_convergence():
    """Unit norm through 1e6 random filter steps; 0.1-degree static tilt."""
    rng = np.random.default_rng(0)
    state = ori.FilterState(q=np.array([1.0, 0, 0, 0]), P=np.eye(3) * 0.01)
    steps = 1_000_000
    half = steps // 2
    omegas = rng.uniform(-500, 500, (half, 3))
    accels = rng.normal(0, 0.4, (half, 3)) + np.array([0, 0, 1.0])
    worst = 0.0
    for k in range(half):
        state = ori.predict_step(state, omegas[k], 0.005)
        state = ori.update_step(state, accels[k])
        if k % 4096 == 0:
            worst = max(worst, abs(float(np.linalg.norm(state.q)) - 1.0))
    assert abs(float(np.linalg.norm(state.q)) - 1.0) < 1e-9
    assert worst < 1e-9

    phi = math.radians(33.0)
    q_true = ori.quat_from_rotvec(np.array([phi, 0, 0]))
    up_body = ori.quat_to_matrix(q_true).T @ np.array([0.0, 0.0, 1.0])
    n = 200  # 1 s of samples
    quats = ori.estimate_orientation(np.tile(up_body, (n, 1)),
                                     np.zeros((n, 3)))
    err_deg = abs(math.degrees(ori.tilt_angles(quats)[-1]) - 33.0)
    assert err_deg < 0.1
    _ok("A3", f"(norm drift < 1e-9 over {steps} steps; "
              f"static tilt error {err_deg:.2e} deg)")


@pytest.mark.tier_a
def test_a4_kaczmarz_contraction_and_fixed_point():
    cfg = KanConfig()
    d = 5
    rng = np.random.default_rng(3)
    xs = rng.normal(0, 1, (300, d))
    from fallsense.features import StandardizationStats
    stats = StandardizationStats(mean=np.zeros(d), std=np.ones(d))
    model = kan_mod._init_model(cfg, tuple("abcde"), stats, xs,
                                np.random.default_rng(0), 400.0)

    # locally linear region: flat outer functions leave only the exactly
    # linear outer-node dependence
    flat = model.copy()
    flat.outer_values[...] = 2.0
    x = rng.normal(size=d).tolist()
    y = 150.0
    kernel = KanKernel(flat)
    r0 = y - kernel.eval(x)
    kernel.update(x, y, cfg.mu)
    r1 = y - kernel.eval(x)
    err = abs(r1 - (1.0 - cfg.mu) * r0)
    assert err < 1e-9 * abs(r0)

    kernel = KanKernel(model)
    x = xs[0].tolist()
    y = 520.0
    hit = None
    for it in range(500):
        kernel.update(x, y, cfg.mu)
        if hit is None and abs(y - kernel.eval(x)) < 1e-6:
            hit = it + 1
    final = abs(y - kernel.eval(x))
    assert final < 1e-6
    _ok("A4", f"(contraction error {err:.1e}; |r|={final:.1e} "
              f"after {hit} iterations)")


@pytest.mark.tier_a
def test_a5_kan_additive_recovery_and_sin_fit():
    # constructive: outer identity, inner g_i/(2d+1) reproduces the
    # additive target exactly at grid points
    d = 5
    cfg = KanConfig(n_inner_nodes=6, q_outer_nodes=16)
    branches = 2 * d + 1
    from fallsense.features import StandardizationStats
    inner_grid = np.linspace(-2.0, 2.0, cfg.n_inner_nodes)
    funcs = [np.sin, np.cos, np.tanh, np.abs, np.exp]
    inner_values = np.stack([
        np.tile(f(inner_grid) / branches, (branches, 1)) for f in funcs])
    outer_grid = np.linspace(-10.0, 10.0, cfg.q_outer_nodes)
    model = KanModel(
        feature_names=tuple("abcde"),
        stats=StandardizationStats(mean=np.zeros(d), std=np.ones(d)),
        config=cfg, inner_grid=inner_grid, inner_values=inner_values,
        outer_grids=np.tile(outer_grid, (branches, 1)),
        outer_values=np.tile(outer_grid, (branches, 1)))
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        x = rng.choice(inner_grid, size=d)
        want = sum(f(x[i]) for i, f in enumerate(funcs))
        worst = max(worst, abs(KanKernel(model).eval(x.tolist()) - want))
    assert worst < 1e-9

    # trained from noise on y = sum_i sin(x_i): validation RMSE < 20% of
    # the target standard deviation within the 10 configured epochs
    rng = np.random.default_rng(42)
    X = rng.uniform(-3, 3, (5000, d))
    y = np.sin(X).sum(axis=1)
    fit_cfg = KanConfig(n_inner_nodes=8, seed=42)
    assert fit_cfg.epochs == 10
    _, log = kan_mod.fit_records(fit_cfg, X[:4000], y[:4000],
                                 X[4000:], y[4000:])
    best = min(l.val_rmse for l in log)
    ratio = best / float(y[4000:].std())
    assert ratio < 0.20
    _ok("A5", f"(exact recovery {worst:.1e}; sin-fit RMSE "
              f"{ratio:.1%} of target std)")


@pytest.mark.tier_a
def test_a6_mrmr_matches_bruteforce_oracle():
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        nfeat = int(rng.integers(2, 7))
        rows = int(rng.integers(30, 301))
        k = int(rng.integers(1, nfeat + 1))
        x = rng.normal(size=(rows, nfeat))
        y = x @ rng.normal(size=nfeat) + rng.normal(size=rows)
        names = [f"f{i}" for i in range(nfeat)]
        got = [s.name for s in mrmr_select(x, y, names, k)]
        assert_greedy_optimal(x, y, k, got, names)
    _ok("A6", "(100 random instances, <= 6 features x <= 300 rows)")


@pytest.mark.tier_a
def test_a7_tti_targets_law():
    rng = np.random.default_rng(5)
    for n in np.concatenate([[1, 2, 4000], rng.integers(1, 4001, 200)]):
        t = tti_targets(int(n))
        assert len(t) == n
        assert t[-1] == 0.0
        assert t.max() == (n - 1) * 5.0
        if n > 1:
            assert np.all(np.diff(t) == -5.0)
    _ok("A7", "(random N in [1, 4000])")


@pytest.mark.tier_a
def test_a8_synthetic_closed_loop():
    worst = 0
    for seed in range(10):
        spec = SyntheticSpec(noise_g=0.01, fall_onset_s=4.0 + 0.3 * seed,
                             impact_s=4.7 + 0.3 * seed)
        annotated, truth = generate_synthetic_trial(spec, seed=seed)
        seg = extract_fall_segment(annotated, blank_frames(annotated))
        err = abs(seg.end_index - truth.impact_index)
        assert err <= 1
        assert seg.start_index == truth.onset_index
        worst = max(worst, err)
    _ok("A8", f"(impact recovered within {worst} sample(s) at 0.01 g noise)")


@pytest.mark.tier_a
def test_a9_metrics_oracle():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        d = rng.integers(0, 2, n).astype(bool)
        l = rng.integers(0, 2, n)
        c = confusion(d, l)
        tp = sum(1 for i in range(n) if l[i] == 1 and d[i])
        fn = sum(1 for i in range(n) if l[i] == 1 and not d[i])
        fp = sum(1 for i in range(n) if l[i] == 0 and d[i])
        tn = sum(1 for i in range(n) if l[i] == 0 and not d[i])
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        got = rates(c)
        want = (tp / (tp + fn) if tp + fn else None,
                tn / (tn + fp) if tn + fp else None)
        assert got == want
    _ok("A9", "(1000 random prediction/label vectors)")


def _load_perfbench(name: str):
    """perfbench/<name>.py of this checkout, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.tier_a
def test_a10_benchmark_trace_targets_resolve():
    """Every function the benchmark's tracer patches still exists where
    the tracer looks it up, so a refactor cannot silently break a traced
    benchmark run."""
    spans = _load_perfbench("spans")
    targets = [entry[:2] for entry in spans.LAYERS] + [spans.FORWARD[:2]]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"unresolved trace targets: {missing}"
    _ok("A10", f"({len(targets)} trace targets resolve)")


@pytest.mark.tier_a
def test_a13_stream_trace_targets_are_called():
    """Every stream-side span of the benchmark's tracer records exactly
    its per-sample calls on a short ungated stream (200 samples: one
    predict step fewer, one one-row tilt, detector step and impact read
    each, one load per checkpoint), so a refactor cannot leave a trace
    target that resolves but that the stream no longer calls, or calls
    from somewhere else."""
    spans = _load_perfbench("spans")
    models = Path(__file__).resolve().parents[1] / "perfbench" / "models"
    annotated, _ = generate_synthetic_trial(
        SyntheticSpec(duration_s=1.0, fall_onset_s=0.6, impact_s=0.9),
        seed=5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        stream_trial(models / "detector.ckpt", models / "impact.ckpt",
                     annotated.trial, SUBJECT, kan_gating=False)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    n = len(annotated.trial)
    assert n == 200
    want = {"orientation.predict_step": n - 1, "orientation.update_step": n,
            "orientation.tilt": n, "fdnn.stream_step": n, "kan.eval": n,
            "checkpoint.load_detector": 1, "checkpoint.load_impact": 1}
    calls = {name: summary.get(name, {"calls": 0})["calls"] for name in want}
    assert calls == want
    assert summary["orientation.tilt"]["work"] == n      # one row a call
    _ok("A13", f"({len(want)} stream spans called once per sample)")


@pytest.mark.tier_a
@pytest.mark.parametrize("name", ["detector.ckpt", "impact.ckpt"])
def test_checkpoint_round_trip_is_byte_identical(tmp_path, name):
    """Saving what a checkpoint loads writes the same bytes: the header
    records and the container format, which perfbench/reference.py also
    parses on its own, stay as they are."""
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "models"
            / name)
    module = fdnn_mod if name == "detector.ckpt" else kan_mod
    loaded = module.load_checkpoint(path)
    # The detector's loader returns its feature names too; its saver
    # writes the frame's 18 detector names.
    module.save_checkpoint(tmp_path / name, *(
        loaded[:3] if isinstance(loaded, tuple) else (loaded,)))
    assert (tmp_path / name).read_bytes() == path.read_bytes()


def _run_demo(name: str) -> str:
    """Run demos/<name> against this checkout; its stdout on exit 0."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(root / "demos" / name)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.tier_a
def test_a11_orientation_demo_runs():
    """demos/02_orientation_tilt.py, which drives the quaternion helpers
    and the filter steps directly, runs to completion."""
    stdout = _run_demo("02_orientation_tilt.py")
    assert "update skipped -> state unchanged: True" in stdout
    _ok("A11", "(demo 02 exits 0)")


@pytest.mark.tier_a
def test_a12_impact_countdown_demo_runs():
    """demos/03_impact_countdown.py, which drives the KAN kernel's reads
    and Kaczmarz writes directly, runs, and its one-record solver prints
    the residuals pinned here."""
    stdout = _run_demo("03_impact_countdown.py")
    for line in ("iteration   1: residual   41.211828",
                 "iteration  10: residual   23.054907",
                 "iteration  50: residual    1.744273",
                 "iteration 100: residual    0.069211",
                 "iteration 200: residual    0.000109"):
        assert line in stdout
    _ok("A12", "(demo 03 exits 0, one-record residuals unchanged)")


@pytest.mark.tier_b
@pytest.mark.bitexact
def test_b13_realtime_stream_demo_runs():
    """demos/04_realtime_stream.py, the one caller of stream_trial in
    real-time mode, runs, and the P(falling) and countdown lines it prints
    are the ones pinned here."""
    stdout = _run_demo("04_realtime_stream.py")
    for line in ("  t=    0 ms  P(falling)=0.430",
                 "  t= 1500 ms  P(falling)=0.022  <- fall starts",
                 "  t= 1600 ms  P(falling)=0.778  countdown  656.6 ms",
                 "  t= 1800 ms  P(falling)=0.785  countdown  401.8 ms",
                 "  t= 2000 ms  P(falling)=0.801  countdown   99.0 ms",
                 "  t= 2100 ms  P(falling)=0.825  countdown   39.8 ms"
                 "  <- impact",
                 "  t= 2200 ms  P(falling)=0.010",
                 "  t= 3800 ms  P(falling)=0.011"):
        assert line in stdout.splitlines()
    _ok("B13", "(demo 04 exits 0, P(falling) and countdown unchanged)")


# ===========================================================================
# Tier B
# ===========================================================================

@pytest.fixture(scope="module")
def overfit_pipeline(tmp_path_factory):
    """Detector overfit for 64 epochs on 10 synthetic trials, plus an
    impact model on their falls; built once for the Tier-B criteria."""
    tmp_path = tmp_path_factory.mktemp("overfit")
    trials = []
    for i in range(5):
        ann, _ = generate_synthetic_trial(
            SyntheticSpec(duration_s=4.0, fall_onset_s=1.5,
                          impact_s=2.0 + 0.07 * i),
            seed=300 + i, trial_id=TrialId(f"F{i + 1:02d}", "SA01", 1))
        trials.append(ann)
    for i in range(5):
        kind = "walk" if i % 2 == 0 else "sit"
        ann, _ = generate_synthetic_trial(
            SyntheticSpec(kind=kind, duration_s=4.0), seed=400 + i,
            trial_id=TrialId(f"D{i + 1:02d}", "SA01", 1))
        trials.append(ann)
    pairs = [(a, orient_and_frame(a, SUBJECT)) for a in trials]
    frames = [f for _, f in pairs]
    stats = fit_frame_standardizer(frames)
    examples = [frames_to_example(f, stats) for f in frames]

    cfg = fdnn_mod.FdnnConfig(epochs=64, batch_size=4, dropout_rate=0.0,
                              learning_rate=3e-3, seed=0)
    params, log = fdnn_mod.train(cfg, examples, examples)
    fdnn_path = tmp_path / "detector.ckpt"
    fdnn_mod.save_checkpoint(fdnn_path, params, cfg, stats)

    segments = collect_fall_segments(pairs)
    kan_model, _ = kan_mod.fit(KanConfig(epochs=2, seed=0), segments, [])
    kan_path = tmp_path / "impact.ckpt"
    kan_mod.save_checkpoint(kan_path, kan_model)
    return pairs, examples, params, cfg, stats, fdnn_path, kan_path


@pytest.mark.tier_b
@pytest.mark.bitexact
def test_b10_overfit_and_stream_equivalence(overfit_pipeline):
    """>= 99% training sample accuracy on 10 separable synthetic sequences
    within 64 epochs; streamed inference reproduces batch forward outputs
    bit-exactly in fast mode."""
    (pairs, examples, params, cfg, stats,
     fdnn_path, kan_path) = overfit_pipeline
    acc = fdnn_mod.sample_accuracies([params], cfg, examples)[0]
    assert acc >= 0.99

    compared = 0
    for annotated, frames in pairs:
        events, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                                 SUBJECT, mode="fast")
        example = frames_to_example(frames, stats)
        trace = fdnn_mod.predict_trace(params, cfg, example.static,
                                       example.sequence)
        streamed = np.array([e.p_falling for e in events])
        assert np.array_equal(streamed, trace.p_falling), \
            f"{annotated.trial_id}: stream/batch divergence"
        compared += len(events)
    _ok("B10", f"(train accuracy {acc:.4f}; {compared} streamed samples "
               f"bit-identical to batch)")


@pytest.mark.tier_b
def test_b11_streaming_latency(overfit_pipeline):
    """Per-sample pipeline latency: mean < 1 ms and p99 < 5 ms (the 200 Hz
    real-time budget)."""
    (pairs, _, _, _, _, fdnn_path, kan_path) = overfit_pipeline
    annotated, _ = generate_synthetic_trial(
        SyntheticSpec(duration_s=15.0), seed=77)
    _, report = stream_trial(fdnn_path, kan_path, annotated.trial, SUBJECT,
                             mode="fast")
    assert report.count == 3000
    assert report.mean_us < 1000.0, f"mean {report.mean_us:.0f} us"
    assert report.p99_us < 5000.0, f"p99 {report.p99_us:.0f} us"
    _ok("B11", f"(mean {report.mean_us:.0f} us, p99 {report.p99_us:.0f} us, "
               f"max {report.max_us:.0f} us over {report.count} samples)")


@pytest.mark.tier_b
@pytest.mark.bitexact
def test_b12_streamed_impact_time_is_what_eval_scores(overfit_pipeline):
    """With the impact model on every sample, the streamed time of impact
    over each fall segment equals kan.predict_segment on the batch segment,
    and P(falling) equals the batch trace, both bit for bit."""
    (pairs, _, params, cfg, stats, fdnn_path, kan_path) = overfit_pipeline
    model = kan_mod.load_checkpoint(kan_path)
    falls = 0
    for annotated, frames in pairs:
        if annotated.fall_span() is None:
            continue
        events, _ = stream_trial(fdnn_path, kan_path, annotated.trial,
                                 SUBJECT, mode="fast", kan_gating=False)
        example = frames_to_example(frames, stats)
        trace = fdnn_mod.predict_trace(params, cfg, example.static,
                                       example.sequence)
        assert np.array_equal([e.p_falling for e in events],
                              trace.p_falling)
        seg = extract_fall_segment(annotated, frames,
                                   feature_names=model.feature_names)
        streamed = np.array([e.tti_ms for e in events])
        assert np.array_equal(streamed[seg.start_index:seg.end_index + 1],
                              kan_mod.predict_segment(model, seg)), \
            f"{annotated.trial_id}: streamed tti differs from batch"
        falls += 1
    assert falls == 5
    _ok("B12", f"({falls} falls; streamed tti equals batch bit for bit)")


# ===========================================================================
# Tier C (requires the real corpus; hours of CPU)
# ===========================================================================

_TIER_C_VARS = ("SISFALL_ROOT", "SISFALL_ANNOTATIONS", "SISFALL_SUBJECTS")
_tier_c_ready = all(os.environ.get(v) for v in _TIER_C_VARS)
tier_c = pytest.mark.skipif(
    not _tier_c_ready,
    reason=f"set {', '.join(_TIER_C_VARS)} to run full-corpus reproduction")


def _tier_c_workdir() -> Path:
    work = Path(os.environ.get("SISFALL_WORK", "/tmp/fallsense_tier_c"))
    work.mkdir(parents=True, exist_ok=True)
    return work


def _tier_c_features(work: Path) -> Path:
    from fallsense.cli import dispatch
    features = work / "features"
    if not (features / "index.csv").is_file():
        rc = dispatch([
            "features",
            "--root", os.environ["SISFALL_ROOT"],
            "--subjects", os.environ["SISFALL_SUBJECTS"],
            "--annotations", os.environ["SISFALL_ANNOTATIONS"],
            "--jobs", str(os.cpu_count() or 1),
            "--out", str(features)])
        assert rc == 0
    return features


@tier_c
@pytest.mark.tier_c
def test_c14_corpus_counts():
    from fallsense.sisfall import verify_corpus
    summary = verify_corpus(os.environ["SISFALL_ROOT"])
    assert summary.adl_trials == 2706
    assert summary.fall_trials == 1798
    _ok("C14", f"({summary.adl_trials} ADLs, {summary.fall_trials} falls)")


@tier_c
@pytest.mark.tier_c
def test_c12_fdnn_reproduction():
    from fallsense.cli import dispatch
    work = _tier_c_workdir()
    features = _tier_c_features(work)
    model_dir = work / "fdnn"
    if not (model_dir / "fdnn.ckpt").is_file():
        assert dispatch(["train-fdnn", "--features", str(features),
                         "--out", str(model_dir)]) == 0
    eval_dir = work / "fdnn_eval"
    assert dispatch(["eval-fdnn", "--features", str(features),
                     "--checkpoint", str(model_dir / "fdnn.ckpt"),
                     "--split-file", str(model_dir / "split.json"),
                     "--out", str(eval_dir)]) == 0
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    tpr = metrics["fall_tpr_avg"]
    tnr = metrics["fall_tnr_avg"]
    adl = metrics["adl_tnr_avg"]
    assert 0.756 <= tpr <= 0.896, f"test TPR {tpr:.3f} outside 82.6% +/- 7"
    assert 0.954 <= tnr <= 1.000, f"test TNR {tnr:.3f} outside 98.4% +/- 3"
    assert 0.904 <= adl <= 0.984, f"ADL TNR {adl:.3f} outside 94.4% +/- 4"
    _ok("C12", f"(TPR {tpr:.3f}, TNR {tnr:.3f}, ADL TNR {adl:.3f})")


@tier_c
@pytest.mark.tier_c
def test_c13_kan_reproduction():
    from fallsense.cli import dispatch
    from fallsense.evaluation import trajectory
    from fallsense.features import load_segment

    work = _tier_c_workdir()
    features = _tier_c_features(work)
    model_dir = work / "kan"
    if not (model_dir / "kan.ckpt").is_file():
        assert dispatch(["train-kan", "--features", str(features),
                         "--out", str(model_dir)]) == 0
    eval_dir = work / "kan_eval"
    assert dispatch(["eval-kan", "--features", str(features),
                     "--checkpoint", str(model_dir / "kan.ckpt"),
                     "--out", str(eval_dir)]) == 0
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    rmse = metrics["tti_rmse_ms"]
    assert 120.0 <= rmse <= 220.0, f"global RMSE {rmse:.0f} ms outside band"

    # a ~700 ms fall: early ramp tracking, near-impact flattening in the
    # 100-200 ms band
    model = kan_mod.load_checkpoint(model_dir / "kan.ckpt")
    segs = [load_segment(p)
            for p in sorted((features / "segments").glob("*.json"))]
    segs = [s for s in segs if 600.0 <= s.tti_ms[0] <= 800.0]
    assert segs, "no ~700 ms falls found"
    seg = segs[0]
    trace = trajectory(model, seg)
    early = trace.truth_ms >= 300.0
    corr = np.corrcoef(trace.truth_ms[early], trace.predicted_ms[early])[0, 1]
    near = trace.truth_ms <= 50.0
    flat = float(trace.predicted_ms[near].mean())
    assert corr > 0.5, f"early ramp correlation {corr:.2f}"
    assert 100.0 <= flat <= 200.0, f"near-impact level {flat:.0f} ms"
    _ok("C13", f"(RMSE {rmse:.0f} ms; ramp corr {corr:.2f}; "
               f"near-impact level {flat:.0f} ms)")

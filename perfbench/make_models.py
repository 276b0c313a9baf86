"""Regenerate the stored detector and impact model the stream workloads replay.

Run from the repository root:  python3 perfbench/make_models.py

Both models are trained with the package's public training functions from
fixed seeds, on synthetic trials of the same activity mix as the replayed
ones but from a disjoint range of generator seeds.  The files are kept
with the benchmark so that a change to training code does not change what
the stream workloads replay; rerun this script to refresh them.  It writes
``models/detector.ckpt``, ``models/impact.ckpt`` and ``models/manifest.json``.
"""

from __future__ import annotations

import hashlib
import json
import time

import env

TRAIN_FALLS, TRAIN_WALKS, TRAIN_SITS = 12, 6, 6
VAL_FALLS, VAL_WALKS, VAL_SITS = 3, 2, 2
SPEC_SEED = 20250530
FDNN = dict(epochs=40, batch_size=4, dropout_rate=0.0, learning_rate=3e-3,
            seed=0)
KAN = dict(seed=0, standardize_targets=True)


def training_trials(counts, seed_offset, rng):
    from inputs import WEARER, make_trial, random_spec
    from fallsense.sisfall import TrialId
    trials = []
    n = 0
    for kind, count in zip(("fall", "walk", "sit"), counts):
        for _ in range(count):
            act = f"F{n % 15 + 1:02d}" if kind == "fall" \
                else f"D{n % 19 + 1:02d}"
            trials.append(make_trial(
                kind, random_spec(kind, rng), seed_offset + n,
                TrialId(act, WEARER.subject_id, 1)))
            n += 1
    return trials


def main() -> None:
    env.setup()
    import numpy as np

    from inputs import PROBE_SEED_BASE, WEARER
    from fallsense import fdnn, kan, pipeline

    rng = np.random.default_rng(SPEC_SEED)
    train = training_trials((TRAIN_FALLS, TRAIN_WALKS, TRAIN_SITS), 0, rng)
    val = training_trials((VAL_FALLS, VAL_WALKS, VAL_SITS), 1000, rng)
    assert max(t.generator_seed for t in train + val) < PROBE_SEED_BASE

    t0 = time.perf_counter()
    train_pairs = [(t.annotated, pipeline.orient_and_frame(t.annotated, WEARER))
                   for t in train]
    val_pairs = [(t.annotated, pipeline.orient_and_frame(t.annotated, WEARER))
                 for t in val]
    stats = pipeline.fit_frame_standardizer([f for _, f in train_pairs])
    train_set = [pipeline.frames_to_example(f, stats) for _, f in train_pairs]
    val_set = [pipeline.frames_to_example(f, stats) for _, f in val_pairs]

    fcfg = fdnn.FdnnConfig(**FDNN)
    params, log = fdnn.train(fcfg, train_set, val_set)
    kcfg = kan.KanConfig(**KAN)
    model, fit_log = kan.fit(kcfg, pipeline.collect_fall_segments(train_pairs),
                             pipeline.collect_fall_segments(val_pairs))

    env.MODELS.mkdir(exist_ok=True)
    fdnn.save_checkpoint(env.MODELS / "detector.ckpt", params, fcfg, stats)
    kan.save_checkpoint(env.MODELS / "impact.ckpt", model)
    manifest = {
        "spec_seed": SPEC_SEED,
        "train_generator_seeds": [t.generator_seed for t in train],
        "validation_generator_seeds": [t.generator_seed for t in val],
        "fdnn_config": FDNN,
        "kan_config": KAN,
        "fdnn_final_val_accuracy": log[-1].val_accuracy,
        "fdnn_best_val_accuracy": max(e.val_accuracy for e in log),
        "kan_best_val_rmse_ms": min(e.val_rmse for e in fit_log),
        "sha256": {
            name: hashlib.sha256((env.MODELS / name).read_bytes()).hexdigest()
            for name in ("detector.ckpt", "impact.ckpt")},
    }
    (env.MODELS / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n")
    print(json.dumps(manifest, indent=2))
    print(f"trained in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()

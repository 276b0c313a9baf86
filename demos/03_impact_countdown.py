"""The Kolmogorov-Arnold impact-time model on controlled targets.

First the per-record solver on a single example (geometric residual
contraction), then a full fit on an additive function, then the actual
countdown task on synthetic fall segments.

Run:  python3 demos/03_impact_countdown.py
"""

import numpy as np

from fallsense.features import StandardizationStats
from fallsense.kan import (
    KanConfig,
    KanKernel,
    _init_model,
    _respan_outer,
    fit,
    fit_records,
)
from fallsense.pipeline import collect_fall_segments, orient_and_frame
from fallsense.sisfall import SubjectProfile, TrialId
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial

rng = np.random.default_rng(0)
d = 5

# --- 1. one record, repeated updates -------------------------------------
cfg = KanConfig()
stats = StandardizationStats(mean=np.zeros(d), std=np.ones(d))
model = _init_model(cfg, tuple("abcde"), stats, d,
                    np.random.default_rng(0), 400.0)
_respan_outer(model, rng.normal(size=(200, d)), 400.0)

x, y = rng.normal(size=d).tolist(), 250.0
kernel = KanKernel(model)
print("repeated updates on one record (mu = 0.0625):")
for it in range(1, 201):
    kernel.update(x, y, cfg.mu)
    if it in (1, 10, 50, 100, 200):
        print(f"  iteration {it:3d}: residual {y - kernel.eval(x):11.6f}")

# --- 2. additive function ------------------------------------------------
X = rng.uniform(-3, 3, (5000, d))
y_all = np.sin(X).sum(axis=1)
model, log = fit_records(KanConfig(n_inner_nodes=8), X[:4000], y_all[:4000],
                         X[4000:], y_all[4000:])
best = min(l.val_rmse for l in log)
print(f"\ny = sum_i sin(x_i): validation RMSE {best:.3f} "
      f"({best / y_all[4000:].std():.1%} of target std) after 10 epochs")

# --- 3. synthetic fall countdown -----------------------------------------
subject = SubjectProfile("SA01", age=35, height_cm=180, weight_kg=75,
                         gender=1.0)
segments = []
for i in range(6):
    annotated, _ = generate_synthetic_trial(
        SyntheticSpec(duration_s=6.0, fall_onset_s=2.0,
                      impact_s=2.55 + 0.05 * i),
        seed=20 + i, trial_id=TrialId(f"F{i + 1:02d}", "SA01", 1))
    frames = orient_and_frame(annotated, subject)
    segments += collect_fall_segments([(annotated, frames)])

model, log = fit(KanConfig(epochs=5), segments[:4], segments[4:])
seg = segments[5]
smoothed_rmse = min(l.val_rmse for l in log)
print(f"\nsynthetic falls: validation RMSE {smoothed_rmse:.1f} ms")
from fallsense.kan import predict_segment
preds = predict_segment(model, seg)
print("held-out segment, truth vs estimate (ms):")
for k in range(0, len(seg), max(1, len(seg) // 6)):
    print(f"  t+{k * 5:4d} ms: truth {seg.tti_ms[k]:5.0f}  "
          f"estimate {preds[k]:7.1f}")

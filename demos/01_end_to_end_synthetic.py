"""End-to-end walkthrough on a synthetic corpus (no dataset download).

Generates a small corpus in the on-disk trial-file format, builds feature
frames, trains the fall detector and the impact-time model, evaluates
both, and renders the report files.  Everything runs through the same
code paths the real corpus uses; only the data is synthetic.

Run:  python3 demos/01_end_to_end_synthetic.py
"""

import json
import tempfile
from pathlib import Path

from fallsense.cli import dispatch

# Removed when the demo ends (``cleanup`` below, or at exit).
tmp = tempfile.TemporaryDirectory(prefix="fallsense_demo_")
work = Path(tmp.name)
print(f"working under {work}\n")

config = work / "config.json"
config.write_text(json.dumps({
    "fdnn": {"epochs": 8, "batch_size": 4, "dropout_rate": 0.0,
             "learning_rate": 0.003},
    "kan": {"epochs": 3},
    "synth": {"subjects": 2, "falls_per_subject": 2, "adls_per_subject": 2,
              "repetitions": 5, "duration_s": 6.0},
    # the synthetic generator uses the +z-up device convention
    "orientation": {"body_up": [0.0, 0.0, 1.0]},
}))

steps = [
    ["synth", "--config", str(config), "--seed", "7",
     "--out", str(work / "synth")],
    ["verify", str(work / "synth" / "corpus")],
    ["features", "--config", str(config),
     "--root", str(work / "synth" / "corpus"),
     "--subjects", str(work / "synth" / "subjects.csv"),
     "--annotations", str(work / "synth" / "annotations.csv"),
     "--out", str(work / "features")],
    ["select", "--config", str(config),
     "--features", str(work / "features"), "--out", str(work / "select")],
    ["train-fdnn", "--config", str(config),
     "--features", str(work / "features"), "--out", str(work / "fdnn")],
    ["eval-fdnn", "--config", str(config),
     "--features", str(work / "features"),
     "--checkpoint", str(work / "fdnn" / "fdnn.ckpt"),
     "--split-file", str(work / "fdnn" / "split.json"),
     "--out", str(work / "fdnn_eval")],
    ["train-kan", "--config", str(config),
     "--features", str(work / "features"), "--out", str(work / "kan")],
    ["eval-kan", "--config", str(config),
     "--features", str(work / "features"),
     "--checkpoint", str(work / "kan" / "kan.ckpt"),
     "--out", str(work / "kan_eval")],
    ["report", "--config", str(config),
     "--fdnn-eval", str(work / "fdnn_eval"),
     "--kan-eval", str(work / "kan_eval"),
     "--out", str(work / "report")],
]

for argv in steps:
    print(f"\n$ fallsense {' '.join(argv)}")
    rc = dispatch(argv)
    assert rc == 0, f"step failed with exit code {rc}"

print("\nfinal summary:")
print((work / "report" / "summary.json").read_text())
tmp.cleanup()

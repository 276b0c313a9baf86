"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install`` replaces each layer function named in ``LAYERS`` by a
wrapper that records a span (name, start, end, parent) and, for a few
layers, a count of the work the call did.  Spans live in memory until
``write`` dumps them as CSV.  ``uninstall`` puts the original functions
back, so untraced rounds run the program exactly as shipped.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

from fallsense import (cli, fdnn, features, kan, orientation, pipeline,
                       sisfall, streaming)

ns = time.perf_counter_ns


def _rows(args, kwargs, result):
    return result.shape[0]


def _samples_arg(index):
    def count(args, kwargs, result):
        return len(args[index])
    return count


def _rejected(args, kwargs, result):
    return 1 if result is args[0] else 0       # gate refused: state untouched


def _train_steps(args, kwargs, result):
    mask = args[5]
    return int(mask.sum()), mask.size          # useful, padded


def _infer_steps(args, kwargs, result):
    return result.shape[0] * result.shape[1]      # batch x steps


def _kaczmarz_records(args, kwargs, result):
    config, train_x = args[0], args[1]
    return len(train_x) * (config.epochs + (config.warmup == "epoch"))


# (owner, attribute, span name, work counter or None).  Functions that a
# module imported by name are patched where that module looks them up.
LAYERS = (
    (streaming, "predict_step", "orientation.predict_step", None),
    (orientation, "predict_step", "orientation.predict_step", None),
    (streaming, "update_step", "orientation.update_step", _rejected),
    (orientation, "update_step", "orientation.update_step", _rejected),
    (streaming, "tilt_angles", "orientation.tilt", _rows),
    (features, "tilt_angles", "orientation.tilt", _rows),
    (pipeline, "estimate_orientation", "orientation.estimate", _rows),
    (cli, "stream_trial", "streaming.stream_trial", _samples_arg(2)),
    (streaming.FdnnStream, "step", "fdnn.stream_step", None),
    (fdnn, "loss_and_gradients", "fdnn.train_batch", _train_steps),
    (kan, "predict_smoothed_row", "kan.eval", None),
    (kan, "fit_records", "kan.fit", _kaczmarz_records),
    (fdnn, "load_checkpoint", "checkpoint.load_detector", None),
    (kan, "load_checkpoint", "checkpoint.load_impact", None),
    (pipeline, "build_feature_frames", "features.frames", _samples_arg(0)),
    (sisfall, "parse_trial_file", "sisfall.parse", _rows),
    (cli, "save_frames", "features.io", None),
    (cli, "load_frames", "features.io", None),
    (cli, "save_segment", "features.io", None),
    (cli, "load_segment", "features.io", None),
)
# Infer-mode forward passes only; train-mode ones sit inside train_batch.
FORWARD = (fdnn, "forward", "fdnn.infer")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.work: list[object] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(ns())
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.work.append(None)
        self._stack.append(sid)
        return sid

    def close(self, sid: int, work=None) -> None:
        self.ends[sid] = ns()
        self.work[sid] = work
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if counter is not None:
                tracer.work[sid] = counter(args, kwargs, result)
            return result
        return traced

    def _wrap_forward(self, fn, name):
        wrapped = self._wrap(fn, name, _infer_steps)

        def forward(*args, **kwargs):
            if kwargs.get("mode") != "infer":
                return fn(*args, **kwargs)
            return wrapped(*args, **kwargs)
        return forward

    def install(self) -> None:
        for owner, attr, name, counter in LAYERS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))
        owner, attr, name = FORWARD
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap_forward(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- analysis --------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self time (s), summed work."""
        child_time = defaultdict(int)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[sid] - self.starts[sid]
        out: dict[str, dict] = {}
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "work": None})
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child_time[sid]) / 1e9
            w = self.work[sid]
            if w is not None:
                if isinstance(w, tuple):
                    prev = row["work"] or (0,) * len(w)
                    row["work"] = tuple(a + b for a, b in zip(prev, w))
                else:
                    row["work"] = (row["work"] or 0) + w
        return out

    def coverage(self, roots: set[str]) -> float:
        """Share of the root spans' time that their child spans cover."""
        root_ids = {sid for sid, n in enumerate(self.names) if n in roots}
        total = sum(self.ends[s] - self.starts[s] for s in root_ids)
        covered = sum(self.ends[s] - self.starts[s]
                      for s, p in enumerate(self.parents) if p in root_ids)
        return covered / total if total else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min(self.starts) if self.starts else 0
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid},{name},{self.starts[sid] - t0},"
                         f"{self.ends[sid] - t0},{self.parents[sid]}\n")

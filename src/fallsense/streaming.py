"""Sample-by-sample replay of a trial through both models.

The pipeline per sample: one orientation filter step, feature-frame
assembly, one stateful detector step, and (while the detector reports
falling) one impact-time evaluation.  Real-time mode paces samples at the
200 Hz period; fast mode runs unpaced.  Event values are identical in
both modes.

The orientation filter initializes from the accelerometer mean over the
first half second, exactly like the batch estimator, so a streamed trial
reproduces the batch detector outputs bit for bit.  Events for those
warm-up samples are emitted once the window is full; after the warm-up,
event k depends only on samples up to k.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fdnn as fdnn_mod
from . import kan as kan_mod
from .features import FDNN_FEATURES, FEATURE_NAMES, feature_indices
from .orientation import (
    FilterConfig,
    OrientationError,
    backward_difference,
    init_state,
    predict_step,
    tilt_angles,
    unit_body_up,
    update_step,
)
from .sisfall import SAMPLE_PERIOD_S, CalibratedTrial, SubjectProfile


class StreamError(ValueError):
    pass


class StreamEvent(NamedTuple):
    index: int
    p_falling: float
    decision: bool
    tti_ms: float | None     # gated mode: present iff the decision is falling
    latency_us: float


@dataclass(frozen=True)
class LatencyReport:
    mean_us: float
    p99_us: float
    max_us: float
    deadline_misses: int
    deadline_us: float
    count: int


class FdnnStream:
    """Stateful per-sample detector: ``fdnn.InferStep`` stepped one row
    at a time, the same step infer-mode ``fdnn.forward`` scans over a
    batch, so the stream reproduces ``predict_trace`` bit for bit."""

    def __init__(self, params: fdnn_mod.FdnnParams,
                 config: fdnn_mod.FdnnConfig):
        self.params = params
        self.config = config
        self._step = fdnn_mod.InferStep(params, config)

    def reset(self) -> None:
        self._step.reset()

    def step(self, x: np.ndarray) -> float:
        """P(falling) for one standardized 18-entry input row."""
        return self._step(x)[0]


def stream_trial(
    fdnn_checkpoint: Path | str,
    kan_checkpoint: Path | str,
    trial: CalibratedTrial,
    subject: SubjectProfile,
    mode: str = "fast",
    filter_config: FilterConfig | None = None,
    body_up: np.ndarray | None = None,
    deriv_order: int = 2,
    deadline_us: float = 5000.0,
    kan_gating: bool = True,
) -> tuple[list[StreamEvent], LatencyReport]:
    """Replay one calibrated trial through both models.

    Returns one event per sample plus the per-sample latency summary.
    Latency is pure processing time; real-time pacing waits are not
    counted.  By default the impact estimator runs only while the
    detector reports falling; ``kan_gating=False`` evaluates it on every
    sample instead.  A ``body_up`` or ``deriv_order`` that gives no tilt
    raises StreamError before any work, and a trial with a non-finite
    sample raises it before any event is emitted.
    """
    if mode not in ("realtime", "fast"):
        raise StreamError(f"unknown mode {mode!r}")
    if deriv_order not in (1, 2):
        raise StreamError(f"derivative order must be 1 or 2, got {deriv_order}")
    if body_up is not None:
        try:
            unit_body_up(body_up)
        except OrientationError as exc:
            raise StreamError(str(exc)) from None
    params, fcfg, fstats, fnames = fdnn_mod.load_checkpoint(fdnn_checkpoint)
    kan_model = kan_mod.load_checkpoint(kan_checkpoint)

    if tuple(fnames) != FDNN_FEATURES:
        raise StreamError(
            "detector checkpoint feature list does not match the 18-entry "
            "frame view")
    unknown = [n for n in kan_model.feature_names if n not in FEATURE_NAMES]
    if unknown:
        raise StreamError(f"impact-model features not in the frame: {unknown}")

    kan_idx = feature_indices(kan_model.feature_names)
    filter_config = filter_config or FilterConfig()
    n = len(trial)
    if n == 0:
        raise StreamError("empty trial")
    for sensor, values in (("ADXL345", trial.accel_adxl345),
                           ("ITG3200", trial.gyro_itg3200),
                           ("MMA8451Q", trial.accel_mma8451q)):
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            raise StreamError(f"{sensor}: non-finite sample at index "
                              f"{int(bad.argmax())}")

    detector = FdnnStream(params, fcfg)
    static = subject.static_vector()
    window = max(1, min(n, int(round(
        filter_config.init_window_s / SAMPLE_PERIOD_S))))
    kernel = kan_mod.KanKernel(kan_model)
    kan_window = kan_model.config.window_samples
    kan_rows: list[list[float]] = []     # trailing window, oldest first

    accel = trial.accel_adxl345
    gyro = trial.gyro_itg3200
    state = None
    prev = prev2 = 0.0          # tilt at samples k-1 and k-2
    events: list[StreamEvent] = []
    latencies = np.empty(n)
    frame = np.empty(len(FEATURE_NAMES))
    frame[0:4] = static

    def process(k: int) -> StreamEvent:
        nonlocal state, prev, prev2
        t0 = time.perf_counter_ns()
        if k == 0:
            state = update_step(state, accel[0])
        else:
            state = predict_step(state, gyro[k], SAMPLE_PERIOD_S)
            state = update_step(state, accel[k])
        theta = float(tilt_angles(state.q[None, :], body_up)[0])
        frame[4:7] = accel[k]
        frame[7:10] = trial.accel_mma8451q[k]
        frame[10:13] = gyro[k]
        frame[13:17] = state.q
        frame[17] = theta
        frame[18] = (backward_difference(theta, prev, prev2, SAMPLE_PERIOD_S,
                                         deriv_order)
                     if k >= deriv_order else 0.0)
        prev, prev2 = theta, prev

        x = (frame[:18] - fstats.mean) / fstats.std
        p_fall = detector.step(x)
        decision = bool(p_fall > fcfg.threshold)

        kan_rows.append(frame[kan_idx].tolist())
        if len(kan_rows) > kan_window:
            kan_rows.pop(0)
        tti = None
        if decision or not kan_gating:
            # Column means, each summed from 0.0 oldest row first, as
            # np.mean(kan_rows, axis=0) adds them.
            count = len(kan_rows)
            smoothed = []
            for column in zip(*kan_rows):
                total = 0.0
                for v in column:
                    total += v
                smoothed.append(total / count)
            tti = kan_mod.predict_smoothed_row(kernel, smoothed)
        latency_us = (time.perf_counter_ns() - t0) / 1000.0
        latencies[k] = latency_us
        return StreamEvent(k, p_fall, decision, tti, latency_us)

    start = time.perf_counter()
    for k in range(n):
        if mode == "realtime":
            wait = start + (k + 1) * SAMPLE_PERIOD_S - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
        if k == window - 1:
            # Warm-up window full: initialize the filter exactly like the
            # batch estimator and emit the deferred events.
            state = init_state(accel[:window].mean(axis=0), filter_config)
            for j in range(window):
                events.append(process(j))
        elif k >= window:
            events.append(process(k))

    report = LatencyReport(
        mean_us=float(latencies.mean()),
        p99_us=float(np.percentile(latencies, 99)),
        max_us=float(latencies.max()),
        deadline_misses=int((latencies > deadline_us).sum()),
        deadline_us=deadline_us,
        count=n,
    )
    return events, report


def write_events_csv(path: Path | str, events: list[StreamEvent]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "p_falling", "decision", "tti_ms",
                         "latency_us"])
        for e in events:
            writer.writerow([
                e.index, f"{e.p_falling:.9f}", int(e.decision),
                "" if e.tti_ms is None else f"{e.tti_ms:.3f}",
                f"{e.latency_us:.1f}",
            ])

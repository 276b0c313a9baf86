"""Sample-by-sample replay of a trial through both models.

The pipeline per sample: one orientation filter step, feature-frame
assembly, one stateful detector step, and (while the detector reports
falling) one impact-time evaluation.  Real-time mode paces samples at the
200 Hz period; fast mode runs unpaced.  Event values are identical in
both modes.

What does not change within a trial is done once per trial, before the
first tick: the sensor arrays are checked, the checkpoints are read, the
body-up axis is scaled to unit length (a ``UnitAxis``, which each tick's
tilt takes as it is), and the 4 static detector inputs are written and
standardized in the detector's own input row (``InferStep.inputs``).  A
tick then runs the filter steps, the tilt and its derivative, builds the
frame from the sample's rows (unpacked as the loop reaches them), packs
the frame's 14 dynamic detector entries into that row and standardizes
them there (so ``step`` copies nothing), steps the detector and, if the
impact model runs, reads it.  Each tick keeps its event as a plain tuple;
the ``StreamEvent`` list is built once after the last sample.

The orientation filter starts like the batch estimator
(``orientation.filter_start``: the accelerometer mean over the first half
second), so a streamed trial reproduces the batch detector outputs bit for
bit.  Events for those warm-up samples are emitted once the window is
full; after the warm-up, event k depends only on samples up to k.
"""

from __future__ import annotations

import math
import struct
import time
from collections import deque
from dataclasses import dataclass
from itertools import repeat
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
    filter_start,
    predict_step,
    tilt_angles,
    unit_body_up,
    update_step,
)
from .sisfall import SAMPLE_PERIOD_S, CalibratedTrial, SubjectProfile


class StreamError(ValueError):
    pass


@dataclass(frozen=True)
class StreamSettings:
    """Replay settings: the per-sample latency budget that counts as a
    deadline miss, and whether the impact model runs only while the
    detector reports falling."""

    deadline_us: float = 5000.0
    kan_gating: bool = True

    def __post_init__(self):
        # Written as "not (valid)" so that NaN is rejected too: a NaN
        # deadline would count no sample as a miss.  A string such as "no"
        # is truthy and would leave the gate on.
        if (isinstance(self.deadline_us, bool)
                or not 0.0 < self.deadline_us < math.inf):
            raise StreamError(f"deadline_us must be positive and finite, "
                              f"got {self.deadline_us!r}")
        if not isinstance(self.kan_gating, bool):
            raise StreamError(f"kan_gating must be true or false, "
                              f"got {self.kan_gating!r}")


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


# The detector the stream steps: ``fdnn.InferStep``, one row at a time
# through ``.step``.  The benchmark's tracer (perfbench/spans.py) reads
# this name when it is imported and patches its ``.step``.
FdnnStream = fdnn_mod.InferStep


def stream_trial(
    fdnn_checkpoint: Path | str,
    kan_checkpoint: Path | str,
    trial: CalibratedTrial,
    subject: SubjectProfile,
    mode: str = "fast",
    filter_config: FilterConfig | None = None,
    body_up: np.ndarray | None = None,
    deriv_order: int = 2,
    deadline_us: float = StreamSettings.deadline_us,
    kan_gating: bool = StreamSettings.kan_gating,
) -> tuple[list[StreamEvent], LatencyReport]:
    """Replay one calibrated trial through both models.

    Returns one event per sample plus the per-sample latency summary.
    Latency is pure processing time; real-time pacing waits are not
    counted.  By default the impact estimator runs only while the
    detector reports falling; ``kan_gating=False`` evaluates it on every
    sample instead.  Settings that ``StreamSettings`` refuses, a
    ``body_up`` or ``deriv_order`` that gives no tilt, a trial too short
    for the tilt derivative (under ``deriv_order + 1`` samples, which the
    batch path refuses too), sensor arrays that are not all (n, 3) with
    one n, or a non-finite sample raise StreamError before the
    checkpoints are read.  Each sensor's rows are read as float64.
    """
    StreamSettings(deadline_us, kan_gating)     # the config path's checks
    if mode not in ("realtime", "fast"):
        raise StreamError(f"unknown mode {mode!r}")
    if deriv_order not in (1, 2):
        raise StreamError(f"derivative order must be 1 or 2, got {deriv_order}")
    if body_up is not None:
        try:
            body_up = unit_body_up(body_up)     # once, not every tick
        except OrientationError as exc:
            raise StreamError(str(exc)) from None
    n = len(trial)
    sensors = []                # float64 (n, 3) rows: ADXL345, gyro, MMA
    for sensor, values in (("ADXL345", trial.accel_adxl345),
                           ("ITG3200", trial.gyro_itg3200),
                           ("MMA8451Q", trial.accel_mma8451q)):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (n, 3):
            raise StreamError(f"{sensor}: samples must be ({n}, 3), "
                              f"got {values.shape}")
        if not np.isfinite(values).all():
            bad = ~np.isfinite(values).all(axis=1)
            raise StreamError(f"{sensor}: non-finite sample at index "
                              f"{int(bad.argmax())}")
        sensors.append(values)
    if n < deriv_order + 1:
        # The batch path refuses it too (orientation.angular_derivative).
        raise StreamError(f"order-{deriv_order} derivative needs >= "
                          f"{deriv_order + 1} samples, got {n}")
    params, fcfg, fstats, fnames = fdnn_mod.load_checkpoint(fdnn_checkpoint)
    kan_model = kan_mod.load_checkpoint(kan_checkpoint)

    if tuple(fnames) != FDNN_FEATURES:
        raise StreamError(
            "detector checkpoint feature list does not match the 18-entry "
            "frame view")
    unknown = [n for n in kan_model.feature_names if n not in FEATURE_NAMES]
    if unknown:
        raise StreamError(f"impact-model features not in the frame: {unknown}")

    detector = fdnn_mod.InferStep(params, fcfg)
    threshold = fcfg.threshold
    dt = SAMPLE_PERIOD_S
    state, window = filter_start(sensors[0], filter_config, dt)
    kernel = kan_mod.KanKernel(kan_model)
    kan_idx = feature_indices(kan_model.feature_names).tolist()
    recent: deque[list[float]] = deque(       # trailing frames, oldest first
        maxlen=kan_model.config.window_samples)

    # Each sample's 19-entry frame is one list of Python floats, built from
    # the three sensors' rows, unpacked as the loop reaches them, and the
    # filter's quaternion; its first 18 entries are the detector's own
    # input row, standardized there.  The 4 static entries are written and
    # standardized once; a tick packs the 14 dynamic ones and standardizes
    # those alone, with the same two ufuncs.
    static = subject.static_vector().tolist()
    n_static, n_fdnn = len(static), len(FDNN_FEATURES)
    fixed = detector.inputs[0, :n_static]
    dynamic = detector.inputs[0, n_static:]
    subtract, divide = np.subtract, np.divide
    fixed[:] = static
    subtract(fixed, fstats.mean[:n_static], fixed)
    divide(fixed, fstats.std[:n_static], fixed)
    mean, std = fstats.mean[n_static:], fstats.std[n_static:]
    pack = struct.Struct(f"={n_fdnn - n_static}d").pack_into
    accel, gyro, accel2 = map(struct.Struct("3d").iter_unpack, sensors)
    prev = prev2 = 0.0          # tilt at samples k-1 and k-2
    ticks: list[tuple] = []     # each event's fields, one tuple per sample
    latencies: list[float] = []
    realtime = mode == "realtime"
    clock = time.perf_counter_ns

    # The first ``window`` events wait for the warm-up window: at its
    # last sample the filter starts exactly like the batch estimator, and
    # those events run in that sample's tick.  Every later event runs in
    # its own tick.
    start = time.perf_counter()
    if realtime:
        wait = start + window * dt - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
    for k, (a, g, a2) in enumerate(zip(accel, gyro, accel2)):
        if realtime and k >= window:
            wait = start + (k + 1) * dt - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
        t0 = clock()
        if k:
            state = predict_step(state, g, dt)
        state = update_step(state, a)
        theta = float(tilt_angles((state.quat,), body_up)[0])
        deriv = (backward_difference(theta, prev, prev2, dt, deriv_order)
                 if k >= deriv_order else 0.0)
        prev, prev2 = theta, prev
        frame = [*static, *a, *a2, *g, *state.quat, theta, deriv]

        pack(dynamic, 0, *frame[n_static:n_fdnn])
        subtract(dynamic, mean, dynamic)
        divide(dynamic, std, dynamic)
        p_fall = detector.step()
        decision = p_fall > threshold

        recent.append(frame)
        tti = None
        if decision or not kan_gating:
            # Trailing column means, each summed from 0.0 oldest frame
            # first, as np.mean(rows, axis=0) adds them.
            count = len(recent)
            smoothed = []
            for i in kan_idx:
                total = 0.0
                for row in recent:
                    total += row[i]
                smoothed.append(total / count)
            tti = kan_mod.predict_smoothed_row(kernel, smoothed)
        latency_us = (clock() - t0) / 1000.0
        latencies.append(latency_us)
        ticks.append((k, p_fall, decision, tti, latency_us))

    # tuple.__new__ is StreamEvent._make without its Python-level call.
    events = list(map(tuple.__new__, repeat(StreamEvent, n), ticks))
    latencies = np.array(latencies)
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
    """A header and one CRLF-terminated line per event, written at once:
    the bytes ``csv.writer`` gives, with an empty ``tti_ms`` field where
    the impact model did not run.  All lines are formatted in one ``%``
    pass over the events' flat fields, ``tti_ms`` formatted first."""
    fields = []
    for i, p, d, t, lat in events:
        fields += i, p, d, "" if t is None else "%.3f" % t, lat
    with open(path, "w", newline="") as fh:
        fh.write("index,p_falling,decision,tti_ms,latency_us\r\n"
                 + "%d,%.9f,%d,%s,%.1f\r\n" * len(events) % tuple(fields))

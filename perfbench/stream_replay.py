"""The stream workloads: replay the seeded trial mix through ``stream_trial``.

One round streams every trial of the mix once, in fast mode, with the
stored models.  Everything each call is checked against is made before
the first round: the program's own batch path on the same trials, an
independent NumPy detector forward and KAN evaluation, and the
generator's labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import env
import inputs
import reference
import speed
from fallsense import fdnn, features, kan, pipeline
from fallsense.sisfall import SAMPLE_PERIOD_S
from fallsense.streaming import stream_trial

DETECTOR = env.MODELS / "detector.ckpt"
IMPACT = env.MODELS / "impact.ckpt"
WARMUP = int(round(0.5 / SAMPLE_PERIOD_S))   # events emitted as one burst
P_TOL = 1e-9          # streamed vs independent P(falling)
TTI_TOL_MS = 1e-6     # streamed vs independent / batch impact time
# Share of ADL samples the detector must leave unflagged.  Every ADL
# sample is background in the generator's labels.
ADL_SPECIFICITY_FLOOR = 0.98
TRACE_ROOTS = {"streaming.stream_trial"}


@dataclass
class TrialRefs:
    batch_p: np.ndarray          # fdnn.predict_trace on the batch frames
    ref_p: np.ndarray            # independent NumPy forward
    ref_tti: np.ndarray          # independent KAN on causal, trailing rows
    segment: tuple[int, int] | None = None   # batch fall segment (probes)
    segment_tti: np.ndarray | None = None    # kan.predict_segment on it


@dataclass
class StreamState:
    gating: bool
    trials: list
    refs: list[TrialRefs]
    threshold: float
    digest: str
    # One entry per recorded round: summed wall time of the calls and every
    # sample's latency (without the warm-up bursts; NaN where the call
    # failed), both at the reference speed (speed.py), and the raw summed
    # wall time.
    round_s: list[float] = field(default_factory=list)
    round_raw_s: list[float] = field(default_factory=list)
    round_lat: list[np.ndarray] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    flagged: int = 0


def setup_code() -> str:
    """What a fresh device process runs before its first sample."""
    return ("import fallsense.streaming\n"
            "from fallsense import fdnn, kan\n"
            f"fdnn.load_checkpoint({str(DETECTOR)!r})\n"
            f"kan.load_checkpoint({str(IMPACT)!r})\n")


def _references(trial, params, cfg, stats, model, ref_det, ref_imp):
    frames = pipeline.orient_and_frame(trial.annotated, inputs.WEARER)
    ex = pipeline.frames_to_example(frames, stats)
    batch_p = fdnn.predict_trace(params, cfg, ex.static, ex.sequence).p_falling
    ref_p = ref_det.p_falling(frames.data[:, :18])

    cols = [features.FEATURE_NAMES.index(n) for n in ref_imp.feature_names]
    rows = frames.data[:, cols].copy()
    if "theta_deriv" in ref_imp.feature_names:
        # The stream differentiates the tilt causally (backward).
        rows[:, ref_imp.feature_names.index("theta_deriv")] = \
            reference.causal_second_difference(frames.column("theta"),
                                               SAMPLE_PERIOD_S)
    ref_tti = ref_imp.tti_ms(reference.trailing_mean(rows, ref_imp.window))
    refs = TrialRefs(batch_p, ref_p, ref_tti)
    if trial.probe:
        seg = features.extract_fall_segment(
            trial.annotated, frames, feature_names=model.feature_names)
        refs.segment = (seg.start_index, seg.end_index)
        refs.segment_tti = kan.predict_segment(model, seg)
    return refs


def prepare(seed: int, gating: bool) -> StreamState:
    trials = inputs.stream_mix(seed)
    params, cfg, stats, _ = fdnn.load_checkpoint(DETECTOR)
    model = kan.load_checkpoint(IMPACT)
    ref_det = reference.Detector.load(DETECTOR)
    ref_imp = reference.ImpactModel.load(IMPACT)
    refs = [_references(t, params, cfg, stats, model, ref_det, ref_imp)
            for t in trials]
    return StreamState(gating=gating, trials=trials, refs=refs,
                       threshold=ref_det.threshold,
                       digest=inputs.digest_trials(trials))


def cleanup(state: StreamState) -> None:
    pass


def describe(state: StreamState) -> str:
    kinds = [t.kind + ("*" if t.probe else "") for t in state.trials]
    n = sum(len(t) for t in state.trials)
    return (f"{len(kinds)} trials x {inputs.TRIAL_S:g} s ({n} samples): "
            f"{' '.join(kinds)} (* = fixed probe); "
            f"kan_gating={state.gating}")


def run_round(state: StreamState, ops, tracer=None, record=True) -> float:
    """Stream every trial once; returns the summed wall time of the calls.

    A recorded round brackets every call with speed probes and keeps its
    times at the reference speed.
    """
    scaler = speed.Scaler() if record else None
    round_ns = 0
    scaled_s = 0.0
    adl_total = adl_flagged = 0
    latencies = [np.full(len(t) - WARMUP, np.nan) for t in state.trials]
    flagged = 0
    for i, (trial, refs) in enumerate(zip(state.trials, state.refs)):
        n = len(trial)
        sid = tracer.open("streaming.stream_trial") if tracer else None
        t0 = time.perf_counter_ns()
        try:
            events, _ = stream_trial(DETECTOR, IMPACT, trial.trial,
                                     inputs.WEARER, mode="fast",
                                     kan_gating=state.gating)
        except Exception as exc:        # a failed call is counted, not fatal
            events, error = None, exc
        wall_ns = time.perf_counter_ns() - t0
        if tracer:
            tracer.close(sid, n)
        factor = scaler.next() if scaler else 1.0
        if events is None:
            ops.check("stream_trial", False,
                      f"{trial.trial.trial_id}: {error!r}")
            continue
        round_ns += wall_ns
        scaled_s += wall_ns * factor / 1e9

        index = np.fromiter((e.index for e in events), np.int64, len(events))
        p = np.fromiter((e.p_falling for e in events), float, len(events))
        dec = np.fromiter((e.decision for e in events), bool, len(events))
        tti = np.fromiter((np.nan if e.tti_ms is None else e.tti_ms
                           for e in events), float, len(events))
        lat = np.fromiter((e.latency_us for e in events), float, len(events))
        has_tti = ~np.isnan(tti)
        tid = trial.trial.trial_id

        shape_ok = len(events) == n and np.array_equal(index, np.arange(n))
        ops.check("stream_trial", bool(
            shape_ok
            and np.all(np.isfinite(p)) and np.all((p >= 0) & (p <= 1))
            and np.array_equal(dec, p > state.threshold)
            and np.array_equal(has_tti, dec if state.gating else
                               np.ones(n, bool))
            and np.all(tti[has_tti] >= 0)
            and lat.sum() <= wall_ns / 1e3), f"{tid}: event invariants")
        if not shape_ok:
            continue
        ops.check("detector_reference", bool(
            np.array_equal(p, refs.batch_p)
            and np.max(np.abs(p - refs.ref_p)) <= P_TOL),
            f"{tid}: streamed P(falling) differs from batch or reference")
        ops.check("impact_reference", bool(
            np.all(np.abs(tti[has_tti] - refs.ref_tti[has_tti])
                   <= TTI_TOL_MS)),
            f"{tid}: streamed tti_ms differs from the reference KAN")
        if trial.kind == "fall":
            onset, impact = trial.truth.fall_span
            ops.check("fall_flagged", bool(dec[onset:impact + 1].any()),
                      f"{tid}: fall never flagged inside its span")
        else:
            adl_total += n
            adl_flagged += int(dec.sum())
        if refs.segment is not None and not state.gating:
            s, e = refs.segment
            diff = np.abs(tti[s:e + 1] - refs.segment_tti)
            ops.check("impact_equivalence", bool(np.all(diff <= TTI_TOL_MS)),
                      f"{tid}: streamed vs batch segment tti_ms max "
                      f"{diff.max():.3f} ms, mean {diff.mean():.3f} ms")

        latencies[i] = lat[WARMUP:] * factor
        flagged += int(dec.sum())
    specificity = 1.0 - adl_flagged / max(adl_total, 1)
    ops.check("adl_specificity", specificity >= ADL_SPECIFICITY_FLOOR,
              f"ADL specificity {specificity:.4f}")
    if record and round_ns:
        state.round_s.append(scaled_s)
        state.round_raw_s.append(round_ns / 1e9)
        state.round_lat.append(np.concatenate(latencies))
        state.factors += scaler.factors
        state.flagged += flagged
    return round_ns / 1e9


def sample_latencies(state: StreamState) -> np.ndarray:
    """Every sample's latency: the median of its recorded replays.

    A per-sample median over rounds, taken before the percentiles, keeps
    the tail from following the share of a round the machine ran slow, or
    one call whose probes missed a slow phase.
    """
    with np.errstate(all="ignore"):
        lat = np.nanmedian(np.array(state.round_lat), axis=0)
    return lat[~np.isnan(lat)]


def end_to_end(state: StreamState) -> dict[str, float]:
    """At the reference speed: medians over the recorded rounds, and
    latency percentiles over the samples' medians."""
    samples = sum(len(t) for t in state.trials)
    p50, p99 = np.percentile(sample_latencies(state), [50, 99])
    return {
        "stream_samples_per_s": samples / float(np.median(state.round_s)),
        "sample_latency_p50_us": float(p50),
        "sample_latency_p99_us": float(p99),
        "pipeline_s": float(np.median(state.round_s)),
    }


def notes(state: StreamState) -> list[str]:
    rounds = len(state.round_s)
    samples = sum(len(t) for t in state.trials)
    return [f"round walls at reference speed (s): "
            f"{' '.join(f'{r:.3f}' for r in state.round_s)}",
            f"round walls as measured (s): "
            f"{' '.join(f'{r:.3f}' for r in state.round_raw_s)}",
            speed.summary(state.factors),
            f"round p50/p99 at reference speed (us): " + " ".join(
                "{:.1f}/{:.1f}".format(*np.nanpercentile(r, [50, 99]))
                for r in state.round_lat),
            f"rounds: {rounds}; samples per round: {samples}; flagged "
            f"share: {state.flagged / max(samples * rounds, 1):.4f}"]

"""fallsense benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload stream-gated --seed 1 --seconds 30 --trace 0

Workloads: ``stream-gated``, ``stream-ungated`` (200 Hz stream replay with
the KAN gate on and off) and ``train-eval`` (the corpus CLI pipeline).
With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics, the span coverage and the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import env

WORKLOADS = ("stream-gated", "stream-ungated", "train-eval")
SETUP_REPEATS = 7
# Operations that fail on every run because of a known fault in the
# program: the streamed impact time is not the one eval-kan scores (the
# batch path differentiates the tilt with central differences and smooths
# with windows that restart at fall onset; the stream does neither).
KNOWN_FAILING = {"impact_equivalence"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "stream_samples_per_s": "samples/s",
    "sample_latency_p50_us": "us",
    "sample_latency_p99_us": "us",
    "pipeline_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "orientation.predict_step_us": "us",
    "orientation.update_step_us": "us",
    "orientation.tilt_us": "us",
    "orientation.update_rejected": "count",
    "fdnn.stream_step_us": "us",
    "kan.eval_us": "us",
    "kan.eval_calls": "count",
    "streaming.self_us": "us",
    "checkpoint.load_ms": "ms",
    **{f"cli.{stage}_s": "s" for stage in (
        "features", "select", "train_fdnn", "eval_fdnn", "train_kan",
        "cv_kan", "eval_kan", "stream")},
    "sisfall.parse_rows_per_s": "rows/s",
    "orientation.estimate_us_per_sample": "us",
    "features.frames_us_per_sample": "us",
    "features.io_s": "s",
    "fdnn.train_sample_steps_per_s": "steps/s",
    "fdnn.pad_useful_share": "ratio",
    "fdnn.infer_sample_steps_per_s": "steps/s",
    "kan.kaczmarz_records_per_s": "records/s",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


class Ops:
    """Attempted and failed operations, by kind."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.first_failure: dict[str, str] = {}

    def check(self, kind: str, ok: bool, detail: str = "") -> None:
        c = self.counts.setdefault(kind, [0, 0])
        c[0] += 1
        if not ok:
            c[1] += 1
            self.first_failure.setdefault(kind, detail)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())

    @property
    def correct(self) -> bool:
        return all(f == 0 for kind, (_, f) in self.counts.items()
                   if kind not in KNOWN_FAILING)


def measure_setup(code: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that run ``code``, at the reference
    speed (speed.py) and as measured."""
    import speed                # imports NumPy, so only after env.setup()
    scaler = speed.Scaler()
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], cwd=env.ROOT,
                       env=env.child_env(), check=True)
        raw.append(time.perf_counter() - t0)
        times.append(raw[-1] * scaler.next())
    return times, raw


def machine_facts() -> str:
    import numpy as np
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return (f"nproc {os.cpu_count()}; Python {platform.python_version()}; "
            f"NumPy {np.__version__}; BLAS {blas}, "
            f"{env.THREAD_VARS[0]}={os.environ.get(env.THREAD_VARS[0])}")


def run_rounds(module, state, ops, seconds: float, traced: bool):
    """Whole rounds until ``seconds`` have passed (at least one of each
    kind).  A traced run first runs one uncounted warm-up round, then
    alternates untraced and traced rounds, so that the overhead compares
    warm rounds only."""
    import spans
    tracer = spans.Tracer() if traced else None
    walls = {False: [], True: []}
    if traced:
        module.run_round(state, Ops(), None, record=False)
    deadline = time.perf_counter() + seconds
    with_trace = False
    while (time.perf_counter() < deadline or not walls[False]
           or (traced and not walls[True])):
        if with_trace:
            tracer.install()
            try:
                walls[True].append(
                    module.run_round(state, ops, tracer, record=False))
            finally:
                tracer.uninstall()
        else:
            walls[False].append(module.run_round(state, ops, None))
        with_trace = traced and not with_trace
    return tracer, walls


def _work(row) -> float:
    """The counted work of a span row (the useful part of a pair)."""
    w = row["work"]
    return w[0] if isinstance(w, tuple) else w


def layer_metrics(tracer, walls, roots: set[str]) -> dict[str, float]:
    """Per-layer metrics over the traced rounds; 0 for a layer the
    workload never calls."""
    s = tracer.summary()
    rounds = len(walls[True])

    def us_per_call(name):
        row = s.get(name)
        return row["total_s"] / row["calls"] * 1e6 if row else 0.0

    def us_per_unit(name, seconds="total_s"):
        row = s.get(name)
        return row[seconds] / _work(row) * 1e6 if row and row["work"] else 0.0

    def units_per_s(name):
        row = s.get(name)
        return _work(row) / row["total_s"] if row and row["work"] else 0.0

    def s_per_round(name):
        row = s.get(name)
        return row["total_s"] / rounds if row else 0.0

    train = s.get("fdnn.train_batch")
    update = s.get("orientation.update_step")
    kan_eval = s.get("kan.eval")
    m = {
        "orientation.predict_step_us": us_per_call("orientation.predict_step"),
        "orientation.update_step_us": us_per_call("orientation.update_step"),
        "orientation.tilt_us": us_per_unit("orientation.tilt"),
        "orientation.update_rejected":
            update["work"] / rounds if update else 0.0,
        "fdnn.stream_step_us": us_per_call("fdnn.stream_step"),
        "kan.eval_us": us_per_call("kan.eval"),
        "kan.eval_calls": kan_eval["calls"] / rounds if kan_eval else 0.0,
        "streaming.self_us": us_per_unit("streaming.stream_trial", "self_s"),
        "checkpoint.load_ms": (us_per_call("checkpoint.load_detector")
                               + us_per_call("checkpoint.load_impact")) / 1e3,
    }
    for stage in ("features", "select", "train_fdnn", "eval_fdnn",
                  "train_kan", "cv_kan", "eval_kan", "stream"):
        m[f"cli.{stage}_s"] = s_per_round(f"cli.{stage}")
    m.update({
        "sisfall.parse_rows_per_s": units_per_s("sisfall.parse"),
        "orientation.estimate_us_per_sample":
            us_per_unit("orientation.estimate"),
        "features.frames_us_per_sample": us_per_unit("features.frames"),
        "features.io_s": s_per_round("features.io"),
        "fdnn.train_sample_steps_per_s": units_per_s("fdnn.train_batch"),
        "fdnn.pad_useful_share": (train["work"][0] / train["work"][1]
                                  if train else 0.0),
        "fdnn.infer_sample_steps_per_s": units_per_s("fdnn.infer"),
        "kan.kaczmarz_records_per_s": units_per_s("kan.fit"),
        "trace.coverage_pct": 100.0 * tracer.coverage(roots),
        "trace.overhead_pct": 100.0 * (statistics.median(walls[True])
                                       / statistics.median(walls[False]) - 1),
    })
    return m, s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env.setup()
    if args.workload == "train-eval":
        import train_eval as module
        state_args = (args.seed,)
    else:
        import stream_replay as module
        state_args = (args.seed, args.workload == "stream-gated")

    setup_times, setup_raw = measure_setup(module.setup_code())
    t0 = time.perf_counter()
    state = module.prepare(*state_args)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"input digest {state.digest}")
    print(f"inputs: {module.describe(state)}")
    print(f"inputs made in {time.perf_counter() - t0:.2f} s; "
          f"machine: {machine_facts()}")

    ops = Ops()
    try:
        tracer, walls = run_rounds(module, state, ops, args.seconds,
                                   bool(args.trace))
    finally:
        module.cleanup(state)
    if args.trace:
        metrics, summary = layer_metrics(tracer, walls, module.TRACE_ROOTS)
        units = PER_LAYER_UNITS
        spans_csv = env.WORK / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write(spans_csv)
        print(f"traced rounds {len(walls[True])}, untraced "
              f"{len(walls[False])}; {len(tracer.names)} spans in "
              f"{spans_csv.relative_to(env.ROOT)}")
        print(f"{'span':34s} {'calls':>9s} {'total s':>9s} {'self s':>9s}")
        for name, row in sorted(summary.items()):
            print(f"{name:34s} {row['calls']:9d} {row['total_s']:9.3f} "
                  f"{row['self_s']:9.3f}")
    else:
        metrics = module.end_to_end(state)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                                   .ru_maxrss / 1024.0)
        units = END_TO_END_UNITS
        print(f"setup runs at reference speed (s): "
              f"{' '.join(f'{t:.3f}' for t in setup_times)}; as measured: "
              f"{' '.join(f'{t:.3f}' for t in setup_raw)}")
    for line in module.notes(state):
        print(line)

    print(f"{'operation':22s} {'attempted':>9s} {'failed':>7s}")
    for kind, (attempted, failed) in sorted(ops.counts.items()):
        print(f"{kind:22s} {attempted:9d} {failed:7d}"
              + (" (known fault)" if failed and kind in KNOWN_FAILING
                 else ""))
    for kind, detail in sorted(ops.first_failure.items()):
        print(f"first failure, {kind}: {detail}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units.get(name, '')}")

    result = {
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(value), "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

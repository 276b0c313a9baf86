"""Ceilings on the Python work of one 200 Hz stream tick.

A tick's Python work is deterministic where its time is not: from the
second call on, the opcodes that ``stream_trial`` runs repeat exactly for
the same trial and models.  ``tick_counts`` streams a 1 s synthetic fall
ungated (the impact model reads every sample) through the benchmark's
stored models and counts, with ``sys.settrace`` and ``f_trace_opcodes``,
the opcodes and the Python-level calls per sample of each layer:

- ``filter.predict``, ``filter.update``: the orientation filter's steps;
- ``tilt``: ``tilt_angles`` and ``backward_difference``;
- ``detector``: ``InferStep.step`` (``_advance``, ``_lstm_cell``,
  ``falling_probability``);
- ``kan``: ``predict_smoothed_row`` and the kernel read under it;
- ``loop``: ``stream_trial``'s own body, its per-trial lines included
  (a fixed amount, spread over the trial's samples);
- ``other``: everything else that ``stream_trial`` calls (the checkpoint
  loads, the filter start, the latency report).

A layer is the code object its frame runs, or the layer of the frame that
called it.  Opcodes are counted in the ``fallsense`` package's code only,
so they do not move with NumPy's or the standard library's Python code.
A call from the package into such code (a NumPy function written in
Python, such as ``np.percentile``) still counts as a call, of the calling
layer (``other`` for ``stream_trial``'s own calls).  A count is not a
time: work inside NumPy is invisible to it.

The ceilings are the counts recorded for Python 3.11 plus 2%, so a change
that adds one Python call per tick fails here.  Other minor versions
compile other bytecode and are skipped.
"""

import gc
import sys
from collections import Counter
from pathlib import Path

import pytest

import fallsense
from fallsense import fdnn, kan, orientation, streaming
from fallsense.sisfall import SubjectProfile
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
SPEC = SyntheticSpec(duration_s=1.0, fall_onset_s=0.5, impact_s=0.8)
WEARER = SubjectProfile("SA01", age=35.0, height_cm=180.0, weight_kg=75.0,
                        gender=1.0)
PACKAGE = str(Path(fallsense.__file__).parent)
LAYERS = {
    streaming.stream_trial.__code__: "loop",
    orientation.predict_step.__code__: "filter.predict",
    orientation.update_step.__code__: "filter.update",
    orientation.tilt_angles.__code__: "tilt",
    orientation.backward_difference.__code__: "tilt",
    fdnn.InferStep.step.__code__: "detector",
    kan.predict_smoothed_row.__code__: "kan",
}
# (opcodes, calls) per sample, recorded on Python 3.11 with NumPy 2.4.
RECORDED = {
    "filter.predict": (532.325, 0.995),
    "filter.update": (858.85, 1.0),
    "tilt": (90.84, 3.99),
    "detector": (231.0, 5.0),
    "kan": (1212.69, 2.0),
    "loop": (698.1, 0.005),
    "other": (56.735, 0.905),
}
MARGIN = 1.02


def tick_counts() -> dict[str, tuple[float, float]]:
    """(opcodes, calls) per sample of each layer, for one ungated
    ``stream_trial`` of the 1 s fall on the stored models."""
    trial = generate_synthetic_trial(SPEC, seed=3)[0].trial
    opcodes, calls = Counter(), Counter()
    layer_of = {}               # the counted frames that are running

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[layer_of[frame]] += 1
        elif event == "return":
            del layer_of[frame]
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        caller = layer_of.get(frame.f_back)
        layer = LAYERS.get(code)
        if layer != "loop":
            if caller is None:          # not under stream_trial's code
                return None
            if layer is None:
                layer = "other" if caller == "loop" else caller
        calls[layer] += 1
        if not code.co_filename.startswith(PACKAGE):
            return None
        layer_of[frame] = layer
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    n = len(trial)
    previous, collecting = sys.gettrace(), gc.isenabled()
    # A cyclic collection would run finalizers and gc callbacks left by
    # other tests inside whichever frame it interrupts.
    gc.disable()
    sys.settrace(on_call)
    try:
        streaming.stream_trial(MODELS / "detector.ckpt",
                               MODELS / "impact.ckpt", trial, WEARER,
                               kan_gating=False)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return {layer: (opcodes[layer] / n, calls[layer] / n)
            for layer in calls}


@pytest.fixture(scope="module")
def counts():
    tick_counts()           # the first call warms up
    return tick_counts()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="opcode counts are recorded for Python 3.11 only")
@pytest.mark.parametrize("layer", sorted(RECORDED))
def test_tick_work_under_ceiling(counts, layer):
    assert set(counts) <= set(RECORDED)
    got_ops, got_calls = counts.get(layer, (0.0, 0.0))
    ops, calls = RECORDED[layer]
    assert got_ops <= ops * MARGIN, (layer, got_ops, ops)
    assert got_calls <= calls * MARGIN, (layer, got_calls, calls)


def test_counts_repeat(counts):
    """From the second call on, the counts are exact repeats."""
    assert tick_counts() == counts

import builtins
import json
import math
import struct
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallsense import checkpoint as ck
from fallsense import fdnn
from fallsense.checkpoint import CheckpointError
from fallsense.fdnn import (
    FdnnConfig,
    FdnnError,
    SequenceExample,
    classify,
    forward,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    predict_trace,
    sample_accuracies,
    save_checkpoint,
    train,
)
from fallsense.features import StandardizationStats
from fallsense.streaming import FdnnStream

TOY = FdnnConfig(input_dim=6, static_dim=2, inner_dim=4, fc1_units=4,
                 dropout_rate=0.0, seed=3)


def toy_batch(seed=7, B=2, T=2, masked=True):
    rng = np.random.default_rng(seed)
    static = rng.normal(size=(B, TOY.static_dim))
    seq = rng.normal(size=(B, T, TOY.input_dim - TOY.static_dim))
    labels = rng.integers(0, 2, size=(B, T))
    mask = np.ones((B, T), dtype=bool)
    if masked and B > 1:
        mask[-1, -1] = False
    return static, seq, labels, mask


class TestInit:
    def test_deterministic(self):
        a = init_params(TOY)
        b = init_params(TOY)
        for name in fdnn.PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_forget_gate_bias_is_one(self):
        p = init_params(TOY)
        h = TOY.inner_dim
        assert np.all(p.lstm1_b[h:2 * h] == 1.0)
        assert np.all(p.lstm2_b[h:2 * h] == 1.0)
        assert np.all(p.lstm1_b[:h] == 0.0)

    def test_fanin_bound(self):
        p = init_params(FdnnConfig())
        assert np.abs(p.fc1_w).max() <= 1.0 / np.sqrt(18)
        assert np.abs(p.lstm1_wx).max() <= 1.0 / np.sqrt(16)
        assert np.abs(p.fc2_w).max() <= 1.0 / np.sqrt(16)


class TestForward:
    def test_zero_params_give_half(self):
        p = init_params(TOY)
        for name in fdnn.TRAINABLE_FIELDS:
            getattr(p, name)[...] = 0.0
        static, seq, _, _ = toy_batch()
        probs = forward(p, TOY, static, seq, mode="infer")
        assert np.allclose(probs, 0.5)

    def test_trace_length(self):
        p = init_params(TOY)
        static, seq, _, _ = toy_batch(B=1, T=9, masked=False)
        trace = predict_trace(p, TOY, static[0], seq[0])
        assert trace.p_falling.shape == (9,)
        assert trace.decisions.shape == (9,)

    def test_infer_deterministic_and_pure(self):
        p = init_params(TOY)
        before = {n: getattr(p, n).copy() for n in fdnn.PARAM_FIELDS}
        static, seq, _, _ = toy_batch()
        a = forward(p, TOY, static, seq, mode="infer")
        b = forward(p, TOY, static, seq, mode="infer")
        assert np.array_equal(a, b)
        for n in fdnn.PARAM_FIELDS:
            assert np.array_equal(before[n], getattr(p, n))

    def test_softmax_sums_to_one(self):
        # train mode returns the whole softmax, infer mode its falling
        # entry per step
        p = init_params(TOY)
        static, seq, _, _ = toy_batch(B=3, T=11, masked=False)
        p_fall = forward(p, TOY, static, seq, mode="infer")
        assert p_fall.shape == (3, 11)
        assert np.all((p_fall >= 0.0) & (p_fall <= 1.0))
        probs, _ = forward(p, TOY, static, seq, mode="train")
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12

    def test_infer_makes_no_input_copy(self):
        # an infer scan holds its (B, T) output and one step's input rows,
        # not a (T, B, input_dim) copy of the inputs (768 KB here)
        p = init_params(TOY)
        rng = np.random.default_rng(4)
        static, seq = rng.normal(size=(4, 2)), rng.normal(size=(4, 4000, 4))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            forward(p, TOY, static, seq, mode="infer")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 4 * 4000 * 8 + 64 * 2**10, f"{peak} bytes"

    def test_wrong_width_rejected(self):
        p = init_params(TOY)
        with pytest.raises(FdnnError, match="input width"):
            forward(p, TOY, np.zeros((1, 2)), np.zeros((1, 3, 5)))

    def test_train_mode_updates_running_stats(self):
        p = init_params(TOY)
        before = p.bn_mean.copy()
        static, seq, _, mask = toy_batch()
        forward(p, TOY, static, seq, mode="train", mask=mask)
        assert not np.array_equal(before, p.bn_mean)


def _batch_inputs(static, seq):
    """(B, T, input_dim): the static inputs repeated along time, then seq."""
    t = seq.shape[1]
    return np.concatenate([np.repeat(static[:, None, :], t, axis=1), seq],
                          axis=2)


def _two_branch_sigmoid(x):
    """The masked two-branch form: 1/(1+e^-x) for x >= 0, e^x/(1+e^x)
    otherwise."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm_step(x, h, c, wx, wh, b, hidden):
    """One LSTM cell step on a (B, in) slab.  Gate order: i, f, g, o.  Its
    sigmoid is the two-branch form, independent of the program's."""
    gates = x @ wx + h @ wh + b
    act = _two_branch_sigmoid(gates)
    act[:, 2 * hidden:3 * hidden] = np.tanh(gates[:, 2 * hidden:3 * hidden])
    i = act[:, 0:hidden]
    f = act[:, hidden:2 * hidden]
    g = act[:, 2 * hidden:3 * hidden]
    o = act[:, 3 * hidden:4 * hidden]
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    cache = {"x": x, "h_prev": h, "c_prev": c, "i": i, "f": f, "g": g,
             "o": o, "c": c_new, "tanh_c": tanh_c}
    return h_new, c_new, cache


def ref_train_forward(params, config, static, seq, mask, rng):
    """Train-mode forward stepped one time step at a time, batch-major,
    with one cache dict per step and layer: the reference for the
    layer-wise scans."""
    x = _batch_inputs(static, seq)
    b, t, _ = x.shape
    a1 = np.empty((b, t, config.fc1_units))
    for step in range(t):
        a1[:, step, :] = x[:, step, :] @ params.fc1_w + params.fc1_b
    valid = a1[mask]
    mu, var = valid.mean(axis=0), valid.var(axis=0)
    inv = 1.0 / np.sqrt(var + config.bn_eps)
    xhat = (a1 - mu) * inv
    y_bn = params.bn_gamma * xhat + params.bn_beta
    m = config.bn_momentum
    params.bn_mean[:] = m * params.bn_mean + (1 - m) * mu
    params.bn_var[:] = m * params.bn_var + (1 - m) * var

    h = config.inner_dim
    keep = 1.0 - config.dropout_rate
    drop = [None, None, None]
    if config.dropout_rate > 0.0:
        drop = [(rng.random((b, t, config.fc1_units)) < keep) / keep,
                (rng.random((b, t, h)) < keep) / keep,
                (rng.random((b, t, h)) < keep) / keep]
    d1 = y_bn * drop[0] if drop[0] is not None else y_bn
    h1 = c1 = h2 = c2 = np.zeros((b, h))
    caches1, caches2 = [], []
    logits = np.empty((b, t, config.classes))
    for step in range(t):
        h1, c1, cache1 = ref_lstm_step(
            d1[:, step, :], h1, c1,
            params.lstm1_wx, params.lstm1_wh, params.lstm1_b, h)
        caches1.append(cache1)
        z1 = h1 * drop[1][:, step, :] if drop[1] is not None else h1
        h2, c2, cache2 = ref_lstm_step(
            z1, h2, c2, params.lstm2_wx, params.lstm2_wh, params.lstm2_b, h)
        caches2.append(cache2)
        z2 = h2 * drop[2][:, step, :] if drop[2] is not None else h2
        logits[:, step, :] = z2 @ params.fc2_w + params.fc2_b
        cache2["z2"] = z2
    cache = {"x": x, "xhat": xhat, "inv": inv, "n_valid": valid.shape[0],
             "drop": drop, "lstm1": caches1, "lstm2": caches2}
    return fdnn.softmax_rows(logits), cache


def ref_lstm_backward(caches, d_out, wx, wh, hidden):
    """BPTT through one LSTM layer, per step.  d_out: (B, T, H)."""
    b, t, _ = d_out.shape
    dx = np.empty((b, t, wx.shape[0]))
    dwx, dwh, db = np.zeros_like(wx), np.zeros_like(wh), np.zeros(4 * hidden)
    dh_next = np.zeros((b, hidden))
    dc_next = np.zeros((b, hidden))
    for step in range(t - 1, -1, -1):
        cc = caches[step]
        dh = d_out[:, step, :] + dh_next
        dc = dc_next + dh * cc["o"] * (1.0 - cc["tanh_c"] ** 2)
        do = dh * cc["tanh_c"]
        di = dc * cc["g"]
        dg = dc * cc["i"]
        df = dc * cc["c_prev"]
        dc_next = dc * cc["f"]
        dgates = np.concatenate([
            di * cc["i"] * (1 - cc["i"]),
            df * cc["f"] * (1 - cc["f"]),
            dg * (1 - cc["g"] ** 2),
            do * cc["o"] * (1 - cc["o"]),
        ], axis=1)
        dwx += cc["x"].T @ dgates
        dwh += cc["h_prev"].T @ dgates
        db += dgates.sum(axis=0)
        dx[:, step, :] = dgates @ wx.T
        dh_next = dgates @ wh.T
    return dx, dwx, dwh, db


def ref_loss_and_gradients(params, config, static, seq, labels, mask, rng):
    """Loss and gradients of the per-step forward, fc1 and fc2 included."""
    probs, cache = ref_train_forward(params, config, static, seq, mask, rng)
    b, t, _ = probs.shape
    n_valid = int(mask.sum())
    rows, steps = np.arange(b)[:, None], np.arange(t)[None, :]
    loss = float(-(np.log(np.maximum(probs[rows, steps, labels], 1e-300))
                   * mask).sum() / n_valid)
    dlogits = probs.copy()
    dlogits[rows, steps, labels] -= 1.0
    dlogits /= n_valid
    dlogits[~mask] = 0.0

    h = config.inner_dim
    drop = cache["drop"]
    grads = {"fc2_w": np.zeros_like(params.fc2_w),
             "fc2_b": np.zeros_like(params.fc2_b)}
    dz2 = np.empty((b, t, h))
    for step in range(t):
        z2 = cache["lstm2"][step]["z2"]
        grads["fc2_w"] += z2.T @ dlogits[:, step, :]
        grads["fc2_b"] += dlogits[:, step, :].sum(axis=0)
        dz2[:, step, :] = dlogits[:, step, :] @ params.fc2_w.T
    dh2 = dz2 * drop[2] if drop[2] is not None else dz2
    dz1, grads["lstm2_wx"], grads["lstm2_wh"], grads["lstm2_b"] = \
        ref_lstm_backward(cache["lstm2"], dh2, params.lstm2_wx,
                          params.lstm2_wh, h)
    dh1 = dz1 * drop[1] if drop[1] is not None else dz1
    dd1, grads["lstm1_wx"], grads["lstm1_wh"], grads["lstm1_b"] = \
        ref_lstm_backward(cache["lstm1"], dh1, params.lstm1_wx,
                          params.lstm1_wh, h)
    dy_bn = dd1 * drop[0] if drop[0] is not None else dd1

    xhat_v = cache["xhat"][mask]
    dy_v = dy_bn[mask]
    nv = cache["n_valid"]
    grads["bn_gamma"] = (dy_v * xhat_v).sum(axis=0)
    grads["bn_beta"] = dy_v.sum(axis=0)
    dxhat_v = dy_v * params.bn_gamma
    da1 = np.zeros_like(cache["xhat"])
    da1[mask] = (cache["inv"] / nv) * (
        nv * dxhat_v - dxhat_v.sum(axis=0)
        - xhat_v * (dxhat_v * xhat_v).sum(axis=0))
    grads["fc1_w"] = np.zeros_like(params.fc1_w)
    grads["fc1_b"] = np.zeros_like(params.fc1_b)
    for step in range(t):
        grads["fc1_w"] += cache["x"][:, step, :].T @ da1[:, step, :]
        grads["fc1_b"] += da1[:, step, :].sum(axis=0)
    return loss, grads


def _unfolded_infer(params, config, static, seq):
    """The unfolded infer forward, the reference for ``InferStep``: per
    step fc1 -> frozen batch norm -> ref_lstm_step x2 -> fc2 ->
    softmax_rows.  Also returns the largest |gate pre-activation| it saw."""
    b, t, _ = seq.shape
    x = _batch_inputs(static, seq)
    h = config.inner_dim
    scale = params.bn_gamma / np.sqrt(params.bn_var + config.bn_eps)
    h1 = c1 = h2 = c2 = np.zeros((b, h))
    probs = np.empty((b, t, config.classes))
    widest = 0.0
    for k in range(t):
        a1 = x[:, k, :] @ params.fc1_w + params.fc1_b
        y = (a1 - params.bn_mean) * scale + params.bn_beta
        widest = max(widest, np.abs(
            y @ params.lstm1_wx + h1 @ params.lstm1_wh + params.lstm1_b).max())
        h1, c1, _ = ref_lstm_step(y, h1, c1, params.lstm1_wx,
                                  params.lstm1_wh, params.lstm1_b, h)
        widest = max(widest, np.abs(
            h1 @ params.lstm2_wx + h2 @ params.lstm2_wh + params.lstm2_b).max())
        h2, c2, _ = ref_lstm_step(h1, h2, c2, params.lstm2_wx,
                                  params.lstm2_wh, params.lstm2_b, h)
        probs[:, k, :] = fdnn.softmax_rows(h2 @ params.fc2_w + params.fc2_b)
    return probs, widest


def _gated_model(rng, config, gain):
    """Random frozen model whose gate pre-activations reach about
    +-gain.  The recurrent weights keep their fan-in scale, so rounding
    differences are not amplified step after step."""
    p = init_params(replace(config, seed=int(rng.integers(1 << 30))))
    f, h = config.fc1_units, config.inner_dim
    p.fc1_b[:] = rng.normal(size=f)
    p.bn_gamma[:] = rng.normal(size=f)
    p.bn_beta[:] = rng.normal(size=f)
    p.bn_mean[:] = rng.normal(size=f)
    p.bn_var[:] = rng.uniform(0.2, 3.0, size=f)
    p.lstm1_wx[...] = rng.uniform(-1, 1, p.lstm1_wx.shape) * gain / np.sqrt(f)
    p.lstm2_wx[...] = rng.uniform(-1, 1, p.lstm2_wx.shape) * gain / np.sqrt(h)
    p.lstm1_b[:] = rng.uniform(-1, 1, 4 * h) * gain
    p.lstm2_b[:] = rng.uniform(-1, 1, 4 * h) * gain
    p.fc2_b[:] = rng.normal(size=config.classes)
    return p


@st.composite
def gated_cases(draw):
    d = draw(st.integers(3, 8))
    config = FdnnConfig(
        input_dim=d, static_dim=draw(st.integers(1, d - 1)),
        inner_dim=draw(st.integers(1, 6)), fc1_units=draw(st.integers(1, 6)),
        classes=draw(st.sampled_from([2, 3])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = _gated_model(rng, config, draw(st.floats(0.01, 50.0)))
    b, t = draw(st.sampled_from([1, 3])), draw(st.integers(1, 40))
    static = rng.normal(size=(b, config.static_dim))
    seq = rng.normal(size=(b, t, d - config.static_dim))
    return params, config, static, seq


class TestFoldedInference:
    """Infer-mode forward scans the folded InferStep; the unfolded
    per-layer form above is its reference."""

    @given(gated_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_unfolded_reference(self, case):
        params, config, static, seq = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise"):
                got = forward(params, config, static, seq, mode="infer")
                want, _ = _unfolded_infer(params, config, static, seq)
        assert got.shape == want.shape[:2]
        assert np.abs(got - want[..., 1]).max() <= 1e-12

    def test_saturated_gates_match_reference(self):
        config = FdnnConfig(input_dim=6, static_dim=2, inner_dim=5,
                            fc1_units=4, classes=3)
        rng = np.random.default_rng(4)
        params = _gated_model(rng, config, 50.0)
        static = rng.normal(size=(3, 2))
        seq = rng.normal(size=(3, 40, 4))
        want, widest = _unfolded_infer(params, config, static, seq)
        assert widest > 40.0
        got = forward(params, config, static, seq, mode="infer")
        assert np.abs(got - want[..., 1]).max() <= 1e-12

    def test_zero_params_give_exactly_half(self):
        p = init_params(TOY)
        for name in fdnn.TRAINABLE_FIELDS:
            getattr(p, name)[...] = 0.0
        static, seq, _, _ = toy_batch(B=3, T=12, masked=False)
        probs = forward(p, TOY, static, seq, mode="infer")
        assert np.array_equal(probs, np.full((3, 12), 0.5))

    def test_padded_batch_matches_each_trace(self):
        # sample_accuracies and eval-fdnn score padded batches: every
        # sequence's unmasked steps must be its own predict_trace
        rng = np.random.default_rng(11)
        params = _gated_model(rng, TOY, 5.0)
        examples = [SequenceExample(
            static=rng.normal(size=2),
            sequence=rng.normal(size=(t, 4)),
            labels=np.zeros(t, dtype=int)) for t in (9, 23, 1, 17)]
        static, seq, _, mask = fdnn._pad_batch(examples)
        seq[~mask] = 1e3                      # loud padding
        probs = forward(params, TOY, static, seq, mode="infer", mask=mask)
        for i, ex in enumerate(examples):
            trace = predict_trace(params, TOY, ex.static, ex.sequence)
            t = len(ex.sequence)
            assert np.array_equal(probs[i, :t], trace.p_falling)

    def test_predict_traces_crosses_chunks(self, monkeypatch):
        rng = np.random.default_rng(12)
        params = _gated_model(rng, TOY, 5.0)
        examples = [SequenceExample(
            static=rng.normal(size=2), sequence=rng.normal(size=(t, 4)),
            labels=np.zeros(t, dtype=int)) for t in (9, 3, 23, 1, 17, 9, 30)]
        monkeypatch.setattr(fdnn, "SCAN_ROWS", 3)
        traces = fdnn.predict_traces(params, TOY, examples)
        for ex, got in zip(examples, traces):
            want = predict_trace(params, TOY, ex.static, ex.sequence)
            assert np.array_equal(got.p_falling, want.p_falling)
            assert np.array_equal(got.decisions, want.decisions)


DETECTOR = (Path(__file__).resolve().parents[1] / "perfbench" / "models"
            / "detector.ckpt")


@pytest.mark.bitexact
class TestRowCountIndependence:
    """Infer mode gives each row the bits it gets when scanned alone, at
    any row count: the padded scans of eval-fdnn and the validation
    accuracy score what the stream emits."""

    @pytest.mark.parametrize("rows", [2, 7, 64])
    @pytest.mark.parametrize("model", ["toy", "detector"])
    def test_rows_together_equal_each_alone(self, model, rows):
        rng = np.random.default_rng(rows)
        if model == "toy":
            params, config = _gated_model(rng, TOY, 5.0), TOY
        else:
            params, config, _, _ = load_checkpoint(DETECTOR)
        width = config.input_dim - config.static_dim
        examples = [SequenceExample(
            static=rng.normal(size=config.static_dim),
            sequence=rng.normal(size=(t, width)),
            labels=np.zeros(t, dtype=int))
            for t in rng.integers(1, 40, size=rows)]
        static, seq, _, mask = fdnn._pad_batch(examples)
        seq[~mask] = 1e3                      # loud padding
        together = forward(params, config, static, seq, mode="infer")
        for row, ex in zip(together, examples):
            alone = forward(params, config, ex.static[None],
                            ex.sequence[None], mode="infer")[0]
            assert np.array_equal(row[:len(ex.sequence)], alone)


def _np_dot_advance(weights, config, buf, c1, c2):
    """One ``InferStep._advance`` at one row written with ``np.dot``, on
    the folded ``weights``, the ``[x | h1 | 1 | h2]`` row ``buf`` and the
    cell states, all updated in place; returns the logits."""
    d, h = config.input_dim, config.inner_dim
    w1, w2, w3 = weights
    for inputs, w, c, h_out in ((buf[:, :d + h + 1], w1, c1, buf[:, d:d + h]),
                                (buf[:, d:], w2, c2, buf[:, d + h + 1:])):
        z = np.dot(inputs, w)
        fdnn._lstm_cell(z, z[:, :h], z[:, h:2 * h], z[:, 2 * h:3 * h],
                        z[:, 3 * h:], z[:, h:], c, c, np.empty((1, h)),
                        h_out)
    return np.dot(buf[:, d + h:], w3)


class TestBoundDot:
    """The one-row step takes its products as the operand's bound
    ``ndarray.dot``, which runs the C routine that ``np.dot`` wraps.  The
    stream's bits rest on the two being equal, so this pins it on
    whatever NumPy is installed."""

    @pytest.mark.parametrize("model", ["detector", "seeded"])
    def test_one_row_steps_equal_np_dot(self, model):
        if model == "detector":
            params, config, _, _ = load_checkpoint(DETECTOR)
        else:
            config = FdnnConfig(seed=21)
            params = init_params(config)
        step = fdnn.InferStep(params, config)
        weights = fdnn._folded_weights(params, config)
        d, h = config.input_dim, config.inner_dim
        buf = np.zeros((1, d + 2 * h + 1))
        buf[:, d + h] = 1.0
        c1, c2 = np.zeros((1, h)), np.zeros((1, h))
        for x in np.random.default_rng(8).normal(0.0, 2.0, (300, d)):
            step.inputs[0] = buf[0, :d] = x
            p = step.step()
            want = _np_dot_advance(weights, config, buf, c1, c2)
            assert (step._logits == want).all()
            assert p == fdnn.falling_probability(want[0].tolist())


def _perturbed(params, rng, scale=0.05):
    """A copy of ``params`` with every array nudged, batch-norm moments
    included (the variance stays positive)."""
    out = params.copy()
    for name in fdnn.PARAM_FIELDS:
        a = getattr(out, name)
        a += scale * rng.normal(size=a.shape) * (np.abs(a) + 0.1)
    out.bn_var[...] = np.abs(out.bn_var) + 0.1
    return out


class TestSnapshotScoring:
    """Rows on different parameter sets: every (snapshot, sequence) row of
    a padded scan gets that snapshot's own ``predict_trace`` bits, so
    training can score all its epoch snapshots in one pass."""

    @pytest.fixture(params=["toy", "detector"])
    def model(self, request):
        rng = np.random.default_rng(20)
        if request.param == "toy":
            return _gated_model(rng, TOY, 5.0), TOY, rng
        params, config, _, _ = load_checkpoint(DETECTOR)
        return params, config, rng

    def _case(self, model, n_snapshots):
        params, config, rng = model
        snapshots = [params] + [_perturbed(params, rng)
                                for _ in range(n_snapshots - 1)]
        width = config.input_dim - config.static_dim
        examples = [SequenceExample(
            static=rng.normal(size=config.static_dim),
            sequence=rng.normal(size=(t, width)),
            labels=rng.integers(0, 2, size=t)) for t in (9, 23, 1, 17, 9)]
        return snapshots, config, examples

    @pytest.mark.parametrize("n_snapshots", [1, 3, 8])
    def test_per_row_forward_equals_each_alone(self, model, n_snapshots):
        snapshots, config, examples = self._case(model, n_snapshots)
        pairs = [(s, ex) for s in snapshots for ex in examples]
        static, seq, _, mask = fdnn._pad_batch([ex for _, ex in pairs])
        seq[~mask] = 1e3                      # loud padding
        together = forward([s for s, _ in pairs], config, static, seq,
                           mode="infer")
        for row, (s, ex) in zip(together, pairs):
            alone = predict_trace(s, config, ex.static, ex.sequence)
            assert np.array_equal(row[:len(ex.sequence)], alone.p_falling)

    @pytest.mark.parametrize("n_snapshots", [1, 3, 8])
    def test_scan_pairs_cross_chunks(self, model, n_snapshots, monkeypatch):
        snapshots, config, examples = self._case(model, n_snapshots)
        widths, sets = [], []

        def recording_forward(params, config, static, seq, **kwargs):
            if isinstance(params, list):
                widths.append(len(static))
                sets.append(len({id(p) for p in params}))
            return forward(params, config, static, seq, **kwargs)
        monkeypatch.setattr(fdnn, "SCAN_ROWS", 3)
        monkeypatch.setattr(fdnn, "forward", recording_forward)
        probs = [[None] * len(examples) for _ in snapshots]
        for s, i, p in fdnn._scan_pairs(snapshots, config, examples):
            probs[s][i] = p
        accuracies = fdnn.sample_accuracies(snapshots, config, examples)
        assert max(widths) == 3
        assert sum(widths) == 2 * len(snapshots) * len(examples)
        # 5 examples: each snapshot's 3 shortest fill a chunk on its own
        # weights; the 2 longest of every snapshot are pooled
        n = len(snapshots)
        want = [1] * n + [len({k % n for k in range(j, min(j + 3, 2 * n))})
                          for j in range(0, 2 * n, 3)]
        assert sets == want + want
        total = sum(len(ex.labels) for ex in examples)
        for s, row, acc in zip(snapshots, probs, accuracies):
            correct = 0
            for got, ex in zip(row, examples):
                want = predict_trace(s, config, ex.static, ex.sequence)
                assert np.array_equal(got, want.p_falling)
                assert np.array_equal(fdnn.classify(got, config.threshold),
                                      want.decisions)
                correct += int((want.decisions == (ex.labels == 1)).sum())
            assert acc == correct / total

    def test_scoring_memory_does_not_grow_with_snapshots(self, monkeypatch):
        # train scores all epoch snapshots at once: its peak must stay one
        # chunk's scan, not one trace per (snapshot, sequence) pair
        rng = np.random.default_rng(21)
        params = _gated_model(rng, TOY, 5.0)
        snapshots = [params] + [_perturbed(params, rng) for _ in range(7)]
        examples = [SequenceExample(
            static=rng.normal(size=2), sequence=rng.normal(size=(t, 4)),
            labels=rng.integers(0, 2, size=t)) for t in (2000, 1900, 1950)]
        monkeypatch.setattr(fdnn, "SCAN_ROWS", 2)

        def peak(n):
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fdnn.sample_accuracies(snapshots[:n], TOY, examples)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                if not tracing:
                    tracemalloc.stop()
        # each snapshot's two shortest fill a chunk, the longest is pooled
        # in pairs; each kept trace would add about 18 KB (2000 steps * 9
        # bytes), over 300 KB from 2 to 8 snapshots
        two, eight = peak(2), peak(8)
        assert eight <= two + 16 * 2**10, f"{two} -> {eight} bytes"

    def test_parameter_sets_must_match_rows(self):
        params = init_params(TOY)
        with pytest.raises(FdnnError, match="2 parameter sets for 3 rows"):
            fdnn.InferStep([params, params], TOY, rows=3)


class TestLstmCell:
    """The LSTM gate form: ``_lstm_cell``'s tanh over the halved slab,
    then tanh/2 + 1/2 for i, f and o, against the two-branch sigmoid."""

    GRID = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.0, -36.0,
         710.0, -710.0, 1e4, -1e4, np.finfo(float).max,
         -np.finfo(float).max],
        np.linspace(-50.0, 50.0, 20001),
        np.random.default_rng(0).normal(0.0, 8.0, 5000),
    ])

    def _cell(self):
        """One step with every gate's pre-activation the grid (H = 1), its
        columns scaled as ``gate_layout`` scales the weights."""
        x = self.GRID[:, None]
        z = x * fdnn.gate_layout(1)[1]
        c_prev = np.ones_like(x)
        c, tanh_c, h = np.empty_like(x), np.empty_like(x), np.empty_like(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise"):
                fdnn._lstm_cell(z, z[:, :1], z[:, 1:2], z[:, 2:3], z[:, 3:],
                                z[:, 1:], c_prev, c, tanh_c, h)
        return z, c, tanh_c, h

    def test_sigmoid_gates_match_two_branch_form(self):
        z, c, tanh_c, h = self._cell()
        g, i, f, o = z.T
        want = _two_branch_sigmoid(self.GRID)
        for gate in (i, f, o):
            assert np.abs(gate - want).max() <= 2.0 ** -52
        assert np.array_equal(g, np.tanh(self.GRID))
        assert np.array_equal(c[:, 0], f + i * g)
        assert np.array_equal(tanh_c[:, 0], np.tanh(c[:, 0]))
        assert np.array_equal(h[:, 0], o * tanh_c[:, 0])

    def test_exact_at_zero_and_saturation(self):
        z, *_ = self._cell()
        # GRID[0:2] are +0 and -0, GRID[10:12] are 1e4 and -1e4
        for k, want in ((0, 0.5), (1, 0.5), (10, 1.0), (11, 0.0)):
            assert np.all(z[k, 1:] == want), self.GRID[k]


class TestFallingProbability:
    @given(st.lists(st.floats(-700.0, 700.0), min_size=2, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_softmax_entry(self, logits):
        want = fdnn.softmax_rows(np.array([logits]))[0, 1]
        assert abs(fdnn.falling_probability(logits) - want) <= 1e-15

    @pytest.mark.parametrize("logits, want", [
        ([0.0, 1e4], 1.0), ([1e4, 0.0], 0.0), ([-1e4, 0.0], 1.0),
        ([0.0, -1e4], 0.0), ([0.0, 1e4, 0.0], 1.0), ([1e4, 0.0, -1e4], 0.0),
        ([-1e4, 0.0, 1e4], 0.0)])
    def test_extreme_logits_exact_without_warning(self, logits, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fdnn.falling_probability(logits) == want

    @pytest.mark.parametrize("logits", [
        [np.nan, 0.0], [0.0, np.nan], [0.0, 1.0, np.nan]])
    def test_nan_logit_gives_nan(self, logits):
        assert np.isnan(fdnn.falling_probability(logits))

    def test_stream_matches_trace_three_classes(self):
        config = FdnnConfig(input_dim=6, static_dim=2, inner_dim=5,
                            fc1_units=4, classes=3)
        rng = np.random.default_rng(8)
        params = _gated_model(rng, config, 5.0)
        static, seq = rng.normal(size=2), rng.normal(size=(60, 4))
        stream = FdnnStream(params, config)
        streamed = []
        for row in seq:
            stream.inputs[0] = np.r_[static, row]
            streamed.append(stream.step())
        trace = predict_trace(params, config, static, seq)
        assert np.array_equal(streamed, trace.p_falling)
        # unsaturated, so the third class's logit counts
        assert 0.05 < trace.p_falling.min() and trace.p_falling.max() < 0.95


class TestClassify:
    def test_strict_threshold(self):
        assert not classify(np.array([0.5]), 0.5)[0]
        assert classify(np.array([0.51]), 0.5)[0]

    def test_all_zero_trace(self):
        assert not classify(np.zeros(10), 0.5).any()


def _relative_errors(params, config, static, seq, labels, mask, eps=1e-5):
    _, grads = loss_and_gradients(params, config, static, seq, labels, mask)

    def loss_at():
        l, _ = loss_and_gradients(params, config, static, seq, labels, mask)
        return l

    worst = {}
    for name in fdnn.TRAINABLE_FIELDS:
        arr = getattr(params, name)
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = loss_at()
            arr[idx] = orig - eps
            lm = loss_at()
            arr[idx] = orig
            num[idx] = (lp - lm) / (2 * eps)
        denom = np.maximum(np.abs(grads[name]) + np.abs(num), 1e-6)
        worst[name] = float((np.abs(grads[name] - num) / denom).max())
    return worst


class TestGradients:
    def test_finite_difference_check(self):
        params = init_params(TOY)
        static, seq, labels, mask = toy_batch()
        worst = _relative_errors(params, TOY, static, seq, labels, mask)
        for name, err in worst.items():
            assert err < 1e-4, f"{name}: rel err {err}"

    def test_perfect_predictions_drive_loss_to_zero(self):
        # logits strongly favoring the right class at every step
        p = init_params(TOY)
        for name in fdnn.TRAINABLE_FIELDS:
            getattr(p, name)[...] = 0.0
        p.bn_gamma[...] = 1.0
        static = np.zeros((1, 2))
        seq = np.zeros((1, 4, 4))
        labels = np.zeros((1, 4), dtype=int)
        p.fc2_b[...] = [30.0, -30.0]  # all mass on class 0
        loss, _ = loss_and_gradients(p, TOY, static, seq, labels)
        assert loss < 1e-10

    def test_duplicated_sequence_keeps_mean_loss(self):
        p = init_params(TOY)
        static, seq, labels, _ = toy_batch(B=1, T=5, masked=False)
        l1, _ = loss_and_gradients(p.copy(), TOY, static, seq, labels)
        static2 = np.vstack([static, static])
        seq2 = np.vstack([seq, seq])
        labels2 = np.vstack([labels, labels])
        l2, _ = loss_and_gradients(p.copy(), TOY, static2, seq2, labels2)
        assert l1 == pytest.approx(l2, rel=1e-12)

    def test_padding_contributes_zero_gradient(self):
        p = init_params(TOY)
        static, seq, labels, _ = toy_batch(B=2, T=3, masked=False)
        mask_full = np.ones((2, 3), dtype=bool)
        _, g_plain = loss_and_gradients(
            p.copy(), TOY, static, seq, labels, mask_full)

        pad = 2
        seq_padded = np.concatenate(
            [seq, np.full((2, pad, seq.shape[2]), 7.7)], axis=1)
        labels_padded = np.concatenate(
            [labels, np.ones((2, pad), dtype=int)], axis=1)
        mask_padded = np.concatenate(
            [mask_full, np.zeros((2, pad), dtype=bool)], axis=1)
        _, g_padded = loss_and_gradients(
            p.copy(), TOY, static, seq_padded, labels_padded, mask_padded)
        for name in fdnn.TRAINABLE_FIELDS:
            # identical up to reduction-order rounding
            assert np.abs(g_plain[name] - g_padded[name]).max() < 1e-12


@st.composite
def train_cases(draw):
    d = draw(st.integers(3, 8))
    config = FdnnConfig(
        input_dim=d, static_dim=draw(st.integers(1, d - 1)),
        inner_dim=draw(st.integers(1, 6)), fc1_units=draw(st.integers(1, 6)),
        classes=draw(st.sampled_from([2, 3])),
        dropout_rate=draw(st.sampled_from([0.0, 0.3, 0.5])))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    params = _gated_model(rng, config, draw(st.floats(0.1, 5.0)))
    b, t = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    static = rng.normal(size=(b, config.static_dim))
    seq = rng.normal(size=(b, t, d - config.static_dim))
    labels = rng.integers(0, config.classes, size=(b, t))
    mask = rng.random((b, t)) < 0.7
    mask[np.arange(b), rng.integers(0, t, size=b)] = True
    return params, config, (static, seq, labels, mask), seed


class TestScansMatchPerStepReference:
    """The layer-wise scans compute what the per-step code above did, with
    the same dropout draws, up to summation-order rounding."""

    @given(train_cases())
    @settings(max_examples=200, deadline=None)
    def test_loss_gradients_and_running_moments(self, case):
        params, config, batch, seed = case
        ref_params = params.copy()
        loss, grads = loss_and_gradients(
            params, config, *batch, rng=np.random.default_rng(seed))
        want_loss, want = ref_loss_and_gradients(
            ref_params, config, *batch, np.random.default_rng(seed))
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert set(grads) == set(want) == set(fdnn.TRAINABLE_FIELDS)
        # One scale for all tensors: fc1_b's gradient is zero in theory
        # under batch norm, so its own scale is rounding noise.
        scale = max(np.abs(g).max() for g in want.values())
        for name, g in want.items():
            assert grads[name].shape == g.shape
            assert np.abs(grads[name] - g).max() <= 1e-12 * scale, name
        for name in ("bn_mean", "bn_var"):
            assert np.abs(getattr(params, name)
                          - getattr(ref_params, name)).max() <= 1e-12


def _lagged_edge_case(b=2, t=6, inner_dim=3, dropout_rate=0.0, gain=1.0,
                      one_step=False, seed=17):
    config = FdnnConfig(input_dim=5, static_dim=2, inner_dim=inner_dim,
                        fc1_units=3, dropout_rate=dropout_rate)
    rng = np.random.default_rng(seed)
    params = _gated_model(rng, config, gain)
    static = rng.normal(size=(b, config.static_dim))
    seq = rng.normal(size=(b, t, config.input_dim - config.static_dim))
    labels = rng.integers(0, config.classes, size=(b, t))
    mask = np.ones((b, t), dtype=bool)
    if one_step:
        mask[...] = False
        mask[0, t // 2] = True
    return params, config, (static, seq, labels, mask)


class TestLaggedScanEdges:
    """Fixed cases at the lagged scan's edges, so that the lead-in and tail
    steps run against the per-step reference on every run."""

    @pytest.mark.parametrize("case", [
        dict(t=1), dict(b=1), dict(inner_dim=1),
        dict(dropout_rate=0.5, one_step=True), dict(gain=5.0),
        dict(b=1, t=1, inner_dim=1, dropout_rate=0.5),
    ], ids=["T=1", "B=1", "inner_dim=1", "dropout-one-unmasked-step",
            "gate-scale-5", "all-at-once"])
    def test_matches_per_step_reference(self, case):
        params, config, batch = _lagged_edge_case(**case)
        ref_params = params.copy()
        loss, grads = loss_and_gradients(
            params, config, *batch, rng=np.random.default_rng(2))
        want_loss, want = ref_loss_and_gradients(
            ref_params, config, *batch, np.random.default_rng(2))
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        scale = max(np.abs(g).max() for g in want.values())
        assert scale > 0.0
        for name, g in want.items():
            assert grads[name].shape == g.shape
            assert np.abs(grads[name] - g).max() <= 1e-12 * scale, name

    def test_lead_in_and_tail_are_exact_zeros(self):
        # layer 2 before time 0 has zero state, and neither it nor layer
        # 1 after time T-1 passes back any gradient, with saturated gates
        params, config, (static, seq, _, _) = _lagged_edge_case(
            b=3, t=7, dropout_rate=0.5, gain=50.0)
        b, t, h = 3, 7, config.inner_dim
        _, cache = forward(params, config, static, seq, mode="train",
                           rng=np.random.default_rng(4))
        arrays, _, w_rec = cache["lstm"]
        states, cells = arrays.s, arrays.c
        assert not states[1, 2 * h:].any() and not cells[1, h:].any()
        arrays.d_out[...] = np.random.default_rng(5).normal(size=(t + 1, h, b))
        arrays.d_out[0] = 0.0
        dgates = fdnn._lagged_scan_backward(arrays, w_rec)
        dgates = dgates.reshape(t + 1, 4, 2, h, b)      # step, gate, layer
        assert not dgates[0, :, 1].any()
        assert not dgates[t, :, 0].any()
        assert dgates[1:, :, 1].any() and dgates[:t, :, 0].any()


class TestTrainMemory:
    """The tracemalloc peak of one ``loss_and_gradients`` call at the
    default sizes, B=4, T=900: 10.03 MiB (dropout 0) and 11.79 MiB
    (dropout 0.5) with BPTT's kept forget gate, a (T+1, 2H, B) buffer;
    9.15 and 10.91 MiB since the forget gate is kept in tanh(c)'s place.
    The limits fell by 1 MiB with it."""

    @pytest.mark.parametrize("dropout_rate, limit_mib",
                             [(0.0, 12.5), (0.5, 14.5)])
    def test_peak(self, dropout_rate, limit_mib):
        config = FdnnConfig(dropout_rate=dropout_rate)
        rng = np.random.default_rng(0)
        b, t = 4, 900
        params = init_params(config)
        batch = (rng.normal(size=(b, config.static_dim)),
                 rng.normal(size=(b, t, config.input_dim - config.static_dim)),
                 rng.integers(0, 2, size=(b, t)), np.ones((b, t), dtype=bool))
        loss_and_gradients(params, config, *batch,
                           rng=np.random.default_rng(1))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss_and_gradients(params, config, *batch,
                               rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= limit_mib * 2**20, f"{peak / 2**20:.2f} MiB"


class TestWorkspaceSize:
    """After one call at the default sizes, B=4, T=900, the workspace
    holds the buffers the scan and BPTT read and nothing more: the gates
    (T+1, 8H, B), the states (T+2, 3H, B), c and tanh(c) (2T+3, 2H, B),
    the gradient from above (T+1, H, B) and, with dropout, the mask
    between the layers (T+1, H, B): 2 slabs of (T+1)*8H*B floats, 2.125
    with dropout.  BPTT's step-free factors overwrite these."""

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    def test_total_bytes(self, dropout_rate):
        config = FdnnConfig(dropout_rate=dropout_rate)
        rng = np.random.default_rng(0)
        b, t, h = 4, 900, config.inner_dim
        workspace = fdnn._Workspace()
        loss_and_gradients(
            init_params(config), config, rng.normal(size=(b, 4)),
            rng.normal(size=(b, t, 14)), rng.integers(0, 2, size=(b, t)),
            rng=np.random.default_rng(1), workspace=workspace)
        floats = ((t + 1) * 8 * h + (t + 2) * 3 * h + (2 * t + 3) * 2 * h
                  + (t + 1) * h * (2 if dropout_rate else 1)) * b
        held = sum(buf.nbytes for buf in workspace._buffers.values())
        assert held == 8 * floats, f"{held / 2**20:.3f} MiB"


class TestWorkspace:
    """One ``_Workspace`` through batches whose T and B grow and shrink
    gives each call's loss, every gradient and the batch-norm moments bit
    for bit as a call in fresh memory, even with its buffers filled with
    NaN before each call (so every value a call reads, it wrote)."""

    SHAPES = [(3, 20), (5, 35), (2, 8), (5, 35), (4, 50), (1, 1), (6, 12),
              (3, 20)]

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    def test_matches_fresh_memory(self, dropout_rate):
        config = FdnnConfig(input_dim=6, static_dim=2, inner_dim=4,
                            fc1_units=5, dropout_rate=dropout_rate)
        params = _gated_model(np.random.default_rng(3), config, 2.0)
        workspace = fdnn._Workspace()
        for k, (b, t) in enumerate(self.SHAPES):
            rng = np.random.default_rng(k)
            mask = rng.random((b, t)) < 0.8
            mask[:, 0] = True
            batch = (rng.normal(size=(b, 2)), rng.normal(size=(b, t, 4)),
                     rng.integers(0, 2, size=(b, t)), mask)
            for buf in workspace._buffers.values():
                buf[...] = np.nan
            fresh = params.copy()
            loss, grads = loss_and_gradients(
                params, config, *batch, rng=np.random.default_rng(k),
                workspace=workspace)
            want_loss, want = loss_and_gradients(
                fresh, config, *batch, rng=np.random.default_rng(k))
            assert loss == want_loss, (b, t)
            assert set(grads) == set(want)
            for name, g in want.items():
                assert grads[name].tobytes() == g.tobytes(), (name, b, t)
            for name in ("bn_mean", "bn_var"):
                assert (getattr(params, name).tobytes()
                        == getattr(fresh, name).tobytes()), (name, b, t)

    def test_buffers_grow_to_the_largest_batch(self):
        config = FdnnConfig(input_dim=6, static_dim=2, inner_dim=4,
                            fc1_units=5, dropout_rate=0.0)
        workspace = fdnn._Workspace()
        sizes = []
        for b, t in self.SHAPES:
            workspace.arrays(t, b, config.inner_dim, False)
            sizes.append(workspace._buffers["xw"].size)
        largest = max((t + 1) * 8 * config.inner_dim * b
                      for b, t in self.SHAPES)
        assert sizes == sorted(sizes) and sizes[-1] == largest


class TestTrainWorkspaceMemory:
    """The tracemalloc peak of a whole ``train`` run at the default layer
    sizes, B=4, T up to 300: the workspace is made once, so the peak grows
    with the epochs only by the snapshots ``train`` keeps for scoring
    (37 KB each).  Measured 4.7 MiB at 4 epochs and 5.1 MiB at 16, as
    with every call in fresh memory."""

    def _peak(self, epochs):
        config = FdnnConfig(epochs=epochs, batch_size=4, dropout_rate=0.5,
                            seed=4)
        rng = np.random.default_rng(6)
        d = config.input_dim - config.static_dim
        examples = [SequenceExample(
            static=rng.normal(size=config.static_dim),
            sequence=rng.normal(size=(t, d)),
            labels=(rng.random(t) < 0.3).astype(int))
            for t in (300, 240, 300, 180, 260, 300, 120, 200, 150, 90)]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train(config, examples[:8], examples[8:])
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_peak_does_not_grow_with_epochs(self):
        four, sixteen = self._peak(4), self._peak(16)
        snapshot = sum(a.nbytes for a in init_params(FdnnConfig()).arrays()
                       .values())
        assert sixteen <= four + 12 * snapshot + 64 * 2**10, \
            f"{four} -> {sixteen} bytes"
        assert sixteen <= 6.25 * 2**20, f"{sixteen / 2**20:.2f} MiB"


def separable_set(n=10, T=40, seed=0):
    """Sequences whose label is readable off one input channel."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        static = rng.normal(size=2)
        labels = np.zeros(T, dtype=int)
        start = int(rng.integers(5, T - 10))
        labels[start:start + 8] = 1
        seq = rng.normal(0, 0.3, size=(T, 4))
        seq[:, 0] += 3.0 * labels
        out.append(SequenceExample(static=static, sequence=seq, labels=labels))
    return out


class TestTrain:
    def test_overfits_separable_set(self):
        cfg = FdnnConfig(input_dim=6, static_dim=2, inner_dim=8, fc1_units=8,
                         dropout_rate=0.0, epochs=64, batch_size=4,
                         learning_rate=3e-3, seed=1)
        data = separable_set()
        params, log = train(cfg, data, data)
        assert sample_accuracies([params], cfg, data)[0] >= 0.99
        assert len(log) == 64

    def test_deterministic_log(self):
        cfg = FdnnConfig(input_dim=6, static_dim=2, inner_dim=4, fc1_units=4,
                         dropout_rate=0.5, epochs=3, batch_size=4, seed=5)
        data = separable_set(n=6, T=20)
        _, log1 = train(cfg, data, data)
        _, log2 = train(cfg, data, data)
        assert [(r.train_loss, r.val_accuracy) for r in log1] == \
            [(r.train_loss, r.val_accuracy) for r in log2]

    def test_returned_snapshot_is_argmax(self):
        cfg = FdnnConfig(input_dim=6, static_dim=2, inner_dim=4, fc1_units=4,
                         dropout_rate=0.0, epochs=5, batch_size=4, seed=2)
        data = separable_set(n=6, T=20)
        params, log = train(cfg, data, data)
        best = max(r.val_accuracy for r in log)
        assert sample_accuracies([params], cfg, data)[0] == pytest.approx(best)

    def test_empty_sets_rejected(self):
        with pytest.raises(FdnnError):
            train(FdnnConfig(), [], [])


def _per_epoch_train(config, train_set, val_set):
    """The reference for ``train``: the same Adam loop, validation scored
    at the end of every epoch, one ``predict_trace`` per sequence, and the
    best snapshot copied as it appears (earliest epoch wins ties)."""
    params = init_params(config)
    rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)
    adam_m = {f: np.zeros_like(getattr(params, f))
              for f in fdnn.TRAINABLE_FIELDS}
    adam_v = {f: np.zeros_like(getattr(params, f))
              for f in fdnn.TRAINABLE_FIELDS}
    step_count = 0
    best_params, best_acc, log = params.copy(), -1.0, []
    total = sum(len(e.labels) for e in val_set)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_set))
        losses, norms = [], []
        for i in range(0, len(order), config.batch_size):
            batch = [train_set[j] for j in order[i:i + config.batch_size]]
            static, seq, labels, mask = fdnn._pad_batch(batch)
            loss, grads = loss_and_gradients(
                params, config, static, seq, labels, mask, rng=drop_rng)
            losses.append(loss)
            norms.append(fdnn._clip_gradients(grads, config.grad_clip))
            step_count += 1
            b1c = 1.0 - config.beta1 ** step_count
            b2c = 1.0 - config.beta2 ** step_count
            for name in fdnn.TRAINABLE_FIELDS:
                g = grads[name]
                adam_m[name] = (config.beta1 * adam_m[name]
                                + (1 - config.beta1) * g)
                adam_v[name] = (config.beta2 * adam_v[name]
                                + (1 - config.beta2) * g * g)
                update = (config.learning_rate * (adam_m[name] / b1c)
                          / (np.sqrt(adam_v[name] / b2c) + config.adam_eps))
                getattr(params, name)[...] -= update
        correct = sum(int((predict_trace(params, config, e.static,
                                         e.sequence).decisions
                           == (e.labels == 1)).sum()) for e in val_set)
        val_acc = correct / total
        log.append((float(np.mean(losses)), val_acc, float(np.mean(norms)),
                    float(np.max(norms)),
                    float(np.mean([n > config.grad_clip for n in norms]))))
        if val_acc > best_acc:
            best_acc, best_params = val_acc, params.copy()
    return best_params, log


def _log_rows(log):
    """An ``EpochLog`` list as ``_per_epoch_train`` logs it: every field
    but the epoch number and ``wall_seconds``."""
    return [(r.train_loss, r.val_accuracy, r.grad_norm_mean, r.grad_norm_max,
             r.clipped_fraction) for r in log]


class TestClipGradients:
    # one gradient of norm 1 and ten whose squares are each under half an
    # ulp of 1: a left-to-right sum stays at 1.0, a compensated one (Python
    # 3.12+'s ``sum()``, or ``math.fsum``) does not
    GRADS = {"big": np.ones(1), **{f"small{k}": np.full(1, 0.775e-8)
                                   for k in range(10)}}

    def test_norm_is_the_left_to_right_sum(self, monkeypatch):
        squares = [float((g * g).sum()) for g in self.GRADS.values()]
        total = 0.0
        for v in squares:
            total += v
        assert total == 1.0 and math.fsum(squares) != total  # has teeth
        monkeypatch.setattr(builtins, "sum", math.fsum)
        grads = {k: g.copy() for k, g in self.GRADS.items()}
        assert fdnn._clip_gradients(grads, 0.0) == np.sqrt(total)

    def test_clips_to_max_norm(self):
        grads = {"a": np.array([3.0, 4.0])}
        assert fdnn._clip_gradients(grads, 1.0) == 5.0
        assert np.array_equal(grads["a"], np.array([3.0, 4.0]) * (1.0 / 5.0))


class TestTrainScoresSnapshotsAtOnce:
    """``train`` scores every epoch's snapshot after the last epoch and
    runs its batches in one workspace; the returned parameters and the
    log equal the per-epoch loop's, whose calls take fresh memory."""

    # lr 3e-3 peaks at epoch 4; lr 1e-2 with dropout 0 ties epochs 1 and
    # 8, so the earliest must win.
    @pytest.mark.parametrize("dropout_rate, learning_rate",
                             [(0.0, 3e-3), (0.5, 3e-3), (0.0, 1e-2)])
    def test_matches_per_epoch_reference(self, dropout_rate, learning_rate):
        self._check(dropout_rate, learning_rate, 4, separable_set(n=8, T=30))

    def test_batches_of_changing_shape_match_reference(self):
        # batches of 3, 3 and 2 sequences of 30 or 18 steps
        self._check(0.5, 3e-3, 3, separable_set(n=4, T=30)
                    + separable_set(n=4, T=18, seed=2))

    def _check(self, dropout_rate, learning_rate, batch_size, data):
        cfg = FdnnConfig(input_dim=6, static_dim=2, inner_dim=4,
                         fc1_units=4, dropout_rate=dropout_rate, epochs=8,
                         batch_size=batch_size, seed=5,
                         learning_rate=learning_rate)
        val = separable_set(n=5, T=25, seed=1)
        params, log = train(cfg, data, val)
        want_params, want_log = _per_epoch_train(cfg, data, val)
        assert _log_rows(log) == want_log
        assert len(set(row[1] for row in want_log)) > 1
        for name in fdnn.PARAM_FIELDS:
            assert (getattr(params, name).tobytes()
                    == getattr(want_params, name).tobytes()), name

    def test_divergence_carries_scored_epochs(self, monkeypatch):
        cfg = FdnnConfig(input_dim=6, static_dim=2, inner_dim=4,
                         fc1_units=4, dropout_rate=0.0, epochs=5,
                         batch_size=4, seed=5, learning_rate=3e-3)
        data, val = separable_set(n=8, T=30), separable_set(n=5, T=25, seed=1)
        _, want_log = _per_epoch_train(cfg, data, val)
        calls = []

        def nan_at_epoch_3(*args, **kwargs):
            loss, grads = loss_and_gradients(*args, **kwargs)
            calls.append(None)
            return (float("nan") if len(calls) > 2 * 2 else loss), grads
        monkeypatch.setattr(fdnn, "loss_and_gradients", nan_at_epoch_3)
        with pytest.raises(fdnn.TrainingDiverged, match="epoch 3") as info:
            train(cfg, data, val)
        assert [r.epoch for r in info.value.log] == [1, 2]
        assert _log_rows(info.value.log) == want_log[:2]


class TestCheckpoint:
    def _stats(self, dim=18):
        return StandardizationStats(mean=np.zeros(dim), std=np.ones(dim))

    def test_round_trip(self, tmp_path):
        cfg = FdnnConfig(seed=9)
        params = init_params(cfg)
        path = tmp_path / "model.fdnn"
        save_checkpoint(path, params, cfg, self._stats())
        loaded, cfg2, stats, names = load_checkpoint(path)
        assert cfg2 == cfg
        assert len(names) == 18
        for name in fdnn.PARAM_FIELDS:
            assert np.array_equal(getattr(loaded, name),
                                  getattr(params, name))

    def test_corrupted_magic(self, tmp_path):
        cfg = FdnnConfig()
        path = tmp_path / "model.fdnn"
        save_checkpoint(path, init_params(cfg), cfg, self._stats())
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_config_rejected(self):
        with pytest.raises(FdnnError, match="integer"):
            FdnnConfig(inner_dim=16.0)
        with pytest.raises(FdnnError, match="classes"):
            FdnnConfig(classes=1)
        with pytest.raises(FdnnError, match="positive"):
            FdnnConfig(fc1_units=0)

    def test_truncation_detected(self, tmp_path):
        cfg = FdnnConfig()
        path = tmp_path / "model.fdnn"
        save_checkpoint(path, init_params(cfg), cfg, self._stats())
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _raw_container(path, arrays, payload=b""):
    """A container with a hand-written ``arrays`` header field."""
    header = json.dumps({"kind": "fdnn", "arrays": arrays}).encode()
    path.write_bytes(ck.MAGIC + struct.pack("<II", ck.VERSION, len(header))
                     + header + payload)
    return path


class TestContainerShapes:
    """read_container counts elements from header shapes; a shape entry
    that is not a non-negative int is refused, naming the array."""

    @pytest.mark.parametrize("arrays, floats", [
        ([["a", [-1]], ["b", [1]]], 0),
        ([["a", [-2, -3]]], 6),
        ([["a", [1.5]]], 1),
        ([["a", ["a"]]], 1),
        ([["a", [-1, 5]]], 1),
        ([["a", [True]]], 1),
        ([["a", 3]], 3),
    ], ids=["negative", "negative_pair", "float", "str", "negative_first",
            "bool", "not_a_list"])
    def test_malformed_shape_refused(self, tmp_path, arrays, floats):
        path = _raw_container(tmp_path / "m.ckpt", arrays, bytes(8 * floats))
        with pytest.raises(CheckpointError, match="array 'a' has a malformed"):
            ck.read_container(path, "fdnn")

    def test_scalar_empty_and_zero_sized_shapes_load(self, tmp_path):
        values = np.arange(4.0)
        path = _raw_container(tmp_path / "m.ckpt",
                              [["s", []], ["e", [2, 0]], ["v", [3]]],
                              values.astype("<f8").tobytes())
        _, arrays = ck.read_container(path, "fdnn")
        assert arrays["s"].shape == () and arrays["s"] == 0.0
        assert arrays["e"].shape == (2, 0)
        assert np.array_equal(arrays["v"], values[1:])


def _set(name, value):
    def edit(header, arrays):
        arrays[name] = np.asarray(value, dtype=float)
    return edit


def _poke(name, index, value):
    def edit(header, arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value
    return edit


def _header(path, value):
    *keys, last = path

    def edit(header, arrays):
        node = header
        for k in keys:
            node = node[k]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
    return edit


_DROP = object()


class TestCheckpointValidation:
    """load_checkpoint refuses containers the folded step cannot run."""

    @pytest.fixture
    def saved(self, tmp_path):
        cfg = FdnnConfig(seed=4)
        p = tmp_path / "model.fdnn"
        save_checkpoint(p, init_params(cfg), cfg, StandardizationStats(
            mean=np.zeros(18), std=np.ones(18)))
        header, arrays = ck.read_container(p, "fdnn")
        header = {k: v for k, v in header.items()
                  if k not in ("kind", "arrays")}
        return p, header, arrays

    def _rewrite_and_load(self, saved, edit):
        p, header, arrays = saved
        edit(header, arrays)
        ck.write_container(p, "fdnn", header, arrays)
        return load_checkpoint(p)

    def test_unedited_loads(self, saved):
        params, cfg, stats, names = self._rewrite_and_load(
            saved, lambda h, a: None)
        assert params.fc2_w.shape == (cfg.inner_dim, cfg.classes)
        assert len(names) == 18

    @pytest.mark.parametrize("edit, match", [
        (_set("fc1_w", np.zeros((16, 18))), "fc1_w has shape"),
        (_set("fc1_b", np.zeros(15)), "fc1_b has shape"),
        (_set("bn_gamma", np.ones(17)), "bn_gamma has shape"),
        (_set("bn_var", np.ones((16, 1))), "bn_var has shape"),
        (_set("lstm1_wx", np.zeros((16, 63))), "lstm1_wx has shape"),
        (_set("lstm1_wh", np.zeros((64, 16))), "lstm1_wh has shape"),
        (_set("lstm1_b", np.zeros(16)), "lstm1_b has shape"),
        (_set("lstm2_wx", np.zeros((18, 64))), "lstm2_wx has shape"),
        (_set("lstm2_b", np.zeros(65)), "lstm2_b has shape"),
        (_set("fc2_w", np.zeros((15, 2))), "fc2_w has shape"),
        (_set("fc2_b", np.zeros(3)), "fc2_b has shape"),
        (_poke("lstm1_wh", (3, 7), np.nan), "lstm1_wh has non-finite"),
        (_poke("fc2_b", 1, np.inf), "fc2_b has non-finite"),
        (_poke("bn_mean", 0, -np.inf), "bn_mean has non-finite"),
        (_poke("bn_var", 5, -1.0), "bn_var \\+ bn_eps must be positive"),
        (_header(("standardizer", "mean"), [0.0] * 17),
         "standardizer mean has shape"),
        (_header(("standardizer", "std"), [1.0] * 17 + [0.0]),
         "std must be positive"),
        (_header(("standardizer", "std"), [1.0] * 17 + [float("nan")]),
         "standardizer std has non-finite"),
        (_header(("feature_names",), ["a"] * 17), "17 feature names"),
        (_header(("config",), _DROP), "lacks 'config'"),
        (_header(("standardizer",), _DROP), "lacks 'standardizer'"),
        (_header(("standardizer", "std"), _DROP), "lacks 'std'"),
        (_header(("config",), [1, 2]), "malformed"),
        (_header(("config", "hidden"), 16), "malformed"),
        (_header(("config", "inner_dim"), "16"), "malformed"),
        (_header(("config", "classes"), 1), "malformed"),
        (lambda h, a: a.pop("fc2_b"), "lacks 'fc2_b'"),
    ])
    def test_rejected(self, saved, edit, match):
        with pytest.raises(CheckpointError, match=match):
            self._rewrite_and_load(saved, edit)

    def test_config_must_match_arrays(self, saved):
        # a consistent container for another size still loads
        def resize(header, arrays):
            header["config"]["classes"] = 3
            arrays["fc2_w"] = np.zeros((16, 3))
            arrays["fc2_b"] = np.zeros(3)
        params, cfg, _, _ = self._rewrite_and_load(saved, resize)
        assert cfg.classes == 3 and params.fc2_w.shape == (16, 3)

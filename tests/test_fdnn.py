import warnings

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
    sample_accuracy,
    save_checkpoint,
    train,
)
from fallsense.features import StandardizationStats

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
        p = init_params(TOY)
        static, seq, _, _ = toy_batch(B=3, T=11, masked=False)
        probs = forward(p, TOY, static, seq, mode="infer")
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12

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


def _unfolded_infer(params, config, static, seq):
    """The unfolded infer forward, the reference for ``InferStep``: per
    step fc1 -> frozen batch norm -> lstm_step x2 -> fc2 -> softmax_rows.
    Also returns the largest |gate pre-activation| it saw."""
    b, t, _ = seq.shape
    x = np.concatenate([np.repeat(static[:, None, :], t, axis=1), seq],
                       axis=2)
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
        h1, c1, _ = fdnn.lstm_step(y, h1, c1, params.lstm1_wx,
                                   params.lstm1_wh, params.lstm1_b, h)
        widest = max(widest, np.abs(
            h1 @ params.lstm2_wx + h2 @ params.lstm2_wh + params.lstm2_b).max())
        h2, c2, _ = fdnn.lstm_step(h1, h2, c2, params.lstm2_wx,
                                   params.lstm2_wh, params.lstm2_b, h)
        probs[:, k, :] = fdnn.softmax_rows(h2 @ params.fc2_w + params.fc2_b)
    return probs, widest


def _gated_model(rng, config, gain):
    """Random frozen model whose gate pre-activations reach about
    +-gain.  The recurrent weights keep their fan-in scale, so rounding
    differences are not amplified step after step."""
    p = init_params(config, seed=int(rng.integers(1 << 30)))
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
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12

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
        assert np.abs(got - want).max() <= 1e-12

    def test_zero_params_give_exactly_half(self):
        p = init_params(TOY)
        for name in fdnn.TRAINABLE_FIELDS:
            getattr(p, name)[...] = 0.0
        static, seq, _, _ = toy_batch(B=3, T=12, masked=False)
        probs = forward(p, TOY, static, seq, mode="infer")
        assert np.array_equal(probs, np.full((3, 12, 2), 0.5))

    def test_padded_batch_matches_each_trace(self):
        # sample_accuracy and eval-fdnn score padded batches: every
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
            assert np.abs(probs[i, :t, 1] - trace.p_falling).max() <= 1e-12

    def test_cache_is_train_only(self):
        static, seq, _, _ = toy_batch()
        with pytest.raises(FdnnError, match="train mode only"):
            forward(init_params(TOY), TOY, static, seq, mode="infer",
                    want_cache=True)


def _two_branch_sigmoid(x):
    """The masked two-branch form: 1/(1+e^-x) for x >= 0, e^x/(1+e^x)
    otherwise."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    GRID = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.0, -36.0,
         710.0, -710.0, 1e4, -1e4, np.finfo(float).max,
         -np.finfo(float).max],
        np.linspace(-50.0, 50.0, 20001),
        np.random.default_rng(0).normal(0.0, 8.0, 5000),
    ])

    def test_bit_identical_to_two_branch_form(self):
        x = self.GRID.reshape(5, -1)             # a (B, 4H)-like slab
        got = fdnn._sigmoid(x)
        want = _two_branch_sigmoid(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_no_floating_point_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise"):
                out = fdnn._sigmoid(self.GRID)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[self.GRID == 1e4][0] == 1.0
        assert out[self.GRID == -1e4][0] == 0.0


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
        assert sample_accuracy(params, cfg, data) >= 0.99
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
        assert sample_accuracy(params, cfg, data) == pytest.approx(best)

    def test_empty_sets_rejected(self):
        with pytest.raises(FdnnError):
            train(FdnnConfig(), [], [])


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

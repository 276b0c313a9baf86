"""Recurrent fall-detection network with from-scratch training.

Nine-layer architecture, applied per time step:
fully connected -> batch norm -> dropout -> LSTM -> dropout -> LSTM ->
dropout -> fully connected -> softmax over {background, falling}.

The two LSTM cells carry state across the whole sequence.  Supervision is
per time step (each sample has its own label); batches pad sequences to a
common length and mask the padding out of stats, loss, and metrics.

Inference runs one folded step (``InferStep``): with frozen batch-norm
moments and dropout off, fc1 -> batch norm -> LSTM1 input projection is
one affine map, folded into LSTM1's weights once per model.  The stream
steps it one row at a time and infer-mode ``forward`` scans it over time
with one row per sequence, so a single-sequence batch reproduces the
stream bit for bit.  Train mode keeps the layers apart for BPTT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import checkpoint
from .features import FDNN_FEATURES, StandardizationStats


class FdnnError(ValueError):
    pass


class TrainingDiverged(FdnnError):
    def __init__(self, message: str, log: list["EpochLog"]):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class FdnnConfig:
    input_dim: int = 18
    static_dim: int = 4
    inner_dim: int = 16      # LSTM gate tensor size (2^4)
    fc1_units: int = 16
    classes: int = 2
    dropout_rate: float = 0.5
    batch_size: int = 128
    epochs: int = 64
    threshold: float = 0.5
    seed: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 5.0
    bn_momentum: float = 0.9
    bn_eps: float = 1e-5

    def __post_init__(self):
        for name in ("input_dim", "static_dim", "inner_dim", "fc1_units",
                     "classes", "batch_size", "epochs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise FdnnError(f"{name} must be an integer, got {value!r}")
        if min(self.input_dim, self.inner_dim, self.fc1_units,
               self.batch_size) < 1 or self.static_dim < 0:
            raise FdnnError("layer sizes and batch size must be positive")
        if self.classes < 2:
            raise FdnnError("classes must be at least 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise FdnnError("dropout rate must be in [0, 1)")
        if self.static_dim >= self.input_dim:
            raise FdnnError("static_dim must be smaller than input_dim")


PARAM_FIELDS = (
    "fc1_w", "fc1_b",
    "bn_gamma", "bn_beta", "bn_mean", "bn_var",
    "lstm1_wx", "lstm1_wh", "lstm1_b",
    "lstm2_wx", "lstm2_wh", "lstm2_b",
    "fc2_w", "fc2_b",
)
# Running batch-norm moments are state, not trained parameters.
TRAINABLE_FIELDS = tuple(
    f for f in PARAM_FIELDS if f not in ("bn_mean", "bn_var"))


@dataclass
class FdnnParams:
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray
    lstm1_wx: np.ndarray
    lstm1_wh: np.ndarray
    lstm1_b: np.ndarray
    lstm2_wx: np.ndarray
    lstm2_wh: np.ndarray
    lstm2_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray

    def copy(self) -> "FdnnParams":
        return FdnnParams(**{f: getattr(self, f).copy()
                             for f in PARAM_FIELDS})

    def arrays(self) -> dict[str, np.ndarray]:
        return {f: getattr(self, f) for f in PARAM_FIELDS}


def _uniform_fanin(rng: np.random.Generator, fan_in: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: FdnnConfig, seed: int | None = None) -> FdnnParams:
    """Fan-in scaled uniform weights, zero biases, forget-gate bias 1."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    d, f, h, c = (config.input_dim, config.fc1_units, config.inner_dim,
                  config.classes)
    lstm1_b = np.zeros(4 * h)
    lstm1_b[h:2 * h] = 1.0
    lstm2_b = np.zeros(4 * h)
    lstm2_b[h:2 * h] = 1.0
    return FdnnParams(
        fc1_w=_uniform_fanin(rng, d, (d, f)),
        fc1_b=np.zeros(f),
        bn_gamma=np.ones(f),
        bn_beta=np.zeros(f),
        bn_mean=np.zeros(f),
        bn_var=np.ones(f),
        lstm1_wx=_uniform_fanin(rng, f, (f, 4 * h)),
        lstm1_wh=_uniform_fanin(rng, h, (h, 4 * h)),
        lstm1_b=lstm1_b,
        lstm2_wx=_uniform_fanin(rng, h, (h, 4 * h)),
        lstm2_wh=_uniform_fanin(rng, h, (h, 4 * h)),
        lstm2_b=lstm2_b,
        fc2_w=_uniform_fanin(rng, h, (h, c)),
        fc2_b=np.zeros(c),
    )


# ---------------------------------------------------------------------------
# Primitive steps (shared by batch forward and streaming)
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def lstm_step(x: np.ndarray, h: np.ndarray, c: np.ndarray,
              wx: np.ndarray, wh: np.ndarray, b: np.ndarray,
              hidden: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """One LSTM cell step on a (B, in) slab.  Gate order: i, f, g, o."""
    gates = x @ wx + h @ wh + b
    # One sigmoid over the whole slab, then tanh over the g block.
    act = _sigmoid(gates)
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


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class InferStep:
    """The frozen detector as one step over ``rows`` input rows at a time.

    Built once per model: batch norm's frozen moments and fc1 are folded
    into LSTM1's input weights, each layer's input and recurrent weights
    are stacked, and every bias is a weight row against a constant 1.
    One buffer laid out ``[x | h1 | 1 | h2]`` holds the inputs and the
    state, so layer 1 is ``[x | h1 | 1] @ W1``, layer 2
    ``[h1 | 1 | h2] @ W2`` and fc2 ``[1 | h2] @ W3``, each one matmul on a
    view of it.  Gate columns are ordered i, f, o, g with the sigmoid
    columns pre-halved, so one tanh covers the slab and
    sigmoid(z) = tanh(z/2)/2 + 1/2 finishes i, f and o.
    """

    def __init__(self, params: FdnnParams, config: FdnnConfig,
                 rows: int = 1):
        d, h = config.input_dim, config.inner_dim
        order = np.r_[0:2 * h, 3 * h:4 * h, 2 * h:3 * h]     # i, f, o, g
        half = np.r_[np.full(3 * h, 0.5), np.ones(h)]
        scale = params.bn_gamma / np.sqrt(params.bn_var + config.bn_eps)
        shift = (params.fc1_b - params.bn_mean) * scale + params.bn_beta
        w1 = np.vstack([(params.fc1_w * scale) @ params.lstm1_wx,
                        params.lstm1_wh,
                        shift @ params.lstm1_wx + params.lstm1_b])
        w2 = np.vstack([params.lstm2_wx, params.lstm2_b, params.lstm2_wh])
        self._w3 = np.vstack([params.fc2_b, params.fc2_w])

        buf = np.zeros((rows, d + 2 * h + 1))
        buf[:, d + h] = 1.0
        h1, h2 = buf[:, d:d + h], buf[:, d + h + 1:]
        c1, c2 = np.zeros((rows, h)), np.zeros((rows, h))
        self._x = buf[:, :d]
        self._fc2_in = buf[:, d + h:]
        self._state = (h1, h2, c1, c2)
        self._logits = np.empty((rows, config.classes))
        self._cells = []
        for inputs, w, c, h_out in ((buf[:, :d + h + 1], w1, c1, h1),
                                    (buf[:, d:], w2, c2, h2)):
            z = np.empty((rows, 4 * h))
            self._cells.append((
                inputs, w[:, order] * half, z, z[:, :3 * h],
                z[:, :h], z[:, h:2 * h], z[:, 2 * h:3 * h], z[:, 3 * h:],
                c, np.empty((rows, h)), h_out))

    def reset(self) -> None:
        """Zero both layers' hidden and cell state."""
        for s in self._state:
            s[...] = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Logits for one step of each row; the returned buffer is
        overwritten by the next call."""
        self._x[...] = x
        for inputs, w, z, sig, i, f, o, g, c, tmp, h in self._cells:
            np.dot(inputs, w, out=z)
            np.tanh(z, out=z)
            sig *= 0.5
            sig += 0.5
            c *= f
            np.multiply(i, g, out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            np.multiply(o, tmp, out=h)
        np.dot(self._fc2_in, self._w3, out=self._logits)
        return self._logits


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

@dataclass
class PredictionTrace:
    p_falling: np.ndarray   # (T,) probability per step
    decisions: np.ndarray   # (T,) bool


def classify(p_falling: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Strict threshold: exactly P = threshold is NOT falling."""
    return np.asarray(p_falling) > threshold


def _concat_inputs(config: FdnnConfig, static: np.ndarray,
                   sequence: np.ndarray) -> np.ndarray:
    static = np.atleast_2d(np.asarray(static, dtype=float))
    sequence = np.asarray(sequence, dtype=float)
    if sequence.ndim == 2:
        sequence = sequence[None, :, :]
    b, t, dd = sequence.shape
    if static.shape != (b, config.static_dim):
        raise FdnnError(
            f"static inputs must be ({b}, {config.static_dim}), "
            f"got {static.shape}")
    if config.static_dim + dd != config.input_dim:
        raise FdnnError(
            f"input width {config.static_dim}+{dd} != {config.input_dim}")
    x = np.empty((b, t, config.input_dim))
    x[:, :, :config.static_dim] = static[:, None, :]
    x[:, :, config.static_dim:] = sequence
    return x


def forward(
    params: FdnnParams,
    config: FdnnConfig,
    static: np.ndarray,
    sequence: np.ndarray,
    mode: str = "infer",
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    want_cache: bool = False,
):
    """Per-step class probabilities for a batch of sequences.

    static: (B, static_dim); sequence: (B, T, input_dim - static_dim).
    Returns (B, T, classes) probabilities (and, in train mode, the
    backward cache when requested).  Train mode uses batch statistics over
    unmasked steps and applies dropout; infer mode scans ``InferStep``
    over time, is deterministic and mutates nothing.
    """
    if mode not in ("train", "infer"):
        raise FdnnError(f"unknown mode {mode!r}")
    x = _concat_inputs(config, static, sequence)
    b, t, _ = x.shape
    if mask is None:
        mask = np.ones((b, t), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (b, t):
            raise FdnnError(f"mask shape {mask.shape} != {(b, t)}")

    if mode == "infer":
        if want_cache:
            raise FdnnError("the backward cache exists in train mode only")
        step_fn = InferStep(params, config, rows=b)
        logits = np.empty((b, t, config.classes))
        for step in range(t):
            logits[:, step, :] = step_fn(x[:, step, :])
        probs = softmax_rows(logits)
        if not np.all(np.isfinite(probs)):
            raise FdnnError("non-finite activations in forward pass")
        return probs

    # Layer 1: fully connected.
    a1 = np.empty((b, t, config.fc1_units))
    for step in range(t):
        a1[:, step, :] = x[:, step, :] @ params.fc1_w + params.fc1_b

    # Layer 2: batch norm over unmasked (batch x time) positions.
    valid = a1[mask]
    mu = valid.mean(axis=0)
    var = valid.var(axis=0)
    inv = 1.0 / np.sqrt(var + config.bn_eps)
    xhat = (a1 - mu) * inv
    y_bn = params.bn_gamma * xhat + params.bn_beta
    bn_cache = {"xhat": xhat, "inv": inv, "mu": mu, "var": var,
                "n_valid": valid.shape[0]}
    m = config.bn_momentum
    params.bn_mean[:] = m * params.bn_mean + (1 - m) * mu
    params.bn_var[:] = m * params.bn_var + (1 - m) * var

    # Dropout layers 3, 5, 7 (inverted scaling).
    h = config.inner_dim
    keep = 1.0 - config.dropout_rate
    drop_masks: list[np.ndarray | None] = [None, None, None]
    if config.dropout_rate > 0.0:
        if rng is None:
            raise FdnnError("train mode with dropout needs an rng")
        drop_masks = [
            (rng.random((b, t, config.fc1_units)) < keep) / keep,
            (rng.random((b, t, h)) < keep) / keep,
            (rng.random((b, t, h)) < keep) / keep,
        ]

    d1 = y_bn * drop_masks[0] if drop_masks[0] is not None else y_bn

    h1 = np.zeros((b, h))
    c1 = np.zeros((b, h))
    h2 = np.zeros((b, h))
    c2 = np.zeros((b, h))
    lstm1_caches: list[dict] = []
    lstm2_caches: list[dict] = []
    logits = np.empty((b, t, config.classes))
    for step in range(t):
        h1, c1, cache1 = lstm_step(
            d1[:, step, :], h1, c1,
            params.lstm1_wx, params.lstm1_wh, params.lstm1_b, h)
        lstm1_caches.append(cache1)
        z1 = h1 * drop_masks[1][:, step, :] if drop_masks[1] is not None else h1
        h2, c2, cache2 = lstm_step(
            z1, h2, c2,
            params.lstm2_wx, params.lstm2_wh, params.lstm2_b, h)
        lstm2_caches.append(cache2)
        z2 = h2 * drop_masks[2][:, step, :] if drop_masks[2] is not None else h2
        logits[:, step, :] = z2 @ params.fc2_w + params.fc2_b
        lstm2_caches[-1]["z2"] = z2

    probs = softmax_rows(logits)
    if not np.all(np.isfinite(probs)):
        raise FdnnError("non-finite activations in forward pass")
    if not want_cache:
        return probs
    cache = {
        "x": x, "a1": a1, "bn": bn_cache, "y_bn": y_bn,
        "drop_masks": drop_masks, "d1": d1,
        "lstm1": lstm1_caches, "lstm2": lstm2_caches,
        "probs": probs, "mask": mask,
    }
    return probs, cache


def predict_trace(params: FdnnParams, config: FdnnConfig,
                  static: np.ndarray, sequence: np.ndarray) -> PredictionTrace:
    """Inference on a single sequence: P(falling) and decision per step."""
    probs = forward(params, config, np.atleast_2d(static),
                    np.asarray(sequence)[None, :, :], mode="infer")
    p_fall = probs[0, :, 1]
    return PredictionTrace(
        p_falling=p_fall, decisions=classify(p_fall, config.threshold))


# ---------------------------------------------------------------------------
# Loss and gradients (backpropagation through time)
# ---------------------------------------------------------------------------

def _lstm_backward(caches: list[dict], d_out: np.ndarray,
                   wx: np.ndarray, wh: np.ndarray,
                   hidden: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """BPTT through one LSTM layer.  d_out: (B, T, H) upstream grads."""
    b, t, _ = d_out.shape
    dx = np.empty((b, t, wx.shape[0]))
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * hidden)
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
    return dx, {"wx": dwx, "wh": dwh, "b": db}


def loss_and_gradients(
    params: FdnnParams,
    config: FdnnConfig,
    static: np.ndarray,
    sequence: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-step cross-entropy over unmasked steps, plus gradients.

    Gradients cover every trainable tensor (running batch-norm moments
    excluded).  Padding steps contribute exactly zero.
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        labels = labels[None, :]
    probs, cache = forward(params, config, static, sequence, mode="train",
                           mask=mask, rng=rng, want_cache=True)
    mask = cache["mask"]
    b, t, c = probs.shape
    if labels.shape != (b, t):
        raise FdnnError(f"labels shape {labels.shape} != {(b, t)}")
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise FdnnError("batch has no unmasked steps")

    p_true = probs[np.arange(b)[:, None], np.arange(t)[None, :], labels]
    logp = np.log(np.maximum(p_true, 1e-300))
    loss = float(-(logp * mask).sum() / n_valid)

    dlogits = probs.copy()
    dlogits[np.arange(b)[:, None], np.arange(t)[None, :], labels] -= 1.0
    dlogits /= n_valid
    dlogits[~mask] = 0.0

    grads: dict[str, np.ndarray] = {}
    h = config.inner_dim
    drop = cache["drop_masks"]

    # FC2 (per step to mirror the forward structure).
    dz2 = np.empty((b, t, h))
    dfc2_w = np.zeros_like(params.fc2_w)
    dfc2_b = np.zeros_like(params.fc2_b)
    for step in range(t):
        z2 = cache["lstm2"][step]["z2"]
        dfc2_w += z2.T @ dlogits[:, step, :]
        dfc2_b += dlogits[:, step, :].sum(axis=0)
        dz2[:, step, :] = dlogits[:, step, :] @ params.fc2_w.T
    grads["fc2_w"], grads["fc2_b"] = dfc2_w, dfc2_b

    dh2 = dz2 * drop[2] if drop[2] is not None else dz2
    dz1, lstm2_grads = _lstm_backward(
        cache["lstm2"], dh2, params.lstm2_wx, params.lstm2_wh, h)
    grads["lstm2_wx"] = lstm2_grads["wx"]
    grads["lstm2_wh"] = lstm2_grads["wh"]
    grads["lstm2_b"] = lstm2_grads["b"]

    dh1 = dz1 * drop[1] if drop[1] is not None else dz1
    dd1, lstm1_grads = _lstm_backward(
        cache["lstm1"], dh1, params.lstm1_wx, params.lstm1_wh, h)
    grads["lstm1_wx"] = lstm1_grads["wx"]
    grads["lstm1_wh"] = lstm1_grads["wh"]
    grads["lstm1_b"] = lstm1_grads["b"]

    dy_bn = dd1 * drop[0] if drop[0] is not None else dd1

    # Batch norm backward over the unmasked positions only.
    bn = cache["bn"]
    xhat_v = bn["xhat"][mask]
    dy_v = dy_bn[mask]
    nv = bn["n_valid"]
    grads["bn_gamma"] = (dy_v * xhat_v).sum(axis=0)
    grads["bn_beta"] = dy_v.sum(axis=0)
    dxhat_v = dy_v * params.bn_gamma
    da1_v = (bn["inv"] / nv) * (
        nv * dxhat_v
        - dxhat_v.sum(axis=0)
        - xhat_v * (dxhat_v * xhat_v).sum(axis=0))
    da1 = np.zeros_like(cache["a1"])
    da1[mask] = da1_v

    dfc1_w = np.zeros_like(params.fc1_w)
    dfc1_b = np.zeros_like(params.fc1_b)
    x = cache["x"]
    for step in range(t):
        dfc1_w += x[:, step, :].T @ da1[:, step, :]
        dfc1_b += da1[:, step, :].sum(axis=0)
    grads["fc1_w"], grads["fc1_b"] = dfc1_w, dfc1_b
    return loss, grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class SequenceExample:
    static: np.ndarray   # (static_dim,)
    sequence: np.ndarray  # (T, input_dim - static_dim)
    labels: np.ndarray   # (T,) int


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_accuracy: float
    wall_seconds: float
    grad_norm_mean: float     # pre-clip global gradient norm over batches
    grad_norm_max: float
    clipped_fraction: float   # share of batches scaled down by the clip


def _pad_batch(examples: list[SequenceExample]):
    b = len(examples)
    tmax = max(e.sequence.shape[0] for e in examples)
    dd = examples[0].sequence.shape[1]
    static = np.stack([e.static for e in examples])
    seq = np.zeros((b, tmax, dd))
    labels = np.zeros((b, tmax), dtype=np.intp)
    mask = np.zeros((b, tmax), dtype=bool)
    for i, e in enumerate(examples):
        t = e.sequence.shape[0]
        seq[i, :t] = e.sequence
        labels[i, :t] = e.labels
        mask[i, :t] = True
    return static, seq, labels, mask


def _clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale the gradients in place to a global norm of at most
    ``max_norm`` (when positive); returns the norm before clipping."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return float(total)


def sample_accuracy(params: FdnnParams, config: FdnnConfig,
                    examples: list[SequenceExample],
                    batch_size: int | None = None) -> float:
    """Fraction of unmasked steps classified correctly (strict threshold)."""
    bs = batch_size or config.batch_size
    correct = 0
    total = 0
    for i in range(0, len(examples), bs):
        chunk = examples[i:i + bs]
        static, seq, labels, mask = _pad_batch(chunk)
        probs = forward(params, config, static, seq, mode="infer")
        decisions = classify(probs[:, :, 1], config.threshold)
        correct += int(((decisions == (labels == 1)) & mask).sum())
        total += int(mask.sum())
    return correct / total if total else 0.0


def train(
    config: FdnnConfig,
    train_set: list[SequenceExample],
    val_set: list[SequenceExample],
) -> tuple[FdnnParams, list[EpochLog]]:
    """Mini-batch Adam over padded batches; keeps the epoch snapshot with
    the highest validation sample accuracy (earliest epoch wins ties)."""
    if not train_set or not val_set:
        raise FdnnError("train and validation sets must be non-empty")
    params = init_params(config)
    rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)

    adam_m = {f: np.zeros_like(getattr(params, f)) for f in TRAINABLE_FIELDS}
    adam_v = {f: np.zeros_like(getattr(params, f)) for f in TRAINABLE_FIELDS}
    step_count = 0

    best_params = params.copy()
    best_acc = -1.0
    log: list[EpochLog] = []
    t0 = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_set))
        losses = []
        norms = []
        for i in range(0, len(order), config.batch_size):
            batch = [train_set[j] for j in order[i:i + config.batch_size]]
            static, seq, labels, mask = _pad_batch(batch)
            loss, grads = loss_and_gradients(
                params, config, static, seq, labels, mask, rng=drop_rng)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", log)
            losses.append(loss)
            norms.append(_clip_gradients(grads, config.grad_clip))
            step_count += 1
            b1c = 1.0 - config.beta1 ** step_count
            b2c = 1.0 - config.beta2 ** step_count
            for name in TRAINABLE_FIELDS:
                g = grads[name]
                adam_m[name] = config.beta1 * adam_m[name] + (1 - config.beta1) * g
                adam_v[name] = config.beta2 * adam_v[name] + (1 - config.beta2) * g * g
                update = (config.learning_rate * (adam_m[name] / b1c)
                          / (np.sqrt(adam_v[name] / b2c) + config.adam_eps))
                getattr(params, name)[...] -= update

        val_acc = sample_accuracy(params, config, val_set)
        log.append(EpochLog(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            val_accuracy=val_acc,
            wall_seconds=time.perf_counter() - t0,
            grad_norm_mean=float(np.mean(norms)),
            grad_norm_max=float(np.max(norms)),
            clipped_fraction=float(np.mean(
                [config.grad_clip > 0 and n > config.grad_clip
                 for n in norms])),
        ))
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = params.copy()
    return best_params, log


def write_training_log(path: Path | str, log: list[EpochLog]) -> None:
    lines = ["epoch,train_loss,val_accuracy,wall_seconds,"
             "grad_norm_mean,grad_norm_max,clipped_fraction"]
    for row in log:
        lines.append(f"{row.epoch},{row.train_loss:.6f},"
                     f"{row.val_accuracy:.6f},{row.wall_seconds:.3f},"
                     f"{row.grad_norm_mean:.6g},{row.grad_norm_max:.6g},"
                     f"{row.clipped_fraction:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(path: Path | str, params: FdnnParams, config: FdnnConfig,
                    stats: StandardizationStats,
                    feature_names: tuple[str, ...] = FDNN_FEATURES) -> None:
    """Self-contained checkpoint: parameters plus the input standardizer."""
    header = {
        "config": {f.name: getattr(config, f.name) for f in fields(config)},
        "standardizer": {
            "mean": stats.mean.tolist(),
            "std": stats.std.tolist(),
        },
        "feature_names": list(feature_names),
    }
    checkpoint.write_container(path, "fdnn", header, params.arrays())


def _check_loaded(name: str, params: FdnnParams, config: FdnnConfig,
                  stats: StandardizationStats,
                  feature_names: tuple[str, ...]) -> None:
    """Shapes from the config, finite values, a positive batch-norm
    variance and a positive standardizer std: what ``InferStep`` folds."""
    def fail(message: str):
        raise checkpoint.CheckpointError(f"{name}: {message}")

    d, f, h, c = (config.input_dim, config.fc1_units, config.inner_dim,
                  config.classes)
    expected = {
        "fc1_w": (d, f), "fc1_b": (f,),
        "bn_gamma": (f,), "bn_beta": (f,), "bn_mean": (f,), "bn_var": (f,),
        "lstm1_wx": (f, 4 * h), "lstm1_wh": (h, 4 * h), "lstm1_b": (4 * h,),
        "lstm2_wx": (h, 4 * h), "lstm2_wh": (h, 4 * h), "lstm2_b": (4 * h,),
        "fc2_w": (h, c), "fc2_b": (c,),
    }
    arrays = params.arrays()
    arrays["standardizer mean"] = stats.mean
    arrays["standardizer std"] = stats.std
    expected["standardizer mean"] = expected["standardizer std"] = (d,)
    for key, shape in expected.items():
        if arrays[key].shape != shape:
            fail(f"{key} has shape {arrays[key].shape}, expected {shape} "
                 f"for input_dim={d}, fc1_units={f}, inner_dim={h}, "
                 f"classes={c}")
        if not np.isfinite(arrays[key]).all():
            fail(f"{key} has non-finite values")
    if not np.all(params.bn_var + config.bn_eps > 0):
        fail("bn_var + bn_eps must be positive")
    if not np.all(stats.std > 0):
        fail("standardizer std must be positive")
    if feature_names and len(feature_names) != d:
        fail(f"{len(feature_names)} feature names for input_dim={d}")


def load_checkpoint(path: Path | str) -> tuple[
        FdnnParams, FdnnConfig, StandardizationStats, tuple[str, ...]]:
    header, arrays = checkpoint.read_container(path, "fdnn")
    name = Path(path).name
    try:
        config = FdnnConfig(**header["config"])
        params = FdnnParams(**{f: arrays[f] for f in PARAM_FIELDS})
        std = header["standardizer"]
        names = tuple(header.get("feature_names", []))
        stats = StandardizationStats(
            mean=np.asarray(std["mean"], dtype=float),
            std=np.asarray(std["std"], dtype=float),
            names=names,
        )
    except KeyError as exc:
        raise checkpoint.CheckpointError(
            f"{name}: checkpoint lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise checkpoint.CheckpointError(
            f"{name}: malformed checkpoint: {exc}") from None
    _check_loaded(name, params, config, stats, names)
    return params, config, stats, names

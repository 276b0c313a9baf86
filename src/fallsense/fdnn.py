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
stream bit for bit.  Train mode runs each layer over the whole
(time-major) sequence before the next, LSTMs as ``_lstm_scan``s, and BPTT
runs those scans backwards with only the recurrence in the loop.
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
# Primitives
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


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
    x = np.empty((t, b, config.input_dim))       # time-major
    x[:, :, :config.static_dim] = static
    x[:, :, config.static_dim:] = sequence.transpose(1, 0, 2)
    return x


def _lstm_scan(xw: np.ndarray, wh: np.ndarray):
    """One LSTM layer over a whole sequence.  Gate order: i, f, g, o.

    xw: (T, B, 4H) input projections, bias included; the gate activations
    overwrite it.  Returns the stacked h and c, (T+1, B, H) with row 0 the
    zero initial state, the activations (T, B, 4H) and tanh(c) (T, B, H).
    """
    t, b, four_h = xw.shape
    hd = four_h // 4
    h = np.zeros((t + 1, b, hd))
    c = np.zeros((t + 1, b, hd))
    tanh_c = np.empty((t, b, hd))
    i, f, g, o = xw.reshape(t, b, 4, hd).transpose(2, 0, 1, 3)
    for k in range(t):
        z = h[k] @ wh + xw[k]
        # One sigmoid over the whole slab, then tanh over the g block.
        xw[k] = _sigmoid(z)
        np.tanh(z[:, 2 * hd:3 * hd], out=g[k])
        np.multiply(f[k], c[k], out=c[k + 1])
        c[k + 1] += i[k] * g[k]
        np.tanh(c[k + 1], out=tanh_c[k])
        np.multiply(o[k], tanh_c[k], out=h[k + 1])
    return h, c, xw, tanh_c


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
    t, b, _ = x.shape
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
            logits[:, step, :] = step_fn(x[step])
        probs = softmax_rows(logits)
        if not np.all(np.isfinite(probs)):
            raise FdnnError("non-finite activations in forward pass")
        return probs

    # Layer 1, fully connected, and layer 2, batch norm over the unmasked
    # (time x batch) positions; fc1's output becomes xhat in place.
    xhat = x @ params.fc1_w + params.fc1_b
    valid = xhat[mask.T]
    mu = valid.mean(axis=0)
    var = valid.var(axis=0)
    inv = 1.0 / np.sqrt(var + config.bn_eps)
    xhat -= mu
    xhat *= inv
    m = config.bn_momentum
    params.bn_mean[:] = m * params.bn_mean + (1 - m) * mu
    params.bn_var[:] = m * params.bn_var + (1 - m) * var

    # Dropout layers 3, 5, 7 (inverted scaling), drawn batch-major and
    # applied time-major.
    h = config.inner_dim
    keep = 1.0 - config.dropout_rate
    drop: list[np.ndarray | None] = [None, None, None]
    if config.dropout_rate > 0.0:
        if rng is None:
            raise FdnnError("train mode with dropout needs an rng")
        drop = [((rng.random((b, t, width)) < keep) / keep).transpose(1, 0, 2)
                for width in (config.fc1_units, h, h)]

    z = params.bn_gamma * xhat + params.bn_beta
    if drop[0] is not None:
        z *= drop[0]
    layers = []         # per LSTM layer, what BPTT reads
    for wx, wh, bias, out_mask in (
            (params.lstm1_wx, params.lstm1_wh, params.lstm1_b, drop[1]),
            (params.lstm2_wx, params.lstm2_wh, params.lstm2_b, drop[2])):
        scan = _lstm_scan(z @ wx + bias, wh)
        layers.append((z, scan, wx, wh))
        z = scan[0][1:] if out_mask is None else scan[0][1:] * out_mask
    probs = softmax_rows(z @ params.fc2_w + params.fc2_b)
    if not np.all(np.isfinite(probs)):
        raise FdnnError("non-finite activations in forward pass")
    if not want_cache:
        return probs.transpose(1, 0, 2)
    cache = {"x": x, "mask": mask, "xhat": xhat, "inv": inv, "drop": drop,
             "layers": layers, "z2": z, "probs": probs}
    return probs.transpose(1, 0, 2), cache


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

def _lstm_scan_backward(d_out: np.ndarray, x: np.ndarray, scan: tuple,
                        wx: np.ndarray, wh: np.ndarray):
    """BPTT through one ``_lstm_scan``.  d_out: (T, B, H) gradient reaching
    each step's h from above; x: the layer's (T, B, in) input.  Returns
    dx, dwx, dwh and db."""
    h, c, act, tanh_c = scan
    t, b, hd = tanh_c.shape
    i, f, g, o = act.reshape(t, b, 4, hd).transpose(2, 0, 1, 3)
    # Every factor that does not depend on the recurrence, for all T at
    # once; the loop scales the i, f, g blocks by dc and the o block by dh.
    dgates = np.empty((t, b, 4, hd))
    dgates[:, :, 0] = g * i * (1 - i)
    dgates[:, :, 1] = c[:-1] * f * (1 - f)
    dgates[:, :, 2] = i * (1 - g * g)
    dgates[:, :, 3] = tanh_c * o * (1 - o)
    to_c = o * (1 - tanh_c * tanh_c)
    flat = dgates.reshape(t, b, 4 * hd)
    dh = np.zeros((b, hd))
    dc = np.zeros((b, hd))
    for k in range(t - 1, -1, -1):
        dh += d_out[k]
        dc += dh * to_c[k]
        dgates[k, :, :3] *= dc[:, None, :]
        dgates[k, :, 3] *= dh
        dc *= f[k]
        np.dot(flat[k], wh.T, out=dh)
    sum_tb = ([0, 1], [0, 1])
    return (flat @ wx.T, np.tensordot(x, flat, sum_tb),
            np.tensordot(h[:-1], flat, sum_tb), flat.sum(axis=(0, 1)))


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
    b, t, _ = probs.shape
    if labels.shape != (b, t):
        raise FdnnError(f"labels shape {labels.shape} != {(b, t)}")
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise FdnnError("batch has no unmasked steps")

    rows, steps = np.arange(b)[:, None], np.arange(t)[None, :]
    p_true = probs[rows, steps, labels]
    logp = np.log(np.maximum(p_true, 1e-300))
    loss = float(-(logp * mask).sum() / n_valid)

    # Everything below is time-major, (T, B, .).
    mask = mask.T
    dlogits = cache["probs"].copy()
    dlogits.transpose(1, 0, 2)[rows, steps, labels] -= 1.0
    dlogits /= n_valid
    dlogits[~mask] = 0.0

    grads: dict[str, np.ndarray] = {}
    sum_tb = ([0, 1], [0, 1])
    drop = cache["drop"]
    grads["fc2_w"] = np.tensordot(cache["z2"], dlogits, sum_tb)
    grads["fc2_b"] = dlogits.sum(axis=(0, 1))
    dz = dlogits @ params.fc2_w.T
    for k in (2, 1):
        if drop[k] is not None:
            dz *= drop[k]
        dz, *layer_grads = _lstm_scan_backward(dz, *cache["layers"][k - 1])
        grads.update(zip((f"lstm{k}_wx", f"lstm{k}_wh", f"lstm{k}_b"),
                         layer_grads))
    if drop[0] is not None:
        dz *= drop[0]

    # Batch norm backward over the unmasked positions only.
    xhat_v = cache["xhat"][mask]
    dy_v = dz[mask]
    grads["bn_gamma"] = (dy_v * xhat_v).sum(axis=0)
    grads["bn_beta"] = dy_v.sum(axis=0)
    dxhat_v = dy_v * params.bn_gamma
    da1 = np.zeros_like(dz)
    da1[mask] = (cache["inv"] / n_valid) * (
        n_valid * dxhat_v
        - dxhat_v.sum(axis=0)
        - xhat_v * (dxhat_v * xhat_v).sum(axis=0))
    grads["fc1_w"] = np.tensordot(cache["x"], da1, sum_tb)
    grads["fc1_b"] = da1.sum(axis=(0, 1))
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

"""Recurrent fall-detection network with from-scratch training.

Nine-layer architecture, applied per time step:
fully connected -> batch norm -> dropout -> LSTM -> dropout -> LSTM ->
dropout -> fully connected -> softmax over {background, falling}.

The two LSTM cells carry state across the whole sequence.  Supervision is
per time step (each sample has its own label); batches pad sequences to a
common length and mask the padding out of stats, loss, and metrics.

Training and inference share one LSTM gate layout (``gate_layout``) and
one cell step (``_lstm_cell``).

Inference runs one folded step (``InferStep``): with frozen batch-norm
moments and dropout off, fc1 -> batch norm -> LSTM1 input projection is
one affine map, folded into LSTM1's weights once per model.  The stream
steps it one row at a time and infer-mode ``forward`` scans it over time
with one row per sequence, writing each step's sequence columns into
``InferStep.inputs``; each row's logits become P(falling) through
``falling_probability``.  At more than one row each product is a stack of
one-row products, so every row of a scan gets exactly the bits the stream
gives that sequence, at any row count, and each row may step on its own
parameter set (a per-row stack of weight matrices).  ``_scan_pairs`` scans many (parameter set, sequence)
pairs on that promise, pooling across sets only the rows that would not
fill a scan of their own: eval-fdnn scores one model's sequences
(``predict_traces``), and ``train`` scores every epoch's snapshot in one
pass after the last epoch (``sample_accuracies``, which counts each scan's
correct steps and keeps no trace), so the log's ``wall_seconds`` counts
training only.

Train mode runs fc1 and batch norm over the whole (time-major) sequence
at once, then both LSTMs as one lagged scan (``_lagged_scan``): one
2H-wide cell stepped T+1 times, with layer 2 one step behind layer 1, so
each step is one recurrent matmul and one ``_lstm_cell`` call for both
layers.  The scan is feature-major, (T+1, 8H, B): a step is one (8H, B)
slab whose rows are the gate blocks g | i | f | o, each
[layer 1 | layer 2] (``_paired_rows``), so each gate block is one
contiguous slab.  Layer 1's rows are a strided view (``_layer_rows``), on
which its input projection and input-weight gradient run 4H wide.  BPTT
runs that scan backwards with only the recurrence in the loop.  ``train``
runs every batch in one ``_Workspace``, whose buffers hold the scan's
and BPTT's arrays from batch to batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace

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


PARAM_FIELDS = tuple(f.name for f in fields(FdnnParams))
# Running batch-norm moments are state, not trained parameters.
TRAINABLE_FIELDS = tuple(
    f for f in PARAM_FIELDS if f not in ("bn_mean", "bn_var"))


def _uniform_fanin(rng: np.random.Generator, fan_in: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: FdnnConfig) -> FdnnParams:
    """Fan-in scaled uniform weights, zero biases, forget-gate bias 1."""
    rng = np.random.default_rng(config.seed)
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

def gate_layout(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """The column order taking the stored i, f, g, o gates to g, i, f, o,
    and each reordered column's factor: 1 for g, 1/2 for the i, f, o
    block.  On weights so reordered and scaled, one ``tanh`` over a step's
    slab gives g and, as sigmoid(z) = tanh(z/2)/2 + 1/2, i, f and o."""
    order = np.r_[2 * hidden:3 * hidden, 0:2 * hidden, 3 * hidden:4 * hidden]
    half = np.r_[np.ones(hidden), np.full(3 * hidden, 0.5)]
    return order, half


# ``_lstm_cell``'s ufuncs, bound once: one global lookup a call, not two.
_tanh, _multiply, _add = np.tanh, np.multiply, np.add


def _lstm_cell(z, g, i, f, o, sig, c_prev, c, tanh_c, h,
               half=0.5) -> None:
    """One LSTM step in place.  z: (rows, 4H) pre-activations in
    ``gate_layout``, overwritten by the activations; g, i, f, o are its
    blocks and sig the i, f, o block.  Writes c = f*c_prev + i*g (c may be
    c_prev), tanh_c = tanh(c), using it for i*g first, and h = o*tanh_c.
    ``half`` is 0.5 for tanh/2 + 1/2: the scans pass an array of 0.5 in
    sig's shape, built once, which NumPy applies faster than a Python
    float, with the same bits."""
    _tanh(z, z)
    _multiply(sig, half, sig)
    _add(sig, half, sig)
    _multiply(f, c_prev, c)
    _multiply(i, g, tanh_c)
    _add(c, tanh_c, c)
    _tanh(c, tanh_c)
    _multiply(o, tanh_c, h)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def falling_probability(z) -> float:
    """P(falling), softmax's entry 1, of one row of logits (any number of
    classes >= 2) on floats.  Every exponent is <= 0, so no logit
    overflows; a NaN logit gives NaN."""
    m = max(z)
    total = 0.0
    for v in z:
        total += math.exp(v - m)
    return math.exp(z[1] - m) / total


def _folded_weights(params: FdnnParams, config: FdnnConfig):
    """``InferStep``'s three weight matrices for one parameter set, each
    in the memory order that ``w[:, order] * half`` leaves (BLAS picks its
    kernel by the order, and the kernel sets the last bits)."""
    order, half = gate_layout(config.inner_dim)
    scale = params.bn_gamma / np.sqrt(params.bn_var + config.bn_eps)
    shift = (params.fc1_b - params.bn_mean) * scale + params.bn_beta
    w1 = np.vstack([(params.fc1_w * scale) @ params.lstm1_wx,
                    params.lstm1_wh,
                    shift @ params.lstm1_wx + params.lstm1_b])
    w2 = np.vstack([params.lstm2_wx, params.lstm2_b, params.lstm2_wh])
    return (w1[:, order] * half, w2[:, order] * half,
            np.vstack([params.fc2_b, params.fc2_w]))


class InferStep:
    """The frozen detector as one step over ``rows`` input rows at a time.

    Built once per model: batch norm's frozen moments and fc1 are folded
    into LSTM1's input weights, each layer's input and recurrent weights
    are stacked, and every bias is a weight row against a constant 1.
    One buffer laid out ``[x | h1 | 1 | h2]`` holds the inputs and the
    state, so layer 1 is ``[x | h1 | 1] @ W1``, layer 2
    ``[h1 | 1 | h2] @ W2`` and fc2 ``[1 | h2] @ W3``, each one matmul on a
    view of it, whose columns are in ``gate_layout``; ``_lstm_cell``
    finishes each layer.  ``inputs`` is the buffer's ``x`` columns, the
    (rows, input_dim) view that the next step reads.  A call returns
    ``falling_probability`` of each row's logits.

    ``params`` is one parameter set for every row, or a list of one set
    per row; each distinct set is folded once.

    At one row each product is the operand view's bound ``ndarray.dot``:
    ``np.dot``'s C routine without its Python-level dispatcher.  At more
    rows each is a stack of one-row products, ``np.matmul(x[:, None, :],
    W)``, ``W`` the shared matrix broadcast or an ``np.stack`` of each
    row's own (which keeps each matrix's memory order), so every row gets
    the bits it gets stepped alone: BLAS takes another kernel, which
    differs in the last bits, for a many-row ``np.dot`` or a C-contiguous
    weight stack.
    """

    def __init__(self, params: FdnnParams | list[FdnnParams],
                 config: FdnnConfig, rows: int = 1):
        d, h = config.input_dim, config.inner_dim
        per_row = params if isinstance(params, list) else [params] * rows
        if len(per_row) != rows:
            raise FdnnError(f"{len(per_row)} parameter sets for {rows} rows")
        distinct = {id(p): p for p in per_row}
        folded = {k: _folded_weights(p, config) for k, p in distinct.items()}
        if len(folded) == 1:
            w1, w2, w3 = folded[id(per_row[0])]
        else:
            w1, w2, w3 = (np.stack([folded[id(p)][k] for p in per_row])
                          for k in range(3))

        buf = np.zeros((rows, d + 2 * h + 1))
        buf[:, d + h] = 1.0
        h1, h2 = buf[:, d:d + h], buf[:, d + h + 1:]
        c1, c2 = np.zeros((rows, h)), np.zeros((rows, h))
        self.inputs = buf[:, :d]
        self._logits = np.empty((rows, config.classes))
        one = () if rows == 1 else np.s_[:, None]     # one-row stacks

        def product(x):
            """The product on operand view x, as a call of (W, out)."""
            return x.dot if rows == 1 else partial(np.matmul, x[one])

        self._fc2 = (product(buf[:, d + h:]), w3, self._logits[one])
        self._cells = []
        sig_half = np.full((rows, 3 * h), 0.5)
        for inputs, w, c, h_out in ((buf[:, :d + h + 1], w1, c1, h1),
                                    (buf[:, d:], w2, c2, h2)):
            z = np.empty((rows, 4 * h))
            self._cells.append((product(inputs), w, z[one], (
                z, z[:, :h], z[:, h:2 * h], z[:, 2 * h:3 * h], z[:, 3 * h:],
                z[:, h:], c, c, np.empty((rows, h)), h_out, sig_half)))

    def _advance(self) -> None:
        """One step of every row from ``inputs``; the logits land in
        ``self._logits``."""
        for product, w, z, cell in self._cells:
            product(w, z)
            _lstm_cell(*cell)
        product, w3, logits = self._fc2
        product(w3, logits)

    def __call__(self) -> list[float]:
        """P(falling) after one step of each row from ``inputs``, which
        the caller has written."""
        self._advance()
        return [falling_probability(z) for z in self._logits.tolist()]

    def step(self) -> float:
        """P(falling) of row 0 after one step from ``inputs[0]``, which the
        caller has written: the stream's detector call, with no copy."""
        self._advance()
        return falling_probability(self._logits.tolist()[0])


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


def _checked_inputs(config: FdnnConfig, static: np.ndarray,
                    sequence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, static_dim) and (B, T, input_dim - static_dim) float arrays."""
    static = np.atleast_2d(np.asarray(static, dtype=float))
    sequence = np.asarray(sequence, dtype=float)
    b, _, dd = sequence.shape
    if static.shape != (b, config.static_dim):
        raise FdnnError(
            f"static inputs must be ({b}, {config.static_dim}), "
            f"got {static.shape}")
    if config.static_dim + dd != config.input_dim:
        raise FdnnError(
            f"input width {config.static_dim}+{dd} != {config.input_dim}")
    return static, sequence


def _paired_rows(hidden: int) -> np.ndarray:
    """The lagged scan's rows as stored columns of both layers' LSTM
    weights side by side, ``[layer 1 | layer 2]`` each in the stored i, f,
    g, o order: one 2H-wide cell's ``gate_layout(2H)``, blocks
    g | i | f | o, each [layer 1 | layer 2]."""
    stored = np.arange(8 * hidden).reshape(2, 4, hidden).transpose(1, 0, 2)
    return stored.ravel()[gate_layout(2 * hidden)[0]]


def _layer_rows(a: np.ndarray, layer: int) -> np.ndarray:
    """One layer's rows of an (..., 8H, B) array on ``_paired_rows``, as
    an (..., 4, H, B) view: its g, i, f, o blocks in ``gate_layout(H)``."""
    *lead, eight_h, b = a.shape
    return a.reshape(*lead, 4, 2, eight_h // 8, b)[..., layer, :, :]


def _lagged_weights(params: FdnnParams):
    """The unhalved weights of ``_lagged_scan``: layer 1's input weights
    (F, 4H) in ``gate_layout(H)``, as on ``_layer_rows``; the recurrent
    weights (8H, 3H) on ``_paired_rows`` against the state
    ``[h1*d1 | h1 | h2]`` (h1 into layer 1, dropped-out h1 and h2 into
    layer 2); and the bias (8H,) on ``_paired_rows``."""
    zh = np.zeros_like(params.lstm1_wh)
    rows = _paired_rows(zh.shape[0])
    w_rec = np.block([[zh, params.lstm2_wx], [params.lstm1_wh, zh],
                      [zh, params.lstm2_wh]])
    return (params.lstm1_wx[:, gate_layout(zh.shape[0])[0]],
            w_rec[:, rows].T, np.r_[params.lstm1_b, params.lstm2_b][rows])


class _Workspace:
    """Memory for ``loss_and_gradients``' largest arrays, kept from call
    to call: ``train`` makes one and passes it to every batch, so that a
    batch writes pages already touched rather than fresh ones.

    ``arrays`` lays one call's arrays out.  Each is the C-contiguous
    prefix of a flat buffer that grows to the largest batch seen so far,
    reshaped to this batch's shape: the shape and strides ``np.empty``
    gives, so every product and sum keeps its bits.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def _array(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buffers = self._buffers
        if name not in buffers or buffers[name].size < size:
            buffers.pop(name, None)         # freed before its successor
            buffers[name] = np.empty(size)
        return buffers[name][:size].reshape(shape)

    def arrays(self, t: int, b: int, h: int,
               dropout: bool) -> SimpleNamespace:
        """One call's arrays for T steps of B sequences, H units: the
        lagged scan's ``xw`` (T+1, 8H, B) and states ``s`` (T+2, 3H, B);
        its cells ``c`` (T+2, 2H, B) and ``tanh_c`` (T+1, 2H, B), side by
        side in one buffer whose prefix holds, in turn, the input
        projection ``proj`` (T, B, 4H) before the scan and the layer-1
        gate gradients ``flat1`` (T*B, 4H) after BPTT; the gradient
        reaching layer 2's output ``d_out`` (T+1, H, B); and the mask
        between the layers ``d1`` (T+1, H, B), a broadcast 1 without
        dropout.  In slabs of (T+1)*8H*B floats that is 2 (2.125 with
        dropout), BPTT's factors included: they overwrite the scan's
        arrays."""
        t1 = t + 1
        cells = self._array("cells", (2 * t1 + 1) * 2 * h * b)
        c = cells[:(t1 + 1) * 2 * h * b].reshape(t1 + 1, 2 * h, b)
        proj = cells[:t * b * 4 * h].reshape(t, b, 4 * h)
        return SimpleNamespace(
            xw=self._array("xw", t1, 8 * h, b),
            s=self._array("s", t1 + 1, 3 * h, b),
            c=c, tanh_c=cells[c.size:].reshape(t1, 2 * h, b),
            proj=proj, flat1=proj.reshape(t * b, 4 * h),
            d_out=self._array("d_out", t1, h, b),
            d1=(self._array("d1", t1, h, b) if dropout
                else np.broadcast_to(1.0, (t1, h, b))))


def _lagged_scan(a: SimpleNamespace, w_rec: np.ndarray) -> None:
    """Both LSTM layers over a whole sequence as one 2H-wide cell stepped
    T+1 times, layer 2 one step behind layer 1: combined step k runs
    layer 1 at time k and layer 2 at time k-1, in ``gate_layout(2H)``.

    Feature-major: each step is one (8H, B) slab on ``_paired_rows``, so
    each of its gate blocks, and its i, f, o block, is contiguous.  On
    ``_Workspace.arrays`` ``a``: ``a.xw`` (T+1, 8H, B) holds the halved
    pre-activations, layer 1's input projection and both biases; layer
    2's input gate is -inf at step 0, so its state there stays exactly 0.
    The gate activations overwrite it.  w_rec: the halved recurrent
    weights (8H, 3H) on the state ``[h1*d1 | h1 | h2]``; ``a.d1``: the
    dropout mask between the layers.  Fills the stacked states ``a.s``
    and ``a.c``, row 0 the zero initial state, and tanh(c) ``a.tanh_c``.
    """
    xw, s, c = a.xw, a.s, a.c
    t1, eight_h, b = xw.shape
    hd = eight_h // 8
    s[0] = 0.0
    c[0] = 0.0
    g, i, f, o = xw.reshape(t1, 4, 2 * hd, b).transpose(1, 0, 2, 3)
    after = s[1:]
    rec = np.empty((eight_h, b))
    half = np.full((6 * hd, b), 0.5)
    dot, add, multiply, cell = w_rec.dot, np.add, np.multiply, _lstm_cell
    for z, gk, ik, fk, ok, sig, c_prev, ck, tanh_c, h, h1, h1d, d1k, \
            s_prev in zip(xw, g, i, f, o, xw[:, 2 * hd:], c[:-1], c[1:],
                          a.tanh_c, after[:, hd:], after[:, hd:2 * hd],
                          after[:, :hd], a.d1, s[:-1]):
        dot(s_prev, rec)
        add(z, rec, z)
        cell(z, gk, ik, fk, ok, sig, c_prev, ck, tanh_c, h, half)
        multiply(h1, d1k, h1d)


def forward(
    params: FdnnParams | list[FdnnParams],
    config: FdnnConfig,
    static: np.ndarray,
    sequence: np.ndarray,
    mode: str = "infer",
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    *,
    workspace: _Workspace | None = None,
):
    """Per-step probabilities for a batch of sequences.

    static: (B, static_dim); sequence: (B, T, input_dim - static_dim).
    Train mode returns (B, T, classes) class probabilities and the
    backward cache; it uses batch statistics over unmasked steps and
    applies dropout.  Its lagged scan runs in ``workspace``'s
    memory (fresh memory by default), so the cache it returns is valid
    only until that workspace's next call; only ``loss_and_gradients``
    reads it.  Infer mode returns (B, T) P(falling): it scans
    ``InferStep`` over time, is deterministic and mutates nothing; there
    ``params`` may also be a list of B sets, one per sequence.
    """
    if mode not in ("train", "infer"):
        raise FdnnError(f"unknown mode {mode!r}")
    static, sequence = _checked_inputs(config, static, sequence)
    b, t, _ = sequence.shape
    if mask is None:
        mask = np.ones((b, t), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (b, t):
            raise FdnnError(f"mask shape {mask.shape} != {(b, t)}")

    if mode == "infer":
        step_fn = InferStep(params, config, rows=b)
        # The static columns are written into the step's inputs once, then
        # each step's sequence columns in place, as the stream writes its
        # row, so no (T, B, input_dim) copy is made.
        step_fn.inputs[:, :config.static_dim] = static
        dynamic = step_fn.inputs[:, config.static_dim:]
        p_fall = np.empty((b, t))
        for step in range(t):
            dynamic[...] = sequence[:, step]
            p_fall[:, step] = step_fn()
        if not np.all(np.isfinite(p_fall)):
            raise FdnnError("non-finite activations in forward pass")
        return p_fall

    x = np.empty((t, b, config.input_dim))       # time-major
    x[:, :, :config.static_dim] = static
    x[:, :, config.static_dim:] = sequence.transpose(1, 0, 2)
    # Layer 1, fully connected, and layer 2, batch norm over the unmasked
    # (time x batch) positions; fc1's output becomes xhat in place.
    xhat = x @ params.fc1_w
    xhat += params.fc1_b
    valid = xhat[mask.T]
    mu = valid.mean(axis=0)
    var = valid.var(axis=0)
    del valid
    inv = 1.0 / np.sqrt(var + config.bn_eps)
    xhat -= mu
    xhat *= inv
    m = config.bn_momentum
    params.bn_mean[:] = m * params.bn_mean + (1 - m) * mu
    params.bn_var[:] = m * params.bn_var + (1 - m) * var

    # Dropout layers 3, 5, 7 (inverted scaling), drawn batch-major; the
    # first applies to the time-major (T, B, F) inputs, the others to
    # the scan's feature-major (T, H, B) states.
    h = config.inner_dim
    keep = 1.0 - config.dropout_rate
    drop: list[np.ndarray | None] = [None, None, None]
    if config.dropout_rate > 0.0:
        if rng is None:
            raise FdnnError("train mode with dropout needs an rng")
        drop = [((rng.random((b, t, width)) < keep) / keep).transpose(axes)
                for width, axes in ((config.fc1_units, (1, 0, 2)),
                                    (h, (1, 2, 0)), (h, (1, 2, 0)))]

    z = xhat * params.bn_gamma
    z += params.bn_beta
    if drop[0] is not None:
        z *= drop[0]
    # The lagged scan runs on halved copies of the weights; BPTT reads
    # the unhalved ones.  Layer 1's input projection fills its 4H rows
    # only, and step T's layer-1 rows feed nothing.
    w_in, w_rec, bias = _lagged_weights(params)
    half = gate_layout(2 * h)[1][:, None]
    bias = bias[:, None] * half
    arrays = (workspace or _Workspace()).arrays(t, b, h, drop[1] is not None)
    xw = arrays.xw
    proj = np.matmul(z, w_in * gate_layout(h)[1], arrays.proj)
    proj += _layer_rows(bias, 0).ravel()
    _layer_rows(xw[:t], 0)[...] = proj.reshape(t, b, 4, h).transpose(
        0, 2, 3, 1)
    _layer_rows(xw[:t], 1)[...] = _layer_rows(bias, 1)
    xw[t] = bias
    # Layer 2's input gate at its lead-in step: i = 0 exactly, so its c,
    # h and gate gradients there are exactly 0.
    xw[0, 3 * h:4 * h] = -np.inf
    # The mask between the layers gets a row of ones for the tail step
    # and replaces drop[1], whose T rows are then freed.
    if drop[1] is not None:
        arrays.d1[:t] = drop[1]
        arrays.d1[t] = 1.0
        drop[1] = arrays.d1
    _lagged_scan(arrays, w_rec * half)
    z2 = arrays.s[2:, 2 * h:]
    if drop[2] is not None:
        z2 = z2 * drop[2]
    probs = softmax_rows(z2.transpose(0, 2, 1) @ params.fc2_w
                         + params.fc2_b)
    if not np.all(np.isfinite(probs)):
        raise FdnnError("non-finite activations in forward pass")
    cache = {"x": x, "mask": mask, "xhat": xhat, "inv": inv, "drop": drop,
             "z1": z, "lstm": (arrays, w_in, w_rec), "z2": z2,
             "probs": probs}
    return probs.transpose(1, 0, 2), cache


def predict_trace(params: FdnnParams, config: FdnnConfig,
                  static: np.ndarray, sequence: np.ndarray) -> PredictionTrace:
    """Inference on a single sequence: P(falling) and decision per step."""
    p_fall = forward(params, config, np.atleast_2d(static),
                     np.asarray(sequence)[None, :, :], mode="infer")[0]
    return PredictionTrace(
        p_falling=p_fall, decisions=classify(p_fall, config.threshold))


# ---------------------------------------------------------------------------
# Loss and gradients (backpropagation through time)
# ---------------------------------------------------------------------------

# Steps per block of BPTT's step-free factors, a cap on its scratch.
_BPTT_STEPS = 64


def _lagged_scan_backward(a: SimpleNamespace,
                          w_rec: np.ndarray) -> np.ndarray:
    """BPTT through one ``_lagged_scan`` on the arrays ``a``.
    ``a.d_out``: (T+1, H, B) gradient reaching layer 2's h from above at
    each combined step, row 0 zero; w_rec: the unhalved recurrent
    weights.  Returns the gate gradients (T+1, 8H, B) on ``_paired_rows``,
    written over the activations ``a.xw``; c and tanh(c) are overwritten
    too."""
    act, tanh_c = a.xw, a.tanh_c
    c_prev = a.c[:-1]
    t1, eight_h, b = act.shape
    hd = eight_h // 8
    gates = act.reshape(t1, 4, 2 * hd, b)
    g, i, f, o = gates.transpose(1, 0, 2, 3)
    # Every factor that does not depend on the recurrence, a block of
    # steps at a time, in the activations' place; the loop scales the g,
    # i, f blocks by dc and the o block by dh.  (1 - tanh(c)^2) o goes to
    # c_prev's place once c_prev f (1 - f) is formed, and the forget gate,
    # which the loop reads too, to tanh(c)'s, which nothing reads after
    # the o block's factor: so BPTT needs only a block of scratch.
    scratch = np.empty((min(t1, _BPTT_STEPS), 2 * hd, b))
    for k in range(0, t1, _BPTT_STEPS):
        span = np.s_[k:k + _BPTT_STEPS]
        gk, ik, fk, ok, tc, cp = (g[span], i[span], f[span], o[span],
                                  tanh_c[span], c_prev[span])
        to_c = np.multiply(tc, tc, scratch[:len(tc)])
        np.subtract(1, to_c, to_c)
        to_c *= ok                              # (1 - tanh(c)^2) o
        tc *= ok
        np.subtract(1, ok, ok)
        ok *= tc                                # tanh(c) o (1 - o)
        tc[...] = fk
        np.subtract(1, fk, fk)
        fk *= tc
        fk *= cp                                # c_prev f (1 - f)
        cp[...] = to_c
        gi = np.subtract(1, ik, to_c)
        gi *= gk
        np.multiply(gk, gk, gk)
        np.subtract(1, gk, gk)
        gk *= ik                                # i (1 - g^2)
        ik *= gi                                # g i (1 - i)
    # The gradient reaching the state [h1*d1 | h1 | h2]; its last 2H
    # rows are the gradient reaching the cell's h.
    du = np.zeros((3 * hd, b))
    du_h1d, dh1, dh2 = du[:hd], du[hd:2 * hd], du[2 * hd:]
    dh = du[hd:]
    dc = np.zeros((2 * hd, b))
    tmp = np.empty((2 * hd, b))
    add, multiply, dot = np.add, np.multiply, w_rec.T.dot
    for flat, gif, go, tc, fk, dk, d1k in zip(
            act[::-1], gates[::-1, :3], o[::-1], c_prev[::-1], tanh_c[::-1],
            a.d_out[::-1], a.d1[::-1]):
        multiply(du_h1d, d1k, du_h1d)
        add(dh1, du_h1d, dh1)
        add(dh2, dk, dh2)
        multiply(dh, tc, tmp)
        add(dc, tmp, dc)
        multiply(gif, dc, gif)
        multiply(go, dh, go)
        multiply(dc, fk, dc)
        dot(flat, du)
    return act


def _lstm_gradients(lstm: tuple, z1: np.ndarray):
    """Both LSTM layers' weight gradients, and the gradient reaching
    layer 1's inputs z1 (T, B, F), by BPTT through the forward cache's
    ``lstm`` entry (the scan's arrays, input weights, recurrent weights),
    its ``d_out`` filled as ``_lagged_scan_backward`` reads it."""
    a, w_in, w_rec = lstm
    t, b, _ = z1.shape
    h = a.d_out.shape[1]
    flat = _lagged_scan_backward(a, w_rec)
    # The gradients come back on _paired_rows; the blocks that feed the
    # other layer are dropped, and the lead-in and tail steps add exact
    # zeros.  The recurrent gradient sums over time in chunks, so that
    # the copies tensordot makes to bring time and batch together stay
    # small.  Layer 1's input products take its 4H rows only, copied
    # into the scratch block, (T*B, 4H).
    back = np.argsort(_paired_rows(h))
    states = a.s[:-1]
    rec = sum(np.tensordot(states[k:k + 64], flat[k:k + 64],
                           ([0, 2], [0, 2]))
              for k in range(0, t + 1, 64))[:, back]
    bias = flat.sum(axis=0).sum(axis=1)[back]
    flat1 = a.flat1
    flat1.reshape(t, b, 4, h)[...] = _layer_rows(flat[:t], 0).transpose(
        0, 3, 1, 2)
    grads = dict(lstm2_wx=rec[:h, 4 * h:], lstm2_wh=rec[2 * h:, 4 * h:],
                 lstm2_b=bias[4 * h:],
                 lstm1_wx=(z1.reshape(t * b, -1).T @ flat1)[
                     :, np.argsort(gate_layout(h)[0])],
                 lstm1_wh=rec[h:2 * h, :4 * h], lstm1_b=bias[:4 * h])
    return grads, (flat1 @ w_in.T).reshape(t, b, -1)


def loss_and_gradients(
    params: FdnnParams,
    config: FdnnConfig,
    static: np.ndarray,
    sequence: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    *,
    workspace: _Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-step cross-entropy over unmasked steps, plus gradients.

    Gradients cover every trainable tensor (running batch-norm moments
    excluded).  Padding steps contribute exactly zero.  ``workspace``
    keeps the memory of the BPTT arrays from call to call (``train``
    passes one); by default they take fresh memory, freed before batch
    norm's backward pass.
    """
    labels = np.asarray(labels)
    probs, cache = forward(params, config, static, sequence, mode="train",
                           mask=mask, rng=rng, workspace=workspace)
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

    # The logits and batch norm are time-major, (T, B, .); the lagged
    # scan's arrays are feature-major, (T+1, ., B).
    mask = mask.T
    dlogits = cache["probs"].copy()
    dlogits.transpose(1, 0, 2)[rows, steps, labels] -= 1.0
    dlogits /= n_valid
    dlogits[~mask] = 0.0

    grads: dict[str, np.ndarray] = {}
    sum_tb = ([0, 1], [0, 1])
    drop = cache["drop"]
    grads["fc2_w"] = np.tensordot(cache["z2"], dlogits, ([0, 2], [0, 1]))
    grads["fc2_b"] = dlogits.sum(axis=(0, 1))
    # Layer 2's output at time k-1 is the lagged scan's step k; step 0 is
    # its lead-in.
    lstm = cache.pop("lstm")
    d_out = lstm[0].d_out
    d_out[0] = 0.0
    d_out[1:] = (dlogits @ params.fc2_w.T).transpose(0, 2, 1)
    if drop[2] is not None:
        d_out[1:] *= drop[2]
    lstm_grads, dz = _lstm_gradients(lstm, cache.pop("z1"))
    del lstm, d_out
    grads.update(lstm_grads)
    if drop[0] is not None:
        dz *= drop[0]

    # Batch norm backward over the unmasked positions only, in place:
    #   da1 = inv/n (n dxhat - sum(dxhat) - xhat sum(dxhat xhat)),
    # dxhat = dy gamma, with the products and then da1 in dz's place.
    xhat_v = cache.pop("xhat")[mask]
    dxhat_v = dz[mask]
    prod = np.multiply(dxhat_v, xhat_v, dz.reshape(-1)[:dxhat_v.size]
                       .reshape(dxhat_v.shape))
    grads["bn_gamma"] = prod.sum(axis=0)
    grads["bn_beta"] = dxhat_v.sum(axis=0)
    dxhat_v *= params.bn_gamma
    dxhat_sum = dxhat_v.sum(axis=0)
    np.multiply(dxhat_v, xhat_v, prod)
    xhat_v *= prod.sum(axis=0)
    dxhat_v *= n_valid
    dxhat_v -= dxhat_sum
    dxhat_v -= xhat_v
    dxhat_v *= cache["inv"] / n_valid
    da1 = dz
    da1[...] = 0.0
    da1[mask] = dxhat_v
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
    # A loop from 0.0, not sum(), which compensates floats on 3.12+.
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    total = np.sqrt(total)
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return float(total)


# Rows per padded scan in ``_scan_pairs``, a cap for memory: a chunk's
# padded arrays hold about 16 floats per row and step, 8 MB per 1 000
# steps at 64 rows, and an infer scan's cost per sample-step falls little
# beyond 64 rows.
SCAN_ROWS = 64


def scan_chunks(lengths: list[int]) -> list[list[int]]:
    """The indices of sequences of these lengths, shortest first (ties in
    index order), cut into chunks of ``SCAN_ROWS``: the padded scans that
    ``predict_traces`` runs, so a caller can load one chunk's sequences
    at a time."""
    by_length = sorted(range(len(lengths)), key=lengths.__getitem__)
    return [by_length[k:k + SCAN_ROWS]
            for k in range(0, len(by_length), SCAN_ROWS)]


def _scan_pairs(snapshots: list[FdnnParams], config: FdnnConfig,
                examples: list[SequenceExample]):
    """Yield ``(s, i, p)`` for every (snapshot s, example i) pair, ``p``
    bit for bit ``predict_trace``'s P(falling) (a view into its chunk's
    padded scan); a chunk is scanned only when the previous one's rows
    are all yielded.

    Scans hold at most ``SCAN_ROWS`` rows, one per pair, the examples
    taken shortest first.  Each snapshot's full chunks step on its shared
    weights, as one model's scans do; only what is left over, the longest
    ``len(examples) % SCAN_ROWS`` examples of each snapshot, is pooled
    into chunks that mix snapshots (a per-row weight stack costs more per
    row than a shared matrix, so pooling pays only for partial chunks)."""
    one = scan_chunks([len(e.sequence) for e in examples])
    full = [c for c in one if len(c) == SCAN_ROWS]
    pooled = [(s, i) for c in one[len(full):] for i in c
              for s in range(len(snapshots))]
    chunks = [[(s, i) for i in c]
              for s in range(len(snapshots)) for c in full]
    chunks += [pooled[start:start + SCAN_ROWS]
               for start in range(0, len(pooled), SCAN_ROWS)]
    for chunk in chunks:
        static, seq, _, _ = _pad_batch([examples[i] for _, i in chunk])
        p_fall = forward([snapshots[s] for s, _ in chunk], config, static,
                         seq, mode="infer")
        for row, (s, i) in zip(p_fall, chunk):
            yield s, i, row[:len(examples[i].sequence)]


def predict_traces(params: FdnnParams, config: FdnnConfig,
                   examples: list[SequenceExample]) -> list[PredictionTrace]:
    """``predict_trace`` of each example, bit for bit, from a few padded
    infer scans (``_scan_pairs`` of one parameter set)."""
    traces = [None] * len(examples)
    for _, i, p in _scan_pairs([params], config, examples):
        traces[i] = PredictionTrace(
            p_falling=p, decisions=classify(p, config.threshold))
    return traces


def sample_accuracies(snapshots: list[FdnnParams], config: FdnnConfig,
                      examples: list[SequenceExample]) -> list[float]:
    """Each snapshot's fraction of steps classified correctly (strict
    threshold), all scored in the same padded scans.  Each chunk's steps
    are counted as it is scanned and no trace is kept, so memory does not
    grow with the number of snapshots."""
    total = sum(len(e.labels) for e in examples)
    if not total:
        return [0.0] * len(snapshots)
    correct = [0] * len(snapshots)
    for s, i, p in _scan_pairs(snapshots, config, examples):
        correct[s] += int((classify(p, config.threshold)
                           == (examples[i].labels == 1)).sum())
    return [c / total for c in correct]


def train(
    config: FdnnConfig,
    train_set: list[SequenceExample],
    val_set: list[SequenceExample],
) -> tuple[FdnnParams, list[EpochLog]]:
    """Mini-batch Adam over padded batches; keeps the epoch snapshot with
    the highest validation sample accuracy (earliest epoch wins ties).

    Each epoch's end state is kept; after the last epoch (or, if the
    loss diverges, before ``TrainingDiverged`` is raised) every snapshot
    is scored on the validation set at once (``sample_accuracies``).  So
    ``EpochLog.wall_seconds`` counts training only.  Every batch runs in
    one ``_Workspace``, sized for the largest batch seen."""
    if not train_set or not val_set:
        raise FdnnError("train and validation sets must be non-empty")
    params = init_params(config)
    rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)

    adam_m = {f: np.zeros_like(getattr(params, f)) for f in TRAINABLE_FIELDS}
    adam_v = {f: np.zeros_like(getattr(params, f)) for f in TRAINABLE_FIELDS}
    step_count = 0
    workspace = _Workspace()

    snapshots: list[FdnnParams] = []
    log: list[EpochLog] = []

    def score() -> list[float]:
        accuracies = sample_accuracies(snapshots, config, val_set)
        for row, acc in zip(log, accuracies):
            row.val_accuracy = acc
        return accuracies

    t0 = time.perf_counter()
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_set))
        losses = []
        norms = []
        for i in range(0, len(order), config.batch_size):
            batch = [train_set[j] for j in order[i:i + config.batch_size]]
            static, seq, labels, mask = _pad_batch(batch)
            loss, grads = loss_and_gradients(
                params, config, static, seq, labels, mask, rng=drop_rng,
                workspace=workspace)
            if not np.isfinite(loss):
                del workspace
                score()
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

        log.append(EpochLog(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            val_accuracy=math.nan,                # filled by score()
            wall_seconds=time.perf_counter() - t0,
            grad_norm_mean=float(np.mean(norms)),
            grad_norm_max=float(np.max(norms)),
            clipped_fraction=float(np.mean(
                [config.grad_clip > 0 and n > config.grad_clip
                 for n in norms])),
        ))
        snapshots.append(params.copy())
    del workspace
    accuracies = score()
    if not snapshots:
        return params, log
    return snapshots[accuracies.index(max(accuracies))], log


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
                    stats: StandardizationStats) -> None:
    """Self-contained checkpoint: parameters plus the input standardizer."""
    header = {
        "config": asdict(config),
        "standardizer": {
            "mean": stats.mean.tolist(),
            "std": stats.std.tolist(),
        },
        "feature_names": list(FDNN_FEATURES),
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
            std=np.asarray(std["std"], dtype=float))
    except KeyError as exc:
        raise checkpoint.CheckpointError(
            f"{name}: checkpoint lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise checkpoint.CheckpointError(
            f"{name}: malformed checkpoint: {exc}") from None
    _check_loaded(name, params, config, stats, names)
    return params, config, stats, names

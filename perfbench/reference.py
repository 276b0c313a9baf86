"""Computations made apart from the program, to check its outputs against.

Nothing here calls into ``fallsense``: the model files are read with an
own reader of the documented container layout, the detector and the
impact model are evaluated in plain NumPy, and trial files are parsed
with an own parser.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"FSCKPT\x00\x00"


def read_model_file(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and float64 arrays of a model container (layout version 1)."""
    blob = Path(path).read_bytes()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    version, header_len = struct.unpack_from("<II", blob, 8)
    if version != 1:
        raise ValueError(f"{path}: container version {version}")
    header = json.loads(blob[16:16 + header_len])
    offset = 16 + header_len
    arrays = {}
    for name, shape in header["arrays"]:
        count = int(np.prod(shape, dtype=np.int64))
        arrays[name] = np.frombuffer(blob, "<f8", count, offset).reshape(shape)
        offset += 8 * count
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return header, arrays


# ---------------------------------------------------------------------------
# Detector: fc1 -> frozen batch norm -> LSTM -> LSTM -> fc2 -> softmax
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class Detector:
    header: dict
    w: dict[str, np.ndarray]

    @classmethod
    def load(cls, path: Path) -> "Detector":
        header, arrays = read_model_file(path)
        return cls(header, arrays)

    @property
    def threshold(self) -> float:
        return float(self.header["config"]["threshold"])

    def p_falling(self, frames18: np.ndarray) -> np.ndarray:
        """P(falling) per step for one (T, 18) raw detector-input matrix."""
        cfg, w = self.header["config"], self.w
        std = self.header["standardizer"]
        x = (frames18 - np.asarray(std["mean"])) / np.asarray(std["std"])
        a1 = x @ w["fc1_w"] + w["fc1_b"]
        y = ((a1 - w["bn_mean"]) / np.sqrt(w["bn_var"] + cfg["bn_eps"])
             * w["bn_gamma"] + w["bn_beta"])
        h2 = self._lstm(self._lstm(y, "lstm1"), "lstm2")
        logits = h2 @ w["fc2_w"] + w["fc2_b"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e[:, 1] / e.sum(axis=1)

    def _lstm(self, xs: np.ndarray, name: str) -> np.ndarray:
        wx, wh, b = (self.w[f"{name}_wx"], self.w[f"{name}_wh"],
                     self.w[f"{name}_b"])
        hid = wh.shape[0]
        pre = xs @ wx + b           # input projections for every step
        h = np.zeros(hid)
        c = np.zeros(hid)
        out = np.empty((xs.shape[0], hid))
        for t in range(xs.shape[0]):
            z = pre[t] + h @ wh
            i, f = _sigmoid(z[:hid]), _sigmoid(z[hid:2 * hid])
            g, o = np.tanh(z[2 * hid:3 * hid]), _sigmoid(z[3 * hid:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[t] = h
        return out


# ---------------------------------------------------------------------------
# Impact model: sum_j Phi_j(sum_i phi_ij(x_i)), clamped at 0 ms
# ---------------------------------------------------------------------------

@dataclass
class ImpactModel:
    header: dict
    w: dict[str, np.ndarray]

    @classmethod
    def load(cls, path: Path) -> "ImpactModel":
        header, arrays = read_model_file(path)
        return cls(header, arrays)

    @property
    def feature_names(self) -> list[str]:
        return self.header["feature_names"]

    @property
    def window(self) -> int:
        return int(round(self.header["config"]["window_ms"] / 5.0))

    def tti_ms(self, smoothed: np.ndarray) -> np.ndarray:
        """Clamped time of impact for (M, d) already-smoothed raw rows."""
        std = self.header["standardizer"]
        x = (smoothed - np.asarray(std["mean"])) / np.asarray(std["std"])
        inner_grid = np.asarray(self.header["inner_grid"])
        outer_grids = np.asarray(self.header["outer_grids"])
        inner, outer = self.w["inner_values"], self.w["outer_values"]
        d, branches, _ = inner.shape
        y = np.zeros(x.shape[0])
        for j in range(branches):
            s = sum(np.interp(x[:, i], inner_grid, inner[i, j])
                    for i in range(d))
            y += np.interp(s, outer_grids[j], outer[j])
        return np.maximum(0.0, y)


def trailing_mean(rows: np.ndarray, window: int) -> np.ndarray:
    """Mean of the last ``window`` rows at each index (fewer at the start)."""
    c = np.cumsum(np.vstack([np.zeros((1, rows.shape[1])), rows]), axis=0)
    hi = np.arange(1, rows.shape[0] + 1)
    lo = np.maximum(0, hi - window)
    return (c[hi] - c[lo]) / (hi - lo)[:, None]


def causal_second_difference(theta: np.ndarray, dt: float) -> np.ndarray:
    """Backward second difference, 0 for the first two samples."""
    out = np.zeros_like(theta)
    out[2:] = (theta[2:] - 2.0 * theta[1:-1] + theta[:-2]) / (dt * dt)
    return out


# ---------------------------------------------------------------------------
# Trial files: one line of nine comma-separated ADC counts per sample
# ---------------------------------------------------------------------------

def parse_counts(path: Path) -> np.ndarray:
    """(N, 9) int64 counts; tolerates trailing semicolons and blank lines."""
    text = Path(path).read_text().replace(";", "")
    rows = [line.split(",") for line in text.split("\n") if line.strip()]
    counts = np.array(rows, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[1] != 9:
        raise ValueError(f"{path}: expected 9 counts per line")
    return counts

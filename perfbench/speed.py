"""Machine-speed probe: a fixed piece of work timed next to the program.

The shared machine the benchmark runs on changes speed by up to a factor
of two within seconds (the same work measured 45 to 90 ms from one second
to the next), so raw wall times of one run and the next differ by more
than the bounds the benchmark sets.  The probe is a fixed mix of the two
kinds of work the program does per sample, small NumPy calls and Python
scalar arithmetic, and uses no code of the program.  Every timed interval
is bracketed by a probe before and after it, and reported at the
reference speed: its wall time times ``REF_NS`` over the mean of the two
probe times.  A change to the program moves the scaled times as it moves
the raw ones; a slow phase of the machine moves both the interval and its
probes, and cancels.
"""

from __future__ import annotations

import time

import numpy as np

# What the probe takes at the reference speed: its median on the machine
# in perfbench/README.md.  Scaled times are wall times at that speed.
REF_NS = 30_000_000
STEPS = 800
_W = np.random.default_rng(0).standard_normal((64, 32)) * 0.2


def probe() -> int:
    """Wall time of the fixed probe work, in nanoseconds."""
    t0 = time.perf_counter_ns()
    x = np.full(16, 0.1)
    h = np.zeros(16)
    c = np.zeros(16)
    acc = 0.0
    for _ in range(STEPS):
        z = _W @ np.concatenate([x, h])
        g = 1.0 / (1.0 + np.exp(-z))
        c = g[16:32] * c + g[:16] * np.tanh(z[48:])
        h = g[32:48] * np.tanh(c)
        w0, w1, w2, w3 = 1.0, 0.0, 0.0, 0.0
        for _ in range(20):
            w0, w1, w2, w3 = (w0 - 0.01 * w1, w1 + 0.01 * w0,
                              w2 + 0.001 * w3, w3 - 0.001 * w2)
            acc += (w0 * w0 + w1 * w1) ** 0.5
        x = np.roll(x, 1) + h.mean()
    if not np.isfinite(acc):
        raise RuntimeError("speed probe diverged")
    return time.perf_counter_ns() - t0


class Scaler:
    """Scale factors for consecutive timed intervals.

    Probes once on creation; each ``next()`` probes again and returns the
    factor for the interval between the two probes.
    """

    def __init__(self):
        self.before = probe()
        self.factors: list[float] = []

    def next(self) -> float:
        after = probe()
        factor = 2.0 * REF_NS / (self.before + after)
        self.before = after
        self.factors.append(factor)
        return factor


def summary(factors: list[float]) -> str:
    if not factors:
        return "speed factors: none recorded"
    return (f"speed factors: median {float(np.median(factors)):.3f}, "
            f"range {min(factors):.3f}-{max(factors):.3f} "
            f"over {len(factors)} intervals")

"""A fixed computation that gauges how fast the host runs right now.

On a shared host the speed of the same code wanders by up to 2x for
seconds at a time. The benchmark times this kernel next to every
measured interval and scales the interval to a host that runs one
burst of the kernel in NOMINAL_SECONDS, which cancels most of that
drift: an interval that ran slowly because the host was slow finds the
kernel slow too. The kernel lives here, not in rolltune, so that no
change to the program can alter it.

One burst has two parts of about equal time that mirror rolltune's hot
spots: an LSTM step loop over 144 rows (the note-axis scan of a
training batch) and a boolean-mask logistic function over a (144, 24)
block. Against a 36-row and a 1-row loop, a pure interpreter loop and
a 192x192 matrix product, this pair tracked the round times of all
three workloads best: over 3 to 4 minutes of rounds per workload, it
cut the coefficient of variation of round rates from 0.12-0.19 (wall
time) to 0.07-0.13.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ROWS, HIDDEN, STEPS, LOOPS, SIGMOIDS = 144, 24, 32, 2, 60

# One burst on an idle core of the 2 GHz Xeon host the benchmark was
# tuned on. Only a scale: comparisons between commits do not depend on it.
NOMINAL_SECONDS = 0.017


def _burst() -> float:
    rng = np.random.default_rng(0)
    w = rng.standard_normal((2 * HIDDEN, 4 * HIDDEN)) * 0.1
    x = rng.standard_normal((ROWS, HIDDEN))
    h = np.zeros((ROWS, HIDDEN))
    c = np.zeros((ROWS, HIDDEN))
    start = time.perf_counter()
    for _ in range(LOOPS):
        for _ in range(STEPS):
            z = np.concatenate([x, h], axis=1) @ w
            gates = 1.0 / (1.0 + np.exp(-z[:, :3 * HIDDEN]))
            c = gates[:, HIDDEN:2 * HIDDEN] * c \
                + gates[:, :HIDDEN] * np.tanh(z[:, 3 * HIDDEN:])
            h = gates[:, 2 * HIDDEN:] * np.tanh(c)
    for _ in range(SIGMOIDS):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
    return time.perf_counter() - start


def kernel_seconds(bursts: int = 3) -> float:
    """Median time of one burst, measured now."""
    return statistics.median(_burst() for _ in range(bursts))


def nominal(seconds: float, kernel: float) -> float:
    """Scale an interval measured while one burst took `kernel`
    seconds to the nominal host speed."""
    return seconds * NOMINAL_SECONDS / kernel

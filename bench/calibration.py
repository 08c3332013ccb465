"""Machine-speed calibration of the benchmark's gated timings.

The benchmark runs on machines whose cores are shared with other
tenants, and the speed at which the same code runs drifts with their
load: a fixed loop ran anywhere from 1.0x to 1.9x its best time within
one minute, and whole runs slowed by up to 1.5x for minutes at a time.
No statistic of one run's own samples removes a slowdown that lasts the
whole run.

So the benchmark also times a fixed reference, a block of ``REPS``
repetitions between every two units of work and around every set-up,
and scales each gated timing to the speed at which the reference takes
``NOMINAL_S`` seconds::

    calibrated = raw * NOMINAL_S / reference

where ``reference`` is the median of the blocks nearest the timed
interval, two before it and two after. The reference is the benchmark's
own code and calls nothing in the program. Each workload picks the one
shaped like its hot loop (``lstm_steps`` or ``window_step``), so that it
slows with the machine as the program does, while a change to the
program moves the raw time and not the reference.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

NOMINAL_S = 1e-3      # a reference repetition's time at the nominal speed
REPS = 5              # repetitions in one block; the block reads their median
NEAREST = 2           # blocks on each side of an interval that calibrate it

_rng = np.random.default_rng(0)

# lstm_steps: 50 steps of a 16-unit LSTM cell, like a scorer's forward pass
_HIDDEN = 16
_LSTM_W = 0.1 * _rng.standard_normal((4 * _HIDDEN, 3 * _HIDDEN))
_LSTM_X = _rng.standard_normal((50, 2 * _HIDDEN))

# window_step: one 9-word window of 200-dim embeddings, hidden layer 100,
# scored against 200 corrupted centres, as in score-specific embedding
# training
_DIM, _WINDOW, _HID, _CORRUPT = 200, 9, 100, 200
_WIN_W = 0.05 * _rng.standard_normal((_HID, _WINDOW * _DIM))
_WIN_S = _rng.standard_normal(_WINDOW * _DIM)
_WIN_D = _rng.standard_normal((_DIM, _CORRUPT))
_WIN_V = _rng.standard_normal(_HID)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_steps() -> float:
    """A Python loop of small matrix-vector steps, about 1 ms."""
    h = np.zeros(_HIDDEN)
    c = np.zeros(_HIDDEN)
    for x in _LSTM_X:
        z = _LSTM_W @ np.concatenate((x, h))
        i, f, o, g = np.split(z, 4)
        c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        h = _sigmoid(o) * np.tanh(c)
    return float(h.sum())


def window_step() -> float:
    """Forward and backward of one window and its corruptions, about 1 ms."""
    centre = slice(4 * _DIM, 5 * _DIM)
    z = _WIN_W @ _WIN_S
    z_c = z[:, None] + _WIN_W[:, centre] @ _WIN_D
    dz_c = (np.abs(z_c) < 1.0) * _WIN_V[:, None]
    grad = np.outer(dz_c.sum(axis=1), _WIN_S)
    grad[:, centre] += dz_c @ _WIN_D.T
    back = _WIN_W.T @ dz_c.sum(axis=1)
    return float(grad[0, 0] + back[0])


class Calibration:
    """Reference blocks over one run, and the scale of any interval in it."""

    def __init__(self, reference):
        self.reference = reference
        self.times: list[float] = []    # perf_counter at each block's end
        self.refs: list[float] = []     # each block's median repetition, s

    def mark(self) -> None:
        """Time one block of the reference, outside every measured interval."""
        reps = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self.reference()
            reps.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.refs.append(float(np.median(reps)))

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the reference around [start, end]."""
        before = bisect.bisect_right(self.times, start)
        after = bisect.bisect_left(self.times, end)
        near = self.refs[max(0, before - NEAREST):before] \
            + self.refs[after:after + NEAREST]
        return NOMINAL_S / float(np.median(near))

    def reference_ms(self) -> list[float]:
        return [1e3 * r for r in self.refs]

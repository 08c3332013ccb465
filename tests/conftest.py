import numpy as np
import pytest

from essayscore.corpus import Essay, ScoreRange, Vocabulary


@pytest.fixture
def tiny_vocab():
    return Vocabulary(["the", "cat", "sat", "mat", "dog", "ran", "big",
                       "red", "sun", "sky"])


def make_essay(tokens, essay_id=1, set_id=1, raw=5.0,
               score_range=ScoreRange(0, 10)):
    return Essay(essay_id, set_id, list(tokens), raw, score_range.scale(raw))


def finite_difference(fn, arrays, step=1e-5):
    """Central finite differences of a scalar function over named arrays.

    ``arrays`` maps name -> ndarray mutated in place; returns the same
    mapping filled with difference quotients. Entries are perturbed by
    multi-index, so arrays of any memory order are mutated in place
    (``reshape(-1)`` would silently copy one that is not C-contiguous).
    """
    out = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        for k in np.ndindex(arr.shape):
            keep = arr[k]
            arr[k] = keep + step
            hi = fn()
            arr[k] = keep - step
            lo = fn()
            arr[k] = keep
            g[k] = (hi - lo) / (2 * step)
        out[name] = g
    return out


def max_relative_error(analytic, numeric, floor=1e-8):
    """Worst-case |a - n| / max(|a|, |n|, floor) over matching arrays."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst

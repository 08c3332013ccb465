import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import essayscore
from essayscore.corpus import Essay, ScoreRange, Vocabulary


@pytest.fixture
def tiny_vocab():
    return Vocabulary(["the", "cat", "sat", "mat", "dog", "ran", "big",
                       "red", "sun", "sky"])


def make_essay(tokens, essay_id=1, set_id=1, raw=5.0,
               score_range=ScoreRange(0, 10)):
    return Essay(essay_id, set_id, list(tokens), raw, score_range.scale(raw))


def as_views(essays):
    """The essays with their tokens as int32 views into one array, as a
    loaded corpus holds them."""
    flat = np.array([t for e in essays for t in e.tokens], dtype=np.int32)
    ends = np.cumsum([len(e.tokens) for e in essays]).tolist()
    return [dataclasses.replace(e, tokens=flat[end - len(e.tokens):end])
            for e, end in zip(essays, ends)]


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


def traced_peak(fn, *args):
    """Bytes ``fn`` allocates at its peak above what was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


# Runs ``module:function(argv)`` in a child under a 2 GiB address-space
# limit set on the child alone, after its imports, so an allocation sized
# from a forged header fails instead of being lazily granted by the
# kernel. The function's return value is the child's exit code.
_LIMITED = """
import importlib, resource, sys
module, name = sys.argv[1].split(":")
fn = getattr(importlib.import_module(module), name)
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.exit(fn(sys.argv[2:]))
"""


def run_limited(target, argv):
    paths = [str(Path(essayscore.__file__).parents[1]),
             str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-c", _LIMITED, target, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def run_limited_cli(argv):
    return run_limited("essayscore.cli:main", argv)

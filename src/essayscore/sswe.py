"""Score-specific word embeddings.

A shallow window network learns one embedding column per vocabulary word
under two objectives at once: a ranking hinge that scores true windows at
least 1 above center-corrupted ones, and a squared-error regression of
the essay score from the same hidden activation. The blend weight
``alpha`` moves between pure context ranking (1.0) and pure score
regression (0.0).

The embedding matrix ``M`` is indexed ``(D, V)``, one column per word,
and stored word-major (Fortran order), so every column is contiguous in
memory as it is on disk and ``M.T`` is a C-ordered ``(V, D)`` matrix
whose rows a window gathers and updates. A corrupted window differs from
its target only in the center, so corruptions travel as their center ids
alone (see :func:`corrupt_window`).

For the same reason the gradient of the hidden weights ``W_hi`` is never
built as a dense ``(H, n*D)`` matrix. Every window, target or corrupted,
reads the target's vector ``s_t`` outside the center block, so the
gradient is the rank-one ``outer(u, s_t)``, where ``u`` is the ``b_h``
gradient, plus an ``(H, D)`` block on the center columns.
:func:`train_sswe` applies the rank-one part to ``W_hi`` in place with
BLAS ``ger`` and then subtracts the center block.

A center drawn several times is one corrupted window weighted by its
count, so the backward pass works on the distinct centers. A corruption
with no saturated hidden unit passes the hidden gradient
``alpha / E * W_oh2`` per draw, so all such corruptions share one
embedding row, scaled by each one's count (0 when its hinge is
inactive), and one outer product in the center block. Only the active
corruptions that saturate a unit need products of their own (see
:class:`SSWEGradients`).

Most windows need no corruption hidden layer at all. A corruption's
pre-activation is ``z_c = z_t + W_center @ delta_k``, ``delta_k`` its
center vector minus the target's, so by Cauchy-Schwarz no ``|z_c|``
reaches 1 while ``max|z_t| + max_k |delta_k| * max_h |W_center[h]|`` is
below 1. Then the corruption side is linear in ``delta``: each margin is
``1 + delta_k @ (W_oh2 @ W_center)``, and the ``W_oh2`` gradient is
``alpha / E * W_center @ (weights @ delta)``, so :func:`backward` builds
no ``(U, H)`` array. A window the bound does not clear takes the full
corruption product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifact
from .config import Config
from .corpus import (N_SPECIALS, Essay, Vocabulary, corrupt_window,
                     extract_windows)
from .errors import ConfigError, DataError, NumericalError

EMBEDDING_MAGIC = b"SSWE"
EMBEDDING_VERSION = 1

# windows whose corruptions one corrupt_window call draws: 400 KB of
# centers at 200 corruptions, where an ASAP epoch's would take 3.4 GB
CORRUPT_CHUNK = 256


def htanh(x):
    """Hard tanh: clips to [-1, 1], identity inside. Element-wise."""
    # the two ufuncs give np.clip's values for a third of its call cost
    return np.minimum(np.maximum(x, -1.0), 1.0)


def uniform_columns(rng, scale: float, d: int, v: int) -> np.ndarray:
    """``rng.uniform(-scale, scale, size=(d, v))``, Fortran-ordered.

    Drawn 16 rows at a time into one reused buffer, the generator's
    stream in the same order, so no second (d, v) array is ever held.
    ``u * (2 * scale) - scale`` is ``uniform``'s own arithmetic, bit for
    bit: ``low + (high - low) * u``, and ``high - low`` is exact.
    """
    M = np.empty((d, v), order="F")
    buf = np.empty((min(16, d), v))
    for i in range(0, d, 16):
        rows = buf[:min(16, d - i)]
        rng.random(out=rows)
        rows *= 2 * scale
        rows -= scale
        M[i:i + 16] = rows
    return M


class SSWEParams:
    """All learnable tensors of the dual-head window network.

    ``M`` holds one embedding column per vocabulary id, shape ``(D, V)``,
    stored Fortran-ordered so that each word's vector is contiguous and
    gathering or updating the columns of one window touches contiguous
    memory. The hidden layer
    maps the concatenated window embedding (n*D) to H units through a
    hard tanh; two scalar heads read the same hidden activation: one
    ranks windows against corruptions, the other regresses the essay
    score.
    """

    def __init__(self, M, W_hi, b_h, W_oh2, b_o2, W_oh1, b_o1):
        self.M = M
        self.W_hi = W_hi
        self.b_h = b_h
        self.W_oh2 = W_oh2
        self.b_o2 = b_o2
        self.W_oh1 = W_oh1
        self.b_o1 = b_o1

    @classmethod
    def init(cls, vocab_size: int, cfg: Config, rng) -> "SSWEParams":
        """Uniform [-0.05, 0.05] weights, zero biases."""
        cfg.validate()
        d, h, n = cfg.embed_dim, cfg.hidden_dim, cfg.window_size
        u = lambda *shape: rng.uniform(-0.05, 0.05, size=shape)
        return cls(
            M=uniform_columns(rng, 0.05, d, vocab_size),
            W_hi=u(h, n * d),
            b_h=np.zeros(h),
            W_oh2=u(h),
            b_o2=np.zeros(1),
            W_oh1=u(h),
            b_o1=np.zeros(1),
        )

    @property
    def embed_dim(self) -> int:
        return self.M.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.M.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W_hi.shape[0]

    @property
    def window_size(self) -> int:
        return self.W_hi.shape[1] // self.M.shape[0]

    def dense_names(self):
        """Names of the non-embedding tensors, in declared order."""
        return ("W_hi", "b_h", "W_oh2", "b_o2", "W_oh1", "b_o1")


@dataclass
class SSWEGradients:
    """Gradients of the overall loss for one window.

    Sparse over the embedding matrix, in two parts whose columns may
    overlap; a column's gradient is the sum of its rows in both.

    - ``ids`` and ``ctx_rows``: the window's ids in order and one row per
      position, shape ``(n, D)``. An id that repeats gets each of its
      rows.
    - The corruptions: ``centers`` holds the distinct centers, ascending.
      Row 0 of ``dz`` is the hidden gradient of one draw of a corruption
      with no saturated unit, ``alpha / E * W_oh2``, and row 0 of
      ``rows`` its embedding row. Center ``k``'s gradient is
      ``weights[k] * rows[0]``, where ``weights[k]`` is its draw count,
      or 0 when its hinge is inactive or it saturates a unit. The active
      corruptions that saturate a unit are ``centers[partial]``: row
      ``1 + j`` of ``dz`` and of ``rows`` is the hidden gradient and the
      embedding row of ``centers[partial[j]]``, over all its draws.
      ``partial`` is empty when no corruption saturates a unit, as
      :func:`backward`'s bound often proves.
      ``rows`` is ``dz @ W_center``, ``W_center`` the center block of
      ``W_hi``.

    ``dense`` holds the gradients of ``b_h``, ``W_oh2``, ``b_o2``,
    ``W_oh1`` and ``b_o1``. The gradient of ``W_hi`` is kept factored:
    ``outer(dense["b_h"], s_t)`` plus ``dz.T @ inputs`` added to the
    columns ``center``, the window's center block. A corruption's center
    difference is its center's vector minus the target's; ``inputs[0]``
    is their sum weighted by ``weights``, and ``inputs[1 + j]`` that of
    ``centers[partial[j]]``. :func:`train_sswe` applies the rank-one part
    to ``W_hi`` in place with BLAS ``ger``, so no ``(H, n*D)`` gradient
    is ever allocated.
    """

    ids: np.ndarray
    ctx_rows: np.ndarray
    centers: np.ndarray
    weights: np.ndarray
    partial: np.ndarray
    dz: np.ndarray
    rows: np.ndarray
    inputs: np.ndarray
    dense: dict[str, np.ndarray]
    s_t: np.ndarray
    center: slice
    loss_overall: float = 0.0
    loss_context: float = 0.0
    loss_score: float = 0.0


def backward(params: SSWEParams, ids, corrupt_centers,
             gold_score: float, alpha: float = 0.1) -> SSWEGradients:
    """Exact analytic gradients of the overall loss for one window.

    ``ids`` are the window's ``n`` ids, its center at ``n // 2``.
    ``corrupt_centers`` are the center ids of the corrupted windows, as
    drawn by :func:`corrupt_window`; ids are not range-checked here
    (:func:`train_sswe` checks its windows once). The hinge subgradient
    at zero margin is 0, as is the hard-tanh derivative at its kinks.

    The corrupted windows share every position with the target window
    except the center, so their hidden pre-activations are ``z_t`` plus
    one center-block product, and the ``W_hi`` gradient comes back
    factored as ``(u, s_t)`` plus the center block (see
    :class:`SSWEGradients`), for :func:`train_sswe` to apply in place
    with BLAS ``ger``: no ``(H, n*D)`` matrix is built. For the same
    reason every context position's embedding row comes from one product
    ``u @ W_hi`` of the shared hidden gradient ``u``. Repeated draws of a
    center are one corrupted window weighted by its count, and every
    corruption without a saturated unit shares one hidden gradient, so
    only the saturating ones need embedding rows of their own.

    The corruption side takes one of two paths, chosen per window from
    the weights and the window alone. When ``max|z_t| + sqrt(max_k
    |delta_k|^2 * max_h |W_center[h]|^2)`` is below ``1 - 1e-9``, with
    ``delta_k`` a center's vector minus the target's, no corruption can
    saturate a unit: the margins and the ``W_oh2`` gradient come from
    matrix-vector products, ``partial`` is empty, and no ``(U, H)``
    product is formed. Otherwise the corruptions' hidden layer is
    computed in full, ``delta @ W_center.T``. The two paths agree within
    rounding; they associate the sums differently. An ``alpha`` outside
    [0, 1] is a :class:`ConfigError`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    rows_of = params.M.T          # (V, D), one C-ordered row per word
    W_hi = params.W_hi
    d = params.embed_dim
    ids = np.asarray(ids, dtype=np.intp)
    n = len(ids)
    c = n // 2
    center = slice(c * d, (c + 1) * d)
    W_center = W_hi[:, center]
    # the distinct centers in ascending order and their counts, from the
    # run boundaries of one sort; the ndarray methods and operators cost
    # less than np.unique's, np.sort's, np.flatnonzero's and np.diff's
    # wrappers
    drawn = np.array(corrupt_centers, dtype=np.intp)
    drawn.sort()
    n_corrupt = len(drawn)
    starts = np.empty(n_corrupt + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.not_equal(drawn[1:], drawn[:-1], out=starts[1:-1])
    bounds = starts.nonzero()[0]
    centers, counts = drawn[bounds[:-1]], bounds[1:] - bounds[:-1]

    x_t = rows_of[ids]
    s_t = x_t.reshape(-1)
    z_t = W_hi @ s_t
    z_t += params.b_h
    i_t = htanh(z_t)
    f_t = float(params.W_oh2 @ i_t + params.b_o2[0])
    f_ss = float(params.W_oh1 @ i_t + params.b_o1[0])

    # one row per distinct center: (U, D) center differences
    delta = rows_of[centers]
    delta -= x_t[c]
    # |z_c[k, h]| <= |z_t[h]| + |delta_k| |W_center[h]| (Cauchy-Schwarz);
    # below 1 by more than rounding, no corruption saturates a unit, so
    # the corruption side is linear in delta and needs no (U, H) array
    linear = np.abs(z_t).max() + math.sqrt(
        np.einsum("ij,ij->i", delta, delta).max()
        * np.einsum("ij,ij->i", W_center, W_center).max()) < 1.0 - 1e-9
    if linear:
        # i_c = z_c = z_t + delta @ W_center.T and i_t = z_t, so f_c - f_t
        # is delta's share alone
        margins = delta @ (params.W_oh2 @ W_center)
        margins += 1.0
    else:
        z_c = delta @ W_center.T
        z_c += z_t
        i_c = htanh(z_c)
        f_c = i_c @ params.W_oh2 + params.b_o2[0]
        margins = 1.0 - f_t + f_c
    active = margins > 0.0
    weights = np.where(active, counts, 0.0)
    l_ctx = float(counts @ np.maximum(0.0, margins)) / n_corrupt
    # squared error via numpy so a diverged run overflows to inf
    l_sc = float(np.square(np.float64(f_ss - gold_score)))
    l_all = alpha * l_ctx + (1.0 - alpha) * l_sc

    total = weights.sum()
    df_t = -alpha * total / n_corrupt
    df_ss = (1.0 - alpha) * 2.0 * (f_ss - gold_score)
    # hard tanh's slope: 0 in the flat regions and at the kinks
    dz_t = (df_t * params.W_oh2 + df_ss * params.W_oh1) \
        * (np.abs(z_t) < 1.0).astype(float)
    inputs = (weights @ delta)[None]
    if linear:
        # df_t * i_t + alpha / E * weights @ i_c, whose z_t terms cancel
        d_W_oh2 = alpha / n_corrupt * (W_center @ inputs[0])
    else:
        d_W_oh2 = df_t * i_t + (alpha / n_corrupt * weights) @ i_c
        saturated = np.abs(z_c) >= 1.0

    # the hidden gradient of one draw of an active corruption is
    # shared * htanh'(z_c), which is shared itself unless a unit saturates
    shared = alpha / n_corrupt * params.W_oh2
    if not linear and saturated.any():
        partial = np.flatnonzero(active & saturated.any(axis=1))
        dz_p = ~saturated[partial] * shared
        dz_p *= weights[partial, None]
        weights[partial] = 0.0
        dz = np.vstack([shared, dz_p])
        inputs = np.vstack([weights @ delta, delta[partial]])
        u = dz_t + weights.sum() * shared + dz_p.sum(axis=0)
    else:
        partial = np.empty(0, dtype=np.intp)
        dz = shared[None]
        u = dz_t + total * shared
    dense = {
        "b_h": u,
        "W_oh2": d_W_oh2,
        # b_o2 cancels from every margin 1 - f_t + f_c
        "b_o2": np.zeros(1),
        "W_oh1": df_ss * i_t,
        "b_o1": np.array([df_ss]),
    }

    # one row per context position from the shared u, except the
    # target's own center row, which the corruptions do not read
    ctx_rows = np.empty((n, d))
    np.matmul(u, W_hi, out=ctx_rows.reshape(-1))
    np.matmul(dz_t, W_center, out=ctx_rows[c])

    return SSWEGradients(ids=ids, ctx_rows=ctx_rows, centers=centers,
                         weights=weights, partial=partial, dz=dz,
                         rows=dz @ W_center, inputs=inputs, dense=dense,
                         s_t=s_t, center=center, loss_overall=l_all,
                         loss_context=l_ctx, loss_score=l_sc)


@dataclass
class EpochLosses:
    epoch: int
    loss_overall: float
    loss_context: float
    loss_score: float


def train_sswe(essays: list[Essay], vocab: Vocabulary,
               cfg: Config) -> tuple[SSWEParams, list[EpochLosses]]:
    """Per-sample SGD over the shuffled windows of ``essays``.

    Every token of every essay centers one window of
    ``cfg.window_size`` ids, padded with boundary ids at the essay's
    edges, whose gold score is the essay's ``scaled_score``; the windows
    are rows of one id stream (:func:`extract_windows`). Corruptions are
    redrawn at every visit from the seeded generator, so a fixed seed
    reproduces the parameter trajectory exactly. They are drawn for
    ``CORRUPT_CHUNK`` consecutive windows of the shuffled order at a
    time, one :func:`corrupt_window` call per chunk. Nothing else draws
    from the generator between an epoch's shuffle and its last window,
    and a chunk's draws are the stream of one call per window (see
    :func:`corrupt_window`), so the chunk size changes no value; a chunk
    bounds the draws held at once. Every id is checked against the
    vocabulary once, up front; an id out of range is a
    :class:`DataError`, and essays without a token are a
    :class:`ConfigError`.
    """
    cfg.validate()
    windows = extract_windows(essays, cfg.window_size)
    if not len(windows):
        raise ConfigError("cannot train embeddings on an empty window set")
    if windows.stream.min() < 0 or windows.stream.max() >= len(vocab):
        raise DataError(f"window id out of range for vocabulary of "
                        f"{len(vocab)}")
    # imported here: scipy.linalg costs about 6 MB at import, which the
    # scoring and serving paths should not pay
    from scipy.linalg.blas import dgemm, dger

    rng = np.random.default_rng(cfg.seed)
    params = SSWEParams.init(len(vocab), cfg, rng)
    eta = cfg.learning_rate
    history = []
    # out of the window loop: the windows' centers, and views of the
    # arrays that the update writes in place
    view, starts, scores = windows.view, windows.starts, windows.scores
    half = cfg.window_size // 2
    targets = view[starts, half]
    rows_of, W_hi, b_h = params.M.T, params.W_hi, params.b_h
    W_oh2, W_oh1, b_o1 = params.W_oh2, params.W_oh1, params.b_o1
    d = params.embed_dim
    # W_hi is C-ordered, so W_hi.T is a Fortran-ordered view that ger
    # updates in place
    W_hi_f, W_center = W_hi.T, W_hi[:, half * d:(half + 1) * d]
    order = np.arange(len(windows))
    for epoch in range(cfg.embed_epochs):
        rng.shuffle(order)
        tot_all = tot_ctx = tot_sc = 0.0
        for lo in range(0, len(order), CORRUPT_CHUNK):
            chunk = order[lo:lo + CORRUPT_CHUNK]
            drawn = corrupt_window(targets[chunk], cfg.n_corruptions, rng,
                                   vocab)
            # the chunk's ids as intp rows, which backward takes uncopied
            for ids, centers, score in zip(
                    view[starts[chunk]].astype(np.intp), drawn,
                    scores[chunk].tolist()):
                grads = backward(params, ids, centers, score, cfg.alpha)
                tot_all += grads.loss_overall
                tot_ctx += grads.loss_context
                tot_sc += grads.loss_score
                if eta != 0.0:
                    # eta rides on the BLAS calls' scale and on small
                    # arrays; of the corruptions' rows only the saturating
                    # ones are scaled one by one. W_hi -= eta * outer(u, s_t)
                    dger(-eta, grads.s_t, grads.dense["b_h"], a=W_hi_f,
                         overwrite_a=True)
                    # the center block eta * dz.T @ inputs, built transposed
                    # so that no operand is copied
                    W_center -= dgemm(eta, grads.inputs.T, grads.dz.T,
                                      trans_b=1).T
                    # b_o2's gradient is always 0, so it takes no step
                    dense = grads.dense
                    b_h -= eta * dense["b_h"]
                    W_oh2 -= eta * dense["W_oh2"]
                    W_oh1 -= eta * dense["W_oh1"]
                    b_o1 -= eta * dense["b_o1"]
                    # every gradient was taken before these writes, so the
                    # centers' and the context's columns may overlap
                    step = np.zeros((len(grads.centers), d))
                    dger(eta, grads.rows[0], grads.weights, a=step.T,
                         overwrite_a=True)
                    if grads.partial.size:
                        step[grads.partial] = eta * grads.rows[1:]
                    rows_of[grads.centers] -= step
                    step = eta * grads.ctx_rows
                    if len(set(ids.tolist())) == len(step):
                        rows_of[ids] -= step
                    else:
                        np.subtract.at(rows_of, ids, step)
        k = len(windows)
        history.append(EpochLosses(epoch, tot_all / k, tot_ctx / k, tot_sc / k))
        if not np.isfinite(history[-1].loss_overall):
            raise NumericalError(f"non-finite embedding loss at epoch {epoch}")
    return params, history


def nearest_neighbors(params: SSWEParams, vocab: Vocabulary, word: str,
                      k: int = 10) -> list[tuple[str, float]]:
    """k most cosine-similar vocabulary words, excluding the query itself.

    Special tokens never appear among the neighbors. Descending
    similarity, ties broken by vocabulary id; zero-norm columns compare
    at similarity 0.
    """
    wid = vocab.id_of(word)
    M = params.M
    norms = np.linalg.norm(M, axis=0)
    q = M[:, wid]
    qn = norms[wid]
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where((norms > 0) & (qn > 0), (q @ M) / (norms * qn), 0.0)
    ids = np.arange(N_SPECIALS, M.shape[1])
    ids = ids[ids != wid]
    # lexsort's last key is its first: descending similarity, then id
    top = ids[np.lexsort((ids, -sims[ids]))[:k]].tolist()
    return [(vocab.id_to_token[i], float(sims[i])) for i in top]


def cosine_distance(params: SSWEParams, vocab: Vocabulary,
                    word_a: str, word_b: str) -> float:
    """1 - cosine similarity between two words' embedding columns."""
    a = params.M[:, vocab.id_of(word_a)]
    b = params.M[:, vocab.id_of(word_b)]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - float(a @ b / (na * nb))


# --- persistence --------------------------------------------------------

def save_embeddings(path, params: SSWEParams, vocab: Vocabulary,
                    config_hash: str = ""):
    """Versioned dump in the :mod:`essayscore.artifact` container.

    Header: vocab size, embed dim, window size, hidden dim. Then the
    tokens, the embedding matrix column-major, the remaining tensors in
    declared order and the config hash.
    """
    with artifact.writing(path, EMBEDDING_MAGIC, EMBEDDING_VERSION) as out:
        out.header("4I", params.vocab_size, params.embed_dim,
                   params.window_size, params.hidden_dim)
        out.texts(vocab.id_to_token)
        out.tensor(params.M, "F")
        for name in params.dense_names():
            out.tensor(getattr(params, name))
        out.text(config_hash)


def load_embeddings(path) -> tuple[SSWEParams, Vocabulary, str]:
    """Read a :func:`save_embeddings` file.

    Zero or invalid dimensions, misplaced or duplicate tokens and
    trailing bytes are :class:`ModelFormatError` (exit 2).
    """
    with artifact.reading(path, EMBEDDING_MAGIC, EMBEDDING_VERSION,
                          "embedding file") as inp:
        v, d, n, h = inp.header("4I")
        inp.validate(Config(embed_dim=d, hidden_dim=h, window_size=n))
        shapes = {"M": (d, v), "W_hi": (h, n * d), "b_h": (h,), "W_oh2": (h,),
                  "b_o2": (1,), "W_oh1": (h,), "b_o1": (1,)}
        # token length prefixes, tensors and the hash length
        inp.require(4 * v + 8 * sum(map(math.prod, shapes.values())) + 4)
        tokens = [inp.text() for _ in range(v)]
        if tokens[:N_SPECIALS] != Vocabulary([]).id_to_token \
                or len(set(tokens)) != v:
            raise inp.error("special tokens out of place or duplicate tokens")
        tensors = {name: inp.tensor(shape, "F" if name == "M" else "C")
                   for name, shape in shapes.items()}
        config_hash = inp.text()
    return SSWEParams(**tensors), Vocabulary(tokens[N_SPECIALS:]), config_hash

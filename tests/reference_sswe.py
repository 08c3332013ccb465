"""Direct SSWE formulas: the references the window step is checked against.

``forward`` scores one window vector as the paper writes the network,
and ``sample_loss`` evaluates the overall loss of a window and its
corruptions by running every corrupted window through it, which is what
the finite-difference checks differentiate. ``reference_backward`` and
``reference_train`` are the earlier per-sample SGD: a dense ``W_hi``
gradient, the embedding gradient accumulated as a dict of columns one
contribution at a time, and a per-column update loop on a C-ordered
``M``, over windows that ``essay_windows`` cuts from each essay padded
on its own. The oracle holds its own activation (``htanh``), its slope
(``htanh_slope``) and the loss blend (``loss_overall``), so it shares no
formula with what it checks. None of this is used by the package; the
factored step in ``essayscore.sswe``, over the windows of one shared id
stream, must match it within rounding.
"""

from __future__ import annotations

import numpy as np

from essayscore.corpus import BOUNDARY_ID, corrupt_window
from essayscore.errors import ConfigError
from essayscore.sswe import SSWEParams


def htanh(x):
    """Hard tanh: -1 below -1, 1 above 1, the identity between."""
    return np.clip(x, -1.0, 1.0)


def htanh_slope(preact):
    """Hard tanh's derivative: 1 inside (-1, 1), 0 in the flat regions,
    and 0 at the kinks too."""
    return (np.abs(preact) < 1.0).astype(float)


def embed_window(context, M) -> np.ndarray:
    """Concatenate the embedding columns of a window, in order."""
    ids = np.asarray(context, dtype=int)
    if ids.size and (ids.min() < 0 or ids.max() >= M.shape[1]):
        raise IndexError(f"window id out of range for vocabulary of {M.shape[1]}")
    return M[:, ids].T.reshape(-1)


def forward(params: SSWEParams, s: np.ndarray) -> tuple[float, float]:
    """Compute (context score, essay score) for one window vector.

    Both heads share the hidden activation. The essay-score head is
    returned raw; clamp only reported predictions, never the value used
    for the loss.
    """
    if s.shape != (params.W_hi.shape[1],):
        raise ValueError(f"window vector has shape {s.shape}, "
                         f"expected ({params.W_hi.shape[1]},)")
    hidden = htanh(params.W_hi @ s + params.b_h)
    f_context = float(params.W_oh2 @ hidden + params.b_o2[0])
    f_ss = float(params.W_oh1 @ hidden + params.b_o1[0])
    return f_context, f_ss


def predict_window_score(params: SSWEParams, s: np.ndarray) -> float:
    """Score-head prediction clamped to the trained [0, 1] target range."""
    _, f_ss = forward(params, s)
    return min(max(f_ss, 0.0), 1.0)


def loss_context(f_target: float, f_corrupts) -> float:
    """Mean hinge over corruptions: (1/E) sum_k max(0, 1 - f_t + f_ck)."""
    f_corrupts = np.asarray(f_corrupts, dtype=float)
    if f_corrupts.size == 0:
        raise ConfigError("loss_context needs at least one corruption score")
    return float(np.mean(np.maximum(0.0, 1.0 - f_target + f_corrupts)))


def loss_score(predictions, golds) -> float:
    """Mean squared error between predicted and gold scores."""
    predictions = np.asarray(predictions, dtype=float)
    golds = np.asarray(golds, dtype=float)
    if predictions.shape != golds.shape or predictions.size == 0:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {golds.shape}")
    return float(np.mean((predictions - golds) ** 2))


def loss_overall(alpha: float, context_value: float,
                 score_value: float) -> float:
    """Weighted blend: alpha * context + (1 - alpha) * score."""
    return alpha * context_value + (1.0 - alpha) * score_value


def essay_windows(essays, n):
    """``(window, score)`` pairs, essay after essay and token after token:
    each essay padded with ``n // 2`` boundary ids on either side, and
    one ``n``-tuple of ids centered on each of its tokens."""
    pad = [BOUNDARY_ID] * (n // 2)
    windows = []
    for essay in essays:
        padded = pad + list(essay.tokens) + pad
        windows.extend((tuple(padded[i:i + n]), essay.scaled_score)
                       for i in range(len(essay.tokens)))
    return windows


def sample_loss(params: SSWEParams, context, corrupt_centers,
                gold_score: float, alpha: float):
    """(overall, context, score) losses for one window and its corruptions.

    ``context`` is the window's id tuple, centered at ``len // 2``;
    ``corrupt_centers`` are the center ids of the corrupted windows, as
    drawn by :func:`corrupt_window`.
    """
    s_t = embed_window(context, params.M)
    f_t, f_ss = forward(params, s_t)
    c = len(context) // 2
    prefix, suffix = context[:c], context[c + 1:]
    f_cs = [forward(params, embed_window(prefix + (int(w),) + suffix,
                                         params.M))[0]
            for w in corrupt_centers]
    l_ctx = loss_context(f_t, f_cs)
    l_sc = float(np.square(np.float64(f_ss - gold_score)))
    return loss_overall(alpha, l_ctx, l_sc), l_ctx, l_sc


def dense_gradients(params: SSWEParams, ids,
                    grads) -> dict[str, np.ndarray]:
    """Every gradient of the ``SSWEGradients`` of the window ``ids`` as an
    array shaped like its parameter: ``M`` from the context rows (a
    repeated id adds each of its rows), the shared row times each
    center's weight and the partial rows; ``W_hi`` from its rank-one
    factors plus the center block; ``b_o2``'s, which cancels from every
    margin, as 0."""
    d, c = params.embed_dim, len(ids) // 2
    dense_m = np.zeros_like(params.M)
    rows_of = dense_m.T
    np.add.at(rows_of, np.asarray(ids, dtype=np.intp), grads.ctx_rows)
    rows_of[grads.centers] += np.outer(grads.weights, grads.rows[0])
    rows_of[grads.centers[grads.partial]] += grads.rows[1:]
    w_hi = np.outer(grads.dense["b_h"], grads.s_t)
    w_hi[:, c * d:(c + 1) * d] += grads.dz.T @ grads.inputs
    return {"M": dense_m, "W_hi": w_hi, "b_o2": np.zeros(1), **grads.dense}


def reference_backward(params, context, corruptions, gold_score, alpha):
    """The embedding gradient as a dict of columns, accumulated one
    contribution at a time, and every dense gradient, ``W_hi`` as a full
    matrix; ``context`` and ``corruptions`` are full window tuples."""
    M = params.M
    d = params.embed_dim
    n = len(context)
    c = n // 2
    ids = np.asarray(context, dtype=int)
    corrupt_centers = np.asarray([ctx[c] for ctx in corruptions], dtype=int)
    n_corrupt = len(corrupt_centers)

    s_t = M[:, ids].T.reshape(-1)
    z_t = params.W_hi @ s_t + params.b_h
    i_t = htanh(z_t)
    f_t = float(params.W_oh2 @ i_t + params.b_o2[0])
    f_ss = float(params.W_oh1 @ i_t + params.b_o1[0])
    W_center = params.W_hi[:, c * d:(c + 1) * d]
    delta = M[:, corrupt_centers] - M[:, ids[c]][:, None]
    z_c = z_t[:, None] + W_center @ delta
    i_c = htanh(z_c)
    f_c = params.W_oh2 @ i_c + params.b_o2[0]
    margins = 1.0 - f_t + f_c
    active = margins > 0.0
    l_ctx = float(np.mean(np.maximum(0.0, margins)))
    l_sc = float(np.square(np.float64(f_ss - gold_score)))
    df_t = -alpha * np.count_nonzero(active) / n_corrupt
    df_c = alpha * active.astype(float) / n_corrupt
    df_ss = (1.0 - alpha) * 2.0 * (f_ss - gold_score)
    dz_t = (df_t * params.W_oh2 + df_ss * params.W_oh1) * htanh_slope(z_t)
    dz_c = (params.W_oh2[:, None] * df_c[None, :]) * htanh_slope(z_c)
    dz_c_sum = dz_c.sum(axis=1)
    dense = {
        "W_oh2": df_t * i_t + i_c @ df_c,
        "b_o2": np.array([df_t + df_c.sum()]),
        "W_oh1": df_ss * i_t,
        "b_o1": np.array([df_ss]),
        "b_h": dz_t + dz_c_sum,
    }
    dW_hi = np.outer(dz_t + dz_c_sum, s_t)
    dW_hi[:, c * d:(c + 1) * d] += dz_c @ delta.T
    dense["W_hi"] = dW_hi
    ds_t = params.W_hi.T @ dz_t
    ds_shared = params.W_hi.T @ dz_c_sum
    ds_center_c = W_center.T @ dz_c

    m_cols = {}

    def add_col(col, vec):
        acc = m_cols.get(col)
        if acc is None:
            m_cols[col] = vec.copy()
        else:
            acc += vec

    for p in range(n):
        block = slice(p * d, (p + 1) * d)
        add_col(int(ids[p]), ds_t[block])
        if p != c:
            add_col(int(ids[p]), ds_shared[block])
    for k in range(n_corrupt):
        add_col(int(corrupt_centers[k]), ds_center_c[:, k])
    m_cols = {col: g for col, g in m_cols.items() if np.any(g != 0.0)}
    return m_cols, dense, loss_overall(alpha, l_ctx, l_sc)


def reference_train(essays, vocab, cfg):
    """Per-sample SGD on a C-ordered M with a per-column update loop,
    over the windows of :func:`essay_windows`.

    Returns the parameters and the loss of every visited window.
    """
    windows = essay_windows(essays, cfg.window_size)
    c = cfg.window_size // 2
    rng = np.random.default_rng(cfg.seed)
    params = SSWEParams.init(len(vocab), cfg, rng)
    params.M = np.ascontiguousarray(params.M)
    order = np.arange(len(windows))
    losses = []
    for _ in range(cfg.embed_epochs):
        rng.shuffle(order)
        for idx in order:
            context, score = windows[idx]
            corruptions = [context[:c] + (int(w),) + context[c + 1:]
                           for w in corrupt_window([context[c]],
                                                   cfg.n_corruptions,
                                                   rng, vocab)[0]]
            m_cols, dense, loss = reference_backward(
                params, context, corruptions, score, cfg.alpha)
            losses.append(loss)
            for name in params.dense_names():
                getattr(params, name)[...] -= cfg.learning_rate * dense[name]
            for col, g in m_cols.items():
                params.M[:, col] -= cfg.learning_rate * g
    return params, losses

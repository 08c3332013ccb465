"""Per-essay, per-gate LSTM: the reference the batched scorer is checked against.

This is the scorer's earlier implementation, one essay and one timestep
at a time, with one weight matrix per gate. The package names its
parameters by fused buffer (``W_x``, ``W_h``, ``W_p``, ``b``); here
:func:`gate` gives each gate's block of a buffer under the name of the
gate equations (``W_is`` ... ``b_o``), and :func:`bptt` concatenates the
per-gate gradients back into the buffers' names. The package stacks a
layer's directions in one set of buffers; :func:`direction` gives one
direction's views under the per-direction names. It is kept here,
outside the package, only as an oracle: the batched, fused-gate path in
``essayscore.lstm`` must match it within rounding on outputs, input
gradients and every parameter gradient, and one training epoch must
follow the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import expit

from essayscore.lstm import (ColumnGrad, RMSPropState, SeqModel, _backward,
                             backward_inputs)


# each fused buffer's row blocks, in order, by the gate equations' names
GATE_BLOCKS = {
    "W_x": ("W_is", "W_fs", "W_cs", "W_os"),
    "W_h": ("W_ih", "W_fh", "W_ch", "W_oh"),
    "W_p": ("W_ic", "W_fc", "W_oc"),
    "b": ("b_i", "b_f", "b_c", "b_o"),
}
_BLOCK_OF = {name: (buf, k) for buf, names in GATE_BLOCKS.items()
             for k, name in enumerate(names)}


def direction(model: SeqModel, l: int, k: int) -> SimpleNamespace:
    """Direction k (0 forward, 1 backward) of layer l: views of its buffers.

    Has ``W_x``, ``W_h``, ``W_p`` (None without peepholes), ``b``,
    ``dim``, ``in_dim`` and ``peepholes``; writing through a buffer
    changes the model.
    """
    layer = model.layers[l]
    return SimpleNamespace(
        W_x=layer.W_x[k], W_h=layer.W_h[k], b=layer.b[k],
        W_p=None if layer.W_p is None else layer.W_p[k],
        dim=layer.dim, in_dim=layer.in_dim, peepholes=layer.peepholes)


def gate(layer, name: str):
    """Gate block ``name`` of its fused buffer (a view; None without peepholes)."""
    buf, k = _BLOCK_OF[name]
    w = getattr(layer, buf)
    return None if w is None else w[k * layer.dim:(k + 1) * layer.dim]


def split_gates(grads: dict, dim: int) -> dict:
    """Per-gate views of fused named gradients; other entries pass through."""
    out = {}
    for name, g in grads.items():
        prefix, _, buf = name.rpartition(".")
        if prefix.startswith(("fwd", "bwd")):
            for k, gname in enumerate(GATE_BLOCKS[buf]):
                out[f"{prefix}.{gname}"] = g[k * dim:(k + 1) * dim]
        else:
            out[name] = g
    return out


def _gates(layer) -> dict:
    """Every gate block of a layer, by name."""
    return {name: gate(layer, name) for name in _BLOCK_OF}


def _peep(w, c: np.ndarray):
    if w is None:
        return 0.0
    if w.ndim == 1:
        return w * c
    return w @ c


def _peep_back(w, da: np.ndarray):
    """Transpose-product of a peephole: contribution of da to dc."""
    if w is None:
        return 0.0
    if w.ndim == 1:
        return w * da
    return w.T @ da


def lstm_step(layer, s_t, h_prev, c_prev):
    """One gate update; returns (h_t, c_t)."""
    s_t = np.asarray(s_t, dtype=float)
    h_prev = np.asarray(h_prev, dtype=float)
    c_prev = np.asarray(c_prev, dtype=float)
    if s_t.shape != (layer.in_dim,) or h_prev.shape != (layer.dim,) \
            or c_prev.shape != (layer.dim,):
        raise ValueError(f"state shapes {s_t.shape}/{h_prev.shape}/{c_prev.shape} "
                         f"do not match layer ({layer.in_dim}, {layer.dim})")
    w = _gates(layer)
    i = expit(w["W_is"] @ s_t + w["W_ih"] @ h_prev
              + _peep(w["W_ic"], c_prev) + w["b_i"])
    f = expit(w["W_fs"] @ s_t + w["W_fh"] @ h_prev
              + _peep(w["W_fc"], c_prev) + w["b_f"])
    u = np.tanh(w["W_cs"] @ s_t + w["W_ch"] @ h_prev + w["b_c"])
    c = i * u + f * c_prev
    o = expit(w["W_os"] @ s_t + w["W_oh"] @ h_prev
              + _peep(w["W_oc"], c) + w["b_o"])
    return o * np.tanh(c), c


@dataclass
class DirectionCache:
    """Per-timestep activations of one direction pass, in its own time order."""

    S: np.ndarray   # inputs, (T, in_dim)
    I: np.ndarray   # input gate
    F: np.ndarray   # forget gate
    U: np.ndarray   # candidate tanh
    O: np.ndarray   # output gate
    C: np.ndarray   # cell state
    TC: np.ndarray  # tanh(cell state)
    H: np.ndarray   # hidden state


def run_direction(layer, S: np.ndarray) -> DirectionCache:
    T = S.shape[0]
    dim = layer.dim
    w = _gates(layer)
    P_i = S @ w["W_is"].T + w["b_i"]
    P_f = S @ w["W_fs"].T + w["b_f"]
    P_u = S @ w["W_cs"].T + w["b_c"]
    P_o = S @ w["W_os"].T + w["b_o"]
    I, F, U, O = (np.empty((T, dim)) for _ in range(4))
    C, TC, H = (np.empty((T, dim)) for _ in range(3))
    h = np.zeros(dim)
    c = np.zeros(dim)
    for t in range(T):
        i = expit(P_i[t] + w["W_ih"] @ h + _peep(w["W_ic"], c))
        f = expit(P_f[t] + w["W_fh"] @ h + _peep(w["W_fc"], c))
        u = np.tanh(P_u[t] + w["W_ch"] @ h)
        c = i * u + f * c
        o = expit(P_o[t] + w["W_oh"] @ h + _peep(w["W_oc"], c))
        tc = np.tanh(c)
        h = o * tc
        I[t], F[t], U[t], O[t], C[t], TC[t], H[t] = i, f, u, o, c, tc, h
    return DirectionCache(S=S, I=I, F=F, U=U, O=O, C=C, TC=TC, H=H)


def direction_backward(layer, cache: DirectionCache,
                       dH_out: np.ndarray):
    """Backpropagate through one direction pass.

    ``dH_out`` holds the loss gradient at each timestep's hidden state in
    the cache's time order. Returns (per-gate gradients, gradient with
    respect to the input sequence).
    """
    T, dim = dH_out.shape
    w = _gates(layer)
    dA_i = np.empty((T, dim))
    dA_f = np.empty((T, dim))
    dA_u = np.empty((T, dim))
    dA_o = np.empty((T, dim))
    dh_next = np.zeros(dim)
    dc_next = np.zeros(dim)
    zero = np.zeros(dim)
    for t in range(T - 1, -1, -1):
        c_prev = cache.C[t - 1] if t > 0 else zero
        i, f, u, o = cache.I[t], cache.F[t], cache.U[t], cache.O[t]
        dh = dH_out[t] + dh_next
        da_o = dh * cache.TC[t] * o * (1.0 - o)
        dc = dc_next + dh * o * (1.0 - cache.TC[t] ** 2) \
            + _peep_back(w["W_oc"], da_o)
        da_i = dc * u * i * (1.0 - i)
        da_u = dc * i * (1.0 - u ** 2)
        da_f = dc * c_prev * f * (1.0 - f)
        dA_i[t], dA_f[t], dA_u[t], dA_o[t] = da_i, da_f, da_u, da_o
        dh_next = w["W_ih"].T @ da_i + w["W_fh"].T @ da_f \
            + w["W_ch"].T @ da_u + w["W_oh"].T @ da_o
        dc_next = dc * f + _peep_back(w["W_ic"], da_i) \
            + _peep_back(w["W_fc"], da_f)

    H_prev = np.vstack([zero, cache.H[:-1]])
    C_prev = np.vstack([zero, cache.C[:-1]])
    grads = {
        "W_is": dA_i.T @ cache.S, "W_fs": dA_f.T @ cache.S,
        "W_cs": dA_u.T @ cache.S, "W_os": dA_o.T @ cache.S,
        "W_ih": dA_i.T @ H_prev, "W_fh": dA_f.T @ H_prev,
        "W_ch": dA_u.T @ H_prev, "W_oh": dA_o.T @ H_prev,
        "b_i": dA_i.sum(axis=0), "b_f": dA_f.sum(axis=0),
        "b_c": dA_u.sum(axis=0), "b_o": dA_o.sum(axis=0),
    }
    if layer.peepholes == "full":
        grads["W_ic"] = dA_i.T @ C_prev
        grads["W_fc"] = dA_f.T @ C_prev
        grads["W_oc"] = dA_o.T @ cache.C
    elif layer.peepholes == "diagonal":
        grads["W_ic"] = (dA_i * C_prev).sum(axis=0)
        grads["W_fc"] = (dA_f * C_prev).sum(axis=0)
        grads["W_oc"] = (dA_o * cache.C).sum(axis=0)
    dS = dA_i @ w["W_is"] + dA_f @ w["W_fs"] \
        + dA_u @ w["W_cs"] + dA_o @ w["W_os"]
    return grads, dS


def fuse_gates(grads: dict) -> dict:
    """Per-gate gradients of one direction concatenated into its buffers."""
    return {buf: np.concatenate([grads[name] for name in names])
            for buf, names in GATE_BLOCKS.items() if names[0] in grads}


@dataclass
class EssayCache:
    """Everything the reference backward pass reuses from its forward pass."""

    tokens: list
    fwd: list
    bwd: list
    masks: list
    outputs: list
    embedding: np.ndarray
    y: float


def forward_essay(model: SeqModel, tokens, training: bool = False,
                  rng=None) -> tuple[float, EssayCache]:
    """One essay through the stack; masks drawn per layer as (T, width)."""
    tokens = list(tokens)
    ids = np.asarray(tokens, dtype=int)
    T = len(tokens)
    seq = model.M[:, ids].T
    fwd_caches, bwd_caches, masks, outputs = [], [], [], []
    for l in range(model.n_layers):
        fc = run_direction(direction(model, l, 0), seq)
        if model.bidirectional:
            bc = run_direction(direction(model, l, 1), seq[::-1])
            aligned = np.concatenate([fc.H, bc.H[::-1]], axis=1)
        else:
            bc = None
            aligned = fc.H
        if training and model.dropout > 0.0:
            keep = 1.0 - model.dropout
            mask = (rng.random(aligned.shape) < keep) / keep
            out = aligned * mask
        else:
            mask = None
            out = aligned
        fwd_caches.append(fc)
        bwd_caches.append(bc)
        masks.append(mask)
        outputs.append(out)
        seq = out

    final = outputs[-1]
    if model.bidirectional:
        dim = model.lstm_dim
        embedding = np.concatenate([final[T - 1, :dim], final[0, dim:]])
    else:
        embedding = final[T - 1]
    y = float(model.W_yh @ embedding + model.b_y[0])
    return y, EssayCache(tokens=tokens, fwd=fwd_caches, bwd=bwd_caches,
                         masks=masks, outputs=outputs, embedding=embedding,
                         y=y)


def bptt(model: SeqModel, cache: EssayCache,
         gold: float) -> tuple[dict, np.ndarray]:
    """Gradients of (y - gold)^2: (named grads without M, per-position d_inputs).

    Each direction's per-gate gradients come back concatenated under the
    package's fused buffer names (``fwd0.W_x`` ...).
    """
    T = len(cache.tokens)
    dy = 2.0 * (cache.y - gold)
    grads = {"head.W_yh": dy * cache.embedding, "head.b_y": np.array([dy])}
    d_emb = dy * model.W_yh

    d_out = np.zeros_like(cache.outputs[-1])
    if model.bidirectional:
        dim = model.lstm_dim
        d_out[T - 1, :dim] = d_emb[:dim]
        d_out[0, dim:] += d_emb[dim:]
    else:
        d_out[T - 1] = d_emb

    for l in range(model.n_layers - 1, -1, -1):
        if cache.masks[l] is not None:
            d_out = d_out * cache.masks[l]
        dim = model.lstm_dim
        layer_grads, dS = direction_backward(
            direction(model, l, 0), cache.fwd[l], d_out[:, :dim])
        grads.update((f"fwd{l}.{name}", g)
                     for name, g in fuse_gates(layer_grads).items())
        if model.bidirectional:
            layer_grads, dS_b = direction_backward(
                direction(model, l, 1), cache.bwd[l], d_out[:, dim:][::-1])
            grads.update((f"bwd{l}.{name}", g)
                         for name, g in fuse_gates(layer_grads).items())
            dS = dS + dS_b[::-1]
        d_out = dS
    return grads, d_out


def scatter_embedding_grad(tokens, d_inputs) -> dict[int, np.ndarray]:
    """Sum per-position input gradients into per-column gradients."""
    cols: dict[int, np.ndarray] = {}
    for t, tok in enumerate(tokens):
        acc = cols.get(tok)
        if acc is None:
            cols[tok] = d_inputs[t].copy()
        else:
            acc += d_inputs[t]
    return cols


def dense_embedding_grad(M: np.ndarray, ids, d_inputs) -> np.ndarray:
    """Per-token input gradients added into a dense gradient of ``M``,
    in token order, from 0.0."""
    dense = np.zeros_like(M)
    np.add.at(dense.T, ids, d_inputs)
    return dense


def per_token_columns(model: SeqModel, cache, dy):
    """The batched scorer's earlier route to its embedding-side gradients.

    Returns (cols, rows, layer 0's ``W_x`` gradient with the directions
    stacked, (K * 4H, D)): ``backward_inputs``'s per-token input gradients
    added per column with ``np.add.at``, and layer 0's gate gradients
    times the rows of ``M`` gathered once per token, in the packed row
    order the forward pass runs in (``dA.T @ M.T[ids]``).
    """
    layout = cache.layout
    d_inputs = backward_inputs(model, cache, dy)
    _, dA, _ = _backward(model, cache, dy)
    cols = np.unique(layout.ids)
    rows = dense_embedding_grad(model.M, layout.ids, d_inputs)[:, cols].T
    packed_dA, packed_ids = np.empty_like(dA), np.empty_like(layout.ids)
    packed_dA[layout.row], packed_ids[layout.row] = dA, layout.ids
    return cols, rows, packed_dA.T @ model.M.T[packed_ids]


def column_rows(g: ColumnGrad) -> tuple[np.ndarray, np.ndarray]:
    """(cols, rows) of a column gradient, its blocks' rows held whole."""
    return g.cols, np.concatenate([rows.copy() for _, rows in g.blocks()])


def dense_rmsprop_update(state: RMSPropState, arrays, grads):
    """The element-wise rule over every array, with a dense M gradient."""
    for name, acc in state.acc.items():
        g = grads.get(name)
        acc *= state.rho
        if g is None:
            continue
        acc += (1.0 - state.rho) * g * g
        arrays[name] -= state.eta * g / np.sqrt(acc + state.eps)


def train_epoch(model: SeqModel, train, cfg, rng, state):
    """One epoch of the per-essay training loop.

    Shuffles ``train`` with ``rng``, sums per-essay gradients per
    minibatch, scatters input gradients densely into ``M`` with
    ``np.add.at`` and takes one dense RMSprop step per batch. With
    ``cfg.clip_norm > 0`` the batch gradient is first scaled down to
    that global norm, the norm summed gate block by gate block. Returns
    (squared-error sum, number of clipped steps).
    """
    order = np.arange(len(train))
    rng.shuffle(order)
    sq_sum = 0.0
    clipped = 0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start:start + cfg.batch_size]
        total: dict[str, np.ndarray] = {}
        m_grad = np.zeros_like(model.M)
        for idx in batch:
            essay = train[idx]
            y, cache = forward_essay(model, essay.tokens, training=True,
                                     rng=rng)
            sq_sum += float(np.square(np.float64(y - essay.scaled_score)))
            grads, d_inputs = bptt(model, cache, essay.scaled_score)
            for name, g in grads.items():
                acc = total.get(name)
                if acc is None:
                    total[name] = g
                else:
                    acc += g
            np.add.at(m_grad.T, cache.tokens, d_inputs)
        inv = 1.0 / len(batch)
        for g in total.values():
            g *= inv
        m_grad *= inv
        total["M"] = m_grad
        if cfg.clip_norm > 0.0:
            blocks = split_gates(total, model.lstm_dim).values()
            norm = sum(float((g * g).sum()) for g in blocks) ** 0.5
            if norm > cfg.clip_norm:
                clipped += 1
                for g in total.values():
                    g *= cfg.clip_norm / norm
        dense_rmsprop_update(state, dict(model.named_arrays()), total)
    return sq_sum, clipped

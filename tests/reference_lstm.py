"""Per-essay, per-gate LSTM: the reference the batched scorer is checked against.

This is the scorer's earlier implementation, one essay and one timestep
at a time, reading each gate's weights through the per-gate names
(``W_is`` ... ``b_o``). It is kept here, outside the package, only as an
oracle: the batched, fused-gate path in ``essayscore.lstm`` must match it
within rounding on outputs, input gradients and every parameter
gradient, and one training epoch must follow the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from essayscore.lstm import LSTMLayer, RMSPropState, SeqModel


def _peep(layer: LSTMLayer, name: str, c: np.ndarray):
    w = getattr(layer, name)
    if w is None:
        return 0.0
    if w.ndim == 1:
        return w * c
    return w @ c


def _peep_back(layer: LSTMLayer, name: str, da: np.ndarray):
    """Transpose-product of a peephole: contribution of da to dc."""
    w = getattr(layer, name)
    if w is None:
        return 0.0
    if w.ndim == 1:
        return w * da
    return w.T @ da


def lstm_step(layer: LSTMLayer, s_t, h_prev, c_prev):
    """One gate update; returns (h_t, c_t)."""
    s_t = np.asarray(s_t, dtype=float)
    h_prev = np.asarray(h_prev, dtype=float)
    c_prev = np.asarray(c_prev, dtype=float)
    if s_t.shape != (layer.in_dim,) or h_prev.shape != (layer.dim,) \
            or c_prev.shape != (layer.dim,):
        raise ValueError(f"state shapes {s_t.shape}/{h_prev.shape}/{c_prev.shape} "
                         f"do not match layer ({layer.in_dim}, {layer.dim})")
    i = expit(layer.W_is @ s_t + layer.W_ih @ h_prev
              + _peep(layer, "W_ic", c_prev) + layer.b_i)
    f = expit(layer.W_fs @ s_t + layer.W_fh @ h_prev
              + _peep(layer, "W_fc", c_prev) + layer.b_f)
    u = np.tanh(layer.W_cs @ s_t + layer.W_ch @ h_prev + layer.b_c)
    c = i * u + f * c_prev
    o = expit(layer.W_os @ s_t + layer.W_oh @ h_prev
              + _peep(layer, "W_oc", c) + layer.b_o)
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


def run_direction(layer: LSTMLayer, S: np.ndarray) -> DirectionCache:
    T = S.shape[0]
    dim = layer.dim
    P_i = S @ layer.W_is.T + layer.b_i
    P_f = S @ layer.W_fs.T + layer.b_f
    P_u = S @ layer.W_cs.T + layer.b_c
    P_o = S @ layer.W_os.T + layer.b_o
    I, F, U, O = (np.empty((T, dim)) for _ in range(4))
    C, TC, H = (np.empty((T, dim)) for _ in range(3))
    h = np.zeros(dim)
    c = np.zeros(dim)
    for t in range(T):
        i = expit(P_i[t] + layer.W_ih @ h + _peep(layer, "W_ic", c))
        f = expit(P_f[t] + layer.W_fh @ h + _peep(layer, "W_fc", c))
        u = np.tanh(P_u[t] + layer.W_ch @ h)
        c = i * u + f * c
        o = expit(P_o[t] + layer.W_oh @ h + _peep(layer, "W_oc", c))
        tc = np.tanh(c)
        h = o * tc
        I[t], F[t], U[t], O[t], C[t], TC[t], H[t] = i, f, u, o, c, tc, h
    return DirectionCache(S=S, I=I, F=F, U=U, O=O, C=C, TC=TC, H=H)


def direction_backward(layer: LSTMLayer, cache: DirectionCache,
                       dH_out: np.ndarray):
    """Backpropagate through one direction pass.

    ``dH_out`` holds the loss gradient at each timestep's hidden state in
    the cache's time order. Returns (per-array gradients, gradient with
    respect to the input sequence).
    """
    T, dim = dH_out.shape
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
            + _peep_back(layer, "W_oc", da_o)
        da_i = dc * u * i * (1.0 - i)
        da_u = dc * i * (1.0 - u ** 2)
        da_f = dc * c_prev * f * (1.0 - f)
        dA_i[t], dA_f[t], dA_u[t], dA_o[t] = da_i, da_f, da_u, da_o
        dh_next = layer.W_ih.T @ da_i + layer.W_fh.T @ da_f \
            + layer.W_ch.T @ da_u + layer.W_oh.T @ da_o
        dc_next = dc * f + _peep_back(layer, "W_ic", da_i) \
            + _peep_back(layer, "W_fc", da_f)

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
    dS = dA_i @ layer.W_is + dA_f @ layer.W_fs \
        + dA_u @ layer.W_cs + dA_o @ layer.W_os
    return grads, dS


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
        fc = run_direction(model.fwd_layers[l], seq)
        if model.bidirectional:
            bc = run_direction(model.bwd_layers[l], seq[::-1])
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
        dim = model.fwd_layers[-1].dim
        embedding = np.concatenate([final[T - 1, :dim], final[0, dim:]])
    else:
        embedding = final[T - 1]
    y = float(model.W_yh @ embedding + model.b_y[0])
    return y, EssayCache(tokens=tokens, fwd=fwd_caches, bwd=bwd_caches,
                         masks=masks, outputs=outputs, embedding=embedding,
                         y=y)


def bptt(model: SeqModel, cache: EssayCache,
         gold: float) -> tuple[dict, np.ndarray]:
    """Gradients of (y - gold)^2: (named grads without M, per-position d_inputs)."""
    T = len(cache.tokens)
    dy = 2.0 * (cache.y - gold)
    grads = {"head.W_yh": dy * cache.embedding, "head.b_y": np.array([dy])}
    d_emb = dy * model.W_yh

    d_out = np.zeros_like(cache.outputs[-1])
    if model.bidirectional:
        dim = model.fwd_layers[-1].dim
        d_out[T - 1, :dim] = d_emb[:dim]
        d_out[0, dim:] += d_emb[dim:]
    else:
        d_out[T - 1] = d_emb

    for l in range(model.n_layers - 1, -1, -1):
        if cache.masks[l] is not None:
            d_out = d_out * cache.masks[l]
        if model.bidirectional:
            dim = model.fwd_layers[l].dim
            layer_grads, dS = direction_backward(
                model.fwd_layers[l], cache.fwd[l], d_out[:, :dim])
            for name, g in layer_grads.items():
                grads[f"fwd{l}.{name}"] = g
            layer_grads, dS_b = direction_backward(
                model.bwd_layers[l], cache.bwd[l], d_out[:, dim:][::-1])
            for name, g in layer_grads.items():
                grads[f"bwd{l}.{name}"] = g
            dS = dS + dS_b[::-1]
        else:
            layer_grads, dS = direction_backward(
                model.fwd_layers[l], cache.fwd[l], d_out)
            for name, g in layer_grads.items():
                grads[f"fwd{l}.{name}"] = g
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


def dense_rmsprop_update(state: RMSPropState, arrays, grads):
    """The element-wise rule over every array, with a dense M gradient."""
    for name, acc in state.acc.items():
        g = grads.get(name)
        acc *= state.rho
        if g is None:
            continue
        acc += (1.0 - state.rho) * g * g
        arrays[name] -= state.eta * g / np.sqrt(acc + state.eps)


def train_epoch(model: SeqModel, train, hyper, rng, state) -> float:
    """One epoch of the per-essay training loop; returns the squared-error sum.

    Shuffles ``train`` with ``rng``, sums per-essay gradients per
    minibatch, scatters input gradients densely into ``M`` with
    ``np.add.at`` and takes one dense RMSprop step per batch.
    """
    order = np.arange(len(train))
    rng.shuffle(order)
    sq_sum = 0.0
    for start in range(0, len(order), hyper.batch_size):
        batch = order[start:start + hyper.batch_size]
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
        dense_rmsprop_update(state, dict(model.named_arrays()), total)
    return sq_sum

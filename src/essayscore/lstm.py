"""Essay scoring with stacked peephole LSTMs.

An essay is fed one word vector per timestep; the essay embedding is the
hidden activation at the last timestep (for the backward direction, the
state after consuming the whole reversed sequence), and a linear head
regresses the score from it. Training minimizes squared error on the
scaled score, with gradients flowing through time, through the gates and
peepholes, and into the embedding matrix itself.

Parameters. Each direction of each layer has fused buffers with the
gates stacked in the order i, f, c, o: ``W_x`` (4H, D_in) maps the input,
``W_h`` (4H, H) the previous hidden state and ``b`` (4H,) is the bias;
the peepholes ``W_p`` hold the rows of i, f, o: (3H, H) when full, (3H,)
when diagonal, absent when off. A layer stores its directions' buffers
stacked on a leading axis (:class:`LSTMLayer`), the one form the passes
use; each direction's slices are the parameter names throughout:
``named_arrays``, the gradients, the optimizer state and the tensor
order of the model file. Writing X[g] for gate g's block of rows of
buffer X, the gate equations per timestep are

    i_t = sigma(W_x[i] s_t + W_h[i] h_{t-1} + W_p[i] c_{t-1} + b[i])
    f_t = sigma(W_x[f] s_t + W_h[f] h_{t-1} + W_p[f] c_{t-1} + b[f])
    c_t = i_t * tanh(W_x[c] s_t + W_h[c] h_{t-1} + b[c]) + f_t * c_{t-1}
    o_t = sigma(W_x[o] s_t + W_h[o] h_{t-1} + W_p[o] c_t + b[o])
    h_t = o_t * tanh(c_t)

The output gate peeps at the current cell state, the input and forget
gates at the previous one. Peepholes default to full square matrices,
with ``diagonal`` and ``off`` modes available (a diagonal peephole
multiplies elementwise).

Lockstep batches. B essays run together, each from its own first step;
one step advances every essay still running, and the two directions of
a bidirectional layer advance together on a leading axis; a
one-direction layer has no such axis and runs on 2-D arrays. Per step
there is one ``h @ W_h^T`` and one peephole product (``c_t @ W_p^T``
gives the output gate's term at t and the input and forget gates' terms
at t + 1). A step is a dozen numpy calls on a few rows, so numpy's cost
per call, not the arithmetic, sets its time: the loops write every
product into a buffer allocated once per pass, index no direction axis
when there is one direction, and re-slice the running state only when
an essay ends.
Activations are stored packed, without padding: essays are ranked by
length, longest first, so the essays running at step t are a prefix of
those running at t - 1, and step t occupies the next ``counts[t]`` rows
(see :class:`_Layout`). The backward direction runs over each essay's own
reversed span, laid out the same way; one gather index per batch
(``rev``, the row of the same essay at step L - 1 - t) maps between the
two time orders, both ways. Each essay's final state is read at its own
length, and backpropagation through an essay starts from zero after its
last step. One essay is the batch B = 1 (:func:`forward_essay`,
:func:`bptt`).

The first layer reads only the embedding rows of the batch's tokens
(no padded embedding tensor is built), and its input gradients come back
one row per token, essay after essay. Training sums those into the
columns the batch touched and RMSprop updates ``M`` on those columns
only, decaying the rest of its accumulator: bitwise the dense rule, as
a zero gradient leaves a weight unchanged when ``eps_rms > 0``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import artifact
from .config import PEEPHOLE_MODES, Config
from .corpus import Essay, ScoreRange
from .errors import ConfigError, DataError, NumericalError

MODEL_MAGIC = b"SATS"
MODEL_VERSION = 1

INIT_SCALE = 0.05
FORGET_BIAS = 1.0

# essays per lockstep batch at inference, taken in order of length
PREDICT_CHUNK = 32


class LSTMLayer:
    """One stacked layer: the parameters of its K directions, stacked.

    Direction k (0 forward, 1 backward) keeps the fused buffers of the
    module docstring at index k of the layer's own: ``W_x`` (K, 4H, D_in),
    ``W_h`` (K, 4H, H), ``b`` (K, 4H) and ``W_p`` (K, 3H, H) when full,
    (K, 3H) when diagonal, None when off. The lockstep passes read them
    as they are, all K directions at once; :meth:`SeqModel.named_arrays`
    names each direction's views.
    """

    def __init__(self, directions: int, in_dim: int, dim: int,
                 peepholes: str, rng=None):
        if peepholes not in PEEPHOLE_MODES:
            raise ConfigError(f"unknown peephole mode {peepholes!r}")
        K = directions
        self.W_x = np.zeros((K, 4 * dim, in_dim))
        self.W_h = np.zeros((K, 4 * dim, dim))
        peep_shape = {"full": (K, 3 * dim, dim), "diagonal": (K, 3 * dim)}
        self.W_p = np.zeros(peep_shape[peepholes]) \
            if peepholes in peep_shape else None
        self.b = np.zeros((K, 4 * dim))
        self.b[:, dim:2 * dim] = FORGET_BIAS
        if rng is not None:
            # direction by direction, as if each had its own buffers
            for k in range(K):
                for w in (self.W_x, self.W_h, self.W_p):
                    if w is not None:
                        w[k] = rng.uniform(-INIT_SCALE, INIT_SCALE,
                                           size=w.shape[1:])

    @property
    def in_dim(self) -> int:
        return self.W_x.shape[2]

    @property
    def dim(self) -> int:
        return self.W_h.shape[2]

    @property
    def peepholes(self) -> str:
        if self.W_p is None:
            return "off"
        return "full" if self.W_p.ndim == 3 else "diagonal"


class SeqModel:
    """Embedding matrix, one or two (bi)directional LSTM layers, linear head."""

    def __init__(self, M: np.ndarray, layers, W_yh, b_y, dropout: float):
        self.M = M
        self.layers = list(layers)
        self.W_yh = W_yh
        self.b_y = b_y
        self.dropout = dropout
        width = self.lstm_dim * (2 if self.bidirectional else 1)
        if W_yh.shape != (width,):
            raise ConfigError(f"head width {W_yh.shape} does not match "
                              f"layer output width {width}")

    @classmethod
    def init(cls, M: np.ndarray, cfg: Config, rng) -> "SeqModel":
        """Fresh model around an embedding matrix (owned, not copied).

        With ``rng=None`` every layer and head array is left zero-filled
        (the forget bias at its constant) for a loader to fill in.
        """
        cfg.validate()
        K = 2 if cfg.bidirectional else 1
        width_out = cfg.lstm_dim * K
        layers = [LSTMLayer(K, M.shape[0] if l == 0 else width_out,
                            cfg.lstm_dim, cfg.peepholes, rng)
                  for l in range(cfg.layers)]
        W_yh = np.zeros(width_out) if rng is None else \
            rng.uniform(-INIT_SCALE, INIT_SCALE, size=width_out)
        return cls(M, layers, W_yh, np.zeros(1), cfg.dropout)

    @property
    def bidirectional(self) -> bool:
        return self.layers[0].W_x.shape[0] == 2

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def lstm_dim(self) -> int:
        return self.layers[0].dim

    @property
    def peepholes(self) -> str:
        return self.layers[0].peepholes

    @property
    def embed_dim(self) -> int:
        return self.M.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.M.shape[1]

    def named_arrays(self):
        """(name, array) pairs in a fixed order covering every parameter.

        Direction k of layer l is named ``fwd{l}`` (k = 0) or ``bwd{l}``
        (k = 1); its arrays are views of the layer's stacked buffers, so
        writing through them changes the model. Every forward direction
        comes before every backward one: the tensor order of the file.
        """
        yield "M", self.M
        prefixes = ("fwd", "bwd") if self.bidirectional else ("fwd",)
        for k, prefix in enumerate(prefixes):
            for l, layer in enumerate(self.layers):
                for name in ("W_x", "W_h", "W_p", "b"):
                    w = getattr(layer, name)
                    if w is not None:
                        yield f"{prefix}{l}.{name}", w[k]
        yield "head.W_yh", self.W_yh
        yield "head.b_y", self.b_y

    def get_array(self, name: str) -> np.ndarray:
        return dict(self.named_arrays())[name]

    def copy(self) -> "SeqModel":
        return copy.deepcopy(self)


# --- lockstep batches ---------------------------------------------------

@dataclass
class _Layout:
    """Where each token of a batch lives in the packed step-major layout.

    Essays are ranked by length, longest first; step t holds the
    ``counts[t]`` essays still running, in rank order, at packed rows
    ``offsets[t]:offsets[t + 1]``. Every array below indexes those rows.
    """

    ids: np.ndarray      # (N,) token ids, essay after essay
    lengths: np.ndarray  # (B,)
    offsets: np.ndarray  # (T + 1,)
    row: np.ndarray      # (N,) packed row of each token, in ``ids`` order
    rev: np.ndarray      # (N,) row of the same essay at the mirrored step
    prev: np.ndarray     # (N - B,) row one step back, for steps >= 1
    first: np.ndarray    # (B,) row of each essay's first step
    last: np.ndarray     # (B,) row of each essay's last step

    @classmethod
    def of(cls, model: SeqModel, token_lists) -> "_Layout":
        """Validate a batch of essays and lay it out."""
        if not token_lists:
            raise DataError("cannot score an empty batch")
        seqs = [np.asarray(list(tokens), dtype=int) for tokens in token_lists]
        for ids in seqs:
            if ids.size == 0:
                raise DataError("cannot score an empty essay")
            if ids.min() < 0 or ids.max() >= model.vocab_size:
                raise DataError(f"token id out of range for vocabulary of "
                                f"{model.vocab_size}")
        lengths = np.array([ids.size for ids in seqs])
        B = lengths.size
        rank = np.empty(B, dtype=int)
        rank[np.argsort(-lengths, kind="stable")] = np.arange(B)
        counts = B - np.cumsum(np.bincount(lengths))[:-1]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        col = np.repeat(np.arange(B), lengths)
        pos = np.arange(col.size) - np.repeat(np.cumsum(lengths) - lengths,
                                              lengths)
        row = offsets[pos] + rank[col]
        rev = np.empty_like(row)
        rev[row] = offsets[lengths[col] - 1 - pos] + rank[col]
        later = pos > 0
        prev = np.empty(col.size - B, dtype=int)
        prev[row[later] - B] = offsets[pos[later] - 1] + rank[col[later]]
        return cls(ids=np.concatenate(seqs), lengths=lengths, offsets=offsets,
                   row=row, rev=rev, prev=prev, first=rank,
                   last=offsets[lengths - 1] + rank)


@dataclass
class _LayerCache:
    """Activations of one layer's K directions, each in its own time order.

    Arrays are (K, N, .) over packed rows, for K = 1 a view of the step
    loops' (N, .) arrays: ``G`` holds the gates i, f,
    c (candidate), o after their nonlinearities, ``C`` the cell state,
    ``TC`` its tanh and ``H`` the hidden state.
    """

    G: np.ndarray
    C: np.ndarray
    TC: np.ndarray
    H: np.ndarray


@dataclass
class BatchCache:
    """Everything the backward pass reuses from one lockstep forward pass.

    ``inputs[l]`` is layer l's input over packed rows in essay time: the
    embedding rows of the tokens for l = 0, the previous layer's output
    after dropout (backward direction realigned) above it. ``masks[l]``
    is layer l's dropout mask over packed rows, or None.
    """

    layout: _Layout
    inputs: list
    layers: list
    masks: list | None
    final: np.ndarray        # (B, width) the states the head reads
    y: np.ndarray            # (B,)


def _draw_masks(model: SeqModel, layout: _Layout, rng) -> list:
    """Inverted-dropout masks over packed rows, one per layer.

    Drawn essay by essay and layer by layer with shape (L, width), so the
    generator's stream does not depend on how essays are batched.
    """
    keep = 1.0 - model.dropout
    width = model.lstm_dim * (2 if model.bidirectional else 1)
    N = layout.ids.size
    masks = [np.empty((N, width)) for _ in range(model.n_layers)]
    for b, L in enumerate(layout.lengths):
        rows = layout.offsets[:L] + layout.first[b]
        for mask in masks:
            mask[rows] = (rng.random((L, width)) < keep) / keep
    return masks


def _steps_form(bi: bool, *arrays):
    """The arrays as the step loops take them: a layer's stacked buffers or
    activations as they are when it is bidirectional, one direction's 2-D
    views (no copy) when it is not. None stays None."""
    return arrays if bi else tuple(None if a is None else a[0] for a in arrays)


def _recur(W_h: np.ndarray, W_p, G: np.ndarray, offsets: np.ndarray,
           keep: bool):
    """Run a layer over the lockstep steps of a packed batch.

    ``G`` holds the input projections plus biases, (N, 4H) for one
    direction or (2, N, 4H) for two, and is overwritten with the gate
    activations; ``W_h`` and ``W_p`` carry the same leading axis, or
    none (:func:`_steps_form`). A step is a dozen numpy calls on a few
    rows, and their per-call overhead is its cost, so the loop makes
    each call count: one direction runs on 2-D arrays with no direction
    axis to index, the running prefixes of the state are re-sliced only
    when an essay ends, and every product is written into a buffer
    allocated once per pass. Returns (C, TC, H) in the layout of ``G``;
    with ``keep`` unset only H is kept for every step (C and TC are
    None) and two cell buffers take turns.
    """
    # imported here, once per pass: scipy.special costs start-up time and
    # memory that the commands which never run an LSTM would pay
    from scipy.special import expit

    lead, (N, n) = G.shape[:-2], (G.shape[-2], W_h.shape[-1])
    H = np.empty(lead + (N, n))
    C = np.empty(lead + (N, n)) if keep else None
    TC = np.empty(lead + (N, n)) if keep else None
    W_hT = W_h.swapaxes(-1, -2)
    full = W_p is not None and W_p.ndim == W_h.ndim
    if full:
        W_pT = W_p.swapaxes(-1, -2)
    elif W_p is not None:
        # (..., 1, 3, H): one row per gate, broadcast over the essays
        W_p3 = W_p.reshape(W_p.shape[:-1] + (1, 3, n))
    offsets = offsets.tolist()
    B = offsets[1]

    def buffer(width):
        return np.empty(lead + (B, width))

    h, c = np.zeros(lead + (B, n)), np.zeros(lead + (B, n))
    hw, fc = buffer(4 * n), buffer(n)
    q = buffer(3 * n) if W_p is not None else None
    cells = None if keep else (buffer(n), buffer(n))
    tc = None if keep else buffer(n)
    m = 0
    for t, (s, e) in enumerate(zip(offsets[:-1], offsets[1:])):
        if e - s != m:
            # the essays still running are a prefix of the last step's
            m = e - s
            h, c, hw, fc = (x[..., :m, :] for x in (h, c, hw, fc))
            if q is not None:
                q = q[..., :m, :]
                q_if, q_o = q[..., :2 * n], q[..., 2 * n:]
                q3 = q.reshape(q.shape[:-1] + (3, n))
            if not keep:
                cells = tuple(x[..., :m, :] for x in cells)
                tc = tc[..., :m, :]
        a = G[..., s:e, :]
        a_if, a_u, a_o = a[..., :2 * n], a[..., 2 * n:3 * n], a[..., 3 * n:]
        a += np.matmul(h, W_hT, out=hw)
        if t and q is not None:
            # the input and forget gates peep at the last step's cell
            a_if += q_if
        expit(a_if, out=a_if)
        np.tanh(a_u, out=a_u)
        c_new = np.multiply(a[..., :n], a_u,
                            out=C[..., s:e, :] if keep else cells[t & 1])
        c_new += np.multiply(a[..., n:2 * n], c, out=fc)
        c = c_new
        if full:
            np.matmul(c, W_pT, out=q)
        elif q is not None:
            np.multiply(c[..., None, :], W_p3, out=q3)
        if q is not None:
            a_o += q_o
        expit(a_o, out=a_o)
        tc_new = np.tanh(c, out=TC[..., s:e, :] if keep else tc)
        h = np.multiply(a_o, tc_new, out=H[..., s:e, :])
    return C, TC, H


def _recur_backward(W_h: np.ndarray, W_p, G: np.ndarray, C: np.ndarray,
                    TC: np.ndarray, dH: np.ndarray, layout: _Layout):
    """Gradient at the gate pre-activations from dL/dH.

    Every array is in the form :func:`_recur` takes and returns, with or
    without the leading direction axis; the result is (..., N, 4H). As
    in the forward loop, the running gradients are re-sliced only when
    an essay starts (going back in time) and each product is written
    into a buffer allocated once per pass.
    """
    lead, (N, n) = dH.shape[:-2], dH.shape[-2:]
    offsets = layout.offsets.tolist()
    B = offsets[1]
    I, F, U, O = (G[..., k * n:(k + 1) * n] for k in range(4))
    C_prev = np.zeros(lead + (N, n))
    C_prev[..., B:, :] = C[..., layout.prev, :]
    # per-row factors, vectorised over all steps: dA = factor * (dh or dc)
    k_o = TC * O * (1.0 - O)
    k_c = O * (1.0 - TC * TC)
    k_ifu = np.stack((U * I * (1.0 - I), C_prev * F * (1.0 - F),
                      I * (1.0 - U * U)), axis=-2)
    del C_prev
    dA = np.empty(lead + (N, 4 * n))
    dA_ifu = dA.reshape(lead + (N, 4, n))[..., :3, :]
    full = W_p is not None and W_p.ndim == W_h.ndim
    if full:
        W_p_if, W_p_o = W_p[..., :2 * n, :], W_p[..., 2 * n:, :]
    elif W_p is not None:
        w_i, w_f, w_o = (W_p[..., None, k * n:(k + 1) * n] for k in range(3))
    # the gradients flowing into step t from step t + 1, accumulated in
    # place; an essay's rows stay zero until its last step is reached
    dh_next, dc_next, prods = (np.zeros(lead + (B, n)) for _ in range(3))
    m = 0
    for s, e in zip(offsets[-2::-1], offsets[:0:-1]):
        if e - s != m:
            m = e - s
            dh, dc, prod = (x[..., :m, :] for x in (dh_next, dc_next, prods))
            dc3 = dc[..., None, :]
        dh += dH[..., s:e, :]
        da_o = np.multiply(dh, k_o[..., s:e, :], out=dA[..., s:e, 3 * n:])
        dc += np.multiply(dh, k_c[..., s:e, :], out=prod)
        if full:
            dc += np.matmul(da_o, W_p_o, out=prod)
        elif W_p is not None:
            dc += np.multiply(da_o, w_o, out=prod)
        np.multiply(dc3, k_ifu[..., s:e, :, :],
                    out=dA_ifu[..., s:e, :, :])
        a = dA[..., s:e, :]
        np.matmul(a, W_h, out=dh)
        dc *= F[..., s:e, :]
        if full:
            dc += np.matmul(a[..., :2 * n], W_p_if, out=prod)
        elif W_p is not None:
            dc += np.multiply(a[..., :n], w_i, out=prod)
            dc += np.multiply(a[..., n:2 * n], w_f, out=prod)
    return dA


def _layer_grads(layer: LSTMLayer, cache: _LayerCache, dA: np.ndarray,
                 layout: _Layout):
    """Recurrent, peephole and bias gradients per direction, fused."""
    n = layer.dim
    B = layout.offsets[1]
    out = []
    for k in range(dA.shape[0]):
        a, C = dA[k], cache.C[k]
        a_later = a[B:]  # rows of steps >= 1, whose previous step is ``prev``
        g = {"W_h": a_later.T @ cache.H[k, layout.prev], "b": a.sum(axis=0)}
        C_prev = C[layout.prev]
        if layer.peepholes == "full":
            g["W_p"] = np.concatenate((a_later[:, :2 * n].T @ C_prev,
                                       a[:, 3 * n:].T @ C))
        elif layer.peepholes == "diagonal":
            g["W_p"] = np.concatenate((
                (a_later[:, :n] * C_prev).sum(axis=0),
                (a_later[:, n:2 * n] * C_prev).sum(axis=0),
                (a[:, 3 * n:] * C).sum(axis=0)))
        out.append(g)
    return out


def _run(model: SeqModel, layout: _Layout, masks=None, keep: bool = True):
    """Forward pass of a lockstep batch; returns (y, BatchCache or None)."""
    bi = model.bidirectional
    n = model.lstm_dim
    packed_ids = np.empty_like(layout.ids)
    packed_ids[layout.row] = layout.ids
    seq = model.M.T[packed_ids]
    inputs, layers = [], []
    for l, layer in enumerate(model.layers):
        proj = seq @ layer.W_x.reshape(-1, layer.in_dim).T
        proj += layer.b.reshape(-1)
        if bi:
            G = np.empty((2, seq.shape[0], 4 * n))
            G[0] = proj[:, :4 * n]
            G[1] = proj[layout.rev, 4 * n:]
        else:
            G = proj  # one direction's projection is its G, no copy
        del proj
        C, TC, H = _recur(*_steps_form(bi, layer.W_h, layer.W_p), G,
                          layout.offsets, keep)
        if keep:
            inputs.append(seq)
            # the cache keeps the direction axis: (K, N, .) views
            layers.append(_LayerCache(*(x if bi else x[None]
                                        for x in (G, C, TC, H))))
        del G, C, TC
        seq = np.concatenate((H[0], H[1, layout.rev]), axis=1) if bi else H
        if masks is not None:
            seq = seq * masks[l]
    final = np.concatenate((seq[layout.last, :n], seq[layout.first, n:]),
                           axis=1) if bi else seq[layout.last]
    y = final @ model.W_yh + model.b_y[0]
    if not keep:
        return y, None
    return y, BatchCache(layout=layout, inputs=inputs, layers=layers,
                         masks=masks, final=final, y=y)


def forward_batch(model: SeqModel, token_lists, training: bool = False,
                  rng=None) -> tuple[np.ndarray, BatchCache]:
    """Run B essays through the stack in lockstep.

    Returns the unclamped scaled scores (B,) read off each essay's final
    states, plus the activation cache for :func:`backward_batch`. With
    ``training`` set, inverted-dropout masks are drawn from ``rng``
    essay by essay and applied to each layer's output sequence.
    """
    dropout = training and model.dropout > 0.0
    if dropout and rng is None:
        raise ConfigError("training-mode forward pass needs a random generator")
    layout = _Layout.of(model, token_lists)
    masks = _draw_masks(model, layout, rng) if dropout else None
    return _run(model, layout, masks)


def backward_batch(model: SeqModel, cache: BatchCache,
                   dy) -> tuple[dict, np.ndarray]:
    """Backpropagate per-essay output gradients ``dy`` (B,) through the stack.

    Returns (parameter gradients under their ``named_arrays`` names,
    without the embedding matrix, summed over the batch; gradient with
    respect to each token's word vector, (N, D) essay after essay, in
    ``cache.layout.ids`` order).
    """
    layout = cache.layout
    dy = np.asarray(dy, dtype=float).reshape(-1)
    bi = model.bidirectional
    n = model.lstm_dim
    grads = {"head.W_yh": dy @ cache.final, "head.b_y": np.array([dy.sum()])}
    d_final = dy[:, None] * model.W_yh
    d_out = np.zeros((layout.ids.size, d_final.shape[1]))
    d_out[layout.last, :n] = d_final[:, :n]
    if bi:
        d_out[layout.first, n:] = d_final[:, n:]
    for l in range(model.n_layers - 1, -1, -1):
        if cache.masks is not None:
            d_out *= cache.masks[l]
        layer, lc = model.layers[l], cache.layers[l]
        dH = np.stack((d_out[:, :n], d_out[layout.rev, n:])) if bi else d_out
        dA = _recur_backward(*_steps_form(bi, layer.W_h, layer.W_p, lc.G,
                                          lc.C, lc.TC), dH, layout)
        dir_grads = _layer_grads(layer, lc, dA if bi else dA[None], layout)
        if bi:
            # both directions' gate gradients in essay time, side by side
            dA = np.concatenate((dA[0], dA[1, layout.rev]), axis=1)
        d_W_x = dA.T @ cache.inputs[l]
        d_out = dA @ layer.W_x.reshape(-1, layer.in_dim)
        for k, (prefix, g) in enumerate(zip(("fwd", "bwd"), dir_grads)):
            g["W_x"] = d_W_x[4 * n * k:4 * n * (k + 1)]
            grads.update((f"{prefix}{l}.{name}", a) for name, a in g.items())
    return grads, d_out[layout.row]


def forward_essay(model: SeqModel, tokens, training: bool = False,
                  rng=None) -> tuple[float, BatchCache]:
    """Run one essay through the stack: :func:`forward_batch` with B = 1.

    Returns the unclamped scaled score read off the final-timestep
    embedding, plus the activation cache for :func:`bptt`.
    """
    y, cache = forward_batch(model, [tokens], training, rng)
    return float(y[0]), cache


def bptt(model: SeqModel, cache: BatchCache,
         gold: float) -> tuple[dict, np.ndarray]:
    """Exact gradients of (y - gold)^2 through the whole stack.

    Returns (named parameter gradients without the embedding matrix,
    gradient with respect to each timestep's input word vector). The
    caller scatters the latter into embedding columns; saliency reads it
    per position.
    """
    return backward_batch(model, cache, 2.0 * (cache.y - gold))


def predict_batch(model: SeqModel, token_lists) -> np.ndarray:
    """Unclamped scaled scores of many essays, in input order.

    Essays run in lockstep chunks of ``PREDICT_CHUNK`` taken in order of
    length, so that little of a chunk is padding; no gate activations
    are kept.
    """
    token_lists = list(token_lists)
    order = np.argsort([len(t) for t in token_lists], kind="stable")
    out = np.empty(len(token_lists))
    for start in range(0, len(order), PREDICT_CHUNK):
        chunk = order[start:start + PREDICT_CHUNK]
        layout = _Layout.of(model, [token_lists[k] for k in chunk])
        out[chunk], _ = _run(model, layout, keep=False)
    return out


def predict(model: SeqModel, essays: list[Essay],
            ranges: dict[int, ScoreRange],
            normalized: bool = True) -> np.ndarray:
    """Raw-scale predictions, clamped into each essay set's range.

    With ``normalized`` (the default) the model's output lives in [0, 1]
    and is unscaled through the set range; a model trained directly on
    raw scores skips the unscaling.
    """
    for essay in essays:
        if essay.set_id not in ranges:
            raise DataError(f"no score range for essay set {essay.set_id}")
    y = predict_batch(model, [essay.tokens for essay in essays])
    out = np.empty(len(essays))
    for k, essay in enumerate(essays):
        r = ranges[essay.set_id]
        if normalized:
            out[k] = r.clamp(r.unscale(min(max(float(y[k]), 0.0), 1.0)))
        else:
            out[k] = r.clamp(float(y[k]))
    return out


# --- optimization -------------------------------------------------------

@dataclass
class RMSPropState:
    """Running mean-square accumulators, one per named parameter array."""

    acc: dict[str, np.ndarray]
    rho: float = 0.9
    eps: float = 1e-8
    eta: float = 1e-7

    @classmethod
    def for_model(cls, model: SeqModel, cfg: Config) -> "RMSPropState":
        return cls(acc={n: np.zeros_like(a) for n, a in model.named_arrays()},
                   rho=cfg.rho_rms, eps=cfg.eps_rms, eta=cfg.learning_rate)


def rmsprop_update(state: RMSPropState, arrays: dict[str, np.ndarray],
                   grads: dict):
    """In-place step: acc <- rho*acc + (1-rho)*g^2; p <- p - eta*g/sqrt(acc+eps).

    Arrays without a gradient entry still have their accumulator decayed
    (zero gradient), matching the element-wise rule. A gradient given as
    ``(cols, rows)`` covers only those columns of a 2-D array, ``rows``
    holding one row per column; every other column has a zero gradient,
    which leaves its weights unchanged (``eps > 0``), so only the listed
    columns are stepped. The result is bitwise the dense rule's.
    """
    for name, acc in state.acc.items():
        g = grads.get(name)
        acc *= state.rho
        if g is None:
            continue
        if isinstance(g, tuple):
            cols, rows = g
            g = rows.T
            sub = acc[:, cols]
            sub += (1.0 - state.rho) * g * g
            acc[:, cols] = sub
            arrays[name][:, cols] -= state.eta * g / np.sqrt(sub + state.eps)
        else:
            acc += (1.0 - state.rho) * g * g
            arrays[name] -= state.eta * g / np.sqrt(acc + state.eps)


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm; returns the norm found.

    A ``(cols, rows)`` entry counts through its rows.
    """
    dense = [g[1] if isinstance(g, tuple) else g for g in grads.values()]
    total = 0.0
    for g in dense:
        total += float((g * g).sum())
    norm = total ** 0.5
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        for g in dense:
            g *= scale
    return norm


def column_gradient(ids: np.ndarray, d_inputs: np.ndarray):
    """Sum per-token input gradients into embedding columns.

    Returns ``(cols, rows)``: the distinct ids in ascending order and one
    summed row per id. Repeats are added in token order starting from
    0.0, as a dense ``np.add.at`` into the matrix's columns would add
    them: ``np.bincount`` over the flat (column, feature) index does
    exactly that.
    """
    cols, inverse = np.unique(ids, return_inverse=True)
    D = d_inputs.shape[1]
    flat = (inverse.reshape(-1, 1) * D + np.arange(D)).reshape(-1)
    rows = np.bincount(flat, weights=d_inputs.reshape(-1),
                       minlength=cols.size * D)
    return cols, rows.reshape(cols.size, D)


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    val_rmse: float


def train_scorer(model: SeqModel, train: list[Essay], val: list[Essay],
                 ranges: dict[int, ScoreRange],
                 cfg: Config) -> tuple[SeqModel, list[EpochRecord]]:
    """Mini-batch RMSprop training with best-validation selection.

    Shuffling, dropout masks and therefore the whole parameter trajectory
    are driven by one generator seeded from ``cfg.seed``. Targets are
    each essay's ``scaled_score`` (which a raw-score pipeline, with
    ``cfg.normalize_scores`` off, fills with the raw value). After each
    epoch the validation RMSE (raw scale) is computed; the best snapshot
    is kept and training stops early after ``patience`` epochs without
    improvement.
    """
    cfg.validate()
    if not train:
        raise ConfigError("cannot train on an empty training set")
    if not val:
        raise ConfigError("validation set must not be empty")
    for e in train + val:
        if e.set_id not in ranges:
            raise DataError(f"no score range for essay set {e.set_id}")

    rng = np.random.default_rng(cfg.seed)
    state = RMSPropState.for_model(model, cfg)
    val_gold = np.array([e.raw_score for e in val])
    # every epoch that runs either improves on inf or raises, so a snapshot
    # is only needed here when none runs
    best = None
    best_rmse = np.inf
    history: list[EpochRecord] = []
    order = np.arange(len(train))
    stall = 0

    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        sq_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train[k] for k in order[start:start + cfg.batch_size]]
            y, cache = forward_batch(model, [e.tokens for e in batch],
                                     training=True, rng=rng)
            err = y - np.array([e.scaled_score for e in batch])
            for e in err:
                # square via numpy so a diverged run overflows to inf
                sq_sum += float(np.square(e))
            grads, d_inputs = backward_batch(model, cache, 2.0 * err)
            ids = cache.layout.ids
            del cache
            inv = 1.0 / len(batch)
            for g in grads.values():
                g *= inv
            cols, rows = column_gradient(ids, d_inputs)
            del d_inputs
            rows *= inv
            grads["M"] = (cols, rows)
            if cfg.clip_norm > 0.0:
                clip_gradients(grads, cfg.clip_norm)
            rmsprop_update(state, dict(model.named_arrays()), grads)

        train_mse = sq_sum / len(train)
        val_rmse = float(np.sqrt(np.mean(
            (predict(model, val, ranges, cfg.normalize_scores) - val_gold) ** 2)))
        history.append(EpochRecord(epoch, train_mse, val_rmse))
        if not (np.isfinite(train_mse) and np.isfinite(val_rmse)):
            raise NumericalError(f"non-finite loss at epoch {epoch}")
        if val_rmse < best_rmse:
            best_rmse = val_rmse
            best = model.copy()
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    return (model.copy() if best is None else best), history


# --- persistence --------------------------------------------------------

_PEEP_CODES = ("off", "diagonal", "full")  # on disk: the index


def save_model(path, model: SeqModel, config_hash: str = ""):
    """Versioned dump in the :mod:`essayscore.artifact` container.

    Header: the architecture and the dropout. Then the tensors in
    ``named_arrays`` order, ``M`` column-major, and the config hash.
    """
    with artifact.writing(path, MODEL_MAGIC, MODEL_VERSION) as out:
        out.header("6I d", model.vocab_size, model.embed_dim, model.lstm_dim,
                   model.n_layers, int(model.bidirectional),
                   _PEEP_CODES.index(model.peepholes), model.dropout)
        for name, arr in model.named_arrays():
            out.tensor(arr, "F" if name == "M" else "C")
        out.text(config_hash)


def _n_params(v, d, dim, layers, bidirectional, peepholes) -> int:
    """Parameter count of a model, worked out without allocating it."""
    peep = {"full": 3 * dim * dim, "diagonal": 3 * dim, "off": 0}[peepholes]
    width = dim * (2 if bidirectional else 1)
    total = d * v + width + 1
    for l in range(layers):
        in_dim = d if l == 0 else width
        per_dir = 4 * dim * in_dim + 4 * dim * dim + peep + 4 * dim
        total += per_dir * (2 if bidirectional else 1)
    return total


def load_model(path) -> tuple[SeqModel, str]:
    """Read a :func:`save_model` file.

    An invalid architecture, a zero embed dim and trailing bytes are
    :class:`ModelFormatError` (exit 2).
    """
    with artifact.reading(path, MODEL_MAGIC, MODEL_VERSION,
                          "model file") as inp:
        v, d, dim, layers, bi, peep_code, dropout = inp.header("6I d")
        if peep_code >= len(_PEEP_CODES) or bi > 1 or d < 1:
            raise inp.error("corrupt architecture descriptor")
        peepholes = _PEEP_CODES[peep_code]
        cfg = Config(lstm_dim=dim, layers=layers, bidirectional=bool(bi),
                     dropout=dropout, peepholes=peepholes)
        inp.validate(cfg)
        # tensors plus the hash length, checked before the model is built
        inp.require(8 * _n_params(v, d, dim, layers, bool(bi), peepholes) + 4)
        model = SeqModel.init(inp.tensor((d, v), "F"), cfg, rng=None)
        for name, arr in model.named_arrays():
            if name != "M":
                arr[...] = inp.tensor(arr.shape)
        config_hash = inp.text()
    return model, config_hash

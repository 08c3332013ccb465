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
one step advances every essay still running, and the K directions of a
layer (two when bidirectional) advance together. Per step there is one
``h @ W_h^T`` and one peephole product (``c_t @ W_p^T`` gives the output
gate's term at t and the input and forget gates' terms at t + 1). A step
is a dozen numpy calls on a few rows, so numpy's cost per call, not the
arithmetic, sets its time, and a call on a strided view costs about
twice one on a contiguous array. So the nonlinearities and cell products
of a step each run on one contiguous block: activations are (N, K, .)
arrays, a row per token with the directions side by side, and step t is
rows ``s:e`` of them; the gates of a step are a (4, m, K, H) block
(gate, essay, direction, unit), which the step's first add writes. The
loops write every product into a buffer allocated once per pass. They
walk the steps a segment at a time, a run of steps with the same number
m of running essays: a segment's rows of each packed array are one
(T, m, K, .) block, and its steps zip the per-step views of those
blocks, so a step slices nothing and makes its numpy calls and little
else. The running state is re-sliced once per segment, when an essay
ends or, going back, starts. The loops bind their ufuncs to locals once
per pass, pass ``out`` positionally and write each in-place add or
multiply as that ufunc with ``out`` set, because at these sizes parsing
the ``out=`` keyword and looking up ``np.<ufunc>`` are a visible share
of a call.
Activations are stored packed, without padding: essays are ranked by
length, longest first, so the essays running at step t are a prefix of
those running at t - 1, and step t occupies the next ``counts[t]`` rows
(see :class:`_Layout`). The backward direction runs over each essay's own
reversed span, laid out the same way; one gather index per batch
(``rev``, the row of the same essay at step L - 1 - t) maps between the
two time orders, both ways. Each essay's final state is read at its own
length, and backpropagation through an essay starts from zero after its
last step. One essay is the batch B = 1 (:func:`forward_essay`).

The embedding side works per distinct word: a batch's U distinct ids
(``_Layout.cols``) are projected by the first layer's ``W_x`` once, and
the (U, 4KH) result is gathered into the token rows. Going back, that
layer's gate gradients are summed per distinct word in token order; the
sums times the rows of ``M`` give its ``W_x`` gradient, and ``M``'s own
gradient reaches the optimizer as those (U, 4KH) sums
(:class:`ColumnGrad`, from :func:`backward_columns`). The column step
forms the rows, the sums times ``W_x``, a block of columns at a time. So
a training step builds no (N, D) array, and the gradient of ``M`` no
(U, D) one: the one (U, D) array left is the rows of ``M`` that the
``W_x`` gradient reads, gathered and freed within the backward pass. Only
per-token input gradients (:func:`bptt`, and :func:`backward_inputs`
for saliency) project each token's gate gradients. RMSprop steps ``M``
on the touched columns only and decays the rest of its accumulator:
bitwise the dense rule, as a zero gradient leaves a weight unchanged
when ``eps_rms > 0``. An accumulator no step has written yet is still
zero, so its decay is skipped; allocated by ``np.zeros``, its pages are
not even mapped until a step writes them.

A loaded model reads layer 0's rows from a table. A trained model
projects the same words again and again, and that product also slows
the small numpy calls of the step loop right after it. So a model that
:func:`load_model` returns counts the distinct-word rows its passes
project; once the count reaches V it builds the table ``M.T @ W_x.T``,
(V, 4KH), and from then on every pass gathers layer 0's rows from the
table, adding the bias after the gather. A one-shot ``evaluate`` never
pays for it; a long-running scorer does within its first few dozen
requests. Table rows round as the per-batch product's rows do once BLAS
multiplies both with its blocked kernel; below that they can differ in
the last bits. While the table exists, ``M`` and layer 0's ``W_x`` are
read-only, so a direct write raises rather than leaving stale rows.
:meth:`SeqModel.named_arrays` and :meth:`SeqModel.copy` drop the table,
make the arrays writable again and end the counting for good, as does
replacing ``M`` or ``W_x``. A model from :meth:`SeqModel.init` never
counts: training always multiplies.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import cycle, repeat

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
# columns of M per block of the RMSprop column step: the block's
# buffers stay in cache
COLUMN_BLOCK = 128
# OpenBLAS multiplies products of at most this many multiply-adds with
# its small-matrix kernels, which on some shapes round otherwise than its
# blocked kernels (see ColumnGrad)
BLAS_SMALL = 100 ** 3


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
        # layer 0's projection table (see the module docstring): the count
        # of distinct-word rows projected so far, None on a model that
        # builds no table, and (M, W_x, M.T @ W_x.T) once built
        self._seen = None
        self._table = None

    def _projection_table(self, rows: int):
        """Layer 0's (V, 4KH) table for a pass over ``rows`` distinct
        words, or None: the pass then projects them itself, and they
        count towards the table.

        The table is built once the count reaches V, and ended when ``M``
        or layer 0's ``W_x`` is no longer the array it was built from.
        While it exists, those two are read-only.
        """
        W_x = self.layers[0].W_x
        if self._table is not None and (self._table[0] is not self.M
                                        or self._table[1] is not W_x):
            self._end_table()
        if self._seen is None:
            return None
        if self._table is None:
            if self._seen < self.vocab_size:
                self._seen += rows
                return None
            self.M.flags.writeable = W_x.flags.writeable = False
            self._table = (self.M, W_x,
                           self.M.T @ W_x.reshape(-1, self.embed_dim).T)
        return self._table[2]

    def _end_table(self):
        """Drop the table, its arrays writable again; build none again."""
        if self._table is not None:
            for a in self._table[:2]:
                a.flags.writeable = True
        self._seen = self._table = None

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
        Since those arrays can be written, the projection table goes, and
        the model builds none again.
        """
        self._end_table()
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
        """A deep copy; like :meth:`named_arrays`, it ends the table."""
        self._end_table()
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
    cols: np.ndarray     # (U,) the distinct ids, ascending
    inverse: np.ndarray  # (N,) index into ``cols`` of each id in ``ids``
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
        seqs = [np.asarray(tokens, dtype=np.intp) for tokens in token_lists]
        lengths = np.array([ids.size for ids in seqs])
        if not lengths.all():
            raise DataError("cannot score an empty essay")
        ids = np.concatenate(seqs)
        cols, inverse = np.unique(ids, return_inverse=True)
        if cols[0] < 0 or cols[-1] >= model.vocab_size:
            raise DataError(f"token id out of range for vocabulary of "
                            f"{model.vocab_size}")
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
        return cls(ids=ids, cols=cols, inverse=inverse, lengths=lengths,
                   offsets=offsets, row=row, rev=rev, prev=prev, first=rank,
                   last=offsets[lengths - 1] + rank)


@dataclass
class _LayerCache:
    """Activations of one layer's K directions, each in its own time order.

    ``C`` (the cell state), ``TC`` (its tanh) and ``H`` (the hidden
    state) are (N, K, H) over packed rows; ``G`` holds the gates i, f,
    c (candidate), o after their nonlinearities as (4, N, K, H) planes,
    each gate's rows in the layout of ``C``. These are the arrays the
    step loops write, in the form the backward loop reads.
    """

    G: np.ndarray
    C: np.ndarray
    TC: np.ndarray
    H: np.ndarray


@dataclass
class BatchCache:
    """Everything the backward pass reuses from one lockstep forward pass.

    ``inputs[l]`` is layer l's input over packed rows in essay time, the
    previous layer's output after dropout (backward direction
    realigned); None for l = 0, whose rows the backward pass reads from
    ``model.M`` again, so ``M`` must not change between the two passes.
    ``masks[l]`` is layer l's dropout mask over packed rows, or None.
    """

    layout: _Layout
    inputs: list
    layers: list
    masks: list | None
    final: np.ndarray        # (B, width) the states the head reads
    y: np.ndarray            # (B,)


def _draw_masks(model: SeqModel, layout: _Layout, rng) -> list:
    """Inverted-dropout masks over packed rows, one per layer.

    The generator's stream runs essay by essay and layer by layer, an
    (L, width) block each, so it does not depend on how essays are
    batched. One draw covers the batch; each packed row of each layer
    then picks its row of the draw.
    """
    keep = 1.0 - model.dropout
    width = model.lstm_dim * (2 if model.bidirectional else 1)
    n_layers, lengths = model.n_layers, layout.lengths
    N = layout.ids.size
    kept = rng.random((n_layers * N, width)) < keep
    # essay b's block for layer l starts at draw row n_layers * s_b + l * L_b
    starts = np.cumsum(lengths) - lengths
    at = np.arange(N) + np.repeat(starts * (n_layers - 1), lengths)
    rows = np.empty((n_layers, N), dtype=int)
    for l in range(n_layers):
        rows[l, layout.row] = at + np.repeat(l * lengths, lengths)
    return list(kept[rows] / keep)


def _segments(offsets) -> list:
    """The lockstep steps in runs of one running count: (s, e, m) per run,
    its packed rows ``s:e`` and its m essays per step, first step first."""
    offsets = np.asarray(offsets)
    counts = offsets[1:] - offsets[:-1]
    starts = [0, *((counts[1:] != counts[:-1]).nonzero()[0] + 1).tolist()]
    bounds = offsets[starts + [counts.size]].tolist()
    return list(zip(bounds[:-1], bounds[1:], counts[starts].tolist()))


def _blocks(X: np.ndarray, s: int, e: int, m: int) -> np.ndarray:
    """A segment's rows ``s:e`` of X, (N, K, .) or (g, N, K, .), as views
    of one step each: (T, m, K, .) or (T, g, m, K, .)."""
    T = (e - s) // m
    rows = X[..., s:e, :, :]
    blocks = rows.reshape(X.shape[:-3] + (T, m) + X.shape[-2:])
    return blocks if X.ndim == 3 else blocks.swapaxes(0, 1)


def _recur(W_h: np.ndarray, W_p, G: np.ndarray, offsets: np.ndarray,
           keep: bool):
    """Run a layer's K directions over the lockstep steps of a packed batch.

    ``G`` (N, K, 4H) holds the input projections plus biases and is left
    as it is; ``W_h`` and ``W_p`` are the layer's stacked buffers. The
    step's first add writes ``G`` rows plus ``h @ W_h^T`` into a
    (4, m, K, H) block (gate, essay, direction, unit), and the state is
    step t's rows ``s:e`` of (N, K, .) arrays, so each nonlinearity and
    cell product is one call on contiguous memory; only that add and the
    peephole adds read through transposed views. The steps run a segment
    at a time, a run of T steps with the same m running essays: the
    segment's rows of ``G``, ``H``, ``C``, ``TC`` and the gate planes are
    (T, m, K, .) blocks, and the loop zips their per-step views, ``G``'s
    gate-major and ``H``'s and ``C``'s transposed as the next product
    reads them, so a step slices nothing. The running essays are a prefix
    of the last segment's, so the state is re-sliced, still contiguous,
    once per segment. The peephole term starts at zero, so the first step
    adds it as every other does. Returns (gates, C, TC, H): the gates as
    (4, N, K, H) planes, each step's block copied in once it is done, and
    C, TC and H as (N, K, H). With ``keep`` unset only H is kept for
    every step (the gates, C and TC are None): the gates stay in the one
    reused block and two cell buffers take turns, their order carried
    from segment to segment.
    """
    # imported here, once per pass: scipy.special costs start-up time and
    # memory that the commands which never run an LSTM would pay
    from scipy.special import expit
    matmul, add, multiply, tanh = np.matmul, np.add, np.multiply, np.tanh

    N, K, n = G.shape[0], G.shape[1], W_h.shape[-1]
    H = np.empty((N, K, n))
    C, TC, P = ((np.empty((N, K, n)), np.empty((N, K, n)),
                 np.empty((4, N, K, n))) if keep else (None, None, None))
    G4 = G.reshape(N, K, 4, n).transpose(2, 0, 1, 3)
    W_hT = W_h.swapaxes(1, 2)
    peep, full = W_p is not None, W_p is not None and W_p.ndim == 3
    if full:
        W_pT = W_p.swapaxes(1, 2)
    elif peep:
        # (3, 1, K, H): one row per gate and direction, broadcast over essays
        W_p3 = W_p.reshape(K, 3, n).transpose(1, 0, 2)[:, None]
    segments = _segments(offsets)
    B = segments[0][2]
    # the state before step 0; the peephole term starts at zero too, and
    # expit(x + 0.0) has the bits of expit(x)
    c = np.zeros((B, K, n))
    hT = np.zeros((B, K, n)).swapaxes(0, 1)
    hw_all, fc_all = np.empty((B, K, 4 * n)), np.empty((B, K, n))
    q_all = np.zeros((B, K, 3 * n) if full else (3, B, K, n))
    block = np.empty(4 * B * K * n)
    if not keep:
        cells = (np.empty((B, K, n)), np.empty((B, K, n)))
        tc_all = np.empty((B, K, n))
    t = 0  # the first step of the segment
    for s, e, m in segments:
        c, hT, hw, fc = c[:m], hT[:, :m], hw_all[:m], fc_all[:m]
        hwT = hw.swapaxes(0, 1)
        hw4 = hw.reshape(m, K, 4, n).transpose(2, 0, 1, 3)
        if full:
            q = q_all[:m]
            qT = q.swapaxes(0, 1)
            q4 = q.reshape(m, K, 3, n).transpose(2, 0, 1, 3)
        else:
            q4 = q_all[:, :m]
        q_if, q_o = q4[:2], q4[2]
        a = block[:4 * m * K * n].reshape(4, m, K, n)
        a_if, a_i, a_f, a_u, a_o = a[:2], a[0], a[1], a[2], a[3]
        hs = _blocks(H, s, e, m)
        if keep:
            ps, cs, tcs = (_blocks(X, s, e, m) for X in (P, C, TC))
            cTs = cs.swapaxes(1, 2)
        else:
            ps = repeat(None)
            turns = (cells[t & 1][:m], cells[~t & 1][:m])
            cs, cTs = cycle(turns), cycle(x.swapaxes(0, 1) for x in turns)
            tcs = repeat(tc_all[:m])
        for g, p, c_new, c_newT, tc, h_new, h_newT in zip(
                _blocks(G4, s, e, m), ps, cs, cTs, tcs, hs, hs.swapaxes(1, 2)):
            matmul(hT, W_hT, hwT)
            add(g, hw4, a)
            if peep:
                # the input and forget gates peep at the last step's cell
                add(a_if, q_if, a_if)
            expit(a_if, a_if)
            tanh(a_u, a_u)
            multiply(a_i, a_u, c_new)
            add(c_new, multiply(a_f, c, fc), c_new)
            if full:
                matmul(c_newT, W_pT, qT)
            elif peep:
                multiply(c_new, W_p3, q4)
            if peep:
                add(a_o, q_o, a_o)
            expit(a_o, a_o)
            tanh(c_new, tc)
            multiply(a_o, tc, h_new)
            if keep:
                p[...] = a
            c, hT = c_new, h_newT
        t += (e - s) // m
    return P, C, TC, H


def _recur_backward(W_h: np.ndarray, W_p, P: np.ndarray, C: np.ndarray,
                    TC: np.ndarray, dH: np.ndarray, layout: _Layout):
    """Gradient at the gate pre-activations from dL/dH.

    Takes the gate planes, C and TC as :func:`_recur` returns them and
    dH as (N, K, H); the result is (N, K, 4H). The per-row factors are
    computed once, over all steps, from the contiguous gate planes. The
    steps run back a segment at a time, as :func:`_recur` runs them
    forward: the loop zips the per-step views of each segment's blocks of
    ``dH``, the factors, ``F`` and the result, last step first. The
    gradients carried back from step t + 1 live in contiguous (m, K, H)
    buffers: going back in time essays only start, so the running ones
    are a prefix of a zeroed (B, K, H) buffer and an essay's rows stay
    zero until its last step is reached.
    """
    N, K, n = dH.shape
    B = int(layout.offsets[1])
    I, F, U, O = P
    C_prev = np.zeros((N, K, n))
    C_prev[B:] = C[layout.prev]
    # per-row factors, vectorised over all steps: dA = factor * (dh or dc)
    k_o = TC * O * (1.0 - O)
    k_c = O * (1.0 - TC * TC)
    k_ifu = np.stack((U * I * (1.0 - I), C_prev * F * (1.0 - F),
                      I * (1.0 - U * U)))
    del C_prev
    dA = np.empty((N, K, 4 * n))
    dA4 = dA.reshape(N, K, 4, n).transpose(2, 0, 1, 3)
    peep, full = W_p is not None, W_p is not None and W_p.ndim == 3
    if full:
        W_p_if, W_p_o = W_p[:, :2 * n, :], W_p[:, 2 * n:, :]
    elif peep:
        w_i, w_f, w_o = (W_p[:, k * n:(k + 1) * n] for k in range(3))
    dh_all, dc_all, prod_all = (np.zeros((B, K, n)) for _ in range(3))
    matmul, add, multiply = np.matmul, np.add, np.multiply
    for s, e, m in reversed(_segments(layout.offsets)):
        dh, dc, prod = dh_all[:m], dc_all[:m], prod_all[:m]
        dhT, prodT = dh.swapaxes(0, 1), prod.swapaxes(0, 1)

        def back(X):
            return _blocks(X, s, e, m)[::-1]

        aTs = back(dA).swapaxes(1, 2)  # (K, m, 4H) per step
        # what the peepholes read: the o and i/f columns of a step's
        # gradients when full, the i and f gradients when diagonal
        peeped = (aTs[..., 3 * n:], aTs[..., :2 * n]) if full else \
            (back(dA4[0]), back(dA4[1])) if peep else (repeat(None),) * 2
        for (dh_t, ko, kc, da_o, aT, kifu, da_ifu, f, pa,
             pb) in zip(back(dH), back(k_o), back(k_c), back(dA4[3]), aTs,
                        back(k_ifu), back(dA4[:3]), back(F), *peeped):
            add(dh, dh_t, dh)
            multiply(dh, ko, da_o)
            add(dc, multiply(dh, kc, prod), dc)
            if full:
                matmul(pa, W_p_o, prodT)
                add(dc, prod, dc)
            elif peep:
                add(dc, multiply(da_o, w_o, prod), dc)
            multiply(dc, kifu, da_ifu)
            matmul(aT, W_h, dhT)
            multiply(dc, f, dc)
            if full:
                matmul(pb, W_p_if, prodT)
                add(dc, prod, dc)
            elif peep:
                add(dc, multiply(pa, w_i, prod), dc)
                add(dc, multiply(pb, w_f, prod), dc)
    return dA


def _layer_grads(layer: LSTMLayer, cache: _LayerCache, dA: np.ndarray,
                 layout: _Layout):
    """Recurrent, peephole and bias gradients per direction, fused."""
    n = layer.dim
    B = layout.offsets[1]
    out = []
    for k in range(dA.shape[1]):
        a, C = dA[:, k], cache.C[:, k]
        a_later = a[B:]  # rows of steps >= 1, whose previous step is ``prev``
        g = {"W_h": a_later.T @ cache.H[layout.prev, k], "b": a.sum(axis=0)}
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
    N = layout.ids.size
    at = np.empty_like(layout.inverse)  # each packed row's index into cols
    at[layout.row] = layout.inverse
    table = model._projection_table(layout.cols.size)
    inputs, layers, seq = [], [], None
    for l, layer in enumerate(model.layers):
        W_x = layer.W_x.reshape(-1, layer.in_dim)
        # layer 0 projects each distinct word once and gathers the rows,
        # or gathers them from the model's table
        if l:
            proj = seq @ W_x.T
        elif table is None:
            proj = (model.M.T[layout.cols] @ W_x.T)[at]
        else:
            proj = table[layout.cols[at]]
        if keep:
            inputs.append(seq)
        del seq
        proj += layer.b.reshape(-1)
        G = proj.reshape(N, -1, 4 * n)
        if bi:
            # the backward direction's rows in its own time order
            G[:, 1] = proj[layout.rev, 4 * n:]
        P, C, TC, H = _recur(layer.W_h, layer.W_p, G, layout.offsets, keep)
        if keep:
            layers.append(_LayerCache(P, C, TC, H))
        del G, proj, P, C, TC
        seq = np.concatenate((H[:, 0], H[layout.rev, 1]), axis=1) if bi \
            else H.reshape(N, n)
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
    states, plus the activation cache for :func:`bptt`,
    :func:`backward_columns` and :func:`backward_inputs`. With
    ``training`` set, inverted-dropout masks are drawn from ``rng``
    essay by essay and applied to each layer's output sequence.
    """
    dropout = training and model.dropout > 0.0
    if dropout and rng is None:
        raise ConfigError("training-mode forward pass needs a random generator")
    layout = _Layout.of(model, token_lists)
    masks = _draw_masks(model, layout, rng) if dropout else None
    return _run(model, layout, masks)


def _backward(model: SeqModel, cache: BatchCache, dy, params: bool = True):
    """The backward pass; returns (parameter gradients without ``M``,
    layer 0's gate gradients (N, 4KH) in ``layout.ids`` order, their
    sums (U, 4KH) per ``layout.cols`` entry).

    The sums run in token order from 0.0, as ``np.add.at`` adds. With
    ``params`` unset only the gate gradients are worked out: the
    parameter gradients come back empty and the sums as None.
    """
    layout = cache.layout
    dy = np.asarray(dy, dtype=float).reshape(-1)
    bi = model.bidirectional
    n = model.lstm_dim
    grads, sums = {}, None
    if params:
        grads.update({"head.W_yh": dy @ cache.final,
                      "head.b_y": np.array([dy.sum()])})
    d_final = dy[:, None] * model.W_yh
    d_out = np.zeros((layout.ids.size, d_final.shape[1]))
    d_out[layout.last, :n] = d_final[:, :n]
    if bi:
        d_out[layout.first, n:] = d_final[:, n:]
    for l in range(model.n_layers - 1, -1, -1):
        if cache.masks is not None:
            d_out *= cache.masks[l]
        layer, lc = model.layers[l], cache.layers[l]
        dH = np.stack((d_out[:, :n], d_out[layout.rev, n:]), axis=1) if bi \
            else d_out.reshape(-1, 1, n)
        dA = _recur_backward(layer.W_h, layer.W_p, lc.G, lc.C, lc.TC, dH,
                             layout)
        dir_grads = _layer_grads(layer, lc, dA, layout) if params else ()
        # both directions' gate gradients side by side: in essay time
        # above layer 0, in token order at it
        rows = layout.row if l == 0 else slice(None)
        dA = np.concatenate((dA[rows, 0], dA[layout.rev[rows], 1]), axis=1) \
            if bi else dA.reshape(-1, 4 * n)[rows]
        if l:
            d_W_x = dA.T @ cache.inputs[l] if params else None
            d_out = dA @ layer.W_x.reshape(-1, layer.in_dim)
        elif params:
            U, width = layout.cols.size, dA.shape[1]
            sums = np.bincount(
                (layout.inverse[:, None] * width + np.arange(width)).ravel(),
                weights=dA.ravel(), minlength=U * width).reshape(U, width)
            d_W_x = sums.T @ model.M.T[layout.cols]
        for k, (prefix, g) in enumerate(zip(("fwd", "bwd"), dir_grads)):
            g["W_x"] = d_W_x[4 * n * k:4 * n * (k + 1)]
            grads.update((f"{prefix}{l}.{name}", a) for name, a in g.items())
    return grads, dA, sums


def backward_inputs(model: SeqModel, cache: BatchCache, dy) -> np.ndarray:
    """The gradient of each token's word vector, (N, D), in
    ``cache.layout.ids`` order, from per-essay output gradients ``dy``
    (B,): the input gradients of :func:`bptt` alone, bit for bit. No
    parameter gradient is worked out."""
    _, dA, _ = _backward(model, cache, dy, params=False)
    return dA @ model.layers[0].W_x.reshape(-1, model.embed_dim)


class ColumnGrad:
    """``M``'s gradient on the columns a batch touched, as gate sums.

    Column ``cols[j]`` of the gradient is ``sums[j] @ W`` (layer 0's gate
    gradients summed per distinct word, times a copy of its stacked
    ``W_x``), multiplied by each recorded factor in turn: ``g *= s``
    records ``s``, as scaling a batch gradient or clipping it does.
    :meth:`blocks` forms those rows a block of columns at a time, so the
    (U, D) gradient is never held whole.

    Each block's product rounds as the same rows of the one product
    ``sums @ W`` do. Blocks start at multiples of ``COLUMN_BLOCK``, so
    BLAS's row tiles line up with the whole product's. BLAS also picks
    its kernel by a product's size, and kernels round differently: when
    the whole product is above ``BLAS_SMALL`` multiply-adds every block
    is too, taking as many ``COLUMN_BLOCK`` rows as that needs, and no
    block is one row, which BLAS multiplies as a matrix-vector product
    (with D = 1 the whole product is one, and is one block).
    """

    def __init__(self, cols: np.ndarray, sums: np.ndarray, W: np.ndarray):
        self.cols = cols
        self.sums = sums
        self.W = W
        self.factors: list[float] = []
        U, per_row = cols.size, W.size
        step = COLUMN_BLOCK
        if W.shape[1] == 1:
            # a matrix-vector product, which BLAS threads split at their
            # own rows: one block, of U numbers
            step = U
        elif U * per_row > BLAS_SMALL:
            step *= -(-(BLAS_SMALL + 1) // (COLUMN_BLOCK * per_row))
        bounds = list(range(0, U, step))
        tail = U - bounds[-1]
        if len(bounds) > 1 and (tail == 1 or tail * per_row <= BLAS_SMALL
                                < U * per_row):
            bounds.pop()  # the last block joins the one before it
        self.bounds = bounds + [U]
        self.height = max(np.diff(self.bounds))  # rows of the largest block

    def __imul__(self, factor: float) -> "ColumnGrad":
        self.factors.append(factor)
        return self

    def blocks(self):
        """Yield (cols, rows) block by block; ``rows`` is one buffer,
        overwritten by the next block."""
        buf = np.empty((self.height, self.W.shape[1]))
        for j, k in zip(self.bounds[:-1], self.bounds[1:]):
            rows = np.matmul(self.sums[j:k], self.W, out=buf[:k - j])
            for factor in self.factors:
                rows *= factor
            yield self.cols[j:k], rows


def backward_columns(model: SeqModel, cache: BatchCache,
                     dy) -> tuple[dict, ColumnGrad]:
    """Backpropagate per-essay output gradients ``dy`` (B,) through the
    stack: the parameter gradients under their ``named_arrays`` names,
    summed over the batch, with ``M``'s as a :class:`ColumnGrad` over
    the batch's distinct ids, ascending."""
    grads, _, sums = _backward(model, cache, dy)
    # a copy: the optimizer may step W_x before it reaches M
    W = model.layers[0].W_x.reshape(-1, model.embed_dim).copy()
    return grads, ColumnGrad(cache.layout.cols, sums, W)


def forward_essay(model: SeqModel, tokens, training: bool = False,
                  rng=None) -> tuple[float, BatchCache]:
    """Run one essay through the stack: :func:`forward_batch` with B = 1.

    Returns the unclamped scaled score read off the final-timestep
    embedding, plus the activation cache for :func:`bptt`.
    """
    y, cache = forward_batch(model, [tokens], training, rng)
    return float(y[0]), cache


def bptt(model: SeqModel, cache: BatchCache,
         gold: float | np.ndarray) -> tuple[dict, np.ndarray]:
    """Exact gradients of sum_b (y_b - gold_b)^2 through the whole stack.

    ``gold`` is one score or one per essay of the batch, (B,). Returns
    (named parameter gradients without the embedding matrix, summed over
    the batch; the gradient of each token's word vector, (N, D), in
    ``cache.layout.ids`` order).
    """
    grads, dA, _ = _backward(model, cache, 2.0 * (cache.y - gold))
    return grads, dA @ model.layers[0].W_x.reshape(-1, model.embed_dim)


def predict_batch(model: SeqModel, token_lists) -> np.ndarray:
    """Unclamped scaled scores of many essays, in input order.

    Essays run in lockstep chunks of ``PREDICT_CHUNK`` taken in order of
    length: essays of similar length end together, so a chunk runs few
    lockstep steps with few essays. No gate activations are kept.
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
    raw scores skips the unscaling. A loaded model counts these essays'
    distinct words towards its projection table, so a call over fewer
    than V of them builds none, and later calls may read from it.
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
    """Running mean-square accumulators, one per named parameter array.

    ``fresh`` names the accumulators no step has written yet: they are
    still zero, so their decay is skipped.
    """

    acc: dict[str, np.ndarray]
    rho: float = 0.9
    eps: float = 1e-8
    eta: float = 1e-7
    fresh: set[str] = field(default_factory=set)

    @classmethod
    def for_model(cls, model: SeqModel, cfg: Config) -> "RMSPropState":
        # np.zeros in the array's own order: M's accumulator keeps its
        # columns contiguous, and its pages stay unmapped until written
        acc = {n: np.zeros(a.shape, order="F" if a.flags.f_contiguous
                           and not a.flags.c_contiguous else "C")
               for n, a in model.named_arrays()}
        return cls(acc=acc, rho=cfg.rho_rms, eps=cfg.eps_rms,
                   eta=cfg.learning_rate, fresh=set(acc))


def rmsprop_update(state: RMSPropState, arrays: dict[str, np.ndarray],
                   grads: dict):
    """In-place step: acc <- rho*acc + (1-rho)*g^2; p <- p - eta*g/sqrt(acc+eps).

    Arrays without a gradient entry still have their accumulator decayed
    (zero gradient), matching the element-wise rule. A :class:`ColumnGrad`
    covers only its columns of a 2-D array; every other column has a
    zero gradient, which leaves its weights unchanged (``eps > 0``), so
    only the listed columns are stepped. The result is bitwise the dense
    rule's.
    """
    for name, acc in state.acc.items():
        g = grads.get(name)
        if name not in state.fresh:
            acc *= state.rho
        elif g is not None:
            # until this first write it is all zeros, which decay to zeros
            state.fresh.discard(name)
        if g is None:
            continue
        if isinstance(g, ColumnGrad):
            # the listed columns as rows of the transposed arrays, stepped
            # a block at a time through buffers that stay in cache: the
            # same operations in the same order as the dense branch below
            acc_t, p_t = acc.T, arrays[name].T
            bufs = np.empty((2, g.height, g.W.shape[1]))
            for c, r in g.blocks():
                sub, buf = bufs[:, :c.size]
                # "raise" mode would fill a copy of ``out``; every col is valid
                np.take(acc_t, c, axis=0, out=sub, mode="clip")
                np.multiply(1.0 - state.rho, r, out=buf)
                buf *= r
                sub += buf
                acc_t[c] = sub
                np.add(sub, state.eps, out=buf)
                np.sqrt(buf, out=buf)
                np.multiply(state.eta, r, out=sub)
                np.divide(sub, buf, out=buf)
                np.take(p_t, c, axis=0, out=sub, mode="clip")
                sub -= buf
                p_t[c] = sub
        else:
            acc += (1.0 - state.rho) * g * g
            arrays[name] -= state.eta * g / np.sqrt(acc + state.eps)


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm; returns the norm found.

    A :class:`ColumnGrad` counts block by block, through the rows its
    step will form.
    """
    total = 0.0
    for g in grads.values():
        if isinstance(g, ColumnGrad):
            for _, r in g.blocks():
                total += float((r * r).sum())
        else:
            total += float((g * g).sum())
    norm = total ** 0.5
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


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
    improvement. When the best epoch is the last of ``cfg.epochs``, the
    snapshot returned is ``model`` itself, not a copy.
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
            grads, m_grad = backward_columns(model, cache, 2.0 * err)
            grads["M"] = m_grad
            del cache
            inv = 1.0 / len(batch)
            for g in grads.values():
                g *= inv
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
            # after the last epoch nothing changes the model any more
            best = model if epoch == cfg.epochs - 1 else model.copy()
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
    :class:`ModelFormatError` (exit 2). The model counts towards layer 0's
    projection table (see the module docstring): once its passes have
    projected V distinct-word rows it reads them from the table, and
    ``M`` and layer 0's ``W_x`` stay read-only until
    :meth:`SeqModel.named_arrays` or :meth:`SeqModel.copy` ends it.
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
    model._seen = 0  # counting towards the projection table
    return model, config_hash

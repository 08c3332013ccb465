"""Essay scoring with stacked peephole LSTMs.

An essay is fed one word vector per timestep; the essay embedding is the
hidden activation at the last timestep (for the backward direction, the
state after consuming the whole reversed sequence), and a linear head
regresses the score from it. Training minimizes squared error on the
scaled score, with gradients flowing through time, through the gates and
peepholes, and into the embedding matrix itself.

Gate equations, per timestep:

    i_t = sigma(W_is s_t + W_ih h_{t-1} + W_ic c_{t-1} + b_i)
    f_t = sigma(W_fs s_t + W_fh h_{t-1} + W_fc c_{t-1} + b_f)
    c_t = i_t * tanh(W_cs s_t + W_ch h_{t-1} + b_c) + f_t * c_{t-1}
    o_t = sigma(W_os s_t + W_oh h_{t-1} + W_oc c_t + b_o)
    h_t = o_t * tanh(c_t)

The output gate peeps at the current cell state, the input and forget
gates at the previous one. Peepholes default to full square matrices,
with ``diagonal`` and ``off`` modes available.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .corpus import Essay, ScoreRange
from .errors import ConfigError, DataError, ModelFormatError, NumericalError

MODEL_MAGIC = b"SATS"
MODEL_VERSION = 1

PEEPHOLE_MODES = ("full", "diagonal", "off")

INIT_SCALE = 0.05
FORGET_BIAS = 1.0


@dataclass(frozen=True)
class SeqHyper:
    """Architecture and training settings for the sequence scorer."""

    lstm_dim: int = 10
    layers: int = 1
    bidirectional: bool = False
    dropout: float = 0.5
    peepholes: str = "full"
    learning_rate: float = 1e-7
    epochs: int = 100
    batch_size: int = 32
    patience: int = 25
    rho_rms: float = 0.9
    eps_rms: float = 1e-8
    clip_norm: float = 0.0
    seed: int = 0

    def validate(self):
        if self.lstm_dim < 1:
            raise ConfigError(f"lstm_dim must be positive, got {self.lstm_dim}")
        if self.layers not in (1, 2):
            raise ConfigError(f"layers must be 1 or 2, got {self.layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.peepholes not in PEEPHOLE_MODES:
            raise ConfigError(f"peepholes must be one of {PEEPHOLE_MODES}, "
                              f"got {self.peepholes!r}")
        if self.epochs < 0 or self.batch_size < 1 or self.patience < 1:
            raise ConfigError("epochs must be >= 0, batch_size and patience >= 1")
        if not 0.0 < self.rho_rms < 1.0:
            raise ConfigError(f"rho_rms must lie in (0, 1), got {self.rho_rms}")
        if self.clip_norm < 0.0:
            raise ConfigError(f"clip_norm must be >= 0, got {self.clip_norm}")


class LSTMLayer:
    """One direction of one stacked layer: all gate weights and biases.

    Array names follow the gate equations: W_gs maps the input, W_gh the
    previous hidden state, W_gc the cell state (peephole), b_g the bias,
    for gates g in i (input), f (forget), c (candidate), o (output).
    """

    INPUT_NAMES = ("W_is", "W_fs", "W_cs", "W_os")
    RECUR_NAMES = ("W_ih", "W_fh", "W_ch", "W_oh")
    PEEP_NAMES = ("W_ic", "W_fc", "W_oc")
    BIAS_NAMES = ("b_i", "b_f", "b_c", "b_o")

    def __init__(self, in_dim: int, dim: int, peepholes: str, rng=None):
        if peepholes not in PEEPHOLE_MODES:
            raise ConfigError(f"unknown peephole mode {peepholes!r}")
        self.in_dim = in_dim
        self.dim = dim
        self.peepholes = peepholes
        u = (lambda *s: rng.uniform(-INIT_SCALE, INIT_SCALE, size=s)) \
            if rng is not None else (lambda *s: np.zeros(s))
        for name in self.INPUT_NAMES:
            setattr(self, name, u(dim, in_dim))
        for name in self.RECUR_NAMES:
            setattr(self, name, u(dim, dim))
        if peepholes == "full":
            for name in self.PEEP_NAMES:
                setattr(self, name, u(dim, dim))
        elif peepholes == "diagonal":
            for name in self.PEEP_NAMES:
                setattr(self, name, u(dim))
        else:
            for name in self.PEEP_NAMES:
                setattr(self, name, None)
        self.b_i = np.zeros(dim)
        self.b_f = np.full(dim, FORGET_BIAS)
        self.b_c = np.zeros(dim)
        self.b_o = np.zeros(dim)

    def array_names(self):
        names = self.INPUT_NAMES + self.RECUR_NAMES
        if self.peepholes != "off":
            names = names + self.PEEP_NAMES
        return names + self.BIAS_NAMES

    def _peep(self, name: str, c: np.ndarray):
        w = getattr(self, name)
        if w is None:
            return 0.0
        if w.ndim == 1:
            return w * c
        return w @ c

    def _peep_back(self, name: str, da: np.ndarray):
        """Transpose-product of a peephole: contribution of da to dc."""
        w = getattr(self, name)
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
              + layer._peep("W_ic", c_prev) + layer.b_i)
    f = expit(layer.W_fs @ s_t + layer.W_fh @ h_prev
              + layer._peep("W_fc", c_prev) + layer.b_f)
    u = np.tanh(layer.W_cs @ s_t + layer.W_ch @ h_prev + layer.b_c)
    c = i * u + f * c_prev
    o = expit(layer.W_os @ s_t + layer.W_oh @ h_prev
              + layer._peep("W_oc", c) + layer.b_o)
    return o * np.tanh(c), c


@dataclass
class _DirectionCache:
    """Per-timestep activations of one direction pass, in its own time order."""

    S: np.ndarray   # inputs, (T, in_dim)
    I: np.ndarray   # input gate
    F: np.ndarray   # forget gate
    U: np.ndarray   # candidate tanh
    O: np.ndarray   # output gate
    C: np.ndarray   # cell state
    TC: np.ndarray  # tanh(cell state)
    H: np.ndarray   # hidden state


def _run_direction(layer: LSTMLayer, S: np.ndarray) -> _DirectionCache:
    # Input projections for the whole sequence are hoisted out of the
    # recurrence; the loop handles only state-dependent terms.
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
        i = expit(P_i[t] + layer.W_ih @ h + layer._peep("W_ic", c))
        f = expit(P_f[t] + layer.W_fh @ h + layer._peep("W_fc", c))
        u = np.tanh(P_u[t] + layer.W_ch @ h)
        c = i * u + f * c
        o = expit(P_o[t] + layer.W_oh @ h + layer._peep("W_oc", c))
        tc = np.tanh(c)
        h = o * tc
        I[t], F[t], U[t], O[t], C[t], TC[t], H[t] = i, f, u, o, c, tc, h
    return _DirectionCache(S=S, I=I, F=F, U=U, O=O, C=C, TC=TC, H=H)


def _direction_backward(layer: LSTMLayer, cache: _DirectionCache,
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
            + layer._peep_back("W_oc", da_o)
        da_i = dc * u * i * (1.0 - i)
        da_u = dc * i * (1.0 - u ** 2)
        da_f = dc * c_prev * f * (1.0 - f)
        dA_i[t], dA_f[t], dA_u[t], dA_o[t] = da_i, da_f, da_u, da_o
        dh_next = layer.W_ih.T @ da_i + layer.W_fh.T @ da_f \
            + layer.W_ch.T @ da_u + layer.W_oh.T @ da_o
        dc_next = dc * f + layer._peep_back("W_ic", da_i) \
            + layer._peep_back("W_fc", da_f)

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


class SeqModel:
    """Embedding matrix, one or two (bi)directional LSTM layers, linear head."""

    def __init__(self, M: np.ndarray, fwd_layers, bwd_layers, W_yh, b_y,
                 dropout: float, peepholes: str):
        self.M = M
        self.fwd_layers = list(fwd_layers)
        self.bwd_layers = list(bwd_layers)
        self.W_yh = W_yh
        self.b_y = b_y
        self.dropout = dropout
        self.peepholes = peepholes
        width = self.fwd_layers[-1].dim * (2 if self.bidirectional else 1)
        if W_yh.shape != (width,):
            raise ConfigError(f"head width {W_yh.shape} does not match "
                              f"layer output width {width}")

    @classmethod
    def init(cls, M: np.ndarray, hyper: SeqHyper, rng) -> "SeqModel":
        """Fresh model around an embedding matrix (owned, not copied)."""
        hyper.validate()
        d_in = M.shape[0]
        fwd, bwd = [], []
        for l in range(hyper.layers):
            width_in = d_in if l == 0 else \
                hyper.lstm_dim * (2 if hyper.bidirectional else 1)
            fwd.append(LSTMLayer(width_in, hyper.lstm_dim, hyper.peepholes, rng))
            if hyper.bidirectional:
                bwd.append(LSTMLayer(width_in, hyper.lstm_dim, hyper.peepholes, rng))
        width_out = hyper.lstm_dim * (2 if hyper.bidirectional else 1)
        W_yh = rng.uniform(-INIT_SCALE, INIT_SCALE, size=width_out)
        return cls(M, fwd, bwd, W_yh, np.zeros(1), hyper.dropout, hyper.peepholes)

    @property
    def bidirectional(self) -> bool:
        return bool(self.bwd_layers)

    @property
    def n_layers(self) -> int:
        return len(self.fwd_layers)

    @property
    def lstm_dim(self) -> int:
        return self.fwd_layers[0].dim

    @property
    def embed_dim(self) -> int:
        return self.M.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.M.shape[1]

    def named_arrays(self):
        """(name, array) pairs in a fixed order covering every parameter."""
        yield "M", self.M
        for l, layer in enumerate(self.fwd_layers):
            for name in layer.array_names():
                yield f"fwd{l}.{name}", getattr(layer, name)
        for l, layer in enumerate(self.bwd_layers):
            for name in layer.array_names():
                yield f"bwd{l}.{name}", getattr(layer, name)
        yield "head.W_yh", self.W_yh
        yield "head.b_y", self.b_y

    def get_array(self, name: str) -> np.ndarray:
        if name == "M":
            return self.M
        if name.startswith("head."):
            return getattr(self, name[5:])
        prefix, attr = name.split(".")
        layers = self.fwd_layers if prefix.startswith("fwd") else self.bwd_layers
        return getattr(layers[int(prefix[3:])], attr)

    def copy(self) -> "SeqModel":
        clone = SeqModel.__new__(SeqModel)
        clone.M = self.M.copy()
        clone.dropout = self.dropout
        clone.peepholes = self.peepholes
        clone.W_yh = self.W_yh.copy()
        clone.b_y = self.b_y.copy()
        clone.fwd_layers = [self._copy_layer(l) for l in self.fwd_layers]
        clone.bwd_layers = [self._copy_layer(l) for l in self.bwd_layers]
        return clone

    @staticmethod
    def _copy_layer(layer: LSTMLayer) -> LSTMLayer:
        out = LSTMLayer(layer.in_dim, layer.dim, layer.peepholes)
        for name in layer.array_names():
            setattr(out, name, getattr(layer, name).copy())
        return out


@dataclass
class ForwardCache:
    """Everything the backward pass reuses from one forward pass."""

    tokens: list
    fwd: list
    bwd: list
    masks: list
    outputs: list
    embedding: np.ndarray
    y: float


def forward_essay(model: SeqModel, tokens, training: bool = False,
                  rng=None) -> tuple[float, ForwardCache]:
    """Run one essay through the stack.

    Returns the unclamped scaled score read off the final-timestep
    embedding, plus the activation cache for backpropagation. With
    ``training`` set, inverted-dropout masks are drawn from ``rng`` and
    applied to each layer's output sequence.
    """
    tokens = list(tokens)
    if not tokens:
        raise DataError("cannot score an empty essay")
    ids = np.asarray(tokens, dtype=int)
    if ids.min() < 0 or ids.max() >= model.vocab_size:
        raise DataError(f"token id out of range for vocabulary of "
                        f"{model.vocab_size}")
    if training and model.dropout > 0.0 and rng is None:
        raise ConfigError("training-mode forward pass needs a random generator")

    T = len(tokens)
    seq = model.M[:, ids].T
    fwd_caches, bwd_caches, masks, outputs = [], [], [], []
    for l in range(model.n_layers):
        fc = _run_direction(model.fwd_layers[l], seq)
        if model.bidirectional:
            bc = _run_direction(model.bwd_layers[l], seq[::-1])
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
    return y, ForwardCache(tokens=tokens, fwd=fwd_caches, bwd=bwd_caches,
                           masks=masks, outputs=outputs, embedding=embedding,
                           y=y)


def bptt(model: SeqModel, cache: ForwardCache,
         gold: float) -> tuple[dict, np.ndarray]:
    """Exact gradients of (y - gold)^2 through the whole stack.

    Returns (named parameter gradients without the embedding matrix,
    gradient with respect to each timestep's input word vector). The
    caller scatters the latter into embedding columns; saliency reads it
    per position.
    """
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
            layer_grads, dS = _direction_backward(
                model.fwd_layers[l], cache.fwd[l], d_out[:, :dim])
            for name, g in layer_grads.items():
                grads[f"fwd{l}.{name}"] = g
            layer_grads, dS_b = _direction_backward(
                model.bwd_layers[l], cache.bwd[l], d_out[:, dim:][::-1])
            for name, g in layer_grads.items():
                grads[f"bwd{l}.{name}"] = g
            dS = dS + dS_b[::-1]
        else:
            layer_grads, dS = _direction_backward(
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


def predict_scaled(model: SeqModel, tokens) -> float:
    """Deterministic prediction clamped to the trained [0, 1] target space."""
    y, _ = forward_essay(model, tokens, training=False)
    return min(max(y, 0.0), 1.0)


def predict(model: SeqModel, essays: list[Essay],
            ranges: dict[int, ScoreRange],
            normalized: bool = True) -> np.ndarray:
    """Raw-scale predictions, clamped into each essay set's range.

    With ``normalized`` (the default) the model's output lives in [0, 1]
    and is unscaled through the set range; a model trained directly on
    raw scores skips the unscaling.
    """
    out = np.empty(len(essays))
    for k, essay in enumerate(essays):
        r = ranges.get(essay.set_id)
        if r is None:
            raise DataError(f"no score range for essay set {essay.set_id}")
        if normalized:
            out[k] = r.clamp(r.unscale(predict_scaled(model, essay.tokens)))
        else:
            y, _ = forward_essay(model, essay.tokens, training=False)
            out[k] = r.clamp(y)
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
    def for_model(cls, model: SeqModel, hyper: SeqHyper) -> "RMSPropState":
        return cls(acc={n: np.zeros_like(a) for n, a in model.named_arrays()},
                   rho=hyper.rho_rms, eps=hyper.eps_rms,
                   eta=hyper.learning_rate)


def rmsprop_update(state: RMSPropState, arrays: dict[str, np.ndarray],
                   grads: dict[str, np.ndarray]):
    """In-place step: acc <- rho*acc + (1-rho)*g^2; p <- p - eta*g/sqrt(acc+eps).

    Arrays without a gradient entry still have their accumulator decayed
    (zero gradient), matching the element-wise rule.
    """
    for name, acc in state.acc.items():
        g = grads.get(name)
        if g is None:
            acc *= state.rho
            continue
        acc *= state.rho
        acc += (1.0 - state.rho) * g * g
        arrays[name] -= state.eta * g / np.sqrt(acc + state.eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm; returns the norm found."""
    total = 0.0
    for g in grads.values():
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
                 ranges: dict[int, ScoreRange], hyper: SeqHyper,
                 normalized: bool = True) -> tuple[SeqModel, list[EpochRecord]]:
    """Mini-batch RMSprop training with best-validation selection.

    Shuffling, dropout masks and therefore the whole parameter trajectory
    are driven by one generator seeded from ``hyper.seed``. Targets are
    each essay's ``scaled_score`` (which a raw-score pipeline fills with
    the raw value, flagged by ``normalized=False``). After each epoch the
    validation RMSE (raw scale) is computed; the best snapshot is kept
    and training stops early after ``patience`` epochs without
    improvement.
    """
    hyper.validate()
    if not train:
        raise ConfigError("cannot train on an empty training set")
    if not val:
        raise ConfigError("validation set must not be empty")
    for e in train + val:
        if e.set_id not in ranges:
            raise DataError(f"no score range for essay set {e.set_id}")

    rng = np.random.default_rng(hyper.seed)
    state = RMSPropState.for_model(model, hyper)
    val_gold = np.array([e.raw_score for e in val])
    best = model.copy()
    best_rmse = np.inf
    history: list[EpochRecord] = []
    order = np.arange(len(train))
    stall = 0

    for epoch in range(hyper.epochs):
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
                # square via numpy so a diverged run overflows to inf
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
            if hyper.clip_norm > 0.0:
                clip_gradients(total, hyper.clip_norm)
            rmsprop_update(state, dict(model.named_arrays()), total)

        train_mse = sq_sum / len(train)
        val_rmse = float(np.sqrt(np.mean(
            (predict(model, val, ranges, normalized) - val_gold) ** 2)))
        history.append(EpochRecord(epoch, train_mse, val_rmse))
        if not (np.isfinite(train_mse) and np.isfinite(val_rmse)):
            raise NumericalError(f"non-finite loss at epoch {epoch}")
        if val_rmse < best_rmse:
            best_rmse = val_rmse
            best = model.copy()
            stall = 0
        else:
            stall += 1
            if stall >= hyper.patience:
                break
    return best, history


# --- persistence --------------------------------------------------------

_PEEP_CODES = {"off": 0, "diagonal": 1, "full": 2}
_PEEP_NAMES = {v: k for k, v in _PEEP_CODES.items()}


def save_model(path, model: SeqModel, config_hash: str = ""):
    """Versioned binary dump: magic, architecture, all tensors, hash.

    Tensors are 64-bit little-endian in ``named_arrays`` order; the
    embedding matrix is stored column-major like the embedding file.
    """
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack(
            "<7I d", MODEL_VERSION, model.vocab_size, model.embed_dim,
            model.lstm_dim, model.n_layers, int(model.bidirectional),
            _PEEP_CODES[model.peepholes], model.dropout))
        for name, arr in model.named_arrays():
            if name == "M":
                fh.write(np.asfortranarray(arr, dtype="<f8").tobytes(order="F"))
            else:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        raw = config_hash.encode("utf-8")
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, count, path):
    if count > _bytes_left(fh):
        raise ModelFormatError(f"truncated model file {path}")
    raw = fh.read(count)
    if len(raw) != count:
        raise ModelFormatError(f"truncated model file {path}")
    return raw


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
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise ModelFormatError(f"{path} is not a model file (magic {magic!r})")
        version, v, d, dim, layers, bi, peep_code, dropout = struct.unpack(
            "<7I d", _read_exact(fh, 36, path))
        if version != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model format version {version}")
        if peep_code not in _PEEP_NAMES or layers not in (1, 2):
            raise ModelFormatError(f"corrupt architecture descriptor in {path}")
        peepholes = _PEEP_NAMES[peep_code]
        # tensors plus the hash length, checked before anything of the
        # declared size is allocated
        need = 8 * _n_params(v, d, dim, layers, bool(bi), peepholes) + 4
        if need > _bytes_left(fh):
            raise ModelFormatError(f"truncated model file {path}")
        hyper = SeqHyper(lstm_dim=dim, layers=layers, bidirectional=bool(bi),
                         dropout=dropout, peepholes=peepholes)
        model = SeqModel.init(np.zeros((d, v)), hyper,
                              np.random.default_rng(0))
        for name, arr in model.named_arrays():
            raw = _read_exact(fh, 8 * arr.size, path)
            if name == "M":
                arr[...] = np.frombuffer(raw, dtype="<f8").reshape(
                    arr.shape, order="F")
            else:
                arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, path))
        config_hash = _read_exact(fh, hlen, path).decode("utf-8")
        if fh.read(1):
            raise ModelFormatError(f"trailing bytes in model file {path}")
    return model, config_hash


def write_history_csv(path, history: list[EpochRecord], config_hash: str = ""):
    """Training curve as `epoch,train_mse,val_rmse` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        if config_hash:
            fh.write(f"# config {config_hash}\n")
        fh.write("epoch,train_mse,val_rmse\n")
        for rec in history:
            fh.write(f"{rec.epoch},{rec.train_mse!r},{rec.val_rmse!r}\n")

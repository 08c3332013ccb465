"""Sequence scorer tests: gate math, backpropagation, training, persistence."""

import math

import hashlib

import numpy as np
import pytest

from essayscore.config import Config
from essayscore.corpus import ScoreRange
from essayscore.errors import (ConfigError, DataError, ModelFormatError,
                               NumericalError)
from essayscore.lstm import (COLUMN_BLOCK, FORGET_BIAS, PREDICT_CHUNK,
                             ColumnGrad, LSTMLayer, RMSPropState, SeqModel,
                             _backward, _Layout, _n_params, _recur,
                             backward_columns, backward_inputs,
                             bptt, clip_gradients, forward_batch,
                             forward_essay,
                             load_model, predict, predict_batch,
                             rmsprop_update,
                             save_model, train_scorer)

from essayscore import lstm

import reference_lstm as ref
from conftest import (as_views, finite_difference, make_essay,
                      max_relative_error, traced_peak)
from reference_lstm import lstm_step


def build_model(vocab=9, embed_dim=3, seed=0, boost=3.0, mscale=0.5, **kw):
    """Small random model with weights scaled up so gradients are not tiny."""
    kw.setdefault("lstm_dim", 3)
    kw.setdefault("dropout", 0.0)
    kw.setdefault("peepholes", "off")
    cfg = Config(**kw)
    rng = np.random.default_rng(seed)
    M = rng.uniform(-mscale, mscale, size=(embed_dim, vocab))
    model = SeqModel.init(M, cfg, rng)
    for name, arr in model.named_arrays():
        if name != "M":
            arr *= boost
    return model


def zero_direction(in_dim, dim, peepholes):
    """The one direction of a fresh layer: zero weights, forget bias set."""
    model = SeqModel(np.zeros((in_dim, 1)),
                     [LSTMLayer(1, in_dim, dim, peepholes)], np.zeros(dim),
                     np.zeros(1), dropout=0.0)
    return ref.direction(model, 0, 0)


def sig(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestStep:
    def test_zero_layer_from_zero_state(self):
        layer = zero_direction(3, 2, "off")
        h, c = lstm_step(layer, [0.3, -0.1, 0.9], np.zeros(2), np.zeros(2))
        assert np.array_equal(c, np.zeros(2))
        assert np.array_equal(h, np.zeros(2))

    def test_zero_layer_carries_cell_through_forget_gate(self):
        layer = zero_direction(3, 2, "off")
        c_prev = np.array([0.4, -0.2])
        h, c = lstm_step(layer, np.zeros(3), np.zeros(2), c_prev)
        f = sig(FORGET_BIAS)
        assert np.allclose(c, f * c_prev, rtol=1e-15, atol=0)
        assert np.allclose(h, 0.5 * np.tanh(f * c_prev), rtol=1e-14, atol=0)

    def test_scalar_oracle(self):
        # transcribe the gate equations in plain python on a 1x1 layer
        layer = zero_direction(1, 1, "full")
        vals = dict(W_is=0.7, W_ih=-0.3, W_ic=0.2, b_i=0.1,
                    W_fs=-0.4, W_fh=0.6, W_fc=-0.1, b_f=1.0,
                    W_cs=1.1, W_ch=0.5, b_c=-0.2,
                    W_os=0.3, W_oh=-0.8, W_oc=0.25, b_o=0.05)
        for name, v in vals.items():
            ref.gate(layer, name)[...] = v
        s, h0, c0 = 0.9, -0.6, 0.8

        i = sig(vals["W_is"] * s + vals["W_ih"] * h0 + vals["W_ic"] * c0
                + vals["b_i"])
        f = sig(vals["W_fs"] * s + vals["W_fh"] * h0 + vals["W_fc"] * c0
                + vals["b_f"])
        u = math.tanh(vals["W_cs"] * s + vals["W_ch"] * h0 + vals["b_c"])
        c1 = i * u + f * c0
        o = sig(vals["W_os"] * s + vals["W_oh"] * h0 + vals["W_oc"] * c1
                + vals["b_o"])
        h1 = o * math.tanh(c1)

        h, c = lstm_step(layer, [s], [h0], [c0])
        assert c[0] == pytest.approx(c1, rel=1e-14)
        assert h[0] == pytest.approx(h1, rel=1e-14)

    def test_saturated_forget_gate_preserves_cell(self):
        layer = zero_direction(2, 3, "off")
        ref.gate(layer, "b_f")[...] = 50.0
        c_prev = np.array([1.3, -0.7, 0.2])
        _, c = lstm_step(layer, np.zeros(2), np.zeros(3), c_prev)
        assert np.allclose(c, c_prev, rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        layer = zero_direction(3, 2, "off")
        with pytest.raises(ValueError):
            lstm_step(layer, np.zeros(4), np.zeros(2), np.zeros(2))

    def test_forward_matches_repeated_steps(self):
        for peep in ("off", "diagonal", "full"):
            model = build_model(seed=7, peepholes=peep)
            tokens = [1, 4, 0, 7, 3, 4]
            _, cache = forward_essay(model, tokens)
            layer = ref.direction(model, 0, 0)
            seq = model.M[:, tokens].T
            h = np.zeros(layer.dim)
            c = np.zeros(layer.dim)
            for t in range(len(tokens)):
                h, c = lstm_step(layer, seq[t], h, c)
                # (step, direction, unit): one essay's rows are its steps
                assert np.allclose(cache.layers[0].H[t, 0], h, rtol=1e-12)
                assert np.allclose(cache.layers[0].C[t, 0], c, rtol=1e-12)

    def test_gate_activations_stay_in_range(self):
        model = build_model(seed=3, peepholes="full", boost=8.0)
        _, cache = forward_essay(model, [2, 5, 1, 8, 0, 6, 3])
        d = cache.layers[0]
        I, F, U, O = d.G  # (gate, step, direction, unit)
        for gate in (I, F, O):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(U) < 1.0)
        assert np.all(np.abs(d.H) < 1.0)


class TestForward:
    def test_single_token_equals_one_step(self):
        model = build_model(seed=1, peepholes="full")
        y, cache = forward_essay(model, [5])
        h, _ = lstm_step(ref.direction(model, 0, 0), model.M[:, 5],
                         np.zeros(model.lstm_dim), np.zeros(model.lstm_dim))
        assert np.allclose(cache.final[0], h, rtol=1e-12)
        assert y == pytest.approx(float(model.W_yh @ h + model.b_y[0]),
                                  rel=1e-12)

    def test_constant_head_ignores_tokens(self):
        model = build_model(seed=2)
        model.W_yh[...] = 0.0
        model.b_y[0] = 0.7
        for tokens in ([0], [3, 3, 3], [1, 2, 3, 4, 5, 6]):
            y, _ = forward_essay(model, tokens)
            assert y == 0.7

    def test_bidirectional_symmetry_under_reversal(self):
        # with both directions sharing weights and a half-symmetric head,
        # reading the essay backwards must give the same score
        model = build_model(seed=4, bidirectional=True, peepholes="full")
        for l in range(model.n_layers):
            fwd, bwd = ref.direction(model, l, 0), ref.direction(model, l, 1)
            for name in ("W_x", "W_h", "W_p", "b"):
                getattr(bwd, name)[...] = getattr(fwd, name)
        dim = model.lstm_dim
        model.W_yh[dim:] = model.W_yh[:dim]
        tokens = [3, 1, 4, 1, 5, 8, 2]
        y_fwd, _ = forward_essay(model, tokens)
        y_rev, _ = forward_essay(model, tokens[::-1])
        assert y_fwd == pytest.approx(y_rev, rel=1e-12)

    def test_empty_essay_rejected(self):
        model = build_model()
        with pytest.raises(DataError):
            forward_essay(model, [])

    def test_out_of_vocabulary_id_rejected(self):
        model = build_model(vocab=9)
        with pytest.raises(DataError):
            forward_essay(model, [2, 9])
        with pytest.raises(DataError):
            forward_essay(model, [-1])

    def test_training_dropout_needs_generator(self):
        model = build_model(dropout=0.5)
        with pytest.raises(ConfigError):
            forward_essay(model, [1, 2], training=True)

    def test_zero_dropout_training_equals_inference(self):
        model = build_model(dropout=0.0)
        y_eval, _ = forward_essay(model, [1, 2, 3])
        y_train, _ = forward_essay(model, [1, 2, 3], training=True)
        assert y_train == y_eval

    def test_dropout_is_seeded_and_active(self):
        model = build_model(seed=6, dropout=0.5, boost=5.0)
        tokens = [1, 2, 3, 4, 5, 6, 7, 8]
        y_a, _ = forward_essay(model, tokens, training=True,
                               rng=np.random.default_rng(11))
        y_b, _ = forward_essay(model, tokens, training=True,
                               rng=np.random.default_rng(11))
        y_c, _ = forward_essay(model, tokens, training=True,
                               rng=np.random.default_rng(12))
        y_eval, _ = forward_essay(model, tokens)
        assert y_a == y_b
        assert y_a != y_c or y_a != y_eval


VARIANTS = [dict(bidirectional=bi, layers=layers, peepholes=peep)
            for layers in (1, 2) for bi in (False, True)
            for peep in ("full", "diagonal", "off")] \
    + [dict(bidirectional=True, layers=2, peepholes="full", dropout=0.5)]


def variant_id(v):
    tag = "{}l{}-{}".format("bi" if v["bidirectional"] else "uni",
                            v["layers"], v["peepholes"])
    return tag + ("-dropout" if v.get("dropout") else "")


def fd_model(variant):
    model = build_model(vocab=8, embed_dim=3, seed=9, lstm_dim=2,
                        boost=8.0, mscale=1.0, **variant)
    # a saturated forget bias crushes its own gradient below the
    # resolution of finite differences, so flatten it for the check
    for l in range(model.n_layers):
        for k in range(2 if model.bidirectional else 1):
            ref.gate(ref.direction(model, l, k), "b_f")[...] = 0.3
    return model


def batch_pass(model, token_lists):
    """Forward pass; with dropout, the same masks on every call."""
    training = model.dropout > 0.0
    rng = np.random.default_rng(5) if training else None
    return forward_batch(model, token_lists, training=training, rng=rng)


def check_gradients(model, token_lists, golds):
    """Batched gradients of sum_b (y_b - gold_b)^2 against central differences.

    Both routes to ``M``'s gradient are checked: the training step's
    column sums and ``backward_inputs``'s per-token rows, added per column.
    """
    golds = np.asarray(golds)
    y, cache = batch_pass(model, token_lists)
    dy = 2.0 * (y - golds)
    grads, m_grad = backward_columns(model, cache, dy)
    cols, rows = ref.column_rows(m_grad)
    dense_m = np.zeros_like(model.M)
    dense_m[:, cols] = rows.T
    d_inputs = backward_inputs(model, cache, dy)

    def loss():
        y, _ = batch_pass(model, token_lists)
        return float(np.sum((y - golds) ** 2))

    numeric = finite_difference(loss, dict(model.named_arrays()))
    for m_grad in (dense_m, ref.dense_embedding_grad(model.M, cache.layout.ids,
                                                     d_inputs)):
        analytic = {"M": m_grad, **grads}
        assert analytic.keys() == numeric.keys()
        assert max_relative_error(analytic, numeric, floor=1e-6) <= 1e-4


class TestBackward:
    @pytest.mark.parametrize("variant", VARIANTS, ids=variant_id)
    def test_gradients_match_finite_differences(self, variant):
        model = fd_model(variant)
        tokens = [4, 2, 7, 2]
        gold = 1.0
        if model.dropout == 0.0:
            # bptt of forward_essay, the one-essay entry points
            y, cache = forward_essay(model, tokens)
            grads, d_inputs = bptt(model, cache, gold)
            analytic = {"M": ref.dense_embedding_grad(model.M, tokens,
                                                      d_inputs), **grads}

            def loss():
                y, _ = forward_essay(model, tokens)
                return (y - gold) ** 2

            numeric = finite_difference(loss, dict(model.named_arrays()))
            assert analytic.keys() == numeric.keys()
            assert max_relative_error(analytic, numeric, floor=1e-6) <= 1e-4
        else:
            check_gradients(model, [tokens], [gold])

    @pytest.mark.parametrize("variant", VARIANTS, ids=variant_id)
    def test_batch_gradients_match_finite_differences(self, variant):
        # lengths 1, 5 and 9 in one lockstep batch: padding, a one-step
        # essay and repeated tokens across essays
        check_gradients(fd_model(variant),
                        [[3], [4, 2, 7, 2, 5], [1, 6, 0, 3, 3, 7, 2, 5, 4]],
                        [1.0, -0.5, 0.25])

    def test_exact_prediction_gives_zero_gradients(self):
        model = build_model(seed=10, bidirectional=True, peepholes="full")
        y, cache = forward_essay(model, [1, 2, 3])
        grads, d_inputs = bptt(model, cache, y)
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(d_inputs == 0.0)

    def test_embedding_gradient_touches_only_seen_columns(self):
        model = build_model(vocab=9, seed=11)
        tokens = [3, 4, 5, 4]
        _, cache = forward_essay(model, tokens)
        dy = 2.0 * (cache.y - 0.9)
        _, m_grad = backward_columns(model, cache, dy)
        cols, rows = ref.column_rows(m_grad)
        _, d_inputs = bptt(model, cache, 0.9)
        assert list(cols) == [3, 4, 5]
        # a repeated token accumulates both positions
        assert np.allclose(rows[1], d_inputs[1] + d_inputs[3],
                           rtol=1e-12, atol=0)
        assert np.allclose(rows[0], d_inputs[0], rtol=1e-12, atol=0)

    def test_column_sums_are_bitwise_the_dense_scatter(self):
        # a 5-word vocabulary in long runs of one id, with a one-token
        # essay: each distinct word's sum of layer 0's gate gradients
        # depends on the addition order
        model = build_model(vocab=5, embed_dim=4, seed=12, lstm_dim=3,
                            bidirectional=True, peepholes="full")
        rng = np.random.default_rng(12)
        token_lists = [list(np.repeat(rng.integers(0, 4, size=L),
                                      rng.integers(1, 6, size=L)))
                       for L in (9, 14, 3)] + [[4]]
        y, cache = forward_batch(model, token_lists)
        _, dA, sums = _backward(model, cache, 1.0 - y)
        ids, cols = cache.layout.ids, cache.layout.cols
        assert list(cols) == [0, 1, 2, 3, 4]
        dense = np.zeros((5, dA.shape[1]))
        np.add.at(dense, ids, dA)
        assert sums.tobytes() == dense.tobytes()
        # the data tells the order apart: a sum that runs backwards gives
        # other bits
        backwards = np.zeros_like(dense)
        np.add.at(backwards, ids[::-1], dA[::-1])
        assert backwards.tobytes() != dense.tobytes()

    def test_dropout_mask_is_respected(self):
        # with a saved mask, gradients of masked-out units must vanish
        model = build_model(seed=12, dropout=0.5, boost=5.0)
        tokens = [1, 2, 3, 4]
        rng = np.random.default_rng(3)
        y, cache = forward_essay(model, tokens, training=True, rng=rng)
        grads, _ = bptt(model, cache, 0.0)
        mask = cache.masks[0]  # (T, width): one essay's rows are its steps
        dead = mask[len(tokens) - 1] == 0.0
        assert np.any(dead)
        assert np.all(grads["head.W_yh"][dead] == 0.0)


def normwise_error(a, b):
    """max |a - b| over max |b|: rounding error relative to the array's scale."""
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / scale) if scale > 0 else \
        float(np.max(np.abs(a)))


# "ragged": the running count changes at most steps, and two pairs of
# essays end on the same step; "runs": long runs of steps with the same
# running count, so the step loops walk segments of 1, 2, 4 and 5 steps
LENGTHS = {"B1-len1": (1,), "B1": (9,), "mixed": (1, 5, 9, 3),
           "equal": (4, 4),
           "ragged": (6, 13, 1, 9, 4, 11, 6, 2, 8, 12, 3, 9),
           "runs": (7, 7, 7, 3, 3, 12, 1, 12)}

# every architecture of VARIANTS, with dropout on
PIN_VARIANTS = [dict(v, dropout=0.5) for v in VARIANTS if "dropout" not in v]


def batch_case(variant, lengths):
    """A seeded model, essays of the given lengths and their gold scores."""
    model = build_model(vocab=14, embed_dim=5, seed=31, lstm_dim=3,
                        boost=4.0, **variant)
    rng = np.random.default_rng(8)
    token_lists = [list(rng.integers(0, 14, size=L)) for L in lengths]
    golds = rng.uniform(-1.0, 1.0, size=len(lengths))
    return model, token_lists, golds


def batch_passes(model, token_lists, golds):
    """One forward and backward pass; dropout masks drawn from seed 21."""
    y, cache = forward_batch(model, token_lists,
                             training=model.dropout > 0.0,
                             rng=np.random.default_rng(21))
    grads, d_inputs = bptt(model, cache, golds)
    return y, cache, grads, d_inputs


def pass_digest(variant, lengths):
    """sha256 over the outputs of both passes and of predict_batch."""
    model, token_lists, golds = batch_case(variant, lengths)
    y, _, grads, d_inputs = batch_passes(model, token_lists, golds)
    names = [name for name, _ in model.named_arrays() if name != "M"]
    assert sorted(names) == sorted(grads)
    digest = hashlib.sha256()
    for a in (y, d_inputs, *(grads[name] for name in names),
              predict_batch(model, token_lists)):
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class TestBatchMatchesReference:
    """The lockstep, fused-gate path against the per-essay, per-gate loop."""

    @pytest.mark.parametrize("lengths", list(LENGTHS.values()),
                             ids=list(LENGTHS))
    @pytest.mark.parametrize("variant", VARIANTS, ids=variant_id)
    def test_outputs_and_gradients(self, variant, lengths):
        model, token_lists, golds = batch_case(variant, lengths)
        training = model.dropout > 0.0
        y, cache, grads, d_inputs = batch_passes(model, token_lists, golds)

        # the reference draws its masks essay by essay from the same stream
        ref_rng = np.random.default_rng(21)
        ref_y, ref_d, ref_grads = [], [], {}
        for tokens, gold in zip(token_lists, golds):
            yr, c = ref.forward_essay(model, tokens, training=training,
                                      rng=ref_rng)
            g, d = ref.bptt(model, c, gold)
            ref_y.append(yr)
            ref_d.append(d)
            for name, arr in g.items():
                ref_grads[name] = ref_grads.get(name, 0.0) + arr
        assert normwise_error(y, np.array(ref_y)) <= 1e-12
        assert normwise_error(d_inputs, np.concatenate(ref_d)) <= 1e-12
        assert sorted(grads) == sorted(ref_grads)
        for name, g in ref_grads.items():
            assert grads[name].shape == g.shape, name
            assert normwise_error(grads[name], g) <= 1e-12, name

    # sha256 of y, d_inputs, every gradient in parameter order and
    # predict_batch on the same essays: the passes must not move a bit.
    # Retaken when layer 0's W_x gradient came to be summed per distinct
    # word (the one output that changed; every other one hashed the same)
    PINNED_PASSES = {
        "unil1-full-dropout-B1-len1":
            "129e45384cf9882cace53832ec435436e68c953941b837044c6170663af684c6",
        "unil1-full-dropout-B1":
            "e9406f041d0dbc0ff64c6607e5f999a9af498476e999330ba49a8a4c1e2ea5b8",
        "unil1-full-dropout-mixed":
            "6b74c8980c7d275c72b23542ec2f9c196c0c4bda95c81b384e518cdca86e8292",
        "unil1-full-dropout-equal":
            "bdd494957dd8b112ac0aa4e7947e27f01809c990e402ae9f6acc3f2bcc97e947",
        "unil1-full-dropout-ragged":
            "229dbd48387b6e950aefbe1b9b4cd3091af623d39f674ed7cb15b70a47e7ecc3",
        "unil1-diagonal-dropout-B1-len1":
            "ce06ca1d7b609ce150c88abe819d627f564abd3e7e06f47f3ebe203fcda7ff94",
        "unil1-diagonal-dropout-B1":
            "95292cbe028a229c6c6c30e3ff130b877b2f0e6137bd5f63f0cb6e286ff3b789",
        "unil1-diagonal-dropout-mixed":
            "6d10eb40eb35083dff915e7d4d6bac7ba8d89e711c803065f618a9dbe10d439c",
        "unil1-diagonal-dropout-equal":
            "c8041d81c9eec2124a4c20136f6a5b60783d921ba3930164ed8c0e9ce5d07cb6",
        "unil1-diagonal-dropout-ragged":
            "5469903f9a81693e58501fe9631bf8c2afb6239d430a6582680284665095441b",
        "unil1-off-dropout-B1-len1":
            "f861406e1c60fc8f4d028caf77a8ba5d41ce4a4b8d69d7bdc98f9de2feb5c513",
        "unil1-off-dropout-B1":
            "ad4b4d1c29bf58fd0d7e00e213edd75adf1c2c6127f855e8cec7deb9c6e826ac",
        "unil1-off-dropout-mixed":
            "6e7bc731144988bf14d07254db9842484722eb7aa96a6876d30787149f098395",
        "unil1-off-dropout-equal":
            "340ad0f1eb750664374b01a126aa023a7bf5d8ee1f60fab5cd630f00a7acbf83",
        "unil1-off-dropout-ragged":
            "5d2aac1c315350088477d06f38beb2b957def769580dbb7827dac479a1b1814d",
        "bil1-full-dropout-B1-len1":
            "183c82692e522993f5d32f52cdd4c8ac1886ea4a784ac3b5279e049bebbdd16a",
        "bil1-full-dropout-B1":
            "cc95cbdfdcbf9b2ff0e40bb04e3789241bf1f802309f068d4850b4d7cad387c1",
        "bil1-full-dropout-mixed":
            "e5828453788da1ddd11e9532b96ca2106a57397c638b394db30d63d905da0f9a",
        "bil1-full-dropout-equal":
            "2606a6b303abfe5d615275fb96a8da12d3870c67c18d5225d6481bd02206c76d",
        "bil1-full-dropout-ragged":
            "7e7146ef09ff661f8a1999caa8ab1458c5bf1733a3190f5c4d60c514d01bee1c",
        "bil1-diagonal-dropout-B1-len1":
            "654431ee62adf51bfabe3c192b263e00ad2258257ce2fbca97abafd663a1e770",
        "bil1-diagonal-dropout-B1":
            "749ea297e4bee1555b1852eac796ae6ffb2a3f7238e0920f9e8a05b883807ad9",
        "bil1-diagonal-dropout-mixed":
            "c6ba8fceb2bbce76e8280f76a25b749506c39303337129250f276d3ac2d746b9",
        "bil1-diagonal-dropout-equal":
            "345537c10851fe8742f7e60b0448b193cc81fa82ecd0093df1ab96add6df1e1a",
        "bil1-diagonal-dropout-ragged":
            "2f9bb5a6e7c3aeada3551149c75c2681ed0921863dfa4ddc5fc223ddb30b8b0f",
        "bil1-off-dropout-B1-len1":
            "beed176b3aa7a1c350cc50bcc98926f5f8b10a858e7e7a54b6d58a50a27f0e6e",
        "bil1-off-dropout-B1":
            "349ba56df26aecfcb22dc1f00ed28f1cbf0246d4e5602e2315787079d7e3d5b1",
        "bil1-off-dropout-mixed":
            "8a29b8f0710f51b185b931165748ffb8b51e0377afe54083580191706ae5ebbe",
        "bil1-off-dropout-equal":
            "e24453707f050764b8167b5e88731fdefaa179a67708e60a93ed6959311039dc",
        "bil1-off-dropout-ragged":
            "8cf77238a2e1f46f3aa7d909230dc6d8770e871f17c3e23f5cf2f90da27219ef",
        "unil2-full-dropout-B1-len1":
            "2cb6b76745fd8e44fdf031f467463957c725e11bad3b851d72c76c69d7e4a581",
        "unil2-full-dropout-B1":
            "a96cc3cfb5aa4a9740926116a5bec693891cbac9cc41b0020d01cf1ea4b999fa",
        "unil2-full-dropout-mixed":
            "22b6c7c3e58a3e205917c37ec6304e4c64c99978a0cd70404fe52dd51a0dcbc9",
        "unil2-full-dropout-equal":
            "ba4fea746207d662f7f7a43e1962f1b01ad2befb44992f76379d70eed4f3f32d",
        "unil2-full-dropout-ragged":
            "b6d17d8946f5a55b74211ce1b2cc8d75767acfbc6a07dcfb0b2aa39168c0c360",
        "unil2-diagonal-dropout-B1-len1":
            "802161e4b00a2574645cd293a71b64aac407842d003ef4d7efa5fe9fecbf200b",
        "unil2-diagonal-dropout-B1":
            "ac34932cedb55fe1fd19f75fbcf7f7c9b2d901edeb4c19d2d87a07104e5e822a",
        "unil2-diagonal-dropout-mixed":
            "58bee6e3460b9bcaec7b66f1f094f2ba9a0c89331acb86859565207935df5be1",
        "unil2-diagonal-dropout-equal":
            "59438ec7f3779018898781b920f0e6ba3d9519d5805a5b3444fa0880f13ecb2c",
        "unil2-diagonal-dropout-ragged":
            "b383f54e4f48f8aafd99e5d4ada4ef55f02722d24bb02138f96d59729634af95",
        "unil2-off-dropout-B1-len1":
            "123cd550d28872a4253021a35fba9a330de20f4f19eeca14b6b5c79bf3d4845a",
        "unil2-off-dropout-B1":
            "bb0b75a6043b2f1ad09ee36f421bc9839a47de72d71b7ff57506b7c567d29faf",
        "unil2-off-dropout-mixed":
            "49d9c4865d1202c0f8a3b2ac427fbf56f0a68412e2e7a08029bc94a4fcfcc204",
        "unil2-off-dropout-equal":
            "de76b19f212717439e51d639156e264f212d582da6ffa7c90c5adb1583cc666b",
        "unil2-off-dropout-ragged":
            "9a57a57d4829b7391663b0e1f9033650ad8d002bb2d904b63956197aa641925c",
        "bil2-full-dropout-B1-len1":
            "6b395f4b2eb38caf2007131add776320ac332254cf63da5720b50dce8d153fd5",
        "bil2-full-dropout-B1":
            "057823912e4b6079a47f97c0771c0111a4b0b3a48f46f69e6732710805231294",
        "bil2-full-dropout-mixed":
            "3ff780d6f4989a387ad47fa00b8ab3cc272af57ea5897a81ffe341c255242ece",
        "bil2-full-dropout-equal":
            "46147ebc52519b2e1499fb8c6fdf2a8b953cda7242a84bd17028c2082c8df360",
        "bil2-full-dropout-ragged":
            "ab2855d8c9862be9cbf7a12eed1d57587737039b7cf70101db8f525f4c35f8a5",
        "bil2-diagonal-dropout-B1-len1":
            "046ae60fd05ca11e1846d3f15f9302892586838fd7d2433091a758b7d4e76d72",
        "bil2-diagonal-dropout-B1":
            "80095581e54af50c0bb6b37404f28c4ca8bbca839133054aea7ccc6f31343fc5",
        "bil2-diagonal-dropout-mixed":
            "b62ef176a7db31d66def64f01257646bf73f7a312cb2ebd3aea803c4d76675e2",
        "bil2-diagonal-dropout-equal":
            "65aabf51b0e09e237f8191dc0f37993916882a73e099bddbd89b322cca7fa1ab",
        "bil2-diagonal-dropout-ragged":
            "19a47aaec86fe75ae63d08e1f978a9aaf21a99f0d2e6ae47fcdf2bb5be46555d",
        "bil2-off-dropout-B1-len1":
            "1dd68e8f9aaffd420c99d3509d8862f67a083779cd219e924df77e551f71e497",
        "bil2-off-dropout-B1":
            "f3e1d6b33c401de3435b80bae26708d20560b94d978d3835e4f7447b42c2a5cf",
        "bil2-off-dropout-mixed":
            "36e152cd92274a976a07778c87a1fd95c2727c7341ef30ea86d9a16bfe0d985f",
        "bil2-off-dropout-equal":
            "6b04ef2d999d126143580fd69ddc644d0a2b8eb7bb43130edfccc74066262f63",
        "bil2-off-dropout-ragged":
            "aad26d0f2c2967595981dd723cfac78a92cb68b64d61489c0002ca61cdc70471",
        # taken with the pins above, before the loops walked segments
        "unil1-full-dropout-runs":
            "f7490a14984d3d1de2ff3800cb959c9e62001b19a161d20aab4c93236547f766",
        "unil1-diagonal-dropout-runs":
            "54ccb14e55210264bcecb4cfcacc2ad59a0f774a73bf08ee25c8fb07f552e991",
        "unil1-off-dropout-runs":
            "01e5fca2c7957b031c76ea4e649a5421c00dc2add522894bc9baa0531ec4c345",
        "bil1-full-dropout-runs":
            "5afc09a06de0ce2ad9cbdb03b63e3d88c95b0ad7667d3fe070971b7e7263c5c4",
        "bil1-diagonal-dropout-runs":
            "9cf30c1c362a0ca8b22877d66c59bef094ea07c46d017470f33860de6053df09",
        "bil1-off-dropout-runs":
            "cecdfe7d2e0efe7caf2854c3df6e55c0adccf24c96ce4f573b89258bc44ec6f0",
        "unil2-full-dropout-runs":
            "d42e02de9d600530e52ed6e650867b9836f1af7ed353dc3db530bb1eaf014468",
        "unil2-diagonal-dropout-runs":
            "db9a81b0a6065eb2beec57845d4e847b9320894a372fc209b8b9cd730547bd47",
        "unil2-off-dropout-runs":
            "4223947db379b8b521ae757fa8d2b103cf529ed6f73fbc242b2bfd15a3408df4",
        "bil2-full-dropout-runs":
            "947bf38043f1895fd755e6eb6463a6d29dba3f59c85cc2b6e8873fffabd0aa47",
        "bil2-diagonal-dropout-runs":
            "8b53b84c3eb207ab02262b8768e7c9373cfefc2411f245c0423e864e05888a6f",
        "bil2-off-dropout-runs":
            "dad4546f289d323af79c785e33e27a1e7cc6351b3e2691ad20070cfe1c59fe5d",
    }

    @pytest.mark.parametrize("lengths", list(LENGTHS))
    @pytest.mark.parametrize("variant", PIN_VARIANTS, ids=variant_id)
    def test_passes_are_pinned(self, variant, lengths):
        assert pass_digest(variant, LENGTHS[lengths]) \
            == self.PINNED_PASSES[f"{variant_id(variant)}-{lengths}"]

    @pytest.mark.parametrize("lengths", list(LENGTHS))
    @pytest.mark.parametrize("variant", PIN_VARIANTS, ids=variant_id)
    def test_recur_gives_the_same_H_with_and_without_keep(self, variant,
                                                          lengths):
        # the two branches of the step loop: with keep each step writes
        # its C and TC rows and copies its gate block out, without it two
        # cell buffers take turns and the gates stay in one block
        model, token_lists, _ = batch_case(variant, LENGTHS[lengths])
        layout = _Layout.of(model, token_lists)
        rng = np.random.default_rng(5)
        for layer in model.layers:
            G = rng.uniform(-2.0, 2.0, size=(layout.ids.size,
                                             layer.W_h.shape[0],
                                             4 * layer.dim))
            before = G.tobytes()
            kept = _recur(layer.W_h, layer.W_p, G, layout.offsets, True)
            bare = _recur(layer.W_h, layer.W_p, G, layout.offsets, False)
            assert bare[:3] == (None, None, None)
            assert kept[3].tobytes() == bare[3].tobytes()
            assert G.tobytes() == before

    @pytest.mark.parametrize("lengths", list(LENGTHS.values()),
                             ids=list(LENGTHS))
    @pytest.mark.parametrize("variant", VARIANTS, ids=variant_id)
    def test_column_sums_match_the_per_token_route(self, variant, lengths):
        # the training step sums layer 0's gate gradients per distinct word
        # before projecting them; that is a reordering of the per-token
        # route's sums, equal within rounding
        model, token_lists, golds = batch_case(variant, lengths)
        y, cache = forward_batch(model, token_lists,
                                 training=model.dropout > 0.0,
                                 rng=np.random.default_rng(21))
        dy = 2.0 * (y - golds)
        grads, m_grad = backward_columns(model, cache, dy)
        cols, rows = ref.column_rows(m_grad)
        want_cols, want_rows, want_W_x = ref.per_token_columns(model, cache,
                                                               dy)
        assert cols.tobytes() == want_cols.tobytes()
        assert normwise_error(rows, want_rows) <= 1e-12
        prefixes = ("fwd", "bwd") if model.bidirectional else ("fwd",)
        W_x = np.concatenate([grads[f"{p}0.W_x"] for p in prefixes])
        assert normwise_error(W_x, want_W_x) <= 1e-12
        # bptt returns the same gradients, and backward_inputs its input
        # gradients
        same, d_inputs = bptt(model, cache, golds)
        assert all(same[name].tobytes() == g.tobytes()
                   for name, g in grads.items())
        assert backward_inputs(model, cache, dy).tobytes() \
            == d_inputs.tobytes()

    @pytest.mark.parametrize("variant", VARIANTS, ids=variant_id)
    def test_predict_batch_over_several_chunks(self, variant):
        model, _, _ = batch_case(variant, ())
        rng = np.random.default_rng(12)
        lengths = np.concatenate(([1, 1, 1], rng.integers(1, 16, size=37)))
        rng.shuffle(lengths)
        assert lengths.size > PREDICT_CHUNK
        token_lists = [list(rng.integers(0, 14, size=L)) for L in lengths]
        got = predict_batch(model, token_lists)
        want = [ref.forward_essay(model, tokens)[0] for tokens in token_lists]
        assert normwise_error(got, np.array(want)) <= 1e-12

    def test_empty_essay_or_batch_rejected(self):
        model = build_model()
        with pytest.raises(DataError):
            forward_batch(model, [[1, 2], []])
        with pytest.raises(DataError):
            forward_batch(model, [])


class TestNamedArrays:
    def test_layer_arrays_are_views_of_the_stacked_buffers(self):
        model = build_model(seed=14, bidirectional=True, layers=2,
                            peepholes="full")
        buffers = [w for layer in model.layers
                   for w in (layer.W_x, layer.W_h, layer.W_p, layer.b)]
        names = []
        for name, arr in model.named_arrays():
            if name == "M" or name.startswith("head."):
                continue
            names.append(name)
            assert any(np.shares_memory(arr, w) for w in buffers), name
        assert names[:8] == [f"fwd{l}.{b}" for l in (0, 1)
                             for b in ("W_x", "W_h", "W_p", "b")]

    def test_write_through_get_array_changes_the_output(self):
        model = build_model(seed=15, bidirectional=True, layers=2,
                            peepholes="diagonal", boost=4.0)
        tokens = [1, 4, 2, 7]
        y_before, _ = forward_essay(model, tokens)
        model.get_array("bwd1.W_p")[...] += 0.5
        y_after, _ = forward_essay(model, tokens)
        assert y_after != y_before


class TestCopy:
    def test_copy_is_deep_and_exact(self):
        model = build_model(seed=13, bidirectional=True, layers=2,
                            peepholes="diagonal", dropout=0.3)
        clone = model.copy()
        for (name, a), (cname, b) in zip(model.named_arrays(),
                                         clone.named_arrays()):
            assert name == cname
            assert np.array_equal(a, b)
        clone.M[0, 0] += 1.0
        ref.gate(ref.direction(clone, 0, 0), "W_is")[0, 0] += 1.0
        assert model.M[0, 0] != clone.M[0, 0]
        assert ref.gate(ref.direction(model, 0, 0), "W_is")[0, 0] \
            != ref.gate(ref.direction(clone, 0, 0), "W_is")[0, 0]


def loaded(tmp_path, model):
    """``model`` saved and loaded again: a model that counts towards a
    projection table."""
    path = tmp_path / "model.sats"
    save_model(path, model)
    return load_model(path)[0]


def build_table(model):
    """Project every word until the loaded model builds its table, which
    shows as its ``M`` turning read-only."""
    for _ in range(2):
        predict_batch(model, [list(range(model.vocab_size))])
    assert not model.M.flags.writeable


def table_outputs(model, token_lists, dy):
    """predict_batch's scores, forward_batch's, backward_inputs's rows."""
    y, cache = forward_batch(model, token_lists)
    return (predict_batch(model, token_lists), y,
            backward_inputs(model, cache, dy))


class TestProjectionTable:
    """A loaded model reads layer 0's projections from a per-word table
    once it has projected V distinct-word rows; a model from
    ``SeqModel.init`` always multiplies."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=variant_id)
    def test_outputs_agree_with_the_product(self, tmp_path, variant):
        model, token_lists, golds = batch_case(variant, LENGTHS["ragged"])
        table = loaded(tmp_path, model)
        build_table(table)
        for got, want in zip(table_outputs(table, token_lists, golds),
                             table_outputs(model, token_lists, golds)):
            assert normwise_error(got, want) <= 1e-12

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_outputs_are_bitwise_the_product_above_blas_small(
            self, tmp_path, bidirectional):
        # table rows round as a per-batch product's do once BLAS takes its
        # blocked kernel for both: U = 230 distinct words at D 200; a
        # 2,000-word table is also split over threads when BLAS has them
        model = build_model(vocab=2000, embed_dim=200, seed=33, lstm_dim=10,
                            boost=1.0, bidirectional=bidirectional)
        rng = np.random.default_rng(4)
        words = rng.permutation(2000)[:230]
        token_lists = [list(words) + list(words[:20]), list(words[100:140])]
        table = loaded(tmp_path, model)
        build_table(table)
        dy = np.array([0.5, -1.5])
        for got, want in zip(table_outputs(table, token_lists, dy),
                             table_outputs(model, token_lists, dy)):
            assert got.tobytes() == want.tobytes()

    def test_built_once_V_rows_are_projected(self, tmp_path):
        # each pass without a table counts its distinct words; a one-shot
        # predict over fewer than V of them builds none
        model = loaded(tmp_path, build_model(vocab=14, embed_dim=5))
        essays = [make_essay([1, 2, 3]), make_essay([3, 4, 5, 6])]
        ranges = {1: ScoreRange(0, 10)}
        first = predict(model, essays, ranges)
        for _ in range(2):  # 6, then 12 of 14 rows counted before the pass
            predict(model, essays, ranges)
            assert model.M.flags.writeable
        last = predict(model, essays, ranges)
        assert not model.M.flags.writeable
        assert normwise_error(last, first) <= 1e-12

    def test_table_arrays_are_read_only(self, tmp_path):
        model = loaded(tmp_path, build_model(vocab=14, embed_dim=5))
        build_table(model)
        with pytest.raises(ValueError, match="read-only"):
            model.M[0, 3] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.layers[0].W_x[0, 0, 0] = 1.0
        # written through get_array, the new weights reach the output
        tokens = [[1, 4, 3, 7]]
        model.get_array("M")[:, 3] += 0.5
        model.get_array("fwd0.W_x")[0, 0] += 0.5
        want = build_model(vocab=14, embed_dim=5)
        want.M[:, 3] += 0.5
        want.layers[0].W_x[0, 0, 0] += 0.5
        assert predict_batch(model, tokens).tobytes() \
            == predict_batch(want, tokens).tobytes()

    @pytest.mark.parametrize("access", ["named_arrays", "get_array", "copy"])
    def test_access_to_the_arrays_ends_the_table(self, tmp_path, access):
        model = loaded(tmp_path, build_model(vocab=14, embed_dim=5))
        build_table(model)
        if access == "named_arrays":
            models = [model]
            dict(model.named_arrays())
        elif access == "get_array":
            models = [model]
            model.get_array("head.b_y")
        else:
            models = [model, model.copy()]
        for m in models:
            for _ in range(3):
                predict_batch(m, [list(range(14))])
            assert m.M.flags.writeable
            assert m.layers[0].W_x.flags.writeable

    @pytest.mark.parametrize("name", ["M", "W_x"])
    def test_reassigned_arrays_are_projected_afresh(self, tmp_path, name):
        model = loaded(tmp_path, build_model(vocab=14, embed_dim=5))
        build_table(model)
        owner = model if name == "M" else model.layers[0]
        old = getattr(owner, name)
        setattr(owner, name, old * 2.0)
        tokens = [[1, 4, 3, 7]]
        got = predict_batch(model, tokens)
        assert old.flags.writeable
        want = SeqModel(model.M, model.layers, model.W_yh, model.b_y,
                        model.dropout)
        assert got.tobytes() == predict_batch(want, tokens).tobytes()

    def test_init_model_builds_no_table(self, monkeypatch):
        # straight from init: build_model's named_arrays would end a table
        rng = np.random.default_rng(20)
        cfg = Config(lstm_dim=3, dropout=0.0, peepholes="off", epochs=3,
                     learning_rate=0.01, batch_size=4)
        model = SeqModel.init(rng.uniform(-0.5, 0.5, size=(3, 9)), cfg, rng)
        for _ in range(3):
            predict_batch(model, [list(range(9))])
        assert model.M.flags.writeable
        # nor do train_scorer's validation predicts, each epoch
        writable = []
        real = lstm.predict

        def spy(model, *args, **kwargs):
            out = real(model, *args, **kwargs)
            writable.append(model.M.flags.writeable)
            return out

        monkeypatch.setattr(lstm, "predict", spy)
        train, val, ranges = toy_corpus()
        train_scorer(model, train, val, ranges, cfg)
        assert writable == [True] * 3


class TestOptimizer:
    def test_state_covers_every_array(self):
        model = build_model(bidirectional=True, layers=2, peepholes="full")
        state = RMSPropState.for_model(model, Config())
        names = [n for n, _ in model.named_arrays()]
        assert sorted(state.acc) == sorted(names)
        assert all(np.all(a == 0.0) for a in state.acc.values())

    def test_first_step_formula(self):
        w = np.array([1.0, 2.0, 3.0])
        g = np.array([0.5, -0.25, 0.0])
        state = RMSPropState(acc={"w": np.zeros(3)}, rho=0.9, eps=1e-8,
                             eta=0.1, fresh=True)
        rmsprop_update(state, {"w": w}, {"w": g})
        acc = 0.1 * g * g
        assert np.allclose(state.acc["w"], acc, rtol=1e-15)
        assert np.allclose(w, np.array([1.0, 2.0, 3.0])
                           - 0.1 * g / np.sqrt(acc + 1e-8), rtol=1e-15)

    def test_missing_gradient_is_a_key_error_naming_the_array(self):
        state = RMSPropState(acc={"w": np.zeros(2), "b": np.zeros(1)},
                             rho=0.9, eps=1e-8, eta=0.1, fresh=True)
        with pytest.raises(KeyError, match="'b'"):
            rmsprop_update(state, {"w": np.ones(2), "b": np.ones(1)},
                           {"w": np.ones(2)})

    def test_identical_gradients_give_identical_updates(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.5, 0.5])
        g = np.array([0.3, -0.2])
        state = RMSPropState(acc={"a": np.zeros(2), "b": np.zeros(2)},
                             rho=0.9, eps=1e-8, eta=0.05, fresh=True)
        rmsprop_update(state, {"a": a, "b": b}, {"a": g, "b": g.copy()})
        assert np.array_equal(a, b)

    def test_column_step_is_bitwise_the_dense_rule(self):
        # a state from for_model over several steps, every array stepped
        # in every step: the first skips every decay, the later ones not
        rng = np.random.default_rng(17)
        V = 3 * COLUMN_BLOCK
        model = build_model(vocab=V, embed_dim=4, seed=17)
        model.M = np.asfortranarray(model.M)
        model.M[0, 5] = -0.0
        oracle = model.copy()
        cfg = Config(learning_rate=0.01)
        state, ref_state = (RMSPropState.for_model(m, cfg)
                            for m in (model, oracle))
        assert state.acc["M"].flags.f_contiguous
        width = model.layers[0].W_x.shape[1]
        # one column; a few columns; two blocks and a row, in blocks with
        # no single row; one whole block; every column
        for U in (1, 3, 2 * COLUMN_BLOCK + 1, COLUMN_BLOCK, V):
            grads = {name: rng.normal(size=a.shape)
                     for name, a in model.named_arrays() if name != "M"}
            dense = {name: g.copy() for name, g in grads.items()}
            cols = np.sort(rng.choice(V, size=U, replace=False))
            sums = rng.normal(size=(U, width))
            sums[U // 2] = 0.0  # a touched column with a zero gradient
            grads["M"] = ColumnGrad(cols, sums, rng.normal(size=(width, 4)))
            grads["M"] *= 0.5
            grads["M"] *= 0.75
            dense["M"] = np.zeros_like(model.M)
            dense["M"][:, cols] = ref.column_rows(grads["M"])[1].T
            rmsprop_update(state, dict(model.named_arrays()), grads)
            ref.dense_rmsprop_update(ref_state, dict(oracle.named_arrays()),
                                     dense)
            assert state.fresh is False
        for (name, got), (_, want) in zip(model.named_arrays(),
                                          oracle.named_arrays()):
            assert got.tobytes() == want.tobytes(), name
            assert state.acc[name].tobytes() \
                == ref_state.acc[name].tobytes(), name

    @pytest.mark.parametrize("U,width,D", [
        (1, 12, 200), (2, 12, 200), (COLUMN_BLOCK + 1, 12, 200),
        (3 * COLUMN_BLOCK + 1, 40, 200), (6300, 80, 200), (300, 24, 3),
        (1576, 24, 12), (5014, 24, 12), (6300, 40, 4), (6300, 40, 1)])
    def test_column_blocks_are_the_rows_of_one_product(self, U, width, D):
        # bit for bit, scaled by every factor in turn: a lone last row, a
        # whole product past BLAS's small-matrix size with blocks that
        # would be under it, row tiles that must line up, and D = 1
        rng = np.random.default_rng(U + width + D)
        cols = np.arange(U) * 2
        sums, W = rng.normal(size=(U, width)), rng.normal(size=(width, D))
        m_grad = ColumnGrad(cols, sums, W)
        m_grad *= 0.25
        m_grad *= 3.0
        blocks = [(c.copy(), r.copy()) for c, r in m_grad.blocks()]
        assert all(c[0] % (2 * COLUMN_BLOCK) == 0 for c, _ in blocks)
        assert min(c.size for c, _ in blocks) > 1 or U == 1
        assert np.concatenate([c for c, _ in blocks]).tobytes() \
            == cols.tobytes()
        want = sums @ W
        want *= 0.25
        want *= 3.0
        assert np.concatenate([r for _, r in blocks]).tobytes() \
            == want.tobytes()

    def test_clip_rescales_to_global_norm(self):
        g1 = np.full((2, 2), 3.0)
        g2 = np.full(4, 4.0)
        grads = {"a": g1, "b": g2}
        norm = math.sqrt(4 * 9.0 + 4 * 16.0)
        assert clip_gradients(grads, 0.0) == pytest.approx(norm)
        assert np.all(g1 == 3.0)
        returned = clip_gradients(grads, norm / 2)
        assert returned == pytest.approx(norm)
        total = sum(float((g * g).sum()) for g in grads.values())
        assert math.sqrt(total) == pytest.approx(norm / 2)


class TestTrainingStepMemory:
    """One training step holds each (N, D) token-by-embedding array once.

    A fixed batch at the paper's embedding width D = 200 with a narrow
    layer, so one (N, D) array outweighs all of a layer's gate arrays,
    and with more distinct words than three column blocks hold. ``M`` is
    column-major, as trained and loaded models hold it.
    """

    D = 200

    def batch(self):
        model = build_model(vocab=450, embed_dim=self.D, seed=21,
                            lstm_dim=5, bidirectional=True, layers=2,
                            peepholes="full", dropout=0.5)
        model.M = np.asfortranarray(model.M)
        rng = np.random.default_rng(4)
        token_lists = [list(rng.integers(0, 450, size=L))
                       for L in rng.integers(200, 300, size=12)]
        y, cache = forward_batch(model, token_lists, training=True,
                                 rng=np.random.default_rng(5))
        N, U = cache.layout.ids.size, cache.layout.cols.size
        assert U > 3 * COLUMN_BLOCK
        gates = 8 * N * 2 * 4 * model.lstm_dim  # one (N, K, 4H) array
        return model, cache, y, gates

    def test_backward_holds_one_token_by_embedding_array(self):
        model, cache, y, gates = self.batch()
        N = cache.layout.ids.size
        peak = traced_peak(bptt, model, cache, y + 0.5)
        # the (N, D) input gradients it returns plus the gate arrays
        assert peak < 8 * N * self.D + 4 * gates

    def test_input_gradients_alone_hold_no_parameter_gradient(self):
        model, cache, y, gates = self.batch()
        N = cache.layout.ids.size
        peak = traced_peak(backward_inputs, model, cache, 1.0 - y)
        # the (N, D) input gradients it returns and the one gate array
        # they are projected from
        assert peak < 8 * N * self.D + 1.25 * gates

    def test_training_step_holds_no_token_by_embedding_array(self):
        model, cache, y, gates = self.batch()
        N, U = cache.layout.ids.size, cache.layout.cols.size
        state = RMSPropState.for_model(model, Config(learning_rate=0.01))
        arrays = dict(model.named_arrays())

        def step():
            grads, m_grad = backward_columns(model, cache, 1.0 - y)
            grads["M"] = m_grad
            rmsprop_update(state, arrays, grads)

        peak = traced_peak(step)
        # the gate arrays, plus the rows of M that layer 0's W_x gradient
        # reads: M's own gradient adds no (U, D) array, and there is not
        # one (N, D) array
        bound = 4 * gates + 8 * U * self.D
        assert bound < 8 * N * self.D
        assert peak < bound

    def test_column_step_holds_three_column_blocks(self):
        rng = np.random.default_rng(9)
        V, U, width = 800, 4 * COLUMN_BLOCK + 17, 40
        cols = np.sort(rng.choice(V, size=U, replace=False))
        m_grad = ColumnGrad(cols, rng.normal(size=(U, width)),
                            rng.normal(size=(width, self.D)))
        M = np.asfortranarray(rng.normal(size=(self.D, V)))
        state = RMSPropState(acc={"M": np.zeros_like(M)}, rho=0.9, eps=1e-8,
                             eta=0.01, fresh=True)

        def step():
            clip_gradients({"M": m_grad}, 1.0)
            rmsprop_update(state, {"M": M}, {"M": m_grad})

        peak = traced_peak(step)
        # the largest block's rows and the step's two buffers of its size
        bound = 3.25 * 8 * m_grad.height * self.D
        assert bound < 8 * U * self.D
        assert peak < bound


def toy_corpus():
    """Essays whose score is decided by a single marker token."""
    r = ScoreRange(0, 10)
    train, val = [], []
    k = 0
    for marker, score in ((3, 9.0), (4, 1.0), (5, 6.0), (6, 3.0)):
        for rep in range(3):
            tokens = [7, marker, 8, marker, 2 + rep]
            essay = make_essay(tokens, essay_id=k, raw=score, score_range=r)
            (train if rep < 2 else val).append(essay)
            k += 1
    return train, val, {1: r}


class TestTraining:
    def test_zero_epochs_returns_initial_model(self):
        train, val, ranges = toy_corpus()
        model = build_model(vocab=9, seed=20)
        before = {n: a.copy() for n, a in model.named_arrays()}
        cfg = Config(lstm_dim=3, dropout=0.0, peepholes="off", epochs=0)
        best, history = train_scorer(model, train, val, ranges, cfg)
        assert history == []
        for name, arr in best.named_arrays():
            assert np.array_equal(arr, before[name])

    def test_zero_learning_rate_keeps_weights(self):
        train, val, ranges = toy_corpus()
        model = build_model(vocab=9, seed=21)
        before = {n: a.copy() for n, a in model.named_arrays()}
        cfg = Config(lstm_dim=3, dropout=0.0, peepholes="off", epochs=3,
                     learning_rate=0.0, batch_size=4)
        best, history = train_scorer(model, train, val, ranges, cfg)
        assert len(history) == 3
        for name, arr in best.named_arrays():
            assert np.array_equal(arr, before[name])

    def test_training_is_deterministic(self):
        train, val, ranges = toy_corpus()
        cfg = Config(lstm_dim=4, dropout=0.4, peepholes="full",
                     learning_rate=0.01, epochs=5, batch_size=4, seed=5)
        runs = []
        for _ in range(2):
            model = build_model(vocab=9, seed=22, lstm_dim=4, dropout=0.4,
                                peepholes="full")
            runs.append(train_scorer(model, train, val, ranges, cfg))
        (best_a, hist_a), (best_b, hist_b) = runs
        for (name, a), (_, b) in zip(best_a.named_arrays(),
                                     best_b.named_arrays()):
            assert np.array_equal(a, b), name
        assert hist_a == hist_b

    def test_loss_decreases_on_learnable_data(self):
        train, val, ranges = toy_corpus()
        model = build_model(vocab=9, embed_dim=6, seed=23, lstm_dim=6,
                            boost=1.0)
        cfg = Config(lstm_dim=6, dropout=0.0, peepholes="off",
                     learning_rate=0.01, epochs=40, batch_size=4, seed=1)
        _, history = train_scorer(model, train, val, ranges, cfg)
        assert history[-1].train_mse < 0.5 * history[0].train_mse
        assert min(h.val_rmse for h in history) < history[0].val_rmse

    def test_patience_stops_training_early(self):
        train, val, ranges = toy_corpus()
        model = build_model(vocab=9, seed=24)
        cfg = Config(lstm_dim=3, dropout=0.0, peepholes="off",
                     learning_rate=0.0, epochs=50, patience=2,
                     batch_size=4)
        _, history = train_scorer(model, train, val, ranges, cfg)
        assert len(history) == 3

    def test_empty_sets_rejected(self):
        train, val, ranges = toy_corpus()
        model = build_model(vocab=9)
        cfg = Config(lstm_dim=3, dropout=0.0)
        with pytest.raises(ConfigError):
            train_scorer(model, [], val, ranges, cfg)
        with pytest.raises(ConfigError):
            train_scorer(model, train, [], ranges, cfg)

    @pytest.mark.parametrize("clip_norm", [-1.0, float("nan"), float("inf")])
    def test_clip_norm_must_be_finite_and_non_negative(self, clip_norm):
        train, val, ranges = toy_corpus()
        cfg = Config(lstm_dim=3, dropout=0.0, clip_norm=clip_norm)
        with pytest.raises(ConfigError, match="clip_norm"):
            train_scorer(build_model(vocab=9), train, val, ranges, cfg)

    def test_unknown_essay_set_rejected(self):
        train, val, ranges = toy_corpus()
        stray = make_essay([1, 2], essay_id=99, set_id=4, raw=2.0)
        model = build_model(vocab=9)
        cfg = Config(lstm_dim=3, dropout=0.0)
        with pytest.raises(DataError):
            train_scorer(model, train + [stray], val, ranges, cfg)

    def test_non_finite_loss_raises(self):
        train, val, ranges = toy_corpus()
        model = build_model(vocab=9, seed=25)
        model.b_y[0] = np.nan
        cfg = Config(lstm_dim=3, dropout=0.0, peepholes="off", epochs=2,
                     batch_size=4)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericalError):
                train_scorer(model, train, val, ranges, cfg)


def mixed_corpus(vocab_used=12):
    """Essays of lengths 1-9 over the first ``vocab_used`` ids."""
    r = ScoreRange(0, 10)
    rng = np.random.default_rng(3)
    lengths = [1, 4, 7, 2, 9, 5, 3, 8, 6, 2]
    essays = [make_essay(rng.integers(0, vocab_used, size=L), essay_id=k,
                         raw=float(rng.integers(0, 11)), score_range=r)
              for k, L in enumerate(lengths)]
    return essays[:8], essays[8:], {1: r}


class TestTrainingMatchesReference:
    @staticmethod
    def epoch_against_reference(clip_norm):
        """One epoch of both loops; returns the reference's clipped steps."""
        train, val, ranges = mixed_corpus()
        cfg = Config(lstm_dim=3, layers=2, bidirectional=True,
                     peepholes="full", dropout=0.5, learning_rate=0.01,
                     epochs=1, batch_size=3, seed=4, clip_norm=clip_norm)
        model = build_model(vocab=16, embed_dim=4, seed=33, lstm_dim=3,
                            layers=2, bidirectional=True, peepholes="full",
                            dropout=0.5, boost=2.0)
        oracle = model.copy()
        best, history = train_scorer(model, train, val, ranges, cfg)

        rng = np.random.default_rng(cfg.seed)
        state = RMSPropState.for_model(oracle, cfg)
        sq_sum, clipped = ref.train_epoch(oracle, train, cfg, rng, state)
        assert history[0].train_mse == pytest.approx(sq_sum / len(train),
                                                     rel=1e-10)
        for (name, a), (_, b) in zip(best.named_arrays(),
                                     oracle.named_arrays()):
            assert normwise_error(a, b) <= 1e-10, name
        return clipped

    def test_one_epoch_follows_the_per_essay_loop(self):
        assert self.epoch_against_reference(0.0) == 0

    def test_clipped_epoch_follows_the_per_essay_loop(self):
        # the reference sums the global norm gate block by gate block;
        # every one of the three steps is clipped
        assert self.epoch_against_reference(0.05) == 3

    def test_clip_norm_over_fused_buffers_matches_per_gate_split(self):
        model = build_model(vocab=14, embed_dim=5, seed=31, lstm_dim=3,
                            layers=2, bidirectional=True, peepholes="full",
                            boost=4.0)
        y, cache = forward_batch(model, [[3, 1, 4], [1, 5, 9, 2, 6]])
        grads, columns = backward_columns(model, cache, 2.0 * (y - 0.5))
        grads["M"] = columns
        per_gate = ref.split_gates(grads, model.lstm_dim)
        # four directions, each with 4 buffers split into 15 gate blocks
        assert len(per_gate) == len(grads) + 4 * (15 - 4)
        fused_norm = clip_gradients(grads, 0.0)
        assert fused_norm == pytest.approx(clip_gradients(per_gate, 0.0),
                                           rel=1e-12)
        per_gate["M"] = ref.column_rows(columns)[1]
        squares = [float(x) ** 2 for g in per_gate.values() for x in g.ravel()]
        assert fused_norm == pytest.approx(math.fsum(squares) ** 0.5,
                                           rel=1e-12)

    def test_untouched_columns_are_bitwise_unchanged(self):
        train, val, ranges = mixed_corpus(vocab_used=12)
        cfg = Config(lstm_dim=3, dropout=0.3, peepholes="full",
                     learning_rate=0.05, epochs=3, batch_size=3, seed=2)
        model = build_model(vocab=16, embed_dim=4, seed=34, lstm_dim=3,
                            dropout=0.3, peepholes="full")
        model.M = np.asfortranarray(model.M)
        before = model.M.copy(order="F")
        best, _ = train_scorer(model, train, val, ranges, cfg)
        touched = sorted({t for e in train for t in e.tokens})
        untouched = [c for c in range(16) if c not in touched]
        assert untouched and touched
        assert best.M[:, untouched].tobytes() == before[:, untouched].tobytes()
        assert not np.array_equal(best.M[:, touched], before[:, touched])


class TestPredict:
    def setup_method(self):
        self.model = build_model(vocab=9, seed=30)
        self.model.W_yh[...] = 0.0
        self.ranges = {1: ScoreRange(0, 10)}
        self.essays = [make_essay([1, 2, 3], essay_id=1, raw=5.0)]

    def test_unscaled_into_set_range(self):
        self.model.b_y[0] = 1.2
        assert predict(self.model, self.essays, self.ranges)[0] == 10.0
        self.model.b_y[0] = 0.25
        assert predict(self.model, self.essays, self.ranges)[0] == 2.5

    def test_raw_mode_skips_unscaling(self):
        self.model.b_y[0] = 7.3
        got = predict(self.model, self.essays, self.ranges, normalized=False)
        assert got[0] == 7.3
        self.model.b_y[0] = 12.0
        got = predict(self.model, self.essays, self.ranges, normalized=False)
        assert got[0] == 10.0

    def test_batched_predictions_keep_input_order(self):
        # more essays than one inference chunk, in no order of length
        model = build_model(vocab=9, seed=35, bidirectional=True, layers=2,
                            peepholes="diagonal", boost=4.0)
        rng = np.random.default_rng(9)
        essays = [make_essay(rng.integers(0, 9, size=int(L)), essay_id=k,
                             raw=5.0)
                  for k, L in enumerate(rng.integers(1, 12, size=45))]
        got = predict(model, essays, self.ranges)
        for k, essay in enumerate(essays):
            y, _ = forward_essay(model, essay.tokens)
            want = self.ranges[1].clamp(
                self.ranges[1].unscale(min(max(y, 0.0), 1.0)))
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_token_lists_and_int32_views_agree(self):
        model = build_model(vocab=9, seed=36, bidirectional=True, layers=2,
                            peepholes="full", boost=4.0)
        rng = np.random.default_rng(11)
        essays = [make_essay(rng.integers(0, 9, size=int(L)).tolist(),
                             essay_id=k, raw=float(k % 11))
                  for k, L in enumerate(rng.integers(1, 30, size=14))]
        views = as_views(essays)
        y_list, _ = forward_batch(model, [e.tokens for e in essays])
        y_view, _ = forward_batch(model, [e.tokens for e in views])
        assert y_view.tobytes() == y_list.tobytes()
        assert predict(model, views, self.ranges).tobytes() \
            == predict(model, essays, self.ranges).tobytes()

    def test_unknown_set_rejected(self):
        stray = [make_essay([1], essay_id=2, set_id=3, raw=1.0)]
        with pytest.raises(DataError):
            predict(self.model, stray, self.ranges)


class TestPersistence:
    @pytest.mark.parametrize("variant", [
        dict(bidirectional=True, layers=2, peepholes="full", dropout=0.37),
        dict(bidirectional=False, layers=1, peepholes="diagonal", dropout=0.0),
        dict(bidirectional=False, layers=2, peepholes="off", dropout=0.5),
    ], ids=["bi2-full", "uni1-diag", "uni2-off"])
    def test_round_trip_is_bitwise(self, tmp_path, variant):
        model = build_model(vocab=11, embed_dim=4, seed=40, lstm_dim=3,
                            **variant)
        # the size check a loader makes before allocating counts every
        # parameter exactly
        assert _n_params(11, 4, 3, model.n_layers, model.bidirectional,
                         model.peepholes) \
            == sum(arr.size for _, arr in model.named_arrays())
        path = tmp_path / "model.sats"
        save_model(path, model, config_hash="0123abcd4567ef89")
        loaded, tag = load_model(path)
        assert tag == "0123abcd4567ef89"
        assert loaded.bidirectional == model.bidirectional
        assert loaded.n_layers == model.n_layers
        assert loaded.peepholes == model.peepholes
        assert loaded.dropout == model.dropout
        for (name, a), (lname, b) in zip(model.named_arrays(),
                                         loaded.named_arrays()):
            assert name == lname
            assert np.array_equal(a, b), name
        tokens = [1, 5, 9, 2]
        y_orig, _ = forward_essay(model, tokens)
        y_load, _ = forward_essay(loaded, tokens)
        assert y_orig == y_load

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        # every array comes from the file, so loading needs no generator
        model = build_model(vocab=11, embed_dim=4, seed=41, lstm_dim=3,
                            bidirectional=True, layers=2)
        path = tmp_path / "model.sats"
        save_model(path, model)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_model drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded, _ = load_model(path)
        for (name, a), (_, b) in zip(model.named_arrays(),
                                     loaded.named_arrays()):
            assert np.array_equal(a, b), name

    # sha256 of the saved bytes, computed with the per-gate layer layout
    # this format was defined with; the fused buffers must not move a byte
    PINNED = [
        (dict(bidirectional=True, layers=2, peepholes="full", dropout=0.25),
         "7a4b8a0d4b659815b53e7acf6aa59b605dcb27f233be566a3fd4d15893f328cf"),
        (dict(bidirectional=False, layers=1, peepholes="diagonal",
              dropout=0.0),
         "ac99c82fb3040e69e0f433dc32126947f292d7a5fff95e66345e4034ca5b39fc"),
        (dict(bidirectional=True, layers=1, peepholes="off", dropout=0.5),
         "ed8aacfd544854f4953478099966b9408175d6680bc1b73b829d78e218a08fe3"),
    ]

    @pytest.mark.parametrize("arch,digest", PINNED,
                             ids=["bi2-full", "uni1-diag", "bi1-off"])
    def test_seeded_model_bytes_are_pinned(self, tmp_path, arch, digest):
        rng = np.random.default_rng(2024)
        M = rng.uniform(-0.05, 0.05, size=(4, 11))
        model = SeqModel.init(M, Config(lstm_dim=3, **arch), rng)
        path = tmp_path / "m.sats"
        save_model(path, model, config_hash="0123abcd4567ef89")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_trained_model_bytes_are_pinned(self, tmp_path):
        # one seeded epoch with dropout; it pins the optimizer's arithmetic
        # and the embedding gradient's route (gate gradients summed per
        # distinct word) as well as the file layout
        train, val, ranges = mixed_corpus()
        cfg = Config(lstm_dim=3, layers=2, bidirectional=True,
                     peepholes="full", dropout=0.5, learning_rate=0.01,
                     epochs=1, batch_size=3, seed=4, clip_norm=0.0)
        rng = np.random.default_rng(2024)
        M = rng.uniform(-0.05, 0.05, size=(4, 16))
        best, history = train_scorer(SeqModel.init(M, cfg, rng), train,
                                     val, ranges, cfg)
        assert len(history) == 1
        path = tmp_path / "m.sats"
        save_model(path, best, config_hash="0123abcd4567ef89")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "9e5fa74b372119ca4ffb2d1115cdd7bf340c845cf30d45bb9bf63efc2ae62a46"

    @pytest.mark.parametrize("arch", [arch for arch, _ in PINNED],
                             ids=["bi2-full", "uni1-diag", "bi1-off"])
    def test_seeded_model_resaves_identically(self, tmp_path, arch):
        rng = np.random.default_rng(2024)
        M = rng.uniform(-0.05, 0.05, size=(4, 11))
        model = SeqModel.init(M, Config(lstm_dim=3, **arch), rng)
        path, again = tmp_path / "m.sats", tmp_path / "again.sats"
        save_model(path, model, config_hash="0123abcd4567ef89")
        loaded, tag = load_model(path)
        save_model(again, loaded, tag)
        assert again.read_bytes() == path.read_bytes()

    def test_non_utf8_hash_rejected(self, tmp_path):
        model = build_model(vocab=6, seed=43)
        path = tmp_path / "model.sats"
        save_model(path, model, config_hash="ab")
        raw = bytearray(path.read_bytes())
        raw[-1] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.sats"
        path.write_bytes(b"SSWE" + b"\x00" * 64)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(vocab=6, seed=41)
        path = tmp_path / "model.sats"
        save_model(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = build_model(vocab=6, seed=42)
        path = tmp_path / "model.sats"
        save_model(path, model)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_zero_embed_dim_rejected(self, tmp_path):
        model = SeqModel.init(np.zeros((0, 6), order="F"),
                              Config(lstm_dim=3), np.random.default_rng(0))
        path = tmp_path / "model.sats"
        save_model(path, model)
        with pytest.raises(ModelFormatError, match="corrupt architecture"):
            load_model(path)


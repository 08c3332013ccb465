"""Sequence scorer tests: gate math, backpropagation, training, persistence."""

import math

import hashlib

import numpy as np
import pytest

from essayscore.config import Config
from essayscore.corpus import ScoreRange
from essayscore.errors import (ConfigError, DataError, ModelFormatError,
                               NumericalError)
from essayscore.lstm import (FORGET_BIAS, LSTMLayer,
                             RMSPropState, SeqModel, _n_params,
                             backward_batch, bptt, clip_gradients,
                             column_gradient, forward_batch, forward_essay,
                             load_model, predict, predict_batch,
                             rmsprop_update,
                             save_model, train_scorer)

import reference_lstm as ref
from conftest import finite_difference, make_essay, max_relative_error
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
                # (direction, step, unit): one essay's rows are its steps
                assert np.allclose(cache.layers[0].H[0, t], h, rtol=1e-12)
                assert np.allclose(cache.layers[0].C[0, t], c, rtol=1e-12)

    def test_gate_activations_stay_in_range(self):
        model = build_model(seed=3, peepholes="full", boost=8.0)
        _, cache = forward_essay(model, [2, 5, 1, 8, 0, 6, 3])
        d = cache.layers[0]
        n = model.lstm_dim
        I, F, U, O = (d.G[..., k * n:(k + 1) * n] for k in range(4))
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
    """Batched gradients of sum_b (y_b - gold_b)^2 against central differences."""
    golds = np.asarray(golds)
    y, cache = batch_pass(model, token_lists)
    grads, d_inputs = backward_batch(model, cache, 2.0 * (y - golds))
    dense_m = np.zeros_like(model.M)
    cols, rows = column_gradient(cache.layout.ids, d_inputs)
    dense_m[:, cols] = rows.T
    analytic = {"M": dense_m, **grads}

    def loss():
        y, _ = batch_pass(model, token_lists)
        return float(np.sum((y - golds) ** 2))

    numeric = finite_difference(loss, dict(model.named_arrays()))
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
            dense_m = np.zeros_like(model.M)
            cols, rows = column_gradient(cache.layout.ids, d_inputs)
            dense_m[:, cols] = rows.T
            analytic = {"M": dense_m, **grads}

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
        _, d_inputs = bptt(model, cache, 0.9)
        cols, rows = column_gradient(cache.layout.ids, d_inputs)
        assert list(cols) == [3, 4, 5]
        # a repeated token accumulates both positions, in order
        assert np.array_equal(rows[1], d_inputs[1] + d_inputs[3])
        assert np.array_equal(rows[0], d_inputs[0])

    def test_column_gradient_is_bitwise_the_dense_scatter(self):
        # many repeats of each id: the sums depend on the addition order
        rng = np.random.default_rng(12)
        ids = rng.integers(0, 6, size=40)
        d_inputs = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(
            -8, 8, size=(40, 1))
        dense = np.zeros((3, 9))
        np.add.at(dense.T, ids, d_inputs)
        cols, rows = column_gradient(ids, d_inputs)
        assert list(cols) == sorted(set(ids.tolist()))
        assert rows.tobytes() == np.ascontiguousarray(dense[:, cols].T).tobytes()

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


LENGTHS = {"B1-len1": (1,), "B1": (9,), "mixed": (1, 5, 9, 3),
           "equal": (4, 4)}

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
    grads, d_inputs = backward_batch(model, cache, 2.0 * (y - golds))
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
    # predict_batch on the same essays, computed before the step loops
    # took one-direction layers as 2-D arrays: the passes must not move a bit
    PINNED_PASSES = {
        "unil1-full-dropout-B1-len1":
            "129e45384cf9882cace53832ec435436e68c953941b837044c6170663af684c6",
        "unil1-full-dropout-B1":
            "45816d81fd49d3fe9d21a4053d4af3ec484771c7a057700d4ed394b376a1675e",
        "unil1-full-dropout-mixed":
            "9e5484a8825560f19e5aea8d72487bae4101d931a003c37af708c4d9d45f4e1a",
        "unil1-full-dropout-equal":
            "f05555e8a5d6a268cfb6550ebc985837ceefb282014e9e77ad05727938c30c79",
        "unil1-diagonal-dropout-B1-len1":
            "ce06ca1d7b609ce150c88abe819d627f564abd3e7e06f47f3ebe203fcda7ff94",
        "unil1-diagonal-dropout-B1":
            "8cac617daa8167324939469a2e939cd031270c609481f715e7879479a07c9ed1",
        "unil1-diagonal-dropout-mixed":
            "79e990acda4330b7ab33cc836d783a06c0b1aacf73e9d942e5b4d7693a04e41a",
        "unil1-diagonal-dropout-equal":
            "f8f9a0ff90c76e2ffa37d174c0f8a92251ffd3afb31da1958ddad37489800c5b",
        "unil1-off-dropout-B1-len1":
            "f861406e1c60fc8f4d028caf77a8ba5d41ce4a4b8d69d7bdc98f9de2feb5c513",
        "unil1-off-dropout-B1":
            "0d2a7c3b6a62915d21ecf8cc684eedc6f3f27b83691b6d473e6d1e84b320577d",
        "unil1-off-dropout-mixed":
            "5c91fc7ad3a88f7a7895db7849f23cc71017b35babaea86c20db9b7b1add5d16",
        "unil1-off-dropout-equal":
            "64d6b2c053f6499226db51fb8e1d32a659f05ab1496dea969de4182a51930140",
        "bil1-full-dropout-B1-len1":
            "183c82692e522993f5d32f52cdd4c8ac1886ea4a784ac3b5279e049bebbdd16a",
        "bil1-full-dropout-B1":
            "64117cbf8b01fd8f2720b1c12b95d1895c726fbe87ff522a25afc6d07ac838f8",
        "bil1-full-dropout-mixed":
            "54abc77d004ce24b1956860094016aac3701a192e3c3d0384340520c55fc4b4e",
        "bil1-full-dropout-equal":
            "3d1a7f67138e89e16fb6f9a9211f124cf25e4158e6fd8f4554bac6e948c62097",
        "bil1-diagonal-dropout-B1-len1":
            "654431ee62adf51bfabe3c192b263e00ad2258257ce2fbca97abafd663a1e770",
        "bil1-diagonal-dropout-B1":
            "b3ed91e7afddee53f2fec7576f7dcb58b21bbd00906923ec4e9064918cf8cf1b",
        "bil1-diagonal-dropout-mixed":
            "6ad704fd150b3ff603b0f13759c3de86ac99c3fe1eb1af264d587c15d8017ead",
        "bil1-diagonal-dropout-equal":
            "732148138e45a27149bb98e070ffb358e1d0a8230d77e514314ea1caf8504c2b",
        "bil1-off-dropout-B1-len1":
            "beed176b3aa7a1c350cc50bcc98926f5f8b10a858e7e7a54b6d58a50a27f0e6e",
        "bil1-off-dropout-B1":
            "914d340d1e49b36f0f6324e3d861eb54de0ea5bd617de3079fc0f0b39870a020",
        "bil1-off-dropout-mixed":
            "ac61c7fe289ab9ae6270bbd74f0741dd7b68573530bd4c1e35a0a91d31e900c4",
        "bil1-off-dropout-equal":
            "41df258075dc0d4e47f3372513192c9f550be816aae4b53fd4992222c32d2b28",
        "unil2-full-dropout-B1-len1":
            "2cb6b76745fd8e44fdf031f467463957c725e11bad3b851d72c76c69d7e4a581",
        "unil2-full-dropout-B1":
            "b0bf98a404d442de25694cad7f4404d1b64d5b06a67a55f753e4bbefd4ac1e50",
        "unil2-full-dropout-mixed":
            "bd1fc7a2f5bad733faeade02f7d474c81dda6080e4db225ad2440226e20cef65",
        "unil2-full-dropout-equal":
            "7cae276f31d34792d35c33e14b095c06eaeafaa1b21ef4591b912c0caf88c968",
        "unil2-diagonal-dropout-B1-len1":
            "802161e4b00a2574645cd293a71b64aac407842d003ef4d7efa5fe9fecbf200b",
        "unil2-diagonal-dropout-B1":
            "d84f6b4fa36712d47b355f56be8ea9893cfa0f615decd57a63e45cdfef424bc3",
        "unil2-diagonal-dropout-mixed":
            "2416789fc057efd611920c77799f5547982243d8ed59d1e435fc93171b4c9325",
        "unil2-diagonal-dropout-equal":
            "4d911a272ef7c2709bdb39c69899d24226aac01b4237152de55542b8bd58c259",
        "unil2-off-dropout-B1-len1":
            "123cd550d28872a4253021a35fba9a330de20f4f19eeca14b6b5c79bf3d4845a",
        "unil2-off-dropout-B1":
            "092f21e11b3a237b8c1da1d6795743d6e2f44233ae3f89d57b695bdb8110e496",
        "unil2-off-dropout-mixed":
            "c61936f402564c698140337a09fb14c354dc3b043232c0aaac9293f44d032c02",
        "unil2-off-dropout-equal":
            "97c86b7b348ee46e653cfda7411cbd1fe3d48468e3e76ebead6226a799d9e569",
        "bil2-full-dropout-B1-len1":
            "6b395f4b2eb38caf2007131add776320ac332254cf63da5720b50dce8d153fd5",
        "bil2-full-dropout-B1":
            "457362d3d09bc79b3b58a4251b513f5a19dff73244abc9e5baf619a18cb9ad75",
        "bil2-full-dropout-mixed":
            "cc90ddf4aad83fded3756e1d0b024b3e9d31a98333791ad0c76f383bb0aadb75",
        "bil2-full-dropout-equal":
            "ff1c4c58c1a2458ef5bc172f570abf3bc1fad4e1ac5c3227b8bc9cccee9c4978",
        "bil2-diagonal-dropout-B1-len1":
            "046ae60fd05ca11e1846d3f15f9302892586838fd7d2433091a758b7d4e76d72",
        "bil2-diagonal-dropout-B1":
            "02ae80cdbeea936e92ffa7f25fc2cefd58f1a535730906d1ff522391b4f677d5",
        "bil2-diagonal-dropout-mixed":
            "c4b31e81aaf253104d952d110bfe157eb8969bb2bcfc157f926c4558631ccff6",
        "bil2-diagonal-dropout-equal":
            "c079bb0ddd4ca7664a307cc610afce0a4b3dbf0d614848bd17dd0d762eff0588",
        "bil2-off-dropout-B1-len1":
            "1dd68e8f9aaffd420c99d3509d8862f67a083779cd219e924df77e551f71e497",
        "bil2-off-dropout-B1":
            "b720c7fa775a33eb500b2bc4f8c846006e79eeccc7810b3f5654708b862cec76",
        "bil2-off-dropout-mixed":
            "fc41383dd44610e9dd742a91cb8039490d8b31264d3bb4e0b8a06563dca267f4",
        "bil2-off-dropout-equal":
            "28a97624248419c35de9b5a29059c8c961bad9cd0b157a0d8624f04e6abdbb4a",
    }

    @pytest.mark.parametrize("lengths", list(LENGTHS))
    @pytest.mark.parametrize("variant", PIN_VARIANTS, ids=variant_id)
    def test_passes_are_pinned(self, variant, lengths):
        assert pass_digest(variant, LENGTHS[lengths]) \
            == self.PINNED_PASSES[f"{variant_id(variant)}-{lengths}"]

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
                             eta=0.1)
        rmsprop_update(state, {"w": w}, {"w": g})
        acc = 0.1 * g * g
        assert np.allclose(state.acc["w"], acc, rtol=1e-15)
        assert np.allclose(w, np.array([1.0, 2.0, 3.0])
                           - 0.1 * g / np.sqrt(acc + 1e-8), rtol=1e-15)

    def test_missing_gradient_decays_accumulator_only(self):
        w = np.array([1.0, -1.0])
        state = RMSPropState(acc={"w": np.array([0.4, 0.8])}, rho=0.9,
                             eps=1e-8, eta=0.1)
        rmsprop_update(state, {"w": w}, {})
        assert np.allclose(state.acc["w"], [0.36, 0.72], rtol=1e-15)
        assert np.array_equal(w, [1.0, -1.0])

    def test_identical_gradients_give_identical_updates(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.5, 0.5])
        g = np.array([0.3, -0.2])
        state = RMSPropState(acc={"a": np.zeros(2), "b": np.zeros(2)},
                             rho=0.9, eps=1e-8, eta=0.05)
        rmsprop_update(state, {"a": a, "b": b}, {"a": g, "b": g.copy()})
        assert np.array_equal(a, b)

    def test_column_step_is_bitwise_the_dense_rule(self):
        rng = np.random.default_rng(17)
        M = np.asfortranarray(rng.normal(size=(4, 12)))
        M[0, 5] = -0.0
        acc = np.asfortranarray(rng.uniform(0.0, 0.1, size=(4, 12)))
        acc[:, 7] = 0.0  # a column that was never touched
        cols = np.array([1, 4, 5, 9])
        rows = rng.normal(size=(4, 4))
        rows[2, 1] = 0.0
        w = rng.normal(size=3)
        g_w = rng.normal(size=3)
        dense = np.zeros_like(M)
        dense[:, cols] = rows.T

        got = {"M": M.copy(order="F"), "w": w.copy()}
        want = {"M": M.copy(order="F"), "w": w.copy()}
        state = RMSPropState(acc={"M": acc.copy(order="F"),
                                  "w": np.zeros(3)}, eta=0.01)
        ref_state = RMSPropState(acc={"M": acc.copy(order="F"),
                                      "w": np.zeros(3)}, eta=0.01)
        for _ in range(3):
            rmsprop_update(state, got, {"M": (cols, rows), "w": g_w})
            ref.dense_rmsprop_update(ref_state, want,
                                     {"M": dense, "w": g_w})
        for name in ("M", "w"):
            assert got[name].tobytes() == want[name].tobytes(), name
            assert state.acc[name].tobytes() \
                == ref_state.acc[name].tobytes(), name

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
        grads, d_inputs = backward_batch(model, cache, 2.0 * (y - 0.5))
        grads["M"] = column_gradient(cache.layout.ids, d_inputs)
        per_gate = ref.split_gates(grads, model.lstm_dim)
        # four directions, each with 4 buffers split into 15 gate blocks
        assert len(per_gate) == len(grads) + 4 * (15 - 4)
        fused_norm = clip_gradients(grads, 0.0)
        assert fused_norm == pytest.approx(clip_gradients(per_gate, 0.0),
                                           rel=1e-12)
        squares = [float(x) ** 2 for g in per_gate.values()
                   for x in (g[1] if isinstance(g, tuple) else g).ravel()]
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
        # one seeded epoch with dropout; the digest was computed with one
        # RMSprop accumulator per gate, so it pins the optimizer's
        # arithmetic as well as the file layout
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
            "d458d1a2ba3d6ac6c54064b4a8b35c72ad0702a8bb349feb4b5b53643f9c0651"

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


import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import essayscore
import essayscore.sswe as sswemod
from essayscore.config import Config
from essayscore.corpus import (N_SPECIALS, UNK_ID, ScoreRange, Vocabulary,
                               corrupt_window)
from essayscore.errors import (ConfigError, DataError, ModelFormatError,
                               NumericalError)
from essayscore.sswe import (
    EpochLosses,
    SSWEParams,
    backward,
    cosine_distance,
    htanh,
    load_embeddings,
    nearest_neighbors,
    save_embeddings,
    train_sswe,
)

from essayscore.lstm import SeqModel, train_scorer

from conftest import finite_difference, max_relative_error, make_essay
from reference_sswe import (dense_gradients, embed_window, forward,
                            htanh_slope, loss_context, loss_overall,
                            loss_score, predict_window_score,
                            reference_train, sample_loss)
from reference_sswe import htanh as ref_htanh


class TestHtanh:
    def test_branches(self):
        x = np.array([-5.0, -1.0, -0.3, 0.0, 0.7, 1.0, 2.0])
        assert list(htanh(x)) == [-1.0, -1.0, -0.3, 0.0, 0.7, 1.0, 1.0]

    def test_backward_slope_zero_outside_and_at_kinks(self):
        # W_hi = 0 makes z_t = b_h exactly; at alpha = 0 the b_h gradient
        # is dz_t = df_ss * W_oh1 * slope, with df_ss the b_o1 gradient
        z = np.array([-5.0, -1.0, -0.3, 0.9999, 1.0, 2.0, 0.0])
        p = small_params(h=len(z))
        p.W_hi[...] = 0.0
        p.b_h[...] = z
        grads = backward(p, (3, 4, 5), [6, 7], 0.5, 0.0)
        slope = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
        assert grads.dense["b_o1"][0] != 0.0 and np.all(p.W_oh1 != 0.0)
        assert np.array_equal(grads.dense["b_h"],
                              grads.dense["b_o1"][0] * p.W_oh1 * slope)


class TestHyper:
    # every check and its message is in test_config_cli's validation
    # table; these check that the network's constructor applies them
    def test_defaults_validate(self):
        p = SSWEParams.init(5, Config(), np.random.default_rng(0))
        assert (p.embed_dim, p.hidden_dim, p.window_size) == (200, 100, 9)

    def test_rejections(self):
        for bad in (dict(window_size=4), dict(alpha=1.5),
                    dict(n_corruptions=0), dict(embed_dim=0)):
            with pytest.raises(ConfigError):
                SSWEParams.init(5, Config(**bad), np.random.default_rng(0))


def small_params(seed=0, d=4, h=5, n=3, v=12):
    cfg = Config(embed_dim=d, hidden_dim=h, window_size=n)
    return SSWEParams.init(v, cfg, np.random.default_rng(seed))


class TestParams:
    def test_shapes(self):
        p = small_params()
        assert p.M.shape == (4, 12)
        assert p.W_hi.shape == (5, 12)
        assert p.W_oh2.shape == (5,)
        assert p.b_o1.shape == (1,)
        assert (p.embed_dim, p.hidden_dim, p.window_size, p.vocab_size) \
            == (4, 5, 3, 12)

    def test_init_deterministic(self):
        a, b = small_params(7), small_params(7)
        assert all(np.array_equal(getattr(a, n), getattr(b, n))
                   for n in ("M",) + a.dense_names())


class TestForward:
    def test_embed_window_concatenates_columns_in_order(self):
        p = small_params()
        s = embed_window((3, 7, 5), p.M)
        assert s.shape == (12,)
        assert np.array_equal(s[:4], p.M[:, 3])
        assert np.array_equal(s[4:8], p.M[:, 7])
        assert np.array_equal(s[8:], p.M[:, 5])

    def test_zero_weights_give_biases(self):
        p = small_params()
        p.W_oh2[...] = 0.0
        p.W_oh1[...] = 0.0
        p.b_o2[0] = 0.25
        p.b_o1[0] = -0.5
        f_ctx, f_ss = forward(p, embed_window((1, 2, 3), p.M))
        assert f_ctx == 0.25
        assert f_ss == -0.5

    def test_hand_computed_tiny_network(self):
        # one hidden unit, identity-ish weights small enough to stay linear
        cfg = Config(embed_dim=1, hidden_dim=1, window_size=3)
        p = SSWEParams.init(4, cfg, np.random.default_rng(0))
        p.M[...] = np.array([[0.1, 0.2, 0.3, 0.4]])
        p.W_hi[...] = np.array([[1.0, 2.0, 3.0]])
        p.b_h[...] = 0.05
        p.W_oh2[...] = 2.0
        p.b_o2[...] = 0.1
        p.W_oh1[...] = -1.0
        p.b_o1[...] = 0.2
        # s = (0.2, 0.3, 0.4); z = 0.2 + 0.6 + 1.2 + 0.05 = 2.05 -> htanh 1.0
        f_ctx, f_ss = forward(p, embed_window((1, 2, 3), p.M))
        assert f_ctx == pytest.approx(2.1)
        assert f_ss == pytest.approx(-0.8)

    def test_prediction_clamped_to_unit_interval(self):
        p = small_params()
        p.W_oh1[...] = 0.0
        p.b_o1[0] = 1.7
        assert predict_window_score(p, embed_window((1, 2, 3), p.M)) == 1.0
        p.b_o1[0] = -0.3
        assert predict_window_score(p, embed_window((1, 2, 3), p.M)) == 0.0


class TestLosses:
    def test_context_hinge_mean(self):
        # margins: 1 - 2 + 1.5 = 0.5; 1 - 2 + 0.2 = -0.8 -> 0; 1 - 2 + 3 = 2
        assert loss_context(2.0, [1.5, 0.2, 3.0]) == pytest.approx(2.5 / 3)

    def test_context_requires_corruptions(self):
        with pytest.raises(ConfigError):
            loss_context(1.0, [])

    def test_score_mse(self):
        assert loss_score([0.2, 0.4], [0.0, 1.0]) == pytest.approx(
            (0.04 + 0.36) / 2)

    def test_overall_blend(self):
        assert loss_overall(0.1, 2.0, 0.5) == pytest.approx(0.65)
        assert loss_overall(0.0, 9.9, 0.5) == 0.5
        assert loss_overall(1.0, 2.0, 9.9) == 2.0


def fixed_corruptions(ids, n_corruptions, rng, vocab):
    """Pre-drawn corruption centers, reused across finite-difference evals."""
    return corrupt_window(ids[len(ids) // 2], n_corruptions, rng, vocab)


def test_finite_difference_mutates_fortran_arrays_in_place():
    x = np.asfortranarray(np.random.default_rng(4).normal(size=(3, 5)))
    numeric = finite_difference(lambda: float(np.sum(x ** 2)), {"x": x})["x"]
    assert np.allclose(numeric, 2 * x, rtol=1e-8, atol=1e-8)


class TestBackward:
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0])
    def test_gradients_match_finite_differences(self, alpha):
        p = small_params(seed=3)
        vocab = Vocabulary([f"w{k}" for k in range(9)])
        ids = (4, 8, 6)
        corruptions = fixed_corruptions(ids, 6, np.random.default_rng(0),
                                        vocab)
        grads = backward(p, ids, corruptions, 0.7, alpha)

        arrays = {"M": p.M, **{n: getattr(p, n) for n in p.dense_names()}}
        numeric = finite_difference(
            lambda: sample_loss(p, ids, corruptions, 0.7, alpha)[0],
            arrays)
        analytic = dense_gradients(p, grads)
        assert analytic.keys() == numeric.keys()
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_gradients_with_saturation_and_inactive_margins(self):
        # scale the network up so hard-tanh saturates on some units and
        # some hinge margins go inactive, then re-check the gradients
        p = small_params(seed=3)
        p.W_hi *= 300.0
        p.W_oh2 *= 40.0
        vocab = Vocabulary([f"w{k}" for k in range(9)])
        ids = (5, 9, 7)
        corruptions = fixed_corruptions(ids, 8, np.random.default_rng(1),
                                        vocab)

        s = embed_window(ids, p.M)
        z = p.W_hi @ s + p.b_h
        assert np.any(np.abs(z) > 1.0)
        assert np.any(np.abs(z) < 1.0)
        assert np.all(np.abs(np.abs(z) - 1.0) > 1e-3)
        f_t, _ = forward(p, s)
        margins = [1.0 - f_t + forward(p, embed_window(
                       (ids[0], int(w), ids[2]), p.M))[0]
                   for w in corruptions]
        assert any(m < 0 for m in margins)
        assert any(m > 0 for m in margins)
        assert all(abs(m) > 1e-3 for m in margins)

        grads = backward(p, ids, corruptions, 0.3, 0.5)
        arrays = {"M": p.M, **{n: getattr(p, n) for n in p.dense_names()}}
        numeric = finite_difference(
            lambda: sample_loss(p, ids, corruptions, 0.3, 0.5)[0],
            arrays)
        assert max_relative_error(dense_gradients(p, grads), numeric) <= 1e-4

    def test_untouched_columns_absent(self):
        p = small_params()
        vocab = Vocabulary([f"w{k}" for k in range(9)])
        corruptions = [6, 7]
        grads = backward(p, (3, 4, 5), corruptions, 0.5, 0.5)
        dense_m = dense_gradients(p, grads)["M"]
        untouched = [k for k in range(p.vocab_size) if k not in range(3, 8)]
        assert np.all(dense_m[:, untouched] == 0.0)

    def test_alpha_zero_ignores_corruption_columns(self):
        p = small_params()
        grads = backward(p, (3, 4, 5), [6, 7], 0.5, 0.0)
        dense_m = dense_gradients(p, grads)["M"]
        assert np.all(dense_m[:, [6, 7]] == 0.0)
        assert grads.loss_overall == grads.loss_score

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_alpha_outside_the_unit_interval_is_rejected(self, alpha):
        with pytest.raises(ConfigError, match=r"alpha must lie in \[0, 1\]"):
            backward(small_params(), (3, 4, 5), [6, 7], 0.5, alpha)

    def test_losses_attached(self):
        p = small_params()
        corruptions = [6]
        grads = backward(p, (3, 4, 5), corruptions, 0.5, 0.25)
        overall, ctx, sc = sample_loss(p, (3, 4, 5), corruptions, 0.5, 0.25)
        assert grads.loss_overall == pytest.approx(overall)
        assert grads.loss_context == pytest.approx(ctx)
        assert grads.loss_score == pytest.approx(sc)


def bound_of(params, ids, centers):
    """The Cauchy-Schwarz bound on |z_c| that decides backward's path."""
    d, c = params.embed_dim, len(ids) // 2
    W_center = params.W_hi[:, c * d:(c + 1) * d]
    x_t = params.M.T[ids]
    z_t = params.W_hi @ x_t.reshape(-1) + params.b_h
    delta = params.M.T[np.unique(centers)] - x_t[c]
    return float(np.abs(z_t).max()) + float(np.sqrt(
        np.max(np.sum(delta ** 2, axis=1))
        * np.max(np.sum(W_center ** 2, axis=1))))


def full_product(params, ids, centers, gold, alpha):
    """Every field backward returns, from the (U, H) corruption product.

    Also the corruptions' pre-activations ``z_c`` and their margins.
    """
    p = params
    n, d = len(ids), p.embed_dim
    c = n // 2
    W_center = p.W_hi[:, c * d:(c + 1) * d]
    x_t = p.M.T[ids]
    z_t = p.W_hi @ x_t.reshape(-1) + p.b_h
    i_t = ref_htanh(z_t)
    f_t = p.W_oh2 @ i_t + p.b_o2[0]
    f_ss = p.W_oh1 @ i_t + p.b_o1[0]
    uniq, counts = np.unique(centers, return_counts=True)
    delta = p.M.T[uniq] - x_t[c]
    z_c = delta @ W_center.T + z_t
    i_c = ref_htanh(z_c)
    margins = 1.0 - f_t + (i_c @ p.W_oh2 + p.b_o2[0])
    weights = np.where(margins > 0.0, counts, 0.0)
    e = len(centers)
    l_ctx = counts @ np.maximum(0.0, margins) / e
    l_sc = (f_ss - gold) ** 2
    df_t = -alpha * weights.sum() / e
    df_ss = (1.0 - alpha) * 2.0 * (f_ss - gold)
    dz_t = (df_t * p.W_oh2 + df_ss * p.W_oh1) * htanh_slope(z_t)
    shared = alpha / e * p.W_oh2
    u = dz_t + weights.sum() * shared
    ctx_rows = (u @ p.W_hi).reshape(n, d)
    ctx_rows[c] = dz_t @ W_center
    return dict(
        z_c=z_c, margins=margins, centers=uniq, weights=weights,
        inputs=(weights @ delta)[None], rows=(shared @ W_center)[None],
        ctx_rows=ctx_rows, b_h=u,
        W_oh2=df_t * i_t + alpha / e * weights @ i_c, b_o2=np.zeros(1),
        W_oh1=df_ss * i_t, b_o1=np.array([df_ss]),
        losses=np.array([alpha * l_ctx + (1.0 - alpha) * l_sc, l_ctx, l_sc]))


def assert_matches_full_product(grads, want):
    assert np.array_equal(grads.centers, want["centers"])
    assert np.array_equal(grads.weights, want["weights"])
    assert grads.partial.size == 0
    got = dict(inputs=grads.inputs, rows=grads.rows, ctx_rows=grads.ctx_rows,
               losses=np.array([grads.loss_overall, grads.loss_context,
                                grads.loss_score]), **grads.dense)
    for name, a in got.items():
        b = want[name]
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


@pytest.fixture
def corruption_products(monkeypatch):
    """A list that gains an entry each time backward computes the
    corruptions' hidden layer: hard tanh over a 2-D array."""
    seen = []

    def recording_htanh(x):
        if np.ndim(x) == 2:
            seen.append(x.shape)
        return htanh(x)

    monkeypatch.setattr(sswemod, "htanh", recording_htanh)
    return seen


def bound_window(seed, w_hi_scale=1.0, w_oh2_scale=1.0):
    """Seeded parameters (D 20, H 10, window 5, V 34), a window and 50
    corruption centers drawn for it."""
    vocab = Vocabulary([f"w{k}" for k in range(30)])
    cfg = Config(embed_dim=20, hidden_dim=10, window_size=5)
    rng = np.random.default_rng(seed)
    p = SSWEParams.init(len(vocab), cfg, rng)
    p.W_hi *= w_hi_scale
    p.W_oh2 *= w_oh2_scale
    ids = rng.integers(0, len(vocab), size=5)
    return p, ids, corrupt_window(ids[2], 50, rng, vocab)


def gradient_digest(g):
    """sha256 over the bytes, dtype and shape of every field of ``g``."""
    h = hashlib.sha256()
    for a in (g.ids, g.ctx_rows, g.centers, g.weights, g.partial, g.dz,
              g.rows, g.inputs, g.s_t, *(g.dense[k] for k in sorted(g.dense)),
              np.array([g.center.start, g.center.stop]),
              np.array([g.loss_overall, g.loss_context, g.loss_score])):
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestCorruptionBound:
    # backward skips the (U, H) corruption product when the bound
    # max|z_t| + max_k |delta_k| max_h |W_center[h]| proves that no
    # corruption saturates a unit; the two paths differ only in rounding

    def test_linear_path_matches_full_product(self, corruption_products):
        # W_hi scaled so the bounds reach up to about 0.9, and W_oh2 so
        # that some hinges go inactive
        nearest, bounds, active, inactive = np.inf, [], 0, 0
        for seed in range(12):
            p, ids, centers = bound_window(seed, 4.0 + 1.4 * seed, 200.0)
            bounds.append(bound_of(p, ids, centers))
            assert bounds[-1] < 1.0 - 1e-9
            for alpha in (0.1, 0.7):
                grads = backward(p, ids, centers, 0.4, alpha)
                want = full_product(p, ids, centers, 0.4, alpha)
                assert_matches_full_product(grads, want)
                nearest = min(nearest, np.min(np.abs(want["margins"])))
                active += np.count_nonzero(want["weights"])
                inactive += np.count_nonzero(want["weights"] == 0.0)
        assert corruption_products == []
        assert max(bounds) > 0.8 and active and inactive
        # a margin within rounding of 0 could take either sign on the two
        # paths; the nearest here is about 4.0e-2
        assert nearest > 1e-6

    def test_saturating_window_takes_the_full_product_bitwise(
            self, corruption_products):
        # the sha256 was taken before the bound existed, so the full
        # path is the earlier arithmetic bit for bit; the window has
        # saturating, shared and inactive corruptions
        vocab = Vocabulary([f"w{k}" for k in range(9)])
        p = SSWEParams.init(len(vocab), Config(embed_dim=4, hidden_dim=5,
                                               window_size=5),
                            np.random.default_rng(5))
        p.W_hi *= 300.0
        p.W_oh2 *= 40.0
        ids = np.array([4, 8, 6, 3, 9])
        centers = corrupt_window(6, 12, np.random.default_rng(5), vocab)
        assert bound_of(p, ids, centers) > 1.0
        grads = backward(p, ids, centers, 0.6, 0.5)
        assert corruption_products == [(7, 5)]
        assert grads.partial.tolist() == [0, 4]
        assert np.count_nonzero(grads.weights) == 1
        assert gradient_digest(grads) == \
            "50ded01cbbbec07020180123b924eeb5103fcacd737213f804f019bd36c3dbcf"

    @pytest.mark.parametrize("target,linear", [
        (1.0 - 1e-6, True), (1.0 - 1e-10, False), (1.0 + 1e-6, False)])
    def test_path_at_the_threshold(self, corruption_products, target,
                                   linear):
        # b_h is 0, so the bound scales with W_hi
        p, ids, centers = bound_window(3)
        p.W_hi *= target / bound_of(p, ids, centers)
        assert bound_of(p, ids, centers) == pytest.approx(target, rel=1e-13)
        grads = backward(p, ids, centers, 0.4, 0.3)
        assert (corruption_products == []) == linear
        want = full_product(p, ids, centers, 0.4, 0.3)
        assert np.abs(want["z_c"]).max() < 1.0
        assert_matches_full_product(grads, want)

    def test_linear_path_never_runs_a_saturating_window(
            self, corruption_products):
        # scales from well inside the bound to well past saturation
        ran = {True: 0, False: 0}
        for seed in range(40):
            p, ids, centers = bound_window(seed, 2.0 + 1.5 * seed)
            before = len(corruption_products)
            backward(p, ids, centers, 0.4, 0.3)
            linear = len(corruption_products) == before
            saturates = np.abs(full_product(p, ids, centers, 0.4, 0.3)
                               ["z_c"]).max() >= 1.0
            assert not (linear and saturates)
            ran[linear] += 1
        assert ran[True] and ran[False]


def training_essays(vocab, n_essays=6):
    return [make_essay([3 + (k + j) % vocab.n_words for j in range(8)],
                       essay_id=k, raw=float(k % 11))
            for k in range(n_essays)]


class TestTraining:
    def test_loss_decreases(self):
        vocab = Vocabulary([f"w{k}" for k in range(10)])
        cfg = Config(embed_dim=6, hidden_dim=8, window_size=3,
                     n_corruptions=5, alpha=0.1, learning_rate=0.05,
                     embed_epochs=8, seed=0)
        _, history = train_sswe(training_essays(vocab), vocab, cfg)
        assert history[-1].loss_overall < history[0].loss_overall

    def test_deterministic_given_seed(self):
        vocab = Vocabulary([f"w{k}" for k in range(10)])
        cfg = Config(embed_dim=5, hidden_dim=6, window_size=3,
                     n_corruptions=4, learning_rate=0.01, embed_epochs=3,
                     seed=11)
        a, ha = train_sswe(training_essays(vocab), vocab, cfg)
        b, hb = train_sswe(training_essays(vocab), vocab, cfg)
        assert all(np.array_equal(getattr(a, n), getattr(b, n))
                   for n in ("M",) + a.dense_names())
        assert ha == hb

    def test_zero_rate_keeps_initialization(self):
        vocab = Vocabulary([f"w{k}" for k in range(10)])
        cfg = Config(embed_dim=5, hidden_dim=6, window_size=3,
                     n_corruptions=4, learning_rate=0.0, embed_epochs=2,
                     seed=2)
        params, history = train_sswe(training_essays(vocab), vocab, cfg)
        init = SSWEParams.init(len(vocab), cfg, np.random.default_rng(2))
        assert all(np.array_equal(getattr(params, n), getattr(init, n))
                   for n in ("M",) + params.dense_names())
        assert len(history) == 2

    def test_ranking_bias_keeps_its_initial_value(self):
        # b_o2 cancels from every margin 1 - f_t + f_c, so its gradient
        # is exactly 0 and training must not move it by rounding residue
        vocab = Vocabulary([f"w{k}" for k in range(10)])
        cfg = Config(embed_dim=5, hidden_dim=6, window_size=3,
                     n_corruptions=7, alpha=0.6, learning_rate=0.05,
                     embed_epochs=3, seed=3)
        params, _ = train_sswe(training_essays(vocab), vocab, cfg)
        init = SSWEParams.init(len(vocab), cfg, np.random.default_rng(3))
        assert not np.array_equal(params.W_oh2, init.W_oh2)
        assert params.b_o2.tobytes() == init.b_o2.tobytes()

    @pytest.mark.parametrize("where", ["negative", "vocab_size"])
    def test_window_id_out_of_range_rejected(self, where):
        vocab = Vocabulary([f"w{k}" for k in range(10)])
        bad = -1 if where == "negative" else len(vocab)
        essays = training_essays(vocab)
        essays[1].tokens[2] = bad
        cfg = Config(embed_dim=5, hidden_dim=6, window_size=3,
                     n_corruptions=4, learning_rate=0.01, embed_epochs=1)
        with pytest.raises(DataError, match="window id out of range for "
                                            f"vocabulary of {len(vocab)}"):
            train_sswe(essays, vocab, cfg)

    def test_empty_windows_rejected(self):
        # no essays, or essays without tokens: their stream of boundary
        # ids alone is shorter than a window, except for three empty
        # essays at window 3
        vocab = Vocabulary(["a"])
        for n_empty in (0, 1, 3):
            essays = [make_essay([], essay_id=k) for k in range(n_empty)]
            for cfg in (Config(), Config(window_size=3)):
                with pytest.raises(ConfigError, match="cannot train "
                                   "embeddings on an empty window set"):
                    train_sswe(essays, vocab, cfg)

    def test_chunk_size_leaves_training_unchanged(self, monkeypatch):
        # a chunk of one window draws its corruptions per window; the 48
        # windows of an epoch make 7 chunks of 7, the last one short, and
        # the unknown words split chunks into runs
        vocab = Vocabulary([f"w{k}" for k in range(10)])
        essays = training_essays(vocab)
        for k, essay in enumerate(essays):
            essay.tokens[k % 8] = UNK_ID
        cfg = Config(embed_dim=5, hidden_dim=6, window_size=3,
                     n_corruptions=4, learning_rate=0.05, embed_epochs=3,
                     seed=13)
        want, want_history = train_sswe(essays, vocab, cfg)
        for chunk in (1, 7):
            monkeypatch.setattr(sswemod, "CORRUPT_CHUNK", chunk)
            got, history = train_sswe(essays, vocab, cfg)
            assert history == want_history
            for name in ("M",) + got.dense_names():
                assert getattr(got, name).tobytes() == \
                    getattr(want, name).tobytes(), (chunk, name)

    @pytest.mark.parametrize("chunk", [1, 256])
    def test_one_word_vocabulary_cannot_corrupt(self, monkeypatch, chunk):
        # unknown words have the one word as their candidate, and most
        # windows center one, so chunks start with special ids; the
        # word's own windows have no candidate
        monkeypatch.setattr(sswemod, "CORRUPT_CHUNK", chunk)
        vocab = Vocabulary(["only"])
        cfg = Config(embed_dim=4, hidden_dim=3, window_size=3,
                     n_corruptions=2, learning_rate=0.01, embed_epochs=1)
        with pytest.raises(DataError, match="vocabulary too small to "
                           "corrupt the target word"):
            train_sswe([make_essay([UNK_ID] * 30 + [3] + [UNK_ID] * 9)],
                       vocab, cfg)
        _, history = train_sswe([make_essay([UNK_ID] * 5)], vocab, cfg)
        assert len(history) == 1

    def test_divergence_raises_numerical_error(self):
        vocab = Vocabulary([f"w{k}" for k in range(10)])
        cfg = Config(embed_dim=5, hidden_dim=6, window_size=3,
                     n_corruptions=4, learning_rate=1e12, embed_epochs=30,
                     seed=0)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericalError):
                train_sswe(training_essays(vocab), vocab, cfg)


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports this package."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(essayscore.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_package_import_leaves_scipy_linalg_unloaded():
    # train_sswe imports scipy.linalg itself, so that scoring and serving
    # do not pay its memory
    run = run_python("import sys, essayscore, essayscore.cli; "
                     "sys.exit('scipy.linalg' in sys.modules)")
    assert run.returncode == 0, run.stderr


def test_package_import_loads_no_module():
    # names are imported from their modules: the package root holds only
    # __version__, so importing it loads no submodule and not numpy
    run = run_python("import sys, essayscore; "
                     "sys.exit(' '.join(sorted(m for m in sys.modules "
                     "if m.startswith('essayscore.') or m == 'numpy')) "
                     "or None)")
    assert run.returncode == 0, run.stderr


def test_corpus_import_loads_no_model_module():
    run = run_python("import sys, essayscore.corpus; "
                     "sys.exit(' '.join(m for m in ('essayscore.lstm', "
                     "'essayscore.saliency', 'essayscore.sswe') "
                     "if m in sys.modules) or None)")
    assert run.returncode == 0, run.stderr


def test_import_and_synth_leave_scipy_special_unloaded(tmp_path):
    # the LSTM step loop imports scipy.special itself, so that commands
    # which run no LSTM (ingest, train-embeddings, synth) start without it
    out = tmp_path / "s.tsv"
    run = run_python("import sys, essayscore, essayscore.cli; "
                     f"essayscore.cli.main(['synth', '--profile', "
                     f"'overfit16', '--out', {str(out)!r}]); "
                     "sys.exit('scipy.special' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert out.exists()


def parity_essays():
    # four candidate words and 12 corruptions per window force repeated
    # draws and draws that hit context ids; essays repeat ids within a
    # window and carry unknown words and edge padding, and one is
    # shorter than the window. The reference pads each essay on its
    # own, so parity also checks the shared stream of extract_windows
    vocab = Vocabulary(["a", "b", "c", "d"])
    essays = [make_essay(tokens, essay_id=k, raw=float(3 * k + 2))
              for k, tokens in enumerate([[3, 3, 4, 1, 3, 5], [6, 1, 1, 6, 4],
                                          [5, 5, 5], [4]])]
    return vocab, essays


def assert_matches_reference(essays, vocab, cfg):
    got, history = train_sswe(essays, vocab, cfg)
    want, losses = reference_train(essays, vocab, cfg)
    assert got.M.flags.f_contiguous
    # the factored step rounds differently from the dense one; the
    # reference's b_o2 is pure rounding residue around its exact 0
    for name in ("M",) + got.dense_names():
        a, b = getattr(got, name), getattr(want, name)
        tol = 1e-12 * np.max(np.abs(b))
        if name == "b_o2":
            tol = max(tol, 1e-15)
        assert np.max(np.abs(a - b)) <= tol, name
    k = sum(len(e.tokens) for e in essays)
    for epoch, h in enumerate(history):
        mean = sum(losses[epoch * k:(epoch + 1) * k]) / k
        assert h.loss_overall == pytest.approx(mean, rel=1e-12, abs=0)


class TestReferenceParity:
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_training_matches_dict_accumulation(self, alpha):
        vocab, essays = parity_essays()
        cfg = Config(embed_dim=4, hidden_dim=5, window_size=5,
                     n_corruptions=12, alpha=alpha, learning_rate=0.2,
                     embed_epochs=3, seed=5)
        assert_matches_reference(essays, vocab, cfg)

    def test_saturated_training_matches_dict_accumulation(self,
                                                          monkeypatch):
        # a scaled-up network saturates hidden units, so the corruptions
        # of one run take the shared row, the partial rows and the
        # inactive path
        init = SSWEParams.init.__func__

        def scaled_init(cls, vocab_size, cfg, rng):
            params = init(cls, vocab_size, cfg, rng)
            params.W_hi *= 25.0
            params.W_oh2 *= 30.0
            return params

        seen = []

        def recording_backward(params, ids, centers, gold, alpha):
            grads = backward(params, ids, centers, gold, alpha)
            seen.append((ids.tolist(), centers, grads))
            return grads

        monkeypatch.setattr(SSWEParams, "init", classmethod(scaled_init))
        monkeypatch.setattr(sswemod, "backward", recording_backward)
        vocab, essays = parity_essays()
        cfg = Config(embed_dim=4, hidden_dim=5, window_size=5,
                     n_corruptions=12, alpha=0.5, learning_rate=0.2,
                     embed_epochs=3, seed=5)
        assert_matches_reference(essays, vocab, cfg)

        shared = sum(np.count_nonzero(g.weights) for *_, g in seen)
        partial = sum(g.partial.size for *_, g in seen)
        inactive = sum(g.centers.size for *_, g in seen) - shared - partial
        assert shared and partial and inactive
        assert any(g.weights.any() and g.partial.size for *_, g in seen)
        assert any(g.centers.size < len(drawn) for _, drawn, g in seen)
        assert any(set(ctx) & set(g.centers.tolist()) for ctx, _, g in seen)
        assert any(len(set(ctx)) < len(ctx) for ctx, *_ in seen)


class TestNeighbors:
    def test_cosine_ordering_and_exclusion(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        cfg = Config(embed_dim=2, hidden_dim=2, window_size=3)
        p = SSWEParams.init(len(vocab), cfg, np.random.default_rng(0))
        p.M[...] = 0.0
        p.M[:, vocab.id_of("a")] = [1.0, 0.0]
        p.M[:, vocab.id_of("b")] = [1.0, 0.1]
        p.M[:, vocab.id_of("c")] = [0.0, 1.0]
        p.M[:, vocab.id_of("d")] = [-1.0, 0.0]
        got = nearest_neighbors(p, vocab, "a", k=3)
        names = [w for w, _ in got]
        assert names[0] == "b"
        assert names[-1] == "d"
        assert "a" not in names
        assert got[0][1] > got[-1][1]

    def test_ranking_matches_a_sort_by_similarity_then_id(self):
        # columns from few distinct directions, so similarities tie, and
        # zero columns at similarity 0; the query itself is zero once
        rng = np.random.default_rng(8)
        vocab = Vocabulary([f"w{k}" for k in range(60)])
        cfg = Config(embed_dim=3, hidden_dim=2, window_size=3)
        p = SSWEParams.init(len(vocab), cfg, rng)
        p.M[...] = rng.integers(-1, 2, size=(3, 4))[:, rng.integers(
            4, size=len(vocab))] * rng.integers(1, 4, size=len(vocab))
        p.M[:, rng.choice(len(vocab), 12, replace=False)] = 0.0
        p.M[:, 5] = 0.0
        norms = np.linalg.norm(p.M, axis=0)
        for word in ("w0", "w1", "w2", "w7"):
            wid = vocab.id_of(word)
            with np.errstate(invalid="ignore", divide="ignore"):
                sims = np.where((norms > 0) & (norms[wid] > 0),
                                (p.M[:, wid] @ p.M) / (norms * norms[wid]),
                                0.0)
            want = sorted((i for i in range(N_SPECIALS, len(vocab))
                           if i != wid), key=lambda i: (-sims[i], i))
            assert len(set(sims[want].tolist())) < len(want) / 4
            for k in (1, 10, len(vocab)):
                got = nearest_neighbors(p, vocab, word, k=k)
                assert got == [(vocab.id_to_token[i], float(sims[i]))
                               for i in want[:k]], (word, k)

    def test_distance_consistency(self):
        vocab = Vocabulary(["a", "b"])
        cfg = Config(embed_dim=3, hidden_dim=2, window_size=3)
        p = SSWEParams.init(len(vocab), cfg, np.random.default_rng(1))
        d_ab = cosine_distance(p, vocab, "a", "b")
        d_ba = cosine_distance(p, vocab, "b", "a")
        assert d_ab == pytest.approx(d_ba)
        assert cosine_distance(p, vocab, "a", "a") == pytest.approx(0.0)


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        vocab = Vocabulary(["alpha", "beta", "gamma"])
        cfg = Config(embed_dim=3, hidden_dim=4, window_size=3)
        p = SSWEParams.init(len(vocab), cfg, np.random.default_rng(9))
        path = tmp_path / "emb.sswe"
        save_embeddings(path, p, vocab, config_hash="cafe01")
        q, loaded_vocab, chash = load_embeddings(path)
        assert chash == "cafe01"
        assert loaded_vocab.id_to_token == vocab.id_to_token
        assert all(np.array_equal(getattr(p, n), getattr(q, n))
                   for n in ("M",) + p.dense_names())

    def test_loaded_matrix_is_word_major_and_resaves_identically(self,
                                                                 tmp_path):
        vocab = Vocabulary(["alpha", "beta", "gamma"])
        cfg = Config(embed_dim=3, hidden_dim=4, window_size=3)
        p = SSWEParams.init(len(vocab), cfg, np.random.default_rng(8))
        path = tmp_path / "emb.sswe"
        save_embeddings(path, p, vocab, config_hash="beef")
        q, loaded_vocab, chash = load_embeddings(path)
        assert q.M.flags.f_contiguous
        again = tmp_path / "again.sswe"
        save_embeddings(again, q, loaded_vocab, chash)
        assert again.read_bytes() == path.read_bytes()

    def test_scorer_training_ignores_embedding_layout(self):
        # pretrained embeddings reach the scorer Fortran-ordered, fresh
        # ones C-ordered; training must not depend on which
        rng = np.random.default_rng(6)
        M = rng.uniform(-0.5, 0.5, size=(5, 12))
        ranges = {1: ScoreRange(0, 10)}
        essays = [make_essay(rng.integers(0, 12, size=7 + k), essay_id=k,
                             raw=float(k % 11)) for k in range(6)]
        cfg = Config(lstm_dim=3, layers=2, bidirectional=True,
                     dropout=0.3, peepholes="full", learning_rate=0.01,
                     epochs=3, batch_size=4, patience=3, seed=2)
        results = []
        for layout in (np.asfortranarray, np.ascontiguousarray):
            model = SeqModel.init(layout(M.copy()), cfg,
                                  np.random.default_rng(1))
            results.append(train_scorer(model, essays[:4], essays[4:],
                                        ranges, cfg))
        (a, ha), (b, hb) = results
        assert ha == hb
        for (name, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
            assert np.array_equal(x, y), name

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.sswe"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ModelFormatError, match="magic"):
            load_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        vocab = Vocabulary(["alpha", "beta"])
        cfg = Config(embed_dim=3, hidden_dim=4, window_size=3)
        p = SSWEParams.init(len(vocab), cfg, np.random.default_rng(4))
        path = tmp_path / "emb.sswe"
        save_embeddings(path, p, vocab)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_embeddings(path)

    def test_even_window_rejected(self, tmp_path):
        # a consistent file whose header says window 4: the tensors fit,
        # the architecture does not
        vocab = Vocabulary(["alpha", "beta"])
        rng = np.random.default_rng(5)
        d, h = 3, 2
        p = SSWEParams(M=rng.uniform(size=(d, len(vocab))),
                       W_hi=rng.uniform(size=(h, 4 * d)), b_h=np.zeros(h),
                       W_oh2=rng.uniform(size=h), b_o2=np.zeros(1),
                       W_oh1=rng.uniform(size=h), b_o1=np.zeros(1))
        assert p.window_size == 4
        path = tmp_path / "emb.sswe"
        save_embeddings(path, p, vocab)
        with pytest.raises(ModelFormatError, match="corrupt architecture"):
            load_embeddings(path)

    # sha256 of the saved bytes, computed with the embedding file's own
    # reader and writer before both formats shared one container
    PINNED = [
        (["alpha", "beta", "gamma"], dict(embed_dim=3, hidden_dim=4,
                                          window_size=3), "0123abcd4567ef89",
         "9aefb3e92155d530734aa68f2e249e25952061416644d6a5734cb6d4b5fb4057"),
        (["naïve", "café", "日本語"], dict(embed_dim=5, hidden_dim=2,
                                         window_size=5), "cafe01",
         "1aad24732d3f9585838460e0f5ab046110d6d951e17d8117797b76ae87aecd87"),
        ([], dict(embed_dim=2, hidden_dim=3, window_size=7), "",
         "a60d8bb1cd3d11bafb624a00a566948996f26ebd906c070eccf6e2766014bb50"),
    ]

    @pytest.mark.parametrize("words,dims,chash,digest", PINNED,
                             ids=["ascii", "non-ascii", "specials-only"])
    def test_seeded_embedding_bytes_are_pinned(self, tmp_path, words, dims,
                                               chash, digest):
        vocab = Vocabulary(words)
        p = SSWEParams.init(len(vocab), Config(**dims),
                            np.random.default_rng(2024))
        path, again = tmp_path / "e.sswe", tmp_path / "again.sswe"
        save_embeddings(path, p, vocab, config_hash=chash)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        save_embeddings(again, *load_embeddings(path))
        assert again.read_bytes() == path.read_bytes()

    def test_trained_embedding_bytes_are_pinned(self, tmp_path):
        # one seeded epoch over essays that repeat ids, one of them
        # shorter than the window; the digest and the losses were
        # computed when each caller built its windows as a list of
        # per-essay tuples, so they pin the windows, their order, the
        # corruption draws and the step's arithmetic
        vocab = Vocabulary(["a", "b", "c", "d", "e", "f"])
        essays = [make_essay([3, 4, 3, 5, 6, 3, 7], essay_id=0, raw=2.0),
                  make_essay([8, 1, 8], essay_id=1, raw=7.0),
                  make_essay([4, 4, 5, 6, 7, 8, 3, 4], essay_id=2, raw=9.0)]
        cfg = Config(embed_dim=4, hidden_dim=5, window_size=5,
                     n_corruptions=6, alpha=0.1, learning_rate=0.05,
                     embed_epochs=1, seed=7)
        params, history = train_sswe(essays, vocab, cfg)
        assert history == [EpochLosses(0, 0.30596652434412214,
                                       1.0000195024606482,
                                       0.22884952677561912)]
        path = tmp_path / "e.sswe"
        save_embeddings(path, params, vocab, config_hash="0123abcd4567ef89")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "6871b7a001e3b2b7b11f78b90b39e63fc7bda7ae69f43cd0c0c7487887694edd"

    def test_truncation(self, tmp_path):
        vocab = Vocabulary(["alpha", "beta"])
        cfg = Config(embed_dim=3, hidden_dim=4, window_size=3)
        p = SSWEParams.init(len(vocab), cfg, np.random.default_rng(0))
        path = tmp_path / "emb.sswe"
        save_embeddings(path, p, vocab)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_embeddings(path)

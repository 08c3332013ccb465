"""Token quality maps: gradients, binning, and the two renderers."""

import hashlib
import re

import numpy as np
import pytest

from essayscore.corpus import ScoreRange, Vocabulary
from essayscore.errors import DataError
import essayscore.lstm as lstmmod
from essayscore.lstm import bptt, forward_essay
from essayscore.saliency import (ANSI_SCALE, HEX_SCALE, QualityMap,
                                 TokenQuality, input_gradients, quality_bins,
                                 quality_map, quality_map_spans, render_ansi,
                                 render_html)

from conftest import (as_views, finite_difference, make_essay,
                      max_relative_error)
from test_lstm import build_model


def words_vocab():
    return Vocabulary([f"w{k}" for k in range(8)])


def model_digest(model):
    h = hashlib.sha256()
    for name, arr in model.named_arrays():
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class TestInputGradients:
    def test_matches_finite_differences_on_embedding_columns(self):
        model = build_model(vocab=8, embed_dim=3, seed=50, lstm_dim=2,
                            boost=8.0, mscale=1.0, peepholes="full")
        tokens = [3, 5, 7]  # distinct, so each column maps to one position
        pseudo = 1.0
        d_inputs = input_gradients(model, tokens, pseudo)

        def loss():
            y, _ = forward_essay(model, tokens)
            return (y - pseudo) ** 2

        numeric = finite_difference(loss, {"M": model.M})["M"]
        analytic = np.zeros_like(model.M)
        for t, tok in enumerate(tokens):
            analytic[:, tok] = d_inputs[t]
        assert max_relative_error({"M": analytic}, {"M": numeric},
                                  floor=1e-6) <= 1e-4

    def test_gradients_for_two_pseudo_scores_are_parallel(self):
        # d(y-p)^2/ds = 2(y-p) dy/ds, so the two maps differ by a scalar
        model = build_model(vocab=8, seed=51, boost=5.0)
        tokens = [1, 4, 2, 6]
        y, _ = forward_essay(model, tokens)
        d_max = input_gradients(model, tokens, 1.0)
        d_min = input_gradients(model, tokens, 0.0)
        assert np.allclose(d_max * (y - 0.0), d_min * (y - 1.0), rtol=1e-10)

    def test_zero_when_prediction_equals_pseudo_score(self):
        model = build_model(vocab=8, seed=52)
        tokens = [2, 3, 4]
        y, _ = forward_essay(model, tokens)
        assert np.all(input_gradients(model, tokens, y) == 0.0)

    def test_works_out_no_parameter_gradient(self, monkeypatch):
        # the input gradients of bptt, bit for bit, from a backward pass
        # that never reaches the parameter gradients
        model = build_model(vocab=8, seed=52, boost=5.0, lstm_dim=3,
                            layers=2, bidirectional=True, peepholes="full")
        tokens = [2, 7, 7, 1, 5]
        _, cache = forward_essay(model, tokens)
        want = bptt(model, cache, 0.25)[1]

        def no_parameter_gradients(*args):
            raise AssertionError("parameter gradients worked out")

        monkeypatch.setattr(lstmmod, "_layer_grads", no_parameter_gradients)
        assert input_gradients(model, tokens, 0.25).tobytes() \
            == want.tobytes()

    def test_model_is_left_untouched(self):
        model = build_model(vocab=11, seed=53, bidirectional=True,
                            peepholes="diagonal")
        vocab = words_vocab()
        before = model_digest(model)
        essay = make_essay([3, 5, 7, 4, 6], raw=6.0)
        quality_map(model, essay, vocab)
        quality_map_spans(model, essay, vocab, span_len=2)
        assert model_digest(model) == before


class TestBins:
    def test_eight_distinct_values_fill_all_bins(self):
        q = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5])
        bins = quality_bins(q)
        # worst value 1.0 lands in bin 0, best 9.0 in bin 7
        assert bins[1] == 0
        assert bins[4] == 7
        assert sorted(bins) == list(range(8))

    def test_sixteen_values_give_pairs(self):
        q = np.arange(16.0)
        bins = quality_bins(q)
        assert list(bins) == [k // 2 for k in range(16)]

    def test_ties_split_by_position(self):
        bins = quality_bins(np.zeros(8))
        assert list(bins) == list(range(8))

    def test_short_essays_use_low_bins(self):
        assert list(quality_bins(np.array([0.5]))) == [0]
        assert list(quality_bins(np.array([2.0, 1.0]))) == [4, 0]
        assert list(quality_bins(np.array([1.0, 2.0, 3.0]))) == [0, 2, 5]

    def test_bins_are_monotone_in_quality(self):
        rng = np.random.default_rng(7)
        q = rng.normal(size=37)
        bins = quality_bins(q)
        order = np.argsort(q, kind="stable")
        assert list(bins[order]) == sorted(bins)

    def test_bins_ignore_positive_affine_rescaling(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=23)
        assert np.array_equal(quality_bins(q), quality_bins(3.0 * q + 11.0))

    def test_last_bin_is_clamped(self):
        assert max(quality_bins(np.arange(9.0))) == 7


class TestQualityMap:
    def test_entries_follow_gradient_magnitudes(self):
        model = build_model(vocab=11, seed=54, boost=5.0)
        vocab = words_vocab()
        tokens = [3, 5, 7, 5, 9]
        essay = make_essay(tokens, essay_id=17, raw=4.0)
        qmap = quality_map(model, essay, vocab)

        d_max = input_gradients(model, tokens, 1.0)
        d_min = input_gradients(model, tokens, 0.0)
        mag_max = np.linalg.norm(d_max, axis=1)
        mag_min = np.linalg.norm(d_min, axis=1)
        assert qmap.essay_id == 17
        assert qmap.tokens() == vocab.decode(tokens)
        for t, e in enumerate(qmap.entries):
            assert e.mag_max == pytest.approx(mag_max[t], rel=1e-12)
            assert e.mag_min == pytest.approx(mag_min[t], rel=1e-12)
            assert e.quality == pytest.approx(mag_min[t] - mag_max[t],
                                              rel=1e-12)
        assert qmap.mean_quality == pytest.approx(
            float(np.mean(mag_min - mag_max)), rel=1e-12)

    def test_predicted_score_is_clamped_and_unscaled(self):
        model = build_model(vocab=8, seed=55)
        model.W_yh[...] = 0.0
        vocab = words_vocab()
        essay = make_essay([3, 4], raw=5.0)
        model.b_y[0] = 0.25
        assert quality_map(model, essay, vocab).predicted == 0.25
        got = quality_map(model, essay, vocab,
                          score_range=ScoreRange(0, 10)).predicted
        assert got == 2.5
        model.b_y[0] = 1.4
        got = quality_map(model, essay, vocab,
                          score_range=ScoreRange(0, 10)).predicted
        assert got == 10.0

    def test_empty_essay_rejected(self):
        model = build_model(vocab=8)
        essay = make_essay([], raw=5.0)
        with pytest.raises(DataError):
            quality_map(model, essay, words_vocab())


class TestOnePassClosedForm:
    """One forward and one backward pass give what two pseudo-score
    gradient passes give: mag_p = |2 (y - p)| |dy/dx_t|."""

    @staticmethod
    def two_pass(model, tokens, y_max=1.0, y_min=0.0):
        mag_max = np.linalg.norm(input_gradients(model, tokens, y_max), axis=1)
        mag_min = np.linalg.norm(input_gradients(model, tokens, y_min), axis=1)
        return mag_max, mag_min

    @pytest.mark.parametrize("arch", [
        dict(layers=1, bidirectional=False, peepholes="full"),
        dict(layers=2, bidirectional=True, peepholes="full"),
    ], ids=["uni1", "bi2"])
    def test_maps_match_two_gradient_passes(self, arch):
        model = build_model(vocab=11, seed=59, boost=5.0, **arch)
        vocab = Vocabulary([f"w{k}" for k in range(11)])
        tokens = [3, 5, 7, 4, 6, 8, 9, 3, 10]
        essay = make_essay(tokens, essay_id=3, raw=6.0)
        for y_max, y_min in ((1.0, 0.0), (0.8, 0.1)):
            whole = quality_map(model, essay, vocab, y_max=y_max, y_min=y_min)
            mag_max, mag_min = self.two_pass(model, tokens, y_max, y_min)
            got = np.array([(e.mag_max, e.mag_min) for e in whole.entries])
            assert np.allclose(got[:, 0], mag_max, rtol=1e-12, atol=0)
            assert np.allclose(got[:, 1], mag_min, rtol=1e-12, atol=0)

            spans = quality_map_spans(model, essay, vocab, span_len=4,
                                      y_max=y_max, y_min=y_min)
            got = np.array([(e.mag_max, e.mag_min) for e in spans.entries])
            for start in range(0, len(tokens), 4):
                mag_max, mag_min = self.two_pass(
                    model, tokens[start:start + 4], y_max, y_min)
                part = got[start:start + 4]
                assert np.allclose(part[:, 0], mag_max, rtol=1e-12, atol=0)
                assert np.allclose(part[:, 1], mag_min, rtol=1e-12, atol=0)

    def test_ranking_flips_below_the_midpoint(self):
        model = build_model(vocab=11, seed=60, boost=5.0)
        model.W_yh[...] *= 0.01  # y stays near b_y, on the chosen side
        vocab = Vocabulary([f"w{k}" for k in range(11)])
        essay = make_essay([3, 5, 7, 4, 6, 8, 9, 10], raw=6.0)
        bins = {}
        for side, bias in (("high", 0.8), ("low", 0.2)):
            model.b_y[0] = bias
            qmap = quality_map(model, essay, vocab)
            norms = np.array([e.mag_max + e.mag_min for e in qmap.entries])
            bins[side] = [e.bin for e in qmap.entries]
            sign = 1.0 if side == "high" else -1.0
            assert list(bins[side]) == list(quality_bins(sign * norms))
        assert bins["high"] == [7 - b for b in bins["low"]]


class TestSpans:
    def test_long_span_reduces_to_whole_essay_map(self):
        model = build_model(vocab=11, seed=56, boost=5.0)
        vocab = words_vocab()
        essay = make_essay([3, 5, 7, 4], essay_id=9, raw=6.0)
        whole = quality_map(model, essay, vocab)
        for span_len in (4, 5, 100):
            spans = quality_map_spans(model, essay, vocab, span_len)
            assert spans.entries == whole.entries
            assert spans.predicted == whole.predicted

    def test_tiles_are_scored_in_isolation(self):
        model = build_model(vocab=11, seed=57, boost=5.0)
        vocab = words_vocab()
        tokens = [3, 5, 7, 4, 6]
        essay = make_essay(tokens, essay_id=4, raw=6.0)
        got = quality_map_spans(model, essay, vocab, span_len=2)
        assert got.tokens() == vocab.decode(tokens)
        assert got.predicted == quality_map(model, essay, vocab).predicted
        chunks = [tokens[0:2], tokens[2:4], tokens[4:5]]
        expected = []
        for chunk in chunks:
            sub = quality_map(model, make_essay(chunk, essay_id=4, raw=6.0),
                              vocab)
            expected.extend(sub.entries)
        # the spans run as one batch, whose products may round differently
        # from one-span runs in the last place
        assert [(e.token, e.bin) for e in got.entries] \
            == [(e.token, e.bin) for e in expected]
        for e, x in zip(got.entries, expected):
            for field in ("mag_max", "mag_min", "quality"):
                assert getattr(e, field) == pytest.approx(getattr(x, field),
                                                          rel=1e-12)

    @pytest.mark.parametrize("span_len", [3, 7, 40])
    def test_token_list_and_int32_view_agree(self, span_len):
        model = build_model(vocab=8, seed=59, boost=5.0, layers=2,
                            bidirectional=True)
        tokens = np.random.default_rng(span_len).integers(0, 8, 20).tolist()
        essay = make_essay(tokens, essay_id=4, raw=6.0)
        view, = as_views([make_essay([5]), essay])[1:]
        got = quality_map_spans(model, view, words_vocab(), span_len)
        want = quality_map_spans(model, essay, words_vocab(), span_len)
        assert got.tokens() == want.tokens()
        assert got.predicted == want.predicted
        mags = [np.array([(e.mag_max, e.mag_min, e.quality)
                          for e in q.entries]) for q in (got, want)]
        assert mags[0].tobytes() == mags[1].tobytes()

    def test_bins_are_assigned_within_each_tile(self):
        model = build_model(vocab=11, seed=58, boost=5.0)
        vocab = words_vocab()
        essay = make_essay([3, 5, 7, 4, 6, 8], raw=6.0)
        got = quality_map_spans(model, essay, vocab, span_len=3)
        for start in (0, 3):
            tile = got.entries[start:start + 3]
            assert sorted(e.bin for e in tile) == [0, 2, 5]

    def test_predicted_score_is_clamped_to_unit_interval(self):
        model = build_model(vocab=9, seed=30)
        model.W_yh[...] = 0.0
        essay = make_essay([1, 2, 3], raw=5.0)
        for bias, want in ((1.2, 1.0), (-0.2, 0.0), (0.25, 0.25)):
            model.b_y[0] = bias
            got = quality_map_spans(model, essay, words_vocab(), span_len=2)
            assert got.predicted == want

    def test_bad_span_length_rejected(self):
        model = build_model(vocab=8)
        essay = make_essay([1, 2], raw=5.0)
        with pytest.raises(DataError):
            quality_map_spans(model, essay, words_vocab(), span_len=0)


def tiny_map():
    entries = [TokenQuality("alpha", 0.5, 0.1, -0.4, 0),
               TokenQuality("beta", 0.2, 0.3, 0.1, 3),
               TokenQuality("gamma", 0.1, 0.9, 0.8, 7)]
    return QualityMap(essay_id=12, predicted=0.62, entries=entries)


class TestRenderAnsi:
    def test_colored_output_uses_octile_codes(self):
        text = render_ansi(tiny_map())
        assert f"\x1b[38;5;{ANSI_SCALE[0]}malpha\x1b[0m" in text
        assert f"\x1b[38;5;{ANSI_SCALE[3]}mbeta\x1b[0m" in text
        assert f"\x1b[38;5;{ANSI_SCALE[7]}mgamma\x1b[0m" in text

    def test_stripping_codes_recovers_the_text(self):
        text = render_ansi(tiny_map())
        stripped = re.sub(r"\x1b\[[0-9;]*m", "", text)
        assert stripped == "alpha beta gamma"

    def test_monochrome_mode(self):
        assert render_ansi(tiny_map(), monochrome=True) == \
            "alpha[0] beta[3] gamma[7]"


class TestRenderHtml:
    def test_page_structure(self, tmp_path):
        path = tmp_path / "essay_12.html"
        render_html(tiny_map(), path, config_hash="cafe0123cafe0123")
        doc = path.read_text()
        assert doc.startswith("<!DOCTYPE html>")
        assert "essay 12, predicted 0.62" in doc
        assert '<meta name="config" content="cafe0123cafe0123">' in doc
        for word, bin_ in (("alpha", 0), ("beta", 3), ("gamma", 7)):
            assert word in doc
            assert HEX_SCALE[bin_] in doc

    def test_dark_bins_get_light_text(self, tmp_path):
        path = tmp_path / "out.html"
        render_html(tiny_map(), path)
        doc = path.read_text()
        assert doc.count("color:#f0f0f0") == 2  # bins 0 and 7
        assert doc.count("color:#111111") == 1  # bin 3
        assert '<meta name="config"' not in doc

    def test_tokens_are_escaped(self, tmp_path):
        entries = [TokenQuality("<script>", 0.1, 0.2, 0.1, 4)]
        qmap = QualityMap(essay_id=1, predicted=0.5, entries=entries)
        path = tmp_path / "esc.html"
        render_html(qmap, path)
        doc = path.read_text()
        assert "<script>" not in doc
        assert "&lt;script&gt;" in doc

    def test_empty_map_rejected(self, tmp_path):
        qmap = QualityMap(essay_id=1, predicted=0.5, entries=[])
        with pytest.raises(DataError):
            render_html(qmap, tmp_path / "never.html")

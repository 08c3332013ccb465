"""Synthetic corpus profiles: shape, planted structure, determinism."""

import dataclasses
import os
import tempfile

import pytest

from essayscore.corpus import load_corpus
from essayscore.errors import ConfigError
from essayscore.synth import (BAND_SCORES, BAND_WORDS, MISSPELL_PAIRS,
                              QUALITY_WORDS, generate, write_tsv)


def rows_of(profile, seed=0):
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "synth.tsv")
        write_tsv(path, profile, seed)
        corpus, row_errors = load_corpus(path, min_count=1)
    assert row_errors == []
    return [dataclasses.replace(e, tokens=corpus.vocab.decode(e.tokens))
            for e in corpus.essays]


class TestGenerate:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            generate("nope")

    def test_determinism(self):
        for profile in ("overfit16", "misspell", "ablation"):
            assert generate(profile, seed=3) == generate(profile, seed=3)
        assert generate("overfit16", seed=1) != generate("overfit16", seed=2)

    def test_write_matches_generate(self, tmp_path):
        path = tmp_path / "synth.tsv"
        write_tsv(path, "misspell", seed=5)
        assert path.read_text() == generate("misspell", seed=5)

    def test_rows_ingest_cleanly(self):
        for profile in ("overfit16", "misspell", "ablation"):
            essays = rows_of(profile)
            assert essays
            assert all(e.set_id == 1 for e in essays)
            assert all(e.tokens for e in essays)


class TestOverfit16:
    def test_sixteen_essays_span_the_range(self):
        essays = rows_of("overfit16")
        assert len(essays) == 16
        scores = sorted(e.raw_score for e in essays)
        assert scores[0] == 0.0
        assert scores[-1] == 10.0
        assert len(set(scores)) > 5

    def test_score_equals_lowest_quality_level(self):
        essays = rows_of("overfit16")
        for essay in essays:
            levels = [QUALITY_WORDS.index(t) for t in essay.tokens
                      if t in QUALITY_WORDS]
            assert levels
            assert min(levels) == int(essay.raw_score)

    def test_extreme_essays_have_unique_markers(self):
        # the lowest and highest scores own words no other essay uses
        essays = rows_of("overfit16")
        lows = [e for e in essays if e.raw_score == 0.0]
        others = [e for e in essays if e.raw_score != 0.0]
        low_words = set().union(*(set(e.tokens) for e in lows))
        other_words = set().union(*(set(e.tokens) for e in others))
        assert "terrible" in low_words - other_words


class TestMisspell:
    def test_misspellings_confined_to_bottom_quartile(self):
        essays = rows_of("misspell")
        assert len(essays) == 40
        wrong_words = {wrong for _, wrong in MISSPELL_PAIRS}
        for essay in essays:
            hit = set(essay.tokens) & wrong_words
            if essay.raw_score == 1.0:
                assert hit == wrong_words
            else:
                assert hit == set()

    def test_scores_separate_variants(self):
        essays = rows_of("misspell")
        scores = sorted({e.raw_score for e in essays})
        assert scores == [1.0, 4.0, 6.0, 9.0]
        mis = [e.raw_score for e in essays
               if set(e.tokens) & {w for _, w in MISSPELL_PAIRS}]
        clean = [e.raw_score for e in essays
                 if not set(e.tokens) & {w for _, w in MISSPELL_PAIRS}]
        assert max(mis) < min(clean)

    def test_contexts_are_identical_around_variants(self):
        # swapping each misspelling for its correct form must make a
        # bottom-quartile essay's sentence set match a clean essay's
        essays = rows_of("misspell")
        fix = {wrong: correct for correct, wrong in MISSPELL_PAIRS}
        def sentence_set(tokens):
            text = " ".join(tokens)
            return {s.strip(" .") for s in text.split(" . ") if s.strip(" .")}
        repaired = sentence_set(
            [fix.get(t, t) for t in essays[0].tokens])
        clean = sentence_set(essays[10].tokens)
        assert repaired == clean


class TestAblation:
    def test_bands_are_exclusive(self):
        essays = rows_of("ablation")
        assert len(essays) == 60
        by_score = {}
        for essay in essays:
            by_score.setdefault(essay.raw_score, []).append(essay)
        assert sorted(by_score) == [float(s) for s in BAND_SCORES]
        for band, score in enumerate(BAND_SCORES):
            group = by_score[float(score)]
            assert len(group) == 12
            markers = set().union(*(set(e.tokens) for e in group))
            for other_band, words in enumerate(BAND_WORDS):
                overlap = markers & set(words)
                if other_band == band:
                    assert overlap
                else:
                    assert overlap == set()

    def test_non_marker_text_is_shared(self):
        essays = rows_of("ablation")
        all_markers = set().union(*(set(w) for w in BAND_WORDS))
        skeletons = {tuple(t for t in e.tokens if t not in all_markers)
                     for e in essays}
        # sentence counts vary but the wording does not
        assert len({s[:9] for s in skeletons}) == 1


class TestTokenizeRoundTrip:
    def test_generated_text_splits_into_plain_words(self):
        for profile in ("overfit16", "misspell", "ablation"):
            essays = rows_of(profile)
            for essay in essays:
                for tok in essay.tokens:
                    assert tok == "." or tok.isalpha()

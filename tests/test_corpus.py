import hashlib
import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essayscore import synth
from essayscore.config import Config
from essayscore.corpus import (
    BOUNDARY_ID,
    N_SPECIALS,
    PAD_ID,
    UNK_ID,
    Corpus,
    ScoreRange,
    Vocabulary,
    corrupt_window,
    extract_windows,
    load_corpus,
    load_corpus_cache,
    read_manifest,
    read_range_table,
    save_corpus_cache,
    split_corpus,
    tokenize,
    write_manifest,
)
from essayscore.errors import ConfigError, DataError

import reference_corpus
from conftest import as_views, make_essay
from reference_sswe import essay_windows

# pieces of fuzzed essay text: placeholders and look-alikes, lone and
# doubled "@", letters whose lowercase differs in length or script,
# digits, punctuation, and whitespace of several kinds
TEXT_PIECES = ["@CAPS3", "@Caps", "@CAPS", "@NUM12x", "@@", "@", "@1",
               "\u0130", "\u0130stanbul", "\u00df", "\u00c9T\u00c9", "\u01c5",
               "\u212a", "\u03a9mega", "\ufb01", "\u00e9", "x", "Word", "ABC",
               "mIxEd", "42", "7b", "b7", ",", ".", "!", "'", "_", "-", "\u2014",
               " ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\x0b"]


def fuzz_texts(seed: int, n: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return ["".join(TEXT_PIECES[i] for i in
                    rng.integers(len(TEXT_PIECES), size=rng.integers(0, 40)))
            for _ in range(n)]


class TestTokenize:
    def test_lowercases_and_splits_words(self):
        assert tokenize("Being patience is being") == \
            ["being", "patience", "is", "being"]

    def test_punctuation_is_standalone(self):
        assert tokenize("I hope you feel the same way .") == \
            ["i", "hope", "you", "feel", "the", "same", "way", "."]
        assert tokenize("Well, yes!") == ["well", ",", "yes", "!"]

    def test_anonymization_placeholders_kept_verbatim(self):
        assert tokenize("Dear @CAPS3, hello") == \
            ["Dear".lower(), "@CAPS3", ",", "hello"]
        assert tokenize("@LOCATION1 and @NUM2") == \
            ["@LOCATION1", "and", "@NUM2"]

    def test_lone_at_sign_is_not_a_placeholder(self):
        assert tokenize("a@b") == ["a", "@", "b"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_numbers_are_words(self):
        assert tokenize("in 1984 I was") == ["in", "1984", "i", "was"]

    def test_matches_the_finditer_reference(self):
        for text in fuzz_texts(18, 4000) + [FIXTURE_TSV]:
            assert tokenize(text) == reference_corpus.tokenize(text), text


class TestVocabulary:
    def test_specials_occupy_first_ids(self):
        v = Vocabulary(["cat"])
        assert v.id_to_token[:N_SPECIALS] == ["<pad>", "<unk>", "<edge>"]
        assert v.id_of("cat") == N_SPECIALS

    def test_oov_token_is_unk_in_a_loaded_corpus(self, tmp_path):
        corpus, _ = load_corpus(
            write_rows(tmp_path, ["cat cat", "cat dog"]), min_count=2)
        assert corpus.vocab.token_to_id.get("dog") is None
        assert corpus.essays[1].tokens.tolist() == [N_SPECIALS, UNK_ID]

    def test_decode_round_trip(self, tiny_vocab):
        ids = [tiny_vocab.token_to_id[t] for t in ["the", "cat", "sat"]]
        assert tiny_vocab.decode(ids) == ["the", "cat", "sat"]

    def test_decode_takes_a_list_or_an_int32_view(self, tiny_vocab):
        ids = [3, 1, 12, 0, 4, 2]
        view = np.array([9] + ids, dtype=np.int32)[1:]
        assert tiny_vocab.decode(view) == tiny_vocab.decode(ids)
        assert all(type(tok) is str for tok in tiny_vocab.decode(view))
        assert tiny_vocab.decode(view[:0]) == tiny_vocab.decode([]) == []

    def test_id_of_unknown_raises(self, tiny_vocab):
        with pytest.raises(KeyError):
            tiny_vocab.id_of("missing")

    def test_build_orders_by_frequency_then_token(self, tmp_path):
        v = load_corpus(write_rows(tmp_path, ["b a a c c b a"]),
                        min_count=1)[0].vocab
        assert v.id_to_token[N_SPECIALS:] == ["a", "b", "c"]

    def test_build_drops_rare_tokens(self, tmp_path):
        v = load_corpus(write_rows(tmp_path, ["a a b"]), min_count=2)[0].vocab
        assert "a" in v.token_to_id
        assert "b" not in v.token_to_id

    def test_build_rejects_bad_min_count(self, tmp_path):
        with pytest.raises(ConfigError):
            load_corpus(write_rows(tmp_path, ["a"]), min_count=0)

    @pytest.mark.parametrize("min_count", [1, 3])
    def test_build_matches_the_tuple_key_sort(self, tmp_path, min_count):
        # about 200 distinct tokens in 11,000, so most counts are shared
        # by several tokens; tabs and line breaks become spaces, which
        # splits the text into the same tokens
        texts = [re.sub(r"[\t\r\n]", " ", text)
                 for text in fuzz_texts(min_count, 600)]
        seqs = [tokenize(text) for text in texts]
        want = reference_corpus.vocabulary_order(seqs, min_count)
        counts = {}
        for seq in seqs:
            for tok in seq:
                counts[tok] = counts.get(tok, 0) + 1
        assert len(want) > 50
        assert len(set(counts[tok] for tok in want)) < len(want) / 2
        got = load_corpus(write_rows(tmp_path, texts),
                          min_count=min_count)[0].vocab
        assert got.id_to_token[N_SPECIALS:] == want

    def test_build_is_deterministic(self, tmp_path):
        rows = ["x y z y", "z z x"]
        a = load_corpus(write_rows(tmp_path, rows), min_count=1)[0].vocab
        b = load_corpus(write_rows(tmp_path, rows[::-1]), min_count=1)[0].vocab
        assert a.id_to_token == b.id_to_token


def write_rows(tmp_path, texts):
    """A TSV of one set-1 essay scored 1 per text, ids from 1; returns
    its path."""
    p = tmp_path / "rows.tsv"
    p.write_text("essay_id\tessay_set\tessay\tdomain1_score\n"
                 + "".join(f"{k}\t1\t{text}\t1\n"
                           for k, text in enumerate(texts, start=1)),
                 encoding="utf-8")
    return p


def test_essays_compare_by_identity():
    # so comparing never reads the tokens, which as arrays of more than
    # one element would raise inside ==
    a, b = as_views([make_essay([4, 5]), make_essay([4, 5])])
    listed = make_essay([4, 5])
    assert a != b and not a == b and a != listed and listed != a
    assert a == a and b in [listed, b] and listed not in [a, b]


class TestScoreRange:
    def test_scale_endpoints(self):
        r = ScoreRange(2, 12)
        assert r.scale(2) == 0.0
        assert r.scale(12) == 1.0

    def test_round_trip_tight(self):
        r = ScoreRange(0, 60)
        for raw in np.linspace(0, 60, 121):
            assert abs(raw - r.unscale(r.scale(raw))) <= 1e-12

    def test_degenerate_range_maps_to_midpoint(self):
        r = ScoreRange(4, 4)
        assert r.scale(4) == 0.5
        assert r.unscale(r.scale(4)) == 4.0

    def test_clamp(self):
        r = ScoreRange(0, 10)
        assert r.clamp(-1) == 0
        assert r.clamp(11) == 10
        assert r.clamp(7) == 7


FIXTURE_TSV = """essay_id\tessay_set\tessay\tdomain1_score
1\t1\tDear local newspaper , I think effects computers have on people are great\t8
2\t1\tI hope you feel the same way .\t4
3\t2\tBeing patience is being understanding .\t3
"""

# the bytes of FIXTURE_TSV's cache in the artifact container, retaken
# when the cache left JSON, after each pinned corpus loaded equal from the
# two formats
PINNED_CACHE = \
    "146f8ec5ac72b9b4747da870620addb07fc29d89c77bb9004f1b0f5f436e1c76"


class TestIngest:
    def test_field_mapping(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(FIXTURE_TSV)
        corpus, row_errors = load_corpus(p, min_count=1)
        assert len(corpus.essays) == 3
        first = corpus.essays[0]
        assert (first.essay_id, first.set_id, first.raw_score) == (1, 1, 8.0)
        assert corpus.vocab.decode(first.tokens[:3]) \
            == ["dear", "local", "newspaper"]
        assert row_errors == []

    def test_tokens_are_int32_views_of_one_array(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(FIXTURE_TSV)
        corpus, _ = load_corpus(p, min_count=2)
        flat = corpus.essays[0].tokens.base
        assert flat.dtype == np.int32 and flat.size == 27
        assert all(e.tokens.dtype == np.int32 and e.tokens.base is flat
                   for e in corpus.essays)
        assert np.concatenate([e.tokens for e in corpus.essays]).tolist() \
            == flat.tolist()
        tokens = [tokenize(line.split("\t")[2])
                  for line in FIXTURE_TSV.splitlines()[1:]]
        assert [e.tokens.tolist() for e in corpus.essays] \
            == [[corpus.vocab.token_to_id.get(tok, UNK_ID) for tok in t]
                for t in tokens]

    def test_observed_ranges_per_set(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(FIXTURE_TSV)
        corpus, _ = load_corpus(p, min_count=1)
        assert corpus.ranges[1] == ScoreRange(4.0, 8.0)
        assert corpus.ranges[2] == ScoreRange(3.0, 3.0)

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("essay_id\tessay\n1\thello\n")
        with pytest.raises(DataError, match="essay_set"):
            load_corpus(p, min_count=1)

    def test_bad_score_reported_with_line_number(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("essay_id\tessay_set\tessay\tdomain1_score\n"
                     "1\t1\tfine essay here\t7\n"
                     "2\t1\tbroken essay\tN/A\n")
        corpus, row_errors = load_corpus(p, min_count=1)
        assert len(corpus.essays) == 1
        assert len(row_errors) == 1
        assert row_errors[0].line == 3
        assert "N/A" in row_errors[0].message

    def test_empty_essay_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("essay_id\tessay_set\tessay\tdomain1_score\n"
                     "1\t1\t\t7\n")
        corpus, row_errors = load_corpus(p, min_count=1)
        assert corpus.essays == []
        assert row_errors[0].line == 2

    def test_supplied_ranges_filter_out_of_range_rows(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(FIXTURE_TSV)
        corpus, row_errors = load_corpus(p, min_count=1,
                                         ranges={1: ScoreRange(0, 5),
                                                 2: ScoreRange(0, 5)})
        assert [e.essay_id for e in corpus.essays] == [2, 3]
        assert len(row_errors) == 1

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("essay_id\tessay_set\tessay\trater1\tdomain1_score\n"
                     "1\t1\tan essay\t9\t6\n")
        corpus, _ = load_corpus(p, min_count=1)
        assert corpus.essays[0].raw_score == 6.0

    def test_repeated_id_is_a_row_error_and_the_first_row_is_kept(
            self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(FIXTURE_TSV + "2\t1\ta later copy\t6\n")
        corpus, row_errors = load_corpus(p, min_count=1)
        assert [(e.essay_id, e.raw_score) for e in corpus.essays] \
            == [(1, 8.0), (2, 4.0), (3, 3.0)]
        assert len(row_errors) == 1
        assert row_errors[0].line == 5
        assert "essay_id 2 repeats line 3" in row_errors[0].message

    def test_rejected_row_does_not_claim_its_id(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("essay_id\tessay_set\tessay\tdomain1_score\n"
                     "1\t1\tbroken\tN/A\n"
                     "1\t1\tfine essay\t7\n")
        corpus, row_errors = load_corpus(p, min_count=1)
        assert [(e.essay_id, e.raw_score) for e in corpus.essays] == [(1, 7.0)]
        assert [err.line for err in row_errors] == [2]

    def test_scores_are_scaled_per_set(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(FIXTURE_TSV)
        corpus, _ = load_corpus(p, min_count=1)
        essays = corpus.essays
        assert essays[0].scaled_score == 1.0
        assert essays[1].scaled_score == 0.0
        assert essays[2].scaled_score == 0.5


# sha256 of the corpus cache of each synthetic profile (seed 0) at three
# min_counts, taken as PINNED_CACHE was (the corpora themselves are those
# pinned when ingestion still kept every token's string)
PINNED_SYNTH_CACHES = {
    "ablation": "e0dd6972689072ac44dbb7e095d9d56427192999d3549a5361946c60a6ea1f68",
    "misspell": "ca249b1cc3dd6b929001e1a48a6fcf096c5e792ad82141b2847b11c85aac1966",
    "overfit16-1":
        "3b8ffdc1ed5b1d12d0275ace913fbcc7099e797b1f0a5184f89e61ad354f6d78",
    "overfit16-2":
        "4915f3c39ca71389b0354b3d8bf3bfb29a173975aead9043148bcb0b33d281a1",
    "overfit16-3":
        "d4b3b684c5f2ff1309a011a7288309411b55446cfcd88832516903691c960ef1",
}

# rows appended to overfit16: a repeated id, a non-integer id, an empty
# essay, a bad score, a row of a second set and one whose tokens differ
# only in case or are placeholders and non-ASCII
MESSY_ROWS = ("3\t1\ta later copy of essay three\t1\n"
              "x\t1\ta row without an integer id\t1\n"
              "40\t1\t\t1\n"
              "41\t1\tthe castle is terrible terrible\tN/A\n"
              "42\t2\tthe music is strong , the river is great .\t2\n"
              "43\t1\tZebra zebra ZEBRA @CAPS1 @CAPS1 qu\u00e9 qu\u00e9\t4\n")

# (with a range table, min_count): sha256 of the cache, taken as above
PINNED_MESSY_CACHES = {
    (False, 1):
        "12913f577bea9afd774291ceb13bbd22d13c1ab14dabb45fd43bec38acadc99a",
    (False, 2):
        "e7b3b2646569d8d46b45e9167e0f68b6cc38353177276463031a88abc774452f",
    (True, 1):
        "15a37987a46fc10ad16466f975ec42f063d7c72fb0fca81ab9183f1e7d064526",
    (True, 2):
        "237856f7890355b0325d6ec896368f5c4db4fb91b61c2ee95bfa342445568e68",
}


def cache_digest(tmp_path, corpus) -> str:
    path = tmp_path / "corpus.json"
    save_corpus_cache(path, corpus)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestIngestPins:
    """The cache bytes of ingested corpora: vocabulary order, ids and
    ranges must not move."""

    @pytest.mark.parametrize("min_count", [1, 2, 3])
    @pytest.mark.parametrize("profile", sorted(synth.PROFILES))
    def test_synth_caches_are_pinned(self, tmp_path, profile, min_count):
        tsv = tmp_path / "s.tsv"
        synth.write_tsv(tsv, profile, 0)
        corpus, row_errors = load_corpus(tsv, min_count=min_count)
        assert row_errors == []
        key = f"{profile}-{min_count}" if profile == "overfit16" else profile
        assert cache_digest(tmp_path, corpus) == PINNED_SYNTH_CACHES[key]

    @pytest.mark.parametrize("min_count", [1, 2])
    @pytest.mark.parametrize("table", [False, True])
    def test_messy_caches_are_pinned(self, tmp_path, table, min_count):
        # the table drops set 1's scores 9 and 10 and every row of set 2,
        # whose tokens must then count toward no word
        tsv = tmp_path / "m.tsv"
        tsv.write_text(synth.generate("overfit16", 0) + MESSY_ROWS,
                       encoding="utf-8")
        corpus, row_errors = load_corpus(
            tsv, min_count=min_count,
            ranges={1: ScoreRange(0, 8)} if table else None)
        assert [e.line for e in row_errors] \
            == [18, 19, 20, 21] + ([0, 0, 0] if table else [])
        assert cache_digest(tmp_path, corpus) \
            == PINNED_MESSY_CACHES[table, min_count]

    def test_bad_min_count_is_a_config_error_after_reading(self, tmp_path):
        tsv = tmp_path / "s.tsv"
        tsv.write_text(FIXTURE_TSV)
        with pytest.raises(ConfigError, match="min_count"):
            load_corpus(tsv, min_count=0)
        # a missing column is found first, as before
        tsv.write_text("essay_id\tessay\n1\thello\n")
        with pytest.raises(DataError, match="essay_set"):
            load_corpus(tsv, min_count=0)


class TestRangeTable:
    def test_parse(self, tmp_path):
        p = tmp_path / "ranges.tsv"
        p.write_text("# set\tmin\tmax\n1\t2\t12\n8\t0\t60\n")
        ranges = read_range_table(p)
        assert ranges == {1: ScoreRange(2, 12), 8: ScoreRange(0, 60)}

    def test_rejects_inverted_range(self, tmp_path):
        p = tmp_path / "ranges.tsv"
        p.write_text("1\t10\t2\n")
        with pytest.raises(DataError):
            read_range_table(p)

    # 1e400 parses as inf; a nan bound passed the max < min check
    @pytest.mark.parametrize("lo,hi", [("0", "1e400"), ("-inf", "5"),
                                       ("nan", "5"), ("0", "nan")])
    def test_rejects_non_finite_bounds(self, tmp_path, lo, hi):
        p = tmp_path / "ranges.tsv"
        p.write_text(f"1\t2\t12\n2\t{lo}\t{hi}\n")
        with pytest.raises(DataError, match=r"ranges\.tsv:2: .*finite"):
            read_range_table(p)


class TestNonUtf8:
    """A byte that does not decode is a DataError naming the file."""

    def test_tsv(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_bytes(FIXTURE_TSV.encode() + b"4\t1\tcaf\xe9 au lait\t5\n")
        with pytest.raises(DataError, match="f.tsv is not valid UTF-8"):
            load_corpus(p, min_count=1)

    def test_range_table(self, tmp_path):
        p = tmp_path / "ranges.tsv"
        p.write_bytes(b"# r\xe9sum\xe9\n1\t2\t12\n")
        with pytest.raises(DataError, match="ranges.tsv is not valid UTF-8"):
            read_range_table(p)

    def test_manifest(self, tmp_path):
        p = tmp_path / "ids.txt"
        p.write_bytes(b"1\n\xff2\n")
        with pytest.raises(DataError, match="ids.txt is not valid UTF-8"):
            read_manifest(p)

    def test_corpus_cache(self, tmp_path):
        # the cache is binary; its words are its one UTF-8 text of words
        _, cache = saved_cache(tmp_path)
        cache.write_bytes(cache.read_bytes().replace(b"\nbeing\n",
                                                     b"\nb\xe9ing\n"))
        with pytest.raises(DataError, match=f"corpus cache {cache}: text "
                                            "field is not UTF-8"):
            load_corpus_cache(cache)


def _essays(n, set_id=1):
    return [make_essay([3, 4, 5], essay_id=i, set_id=set_id, raw=i % 11)
            for i in range(1, n + 1)]


class TestSplit:
    def test_default_ratios_on_100(self):
        train, val, test = split_corpus(_essays(100), Config())
        assert (len(train), len(val), len(test)) == (64, 16, 20)

    def test_partition(self):
        essays = _essays(37)
        train, val, test = split_corpus(essays, Config())
        ids = sorted(e.essay_id for part in (train, val, test) for e in part)
        assert ids == sorted(e.essay_id for e in essays)

    def test_remainder_goes_to_train(self):
        train, val, test = split_corpus(_essays(7), Config())
        assert len(val) == int(0.16 * 7)
        assert len(test) == int(0.20 * 7)
        assert len(train) == 7 - len(val) - len(test)

    def test_same_seed_same_split(self):
        a = split_corpus(_essays(50), Config(seed=3))
        b = split_corpus(_essays(50), Config(seed=3))
        assert [[e.essay_id for e in part] for part in a] == \
            [[e.essay_id for e in part] for part in b]

    def test_different_seed_different_split(self):
        a = split_corpus(_essays(100), Config(seed=0))
        b = split_corpus(_essays(100), Config(seed=1))
        assert {e.essay_id for e in a[2]} != {e.essay_id for e in b[2]}

    def test_order_insensitive(self):
        essays = _essays(40)
        a = split_corpus(essays, Config())
        b = split_corpus(list(reversed(essays)), Config())
        assert {e.essay_id for e in a[1]} == {e.essay_id for e in b[1]}
        assert {e.essay_id for e in a[2]} == {e.essay_id for e in b[2]}

    def test_stratified_by_set(self):
        essays = _essays(50, set_id=1) + \
            [make_essay([3], essay_id=i, set_id=2) for i in range(100, 150)]
        train, val, test = split_corpus(essays, Config())
        for part in (val, test):
            by_set = {s: sum(1 for e in part if e.set_id == s) for s in (1, 2)}
            assert by_set[1] == by_set[2]

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError, match="leave no training data"):
            split_corpus(_essays(10), Config(val_ratio=0.5, test_ratio=0.5))
        with pytest.raises(ConfigError, match="leave no training data"):
            split_corpus(_essays(10), Config(val_ratio=-0.1, test_ratio=0.2))
        # NaN fails every range comparison, so it needs its own check
        with pytest.raises(ConfigError, match="finite"):
            split_corpus(_essays(10), Config(val_ratio=float("nan")))

    def test_output_preserves_input_order(self):
        essays = _essays(30)
        train, _, _ = split_corpus(essays, Config())
        ids = [e.essay_id for e in train]
        assert ids == sorted(ids)


def window_rows(windows):
    return windows.view[windows.starts].tolist()


class TestWindows:
    def test_three_token_essay_n3(self):
        wins = extract_windows([make_essay([10, 11, 12])], 3)
        assert window_rows(wins) == [
            [BOUNDARY_ID, 10, 11], [10, 11, 12], [11, 12, BOUNDARY_ID]]
        assert wins.view[wins.starts, 1].tolist() == [10, 11, 12]

    def test_one_window_per_token(self):
        e = make_essay(list(range(10, 27)))
        assert len(extract_windows([e], 9)) == 17
        assert len(extract_windows([e, e, make_essay([3])], 9)) == 35

    def test_short_essay_mostly_boundary(self):
        e = make_essay([10, 11, 12, 13])
        for row in window_rows(extract_windows([e], 9)):
            assert row.count(BOUNDARY_ID) >= 4

    def test_essays_share_their_boundaries(self):
        wins = extract_windows([make_essay([10, 11], raw=2.0),
                                make_essay([12], essay_id=2, raw=6.0)], 5)
        b = BOUNDARY_ID
        assert wins.stream.tolist() == [b, b, 10, 11, b, b, 12, b, b]
        assert wins.stream.dtype == np.int32
        assert np.shares_memory(wins.view, wins.stream)
        assert window_rows(wins) == [[b, b, 10, 11, b], [b, 10, 11, b, b],
                                     [b, b, 12, b, b]]
        assert wins.scores.tolist() == [0.2, 0.2, 0.6]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(3, 40), max_size=12), max_size=6),
           st.sampled_from([3, 5, 7, 9]))
    def test_matches_per_essay_padding(self, token_lists, n):
        essays = [make_essay(tokens, essay_id=k, raw=float(k))
                  for k, tokens in enumerate(token_lists)]
        wins = extract_windows(essays, n)
        want = essay_windows(essays, n)
        assert len(wins) == len(want)
        assert window_rows(wins) == [list(ctx) for ctx, _ in want]
        assert wins.scores.tolist() == [score for _, score in want]

    def test_no_tokens_no_windows(self):
        for essays in ([], [make_essay([])],
                       [make_essay([]), make_essay([], essay_id=2)] * 2):
            wins = extract_windows(essays, 3)
            assert len(wins) == 0
            assert wins.view.shape == (0, 3)

    def test_even_or_tiny_n_rejected(self):
        e = make_essay([10, 11])
        with pytest.raises(ConfigError):
            extract_windows([e], 4)
        with pytest.raises(ConfigError):
            extract_windows([e], 1)

    def test_id_beyond_int32_rejected(self):
        with pytest.raises(DataError, match="int32"):
            extract_windows([make_essay([10, 2 ** 31])], 3)

    def test_score_carried_on_every_window(self):
        e = make_essay([10, 11], raw=8.0)
        assert extract_windows([e], 3).scores.tolist() == [0.8, 0.8]

    @pytest.mark.parametrize("n", [3, 9])
    def test_lists_and_int32_views_give_one_stream(self, n):
        rng = np.random.default_rng(n)
        essays = [make_essay(rng.integers(3, 500, size=int(L)).tolist(),
                             essay_id=k, raw=float(k % 11))
                  for k, L in enumerate([5, 0, 1, 40, 7, 0, 12])]
        want = extract_windows(essays, n)
        got = extract_windows(as_views(essays), n)
        assert got.stream.dtype == want.stream.dtype == np.int32
        for name in ("stream", "view", "starts", "scores"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestCorruption:
    def test_only_center_differs(self, tiny_vocab):
        target = tiny_vocab.id_of("sat")
        rng = np.random.default_rng(0)
        centers = corrupt_window(np.array([target]), 50, rng, tiny_vocab)
        # one id per corruption: every other position is the window's own
        assert centers.shape == (1, 50)
        for w in centers[0]:
            assert w != target

    def test_replacements_are_real_words(self, tiny_vocab):
        rng = np.random.default_rng(1)
        for w in corrupt_window([4], 100, rng, tiny_vocab)[0]:
            assert w >= N_SPECIALS

    def test_uniform_over_candidates(self, tiny_vocab):
        # chi-square against uniform over the 9 non-target words
        target = 4
        rng = np.random.default_rng(2)
        draws = 9000
        counts = np.zeros(len(tiny_vocab))
        for w in corrupt_window([target], draws, rng, tiny_vocab)[0]:
            counts[w] += 1
        assert counts[target] == 0
        candidates = counts[N_SPECIALS:]
        candidates = candidates[np.arange(N_SPECIALS, len(tiny_vocab))
                                != target]
        expected = draws / candidates.size
        chi2 = float(((candidates - expected) ** 2 / expected).sum())
        # 8 degrees of freedom; the 0.999 quantile is about 26.12
        assert chi2 < 26.12

    def test_vocab_of_one_word_cannot_corrupt(self):
        vocab = Vocabulary(["only"])
        with pytest.raises(DataError):
            corrupt_window([3], 1, np.random.default_rng(0), vocab)

    @staticmethod
    def assert_chunks_are_single_draws(targets, cut, n_corruptions, seed,
                                       vocab):
        single = np.random.default_rng(seed)
        want = np.concatenate([corrupt_window(targets[k:k + 1],
                                              n_corruptions, single, vocab)
                               for k in range(len(targets))])
        chunked = np.random.default_rng(seed)
        got = np.concatenate([
            corrupt_window(targets[:cut], n_corruptions, chunked, vocab),
            corrupt_window(targets[cut:], n_corruptions, chunked, vocab)])
        assert got.shape == (len(targets), n_corruptions)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # and the generators go on from the same state
        assert chunked.integers(1 << 62) == single.integers(1 << 62)
        return got

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_corruptions", [1, 3, 8])
    def test_chunked_draws_are_the_single_draws(self, seed, n_corruptions):
        # a special id has one candidate more than a word, so the UNKs
        # split each chunk into runs; the cut between the two chunks falls
        # inside a run of words
        vocab = Vocabulary([f"w{k}" for k in range(40)])
        targets = np.array([5, 9, UNK_ID, UNK_ID, 7, 7, 12, 30, UNK_ID, 3,
                            42, PAD_ID, BOUNDARY_ID], dtype=np.int32)
        got = self.assert_chunks_are_single_draws(targets, 6, n_corruptions,
                                                  seed, vocab)
        assert (got >= N_SPECIALS).all()
        assert (got != targets[:, None]).all()

    def test_chunked_draws_above_two_to_the_31_candidates(self):
        # corrupt_window reads only n_words, so a stub stands in for a
        # vocabulary of 2^33 words, and numpy draws 64-bit values
        vocab = SimpleNamespace(n_words=1 << 33)
        targets = np.array([UNK_ID, (1 << 32) + 7, (1 << 32) + 7, 5, 6,
                            UNK_ID, 40])
        for seed in range(3):
            got = self.assert_chunks_are_single_draws(targets, 4, 5, seed,
                                                      vocab)
            assert got.max() > 1 << 31

    def test_vocab_of_one_word_cannot_corrupt_a_chunk(self):
        vocab = Vocabulary(["only"])
        rng = np.random.default_rng(0)
        # a special id's one candidate is the word
        assert corrupt_window(np.array([UNK_ID, UNK_ID]), 3, rng,
                              vocab).tolist() == [[3, 3, 3], [3, 3, 3]]
        # the chunk's first targets are specials, its last the word
        with pytest.raises(DataError, match="vocabulary too small to "
                           "corrupt the target word"):
            corrupt_window(np.array([UNK_ID, UNK_ID, 3]), 3, rng, vocab)


class TestManifests:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "ids.txt"
        write_manifest(p, [5, 2, 9], config_hash="abc123")
        assert read_manifest(p) == [5, 2, 9]
        assert p.read_text().startswith("# config abc123\n")

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "ids.txt"
        p.write_text("1\nxyz\n")
        with pytest.raises(DataError, match="xyz"):
            read_manifest(p)


def saved_cache(tmp_path):
    tsv = tmp_path / "f.tsv"
    tsv.write_text(FIXTURE_TSV)
    corpus, _ = load_corpus(tsv, min_count=1)
    cache = tmp_path / "corpus.cache"
    save_corpus_cache(cache, corpus, config_hash="deadbeef")
    return corpus, cache


# FIXTURE_TSV's cache as it was written while caches were JSON
JSON_CACHE = (
    '{"config_hash": "deadbeef", "vocabulary": [".", "being", "i", ",", '
    '"are", "computers", "dear", "effects", "feel", "great", "have", "hope", '
    '"is", "local", "newspaper", "on", "patience", "people", "same", "the", '
    '"think", "understanding", "way", "you"], "ranges": {"1": [4.0, 8.0], '
    '"2": [3.0, 3.0]}, "ids": [1, 2, 3], "sets": [1, 1, 2], "scores": '
    '[8.0, 4.0, 3.0], "lengths": [13, 8, 6], "tokens": "CQAAABAAAAARAAAABgAA'
    'AAUAAAAXAAAACgAAAAgAAAANAAAAEgAAABQAAAAHAAAADAAAAAUAAAAOAAAAGgAAAAsAAAAW'
    'AAAAFQAAABkAAAADAAAABAAAABMAAAAPAAAABAAAABgAAAADAAAA"}')


def cache_fields(data: bytes) -> dict[str, tuple[int, int]]:
    """The byte span of each field of a corpus cache, by name; a text
    field's span includes its length prefix."""
    n_words, n_ranges, n, n_tokens = struct.unpack_from("<4Q", data, 8)
    (n_text,) = struct.unpack_from("<I", data, 40)
    sizes = {"magic": 8, "counts": 32, "words": 4 + n_text,
             "set ids": 8 * n_ranges, "bounds": 16 * n_ranges, "ids": 8 * n,
             "sets": 8 * n, "lengths": 8 * n, "scores": 8 * n,
             "tokens": 4 * n_tokens}
    spans, at = {}, 0
    for name, size in sizes.items():
        spans[name] = (at, at + size)
        at += size
    spans["config hash"] = (at, len(data))
    return spans


def put(data: bytes, field: str, k: int, fmt: str, value) -> bytes:
    """``data`` with element ``k`` of ``field`` packed as ``fmt``."""
    out = bytearray(data)
    size = struct.calcsize("<" + fmt)
    struct.pack_into("<" + fmt, out, cache_fields(data)[field][0] + k * size,
                     value)
    return bytes(out)


# edits of a saved cache's bytes, each with a regex its DataError must
# match after the file's name; FIXTURE_TSV's cache has essays 1, 2 and 3
# of 13, 8 and 6 tokens, a vocabulary of 27 entries and the ranges
# [4, 8] of set 1 and [3, 3] of set 2
NOT_AN_ID = r"a token is not an id in \[0, 27\)"
BAD_LENGTHS = "the lengths do not add up to 27 tokens"
BAD_RANGE = "a range is not finite or has max < min"
CACHE_MUTATIONS = {
    "token equal to the vocabulary size": (
        lambda d: put(d, "tokens", 21, "i", 27), NOT_AN_ID),
    "negative token": (lambda d: put(d, "tokens", 20, "i", -5), NOT_AN_ID),
    "nan score": (lambda d: put(d, "scores", 1, "d", math.nan),
                  "a score is not finite"),
    "inf score": (lambda d: put(d, "scores", 0, "d", -math.inf),
                  "a score is not finite"),
    "set without a range": (lambda d: put(d, "sets", 1, "q", 9),
                            "a set has no range"),
    "repeated essay id": (lambda d: put(d, "ids", 1, "q", 1),
                          "an essay id is repeated"),
    "duplicate word": (lambda d: d.replace(b"\nbeing\n", b"\nlocal\n"),
                       "duplicate tokens in vocabulary"),
    "more words counted than held": (lambda d: put(d, "counts", 0, "Q", 25),
                                     "24 words, not 25"),
    "negative length": (lambda d: put(d, "lengths", 0, "q", -1), BAD_LENGTHS),
    "lengths short of the tokens": (lambda d: put(d, "lengths", 2, "q", 5),
                                    BAD_LENGTHS),
    "lengths past the tokens": (lambda d: put(d, "lengths", 0, "q", 14),
                                BAD_LENGTHS),
    "lengths past int64 in all": (
        lambda d: put(put(d, "lengths", 0, "q", 2 ** 63 - 1), "lengths", 1,
                      "q", 2 ** 63 - 1), BAD_LENGTHS),
    "range with max below min": (lambda d: put(d, "bounds", 1, "d", 2.0),
                                 BAD_RANGE),
    "infinite bound": (lambda d: put(d, "bounds", 2, "d", -math.inf),
                       BAD_RANGE),
    "nan bound": (lambda d: put(d, "bounds", 3, "d", math.nan), BAD_RANGE),
    "another format version": (lambda d: put(d, "magic", 1, "I", 2),
                               "unsupported format version 2"),
    "trailing bytes": (lambda d: d + b"\0", "trailing bytes"),
}


class TestCorpusCache:
    def test_round_trip(self, tmp_path):
        corpus, cache = saved_cache(tmp_path)
        loaded, chash = load_corpus_cache(cache)
        assert chash == "deadbeef"
        assert loaded.vocab.id_to_token == corpus.vocab.id_to_token
        assert loaded.ranges == corpus.ranges
        assert [(e.essay_id, e.set_id, e.tokens.tolist(), e.raw_score,
                 e.scaled_score) for e in loaded.essays] \
            == [(e.essay_id, e.set_id, e.tokens.tolist(), e.raw_score,
                 e.scaled_score) for e in corpus.essays]
        flat = loaded.essays[0].tokens.base
        assert all(e.tokens.dtype == np.int32 and e.tokens.base is flat
                   for e in loaded.essays)

    def test_round_trip_of_list_tokens_and_no_essays(self, tmp_path):
        vocab = Vocabulary(["a", "b"])
        ranges = {1: ScoreRange(0, 10), 4: ScoreRange(2, 2)}
        essays = [make_essay([3, 4, 3], essay_id=7, raw=2.5),
                  make_essay([], essay_id=8, set_id=4, raw=2,
                             score_range=ranges[4]),
                  make_essay([0, 1, 2, 4], essay_id=9, raw=10)]
        cache = tmp_path / "cache.json"
        for kept in (essays, []):
            save_corpus_cache(cache, Corpus(kept, vocab, ranges))
            loaded, chash = load_corpus_cache(cache)
            assert chash == ""
            assert [(e.essay_id, e.set_id, e.tokens.tolist(), e.raw_score,
                     e.scaled_score) for e in loaded.essays] \
                == [(e.essay_id, e.set_id, e.tokens, e.raw_score,
                     e.scaled_score) for e in kept]

    def test_cache_bytes_are_pinned(self, tmp_path):
        _, cache = saved_cache(tmp_path)
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == PINNED_CACHE

    def test_old_format_cache_asks_for_a_reingest(self, tmp_path):
        cache = tmp_path / "corpus.json"
        cache.write_text(JSON_CACHE)
        with pytest.raises(DataError) as exc:
            load_corpus_cache(cache)
        assert str(exc.value) == (f"corpus cache {cache}: wrong magic "
                                  "b'{\"co'; run `ingest` again")

    def test_truncation_at_every_field_boundary(self, tmp_path):
        _, cache = saved_cache(tmp_path)
        good = cache.read_bytes()
        spans = cache_fields(good)
        # each field's start, the end of the two length prefixes, the
        # version's start and the last byte
        cuts = {start for start, _ in spans.values()} | {
            spans["words"][0] + 4, spans["config hash"][0] + 4, 4,
            len(good) - 1}
        assert len(cuts) == 15
        for cut in sorted(cuts):
            cache.write_bytes(good[:cut])
            with pytest.raises(DataError) as exc:
                load_corpus_cache(cache)
            assert str(exc.value) == \
                f"corpus cache {cache}: truncated; run `ingest` again", cut

    @pytest.mark.parametrize("count", range(4))
    def test_flipped_count_bytes(self, tmp_path, count):
        # the word, range, essay and token counts, each of their bytes
        # flipped whole and in its lowest bit
        _, cache = saved_cache(tmp_path)
        good = cache.read_bytes()
        for at in range(8 + 8 * count, 16 + 8 * count):
            for mask in (0x01, 0xFF):
                data = bytearray(good)
                data[at] ^= mask
                cache.write_bytes(bytes(data))
                with pytest.raises(DataError,
                                   match=f"corpus cache {cache}: .*; run"):
                    load_corpus_cache(cache)

    @pytest.mark.parametrize("name", list(CACHE_MUTATIONS))
    def test_mutation_is_a_data_error_naming_the_file(self, tmp_path, name):
        _, cache = saved_cache(tmp_path)
        edit, message = CACHE_MUTATIONS[name]
        data = cache.read_bytes()
        cache.write_bytes(edit(data))
        assert cache.read_bytes() != data
        with pytest.raises(DataError) as exc:
            load_corpus_cache(cache)
        assert str(exc.value).startswith(f"corpus cache {cache}: ")
        assert re.search(message, str(exc.value)), str(exc.value)

    @pytest.mark.parametrize("word", ["a b", "a\nb", "\t", ""])
    def test_word_that_would_not_split_back_is_not_written(self, tmp_path,
                                                            word):
        vocab = Vocabulary(["ab", word])
        with pytest.raises(DataError, match="empty or holds whitespace"):
            save_corpus_cache(tmp_path / "c", Corpus([], vocab, {}))

    def test_byte_flips_and_truncations(self, tmp_path):
        # a flip can leave a valid cache (a digit of a score, a letter of
        # a word); whatever it leaves loads or is a DataError naming the
        # file, and every truncation is one
        _, cache = saved_cache(tmp_path)
        good = cache.read_bytes()
        rng = np.random.default_rng(18)
        loaded = 0
        for _ in range(400):
            data = bytearray(good)
            for at in rng.integers(len(data), size=rng.integers(1, 4)):
                data[at] ^= int(rng.integers(1, 256))
            cache.write_bytes(bytes(data))
            try:
                load_corpus_cache(cache)
                loaded += 1
            except DataError as exc:
                assert str(cache) in str(exc)
        assert 0 < loaded < 400
        for cut in rng.integers(len(good), size=100):
            cache.write_bytes(good[:cut])
            with pytest.raises(DataError, match=str(cache)):
                load_corpus_cache(cache)

    def test_by_id_and_subset(self, tmp_path):
        tsv = tmp_path / "f.tsv"
        tsv.write_text(FIXTURE_TSV)
        corpus, _ = load_corpus(tsv, min_count=1)
        assert corpus.by_id(2).essay_id == 2
        with pytest.raises(KeyError):
            corpus.by_id(99)
        assert [e.essay_id for e in corpus.subset([3, 1])] == [1, 3]
        with pytest.raises(DataError):
            corpus.subset([1, 99])

    def test_subset_names_a_repeated_id(self, tmp_path):
        # a hand-built cache can repeat an id that ingest would not
        tsv = tmp_path / "f.tsv"
        tsv.write_text(FIXTURE_TSV)
        corpus, _ = load_corpus(tsv, min_count=1)
        corpus.essays.append(corpus.by_id(2))
        with pytest.raises(DataError, match=r"repeated in corpus: \[2\]"):
            corpus.subset([1, 2, 3])


@given(st.floats(min_value=0.0, max_value=60.0,
                 allow_nan=False, allow_infinity=False))
def test_scaling_round_trip_property(raw):
    r = ScoreRange(0, 60)
    assert abs(raw - r.unscale(r.scale(raw))) <= 1e-12


@given(st.lists(st.text(alphabet="abc @.X3", min_size=0, max_size=12),
                max_size=8))
def test_tokenize_never_emits_empty_tokens(texts):
    for text in texts:
        for tok in tokenize(text):
            assert tok
            assert " " not in tok


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=1, max_value=10_000),
                min_size=1, max_size=120, unique=True),
       st.integers(min_value=0, max_value=2 ** 40))
def test_split_is_always_a_partition(ids, seed):
    essays = [make_essay([3, 4], essay_id=i) for i in ids]
    train, val, test = split_corpus(essays, Config(seed=seed))
    combined = sorted(e.essay_id for part in (train, val, test) for e in part)
    assert combined == sorted(ids)
    n = len(ids)
    assert len(test) == int(np.floor(0.20 * n + 1e-9))
    assert len(val) == int(np.floor(0.16 * n + 1e-9))

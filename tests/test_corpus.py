import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essayscore.config import Config
from essayscore.corpus import (
    BOUNDARY_ID,
    N_SPECIALS,
    PAD_ID,
    UNK_ID,
    Corpus,
    ScoreRange,
    Vocabulary,
    build_vocabulary,
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

from conftest import make_essay
from reference_sswe import essay_windows


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


class TestVocabulary:
    def test_specials_occupy_first_ids(self):
        v = Vocabulary(["cat"])
        assert v.id_to_token[:N_SPECIALS] == ["<pad>", "<unk>", "<edge>"]
        assert v.id_of("cat") == N_SPECIALS

    def test_encode_maps_oov_to_unk(self):
        v = Vocabulary(["cat"])
        assert v.encode(["cat", "dog"]) == [3, UNK_ID]

    def test_decode_round_trip(self, tiny_vocab):
        ids = tiny_vocab.encode(["the", "cat", "sat"])
        assert tiny_vocab.decode(ids) == ["the", "cat", "sat"]

    def test_id_of_unknown_raises(self, tiny_vocab):
        with pytest.raises(KeyError):
            tiny_vocab.id_of("missing")

    def test_build_orders_by_frequency_then_token(self):
        seqs = [["b", "a", "a", "c", "c", "b", "a"]]
        v = build_vocabulary(seqs, min_count=1)
        assert v.id_to_token[N_SPECIALS:] == ["a", "b", "c"]

    def test_build_drops_rare_tokens(self):
        v = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert "a" in v.token_to_id
        assert "b" not in v.token_to_id

    def test_build_rejects_bad_min_count(self):
        with pytest.raises(ConfigError):
            build_vocabulary([], min_count=0)

    def test_build_is_deterministic(self):
        seqs = [["x", "y", "z", "y"], ["z", "z", "x"]]
        a = build_vocabulary(seqs, min_count=1)
        b = build_vocabulary(list(reversed(seqs)), min_count=1)
        assert a.id_to_token == b.id_to_token


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

# the bytes written before the cache dropped its unread "min_count" key,
# less the ``"min_count": 1, `` it held
PINNED_CACHE = \
    "e339d0f9532edbeb7f19b18531e99d8db29091dce295ba0d668b85f74e08f1c4"


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
        tsv = tmp_path / "f.tsv"
        tsv.write_text(FIXTURE_TSV)
        corpus, _ = load_corpus(tsv, min_count=1)
        cache = tmp_path / "cache.json"
        save_corpus_cache(cache, corpus)
        cache.write_bytes(cache.read_bytes().replace(b'"being"', b'"b\xe9ing"'))
        with pytest.raises(DataError, match="cache.json is not valid UTF-8"):
            load_corpus_cache(cache)


def _essays(n, set_id=1):
    return [make_essay([3, 4, 5], essay_id=i, set_id=set_id, raw=i % 11)
            for i in range(1, n + 1)]


class TestSplit:
    def test_default_ratios_on_100(self):
        train, val, test = split_corpus(_essays(100))
        assert (len(train), len(val), len(test)) == (64, 16, 20)

    def test_partition(self):
        essays = _essays(37)
        train, val, test = split_corpus(essays)
        ids = sorted(e.essay_id for part in (train, val, test) for e in part)
        assert ids == sorted(e.essay_id for e in essays)

    def test_remainder_goes_to_train(self):
        train, val, test = split_corpus(_essays(7))
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
        a = split_corpus(essays)
        b = split_corpus(list(reversed(essays)))
        assert {e.essay_id for e in a[1]} == {e.essay_id for e in b[1]}
        assert {e.essay_id for e in a[2]} == {e.essay_id for e in b[2]}

    def test_stratified_by_set(self):
        essays = _essays(50, set_id=1) + \
            [make_essay([3], essay_id=i, set_id=2) for i in range(100, 150)]
        train, val, test = split_corpus(essays)
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
        train, _, _ = split_corpus(essays)
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


class TestCorruption:
    def test_only_center_differs(self, tiny_vocab):
        target = tiny_vocab.id_of("sat")
        rng = np.random.default_rng(0)
        centers = corrupt_window(target, 50, rng, tiny_vocab)
        # one id per corruption: every other position is the window's own
        assert centers.shape == (50,)
        for w in centers:
            assert w != target

    def test_replacements_are_real_words(self, tiny_vocab):
        rng = np.random.default_rng(1)
        for w in corrupt_window(4, 100, rng, tiny_vocab):
            assert w >= N_SPECIALS

    def test_uniform_over_candidates(self, tiny_vocab):
        # chi-square against uniform over the 9 non-target words
        target = 4
        rng = np.random.default_rng(2)
        draws = 9000
        counts = np.zeros(len(tiny_vocab))
        for w in corrupt_window(target, draws, rng, tiny_vocab):
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
            corrupt_window(3, 1, np.random.default_rng(0), vocab)


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


class TestCorpusCache:
    def test_round_trip(self, tmp_path):
        tsv = tmp_path / "f.tsv"
        tsv.write_text(FIXTURE_TSV)
        corpus, _ = load_corpus(tsv, min_count=1)
        cache = tmp_path / "cache.json"
        save_corpus_cache(cache, corpus, config_hash="deadbeef")
        loaded, chash = load_corpus_cache(cache)
        assert chash == "deadbeef"
        assert loaded.vocab.id_to_token == corpus.vocab.id_to_token
        assert loaded.ranges == corpus.ranges
        assert [(e.essay_id, e.tokens, e.scaled_score) for e in loaded.essays] \
            == [(e.essay_id, e.tokens, e.scaled_score) for e in corpus.essays]

    def test_cache_bytes_are_pinned(self, tmp_path):
        # sha256 computed when the cache was written by json.dump
        tsv = tmp_path / "f.tsv"
        tsv.write_text(FIXTURE_TSV)
        corpus, _ = load_corpus(tsv, min_count=1)
        cache = tmp_path / "cache.json"
        save_corpus_cache(cache, corpus, config_hash="deadbeef")
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == PINNED_CACHE

    def test_cache_with_min_count_key_still_loads(self, tmp_path):
        tsv = tmp_path / "f.tsv"
        tsv.write_text(FIXTURE_TSV)
        corpus, _ = load_corpus(tsv, min_count=1)
        cache = tmp_path / "cache.json"
        save_corpus_cache(cache, corpus, config_hash="deadbeef")
        cache.write_bytes(cache.read_bytes().replace(
            b'"vocabulary": ', b'"min_count": 1, "vocabulary": '))
        loaded, chash = load_corpus_cache(cache)
        assert chash == "deadbeef"
        assert loaded.vocab.id_to_token == corpus.vocab.id_to_token
        assert [(e.essay_id, e.tokens) for e in loaded.essays] \
            == [(e.essay_id, e.tokens) for e in corpus.essays]

    def test_corrupt_cache_rejected(self, tmp_path):
        p = tmp_path / "cache.json"
        p.write_text("{not json")
        with pytest.raises(DataError):
            load_corpus_cache(p)

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

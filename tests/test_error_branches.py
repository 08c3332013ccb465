"""Rejected inputs, one test per error branch, each run in this process,
and the integer fields of every text input, which are reported in the
program's own words however many digits they hold."""

import struct

import numpy as np
import pytest

from essayscore.cli import main
from essayscore.config import Config
from essayscore.corpus import (ScoreRange, Vocabulary, corrupt_window,
                               extract_windows, load_corpus,
                               load_corpus_cache, read_range_table,
                               save_corpus_cache)
from essayscore.errors import ConfigError, DataError, ModelFormatError, \
    NumericalError
from essayscore.lstm import LSTMLayer, SeqModel
from essayscore.metrics import quadratic_weighted_kappa, rmse
from essayscore.sswe import (SSWEParams, cosine_distance, load_embeddings,
                             save_embeddings)

from conftest import make_essay
from test_config_cli import write_workspace_config

HEADER = "essay_id\tessay_set\tessay\tdomain1_score\n"

# more digits than int() converts by default (4300)
LONG_INT = "1" * 5000
LONG_WORD = "x" * 5000


def embedding_bytes(tmp_path) -> bytes:
    """A seeded ``.sswe`` of the words "ab" and "cd", as bytes."""
    path = tmp_path / "e.sswe"
    vocab = Vocabulary(["ab", "cd"])
    cfg = Config(embed_dim=3, hidden_dim=4, window_size=3)
    save_embeddings(path, SSWEParams.init(len(vocab), cfg,
                                          np.random.default_rng(0)), vocab)
    return path.read_bytes()


class TestArtifact:
    def test_unsupported_version(self, tmp_path):
        raw = embedding_bytes(tmp_path)
        path = tmp_path / "v2.sswe"
        path.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
        with pytest.raises(ModelFormatError,
                           match="unsupported format version 2"):
            load_embeddings(path)


class TestLoadEmbeddings:
    def test_special_tokens_out_of_place(self, tmp_path):
        # swap the padding and unknown-word tokens
        raw = embedding_bytes(tmp_path).replace(b"<pad>", b"<tmp>", 1) \
            .replace(b"<unk>", b"<pad>", 1).replace(b"<tmp>", b"<unk>", 1)
        path = tmp_path / "swapped.sswe"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError, match="special tokens out of "
                                                   "place or duplicate"):
            load_embeddings(path)

    def test_duplicate_tokens(self, tmp_path):
        # the second word, with its length prefix, becomes the first
        raw = embedding_bytes(tmp_path).replace(b"\x02\x00\x00\x00cd",
                                                b"\x02\x00\x00\x00ab", 1)
        path = tmp_path / "twice.sswe"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError, match="duplicate tokens"):
            load_embeddings(path)


def test_cosine_distance_of_a_zero_column_is_one():
    vocab = Vocabulary(["ab", "cd"])
    params = SSWEParams.init(len(vocab), Config(embed_dim=3, hidden_dim=4,
                                                window_size=3),
                             np.random.default_rng(0))
    params.M[:, vocab.id_of("ab")] = 0.0
    assert cosine_distance(params, vocab, "ab", "cd") == 1.0
    assert cosine_distance(params, vocab, "cd", "ab") == 1.0


class TestRangeTable:
    def test_line_without_three_fields(self, tmp_path):
        p = tmp_path / "ranges.tsv"
        p.write_text("1\t0\t4\n2\t0\n")
        with pytest.raises(DataError, match=r"ranges\.tsv:2: expected "
                                            "set_id<TAB>min<TAB>max"):
            read_range_table(p)

    def test_bound_that_does_not_parse(self, tmp_path):
        p = tmp_path / "ranges.tsv"
        p.write_text("1\tlow\t4\n")
        with pytest.raises(DataError, match=r"ranges\.tsv:1: .*'low'"):
            read_range_table(p)

    def test_set_id_that_does_not_parse(self, tmp_path):
        p = tmp_path / "ranges.tsv"
        p.write_text("one\t0\t4\n")
        with pytest.raises(DataError, match=r"ranges\.tsv:1: set_id 'one' "
                                            "is not an integer"):
            read_range_table(p)

    def test_long_bound_is_echoed_short(self, tmp_path):
        p = tmp_path / "ranges.tsv"
        p.write_text(f"1\t0\t{LONG_WORD}\n")
        with pytest.raises(DataError) as info:
            read_range_table(p)
        assert str(info.value) == (f"{p}:1: max {LONG_WORD[:20]!r}... "
                                   "(5000 characters) is not a number")


class TestLoadCorpus:
    @pytest.mark.parametrize("score", ["inf", "-inf", "nan"])
    def test_non_finite_score_is_a_row_error(self, tmp_path, score):
        p = tmp_path / "f.tsv"
        p.write_text(HEADER + "1\t1\tfine words\t3\n"
                     f"2\t1\tother words\t{score}\n")
        corpus, row_errors = load_corpus(p, min_count=1)
        assert [e.essay_id for e in corpus.essays] == [1]
        assert [(e.line, e.message) for e in row_errors] \
            == [(3, "non-finite domain1_score")]

    def test_long_score_is_echoed_short(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(HEADER + "1\t1\tfine words\t3\n"
                     f"2\t1\tother words\t{LONG_WORD}\n")
        corpus, row_errors = load_corpus(p, min_count=1)
        assert [e.essay_id for e in corpus.essays] == [1]
        assert [(e.line, e.message) for e in row_errors] == [
            (3, f"domain1_score {LONG_WORD[:20]!r}... (5000 characters) "
                "is not a number")]

    def test_integer_fields_are_named(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(HEADER + "x\t1\ta\t3\n4\ty\tb\t3\n5\n")
        _, row_errors = load_corpus(p, min_count=1)
        assert [(e.line, e.message) for e in row_errors] == [
            (2, "essay_id 'x' is not an integer"),
            (3, "essay_set 'y' is not an integer"),
            (4, "essay_set None is not an integer")]


def test_list_id_beyond_int64_is_a_data_error():
    with pytest.raises(DataError, match="out of the int32 range"):
        extract_windows([make_essay([10, 2 ** 64])], 3)


# numpy holds such a list as floats, whose cast to int64 only warns
@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64 - 1])
def test_list_id_in_the_uint64_range_is_a_data_error(big):
    with pytest.raises(DataError, match="out of the int32 range"):
        extract_windows([make_essay([10, big])], 3)


def test_zero_corruptions_is_a_config_error():
    with pytest.raises(ConfigError, match="at least one corruption, got 0"):
        corrupt_window([5], 0, np.random.default_rng(0),
                       Vocabulary(["ab", "cd", "ef"]))


class TestLstmShapes:
    def test_unknown_peephole_mode(self):
        with pytest.raises(ConfigError,
                           match="unknown peephole mode 'sideways'"):
            LSTMLayer(1, 3, 2, "sideways")

    def test_head_width_mismatch(self):
        # a bidirectional layer of width 2 outputs 4 values, not 2
        layer = LSTMLayer(2, 3, 2, "off")
        with pytest.raises(ConfigError, match=r"head width \(2,\) does not "
                                              "match layer output width 4"):
            SeqModel(np.zeros((3, 5), order="F"), [layer], np.zeros(2),
                     np.zeros(1), 0.0)


class TestMetrics:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        with pytest.raises(NumericalError, match="non-finite value"):
            rmse([1.0, bad], [1.0, 2.0])
        with pytest.raises(NumericalError, match="non-finite value"):
            rmse([1.0, 2.0], [bad, 2.0])

    def test_kappa_on_a_non_integer_range(self):
        with pytest.raises(DataError, match=r"kappa needs an integer score "
                                            r"range, got \[0, 2\.5\]"):
            quadratic_weighted_kappa([1, 2], [1, 2], ScoreRange(0, 2.5))


@pytest.fixture
def ingested(tmp_path):
    """The overfit16 fixture ingested under the tiny CLI config; returns
    the workspace root and the config path."""
    assert main(["synth", "--profile", "overfit16",
                 "--out", str(tmp_path / "synth.tsv")]) == 0
    cfgpath = write_workspace_config(tmp_path)
    assert main(["--config", str(cfgpath), "ingest"]) == 0
    return tmp_path, cfgpath


class TestCommands:
    def test_ingest_with_no_usable_essays(self, tmp_path, capsys):
        (tmp_path / "synth.tsv").write_text(HEADER + "1\t1\t\t3\n"
                                            "2\t1\tfine words\tN/A\n")
        cfgpath = write_workspace_config(tmp_path)
        assert main(["--config", str(cfgpath), "ingest"]) == 2
        err = capsys.readouterr().err
        assert f"no usable essays in {tmp_path / 'synth.tsv'}" in err
        assert not (tmp_path / "splits").exists()

    def test_missing_val_manifest(self, ingested, capsys):
        root, cfgpath = ingested
        val = root / "splits" / "val.ids"
        val.unlink()
        capsys.readouterr()
        assert main(["--config", str(cfgpath), "train-scorer"]) == 2
        assert f"no val manifest at {val}; run `ingest` first" \
            in capsys.readouterr().err
        assert not (root / "models" / "model.sats").exists()

    def test_search_with_zero_epochs(self, ingested, capsys, monkeypatch):
        # refused before the first trial trains its embeddings
        root, cfgpath = ingested
        calls = []
        monkeypatch.setattr("essayscore.sswe.train_sswe",
                            lambda *args: calls.append(args))
        capsys.readouterr()
        assert main(["--config", str(cfgpath), "--epochs", "0", "search",
                     "--trials", "1"]) == 1
        out, err = capsys.readouterr()
        assert "search needs a nonzero epoch budget" in err
        assert "trial 0" not in out
        assert calls == []
        assert not (root / "reports" / "search_trials.csv").exists()


class TestLongIntegers:
    """An integer field of more digits than ``int`` converts is a data
    error (exit 2) that names the field and echoes a short prefix."""

    @staticmethod
    def assert_short_data_error(rc, err, where):
        assert rc == 2
        assert "set_int_max_str_digits" not in err
        assert f"{where}{LONG_INT[:20]!r}... (5000 characters) is not an " \
               "integer" in err
        assert len(err) < 400, err

    def test_range_table_set_id(self, tmp_path, capsys):
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
        table = tmp_path / "ranges.tsv"
        table.write_text(f"{LONG_INT}\t0\t10\n")
        cfgpath = write_workspace_config(tmp_path, range_table=table)
        rc = main(["--config", str(cfgpath), "ingest"])
        self.assert_short_data_error(rc, capsys.readouterr().err,
                                     f"{table}:1: set_id ")

    def test_manifest_line(self, ingested, capsys):
        root, cfgpath = ingested
        manifest = root / "splits" / "train.ids"
        manifest.write_text(f"# config x\n{LONG_INT}\n")
        capsys.readouterr()
        rc = main(["--config", str(cfgpath), "ingest"])
        self.assert_short_data_error(rc, capsys.readouterr().err,
                                     f"{manifest}:2: essay id ")

    def test_tsv_essay_id(self, tmp_path, capsys):
        (tmp_path / "synth.tsv").write_text(
            HEADER + f"{LONG_INT}\t1\tfine words\t3\n")
        cfgpath = write_workspace_config(tmp_path)
        rc = main(["--config", str(cfgpath), "ingest"])
        err = capsys.readouterr().err
        self.assert_short_data_error(rc, err, "warning: line 2: essay_id ")
        assert "no usable essays" in err


class TestIdsOutsideInt64:
    """The corpus cache holds essay and set ids as int64, so an id field
    outside int64 is rejected where it enters, echoed as above."""

    @staticmethod
    def echo(text):
        return repr(text) if len(text) <= 20 \
            else f"{text[:20]!r}... ({len(text)} characters)"

    @pytest.mark.parametrize("text", [str(2 ** 63), str(-2 ** 63 - 1),
                                      "1" * 31])
    def test_tsv_rows(self, tmp_path, text):
        # int64's own edges are kept, and cached
        p = tmp_path / "f.tsv"
        p.write_text(HEADER + f"{text}\t1\ta\t3\n5\t{text}\tb\t3\n"
                     f"{2 ** 63 - 1}\t{-2 ** 63}\tc\t3\n")
        corpus, row_errors = load_corpus(p, min_count=1)
        assert [(e.line, e.message) for e in row_errors] == [
            (2, f"essay_id {self.echo(text)} is outside the int64 range"),
            (3, f"essay_set {self.echo(text)} is outside the int64 range")]
        save_corpus_cache(tmp_path / "c", corpus)
        (essay,) = load_corpus_cache(tmp_path / "c")[0].essays
        assert (essay.essay_id, essay.set_id) == (2 ** 63 - 1, -2 ** 63)

    @pytest.mark.parametrize("text", [str(2 ** 63), "1" * 31])
    def test_range_table_set_id(self, tmp_path, text):
        p = tmp_path / "ranges.tsv"
        p.write_text(f"1\t0\t4\n{text}\t0\t10\n")
        with pytest.raises(DataError) as info:
            read_range_table(p)
        assert str(info.value) == \
            f"{p}:2: set_id {self.echo(text)} is outside the int64 range"

    def test_ingest_warns_and_caches_the_other_rows(self, tmp_path, capsys):
        tsv = tmp_path / "synth.tsv"
        assert main(["synth", "--profile", "overfit16", "--out", str(tsv)]) == 0
        tsv.write_text(tsv.read_text() + f"{'1' * 31}\t1\tone more\t3\n")
        cfgpath = write_workspace_config(tmp_path)
        capsys.readouterr()
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        assert (f"warning: line 18: essay_id {self.echo('1' * 31)} is "
                "outside the int64 range") in capsys.readouterr().err
        corpus, _ = load_corpus_cache(tmp_path / "splits" / "corpus.json")
        assert len(corpus.essays) == 16

"""Configuration handling and end-to-end command-line runs."""

import hashlib
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from essayscore.cli import ERROR_LINE_CHARS, main
from essayscore.config import (MAX_SIZE, Config, SearchSpace, config_hash,
                               load_config, parse_config_text,
                               serialize_config, write_config)
from essayscore.corpus import Vocabulary, load_corpus_cache, read_manifest
from essayscore.errors import ConfigError
from essayscore.lstm import (MODEL_MAGIC, SeqModel, load_model,
                             predict, save_model)
from essayscore.sswe import (EMBEDDING_MAGIC, SSWEParams,
                             load_embeddings, save_embeddings)

from conftest import run_limited_cli
from test_corpus import CACHE_MUTATIONS, JSON_CACHE, put, saved_cache


class TestConfigParsing:
    def test_defaults_validate(self):
        Config().validate()
        # eps_rms only has to be positive
        Config(eps_rms=1e-12).validate()

    def test_key_value_lines_with_comments(self):
        cfg = parse_config_text(
            "# a comment\n"
            "seed = 7\n"
            "alpha = 0.25  # trailing comment\n"
            "bidirectional = yes\n"
            "peepholes = off\n"
            "\n"
            "data_path = corpus.tsv\n")
        assert cfg.seed == 7
        assert cfg.alpha == 0.25
        assert cfg.bidirectional is True
        assert cfg.peepholes == "off"
        assert cfg.data_path == "corpus.tsv"
        # untouched keys keep their defaults
        assert cfg.embed_dim == Config().embed_dim

    def test_boolean_spellings(self):
        for text, value in (("true", True), ("Yes", True), ("1", True),
                            ("on", True), ("false", False), ("No", False),
                            ("0", False), ("off", False)):
            assert parse_config_text(f"bidirectional = {text}\n"
                                     ).bidirectional is value
        with pytest.raises(ConfigError):
            parse_config_text("bidirectional = maybe\n")

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match="2.*mystery"):
            parse_config_text("seed = 1\nmystery = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("seed = banana\n")

    def test_base_config_is_layered_not_mutated(self):
        base = Config(seed=5, alpha=0.4)
        cfg = parse_config_text("alpha = 0.9\n", base=base)
        assert cfg.seed == 5
        assert cfg.alpha == 0.9
        assert base.alpha == 0.4

    def test_serialize_round_trip(self):
        cfg = Config(seed=3, alpha=0.33, bidirectional=True,
                     data_path="x.tsv", peepholes="diagonal")
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = Config(seed=11, dropout=0.25)
        path = tmp_path / "run.cfg"
        write_config(path, cfg, header="for the record")
        assert load_config(path) == cfg
        assert path.read_text().startswith("# for the record\n")


# Every check of Config.validate with its message.
_RANGE = "epochs must be >= 0, batch_size and patience >= 1"
VALIDATION_TABLE = [
    # NaN passes every range comparison, so the float fields go first
    (dict(alpha=float("nan")), "alpha must be finite, got nan"),
    (dict(alpha=float("inf")), "alpha must be finite, got inf"),
    (dict(val_ratio=float("nan")), "val_ratio must be finite, got nan"),
    (dict(val_ratio=float("inf")), "val_ratio must be finite, got inf"),
    (dict(test_ratio=float("nan")), "test_ratio must be finite, got nan"),
    (dict(test_ratio=float("inf")), "test_ratio must be finite, got inf"),
    (dict(learning_rate=float("nan")),
     "learning_rate must be finite, got nan"),
    (dict(learning_rate=float("inf")),
     "learning_rate must be finite, got inf"),
    (dict(dropout=float("nan")), "dropout must be finite, got nan"),
    (dict(dropout=float("inf")), "dropout must be finite, got inf"),
    (dict(rho_rms=float("nan")), "rho_rms must be finite, got nan"),
    (dict(rho_rms=float("inf")), "rho_rms must be finite, got inf"),
    (dict(eps_rms=float("nan")), "eps_rms must be finite, got nan"),
    (dict(eps_rms=float("inf")), "eps_rms must be finite, got inf"),
    (dict(clip_norm=float("nan")), "clip_norm must be finite, got nan"),
    (dict(clip_norm=float("inf")), "clip_norm must be finite, got inf"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(min_count=0), "min_count must be >= 1, got 0"),
    (dict(val_ratio=0.5, test_ratio=0.5),
     "split ratios val=0.5 test=0.5 leave no training data"),
    (dict(val_ratio=-0.1, test_ratio=-0.1),
     "split ratios val=-0.1 test=-0.1 leave no training data"),
    (dict(val_ratio=0.7, test_ratio=0.4),
     "split ratios val=0.7 test=0.4 leave no training data"),
    (dict(window_size=4), "window size must be odd and >= 3, got 4"),
    (dict(window_size=1), "window size must be odd and >= 3, got 1"),
    (dict(alpha=1.5), "alpha must lie in [0, 1], got 1.5"),
    (dict(n_corruptions=0), "n_corruptions must be >= 1, got 0"),
    (dict(embed_dim=0), "embed_dim and hidden_dim must be positive"),
    (dict(hidden_dim=0), "embed_dim and hidden_dim must be positive"),
    (dict(embed_epochs=-1), "embed_epochs must be >= 0, got -1"),
    (dict(lstm_dim=0), "lstm_dim must be positive, got 0"),
    (dict(layers=3), "layers must be 1 or 2, got 3"),
    (dict(dropout=1.0), "dropout must lie in [0, 1), got 1.0"),
    (dict(peepholes="sideways"), "peepholes must be one of ('full', "
     "'diagonal', 'off'), got 'sideways'"),
    (dict(epochs=-1), _RANGE),
    (dict(batch_size=0), _RANGE),
    (dict(patience=0), _RANGE),
    (dict(rho_rms=1.0), "rho_rms must lie in (0, 1), got 1.0"),
    (dict(eps_rms=0.0), "eps_rms must be a finite number > 0, got 0.0"),
    (dict(eps_rms=-1e-8), "eps_rms must be a finite number > 0, got -1e-08"),
    (dict(clip_norm=-1.0), "clip_norm must be a finite number >= 0, got -1.0"),
]


@pytest.mark.parametrize(
    "settings,message", VALIDATION_TABLE,
    ids=["-".join(f"{k}={v}" for k, v in s.items())
         for s, _ in VALIDATION_TABLE])
def test_validation_table(settings, message):
    with pytest.raises(ConfigError) as exc:
        Config(**settings).validate()
    assert str(exc.value) == message


class TestConfigHash:
    def test_stable_and_well_formed(self):
        cfg = Config(seed=2)
        h = config_hash(cfg)
        assert h == config_hash(Config(seed=2))
        assert len(h) == 16
        assert all(c in "0123456789abcdef" for c in h)

    def test_every_field_is_hashed(self):
        base_hash = config_hash(Config())
        changed = [Config(seed=1), Config(alpha=0.2), Config(dropout=0.4),
                   Config(data_path="other.tsv"), Config(bidirectional=True)]
        hashes = {config_hash(c) for c in changed}
        assert base_hash not in hashes
        assert len(hashes) == len(changed)


class TestSearchSpace:
    def test_validation(self):
        SearchSpace().validate()
        with pytest.raises(ConfigError):
            SearchSpace(trials=0).validate()

    @pytest.mark.parametrize("alpha", [1.5, -0.1, float("nan")])
    def test_alpha_choices_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConfigError, match="--alpha-choices must lie in "
                                              r"\[0, 1\]"):
            SearchSpace(alpha_choices=(0.5, alpha)).validate()

    def test_draw_respects_ranges(self):
        space = SearchSpace()
        rng = np.random.default_rng(0)
        base = Config()
        for _ in range(25):
            cfg = space.draw(rng, base)
            assert 1e-8 <= cfg.learning_rate <= 1e-2
            assert 0.0 <= cfg.alpha <= 1.0
            assert 0.0 <= cfg.dropout <= 0.7
            assert 20 <= cfg.embed_dim <= 200
            assert 20 <= cfg.hidden_dim <= 100
            assert cfg.window_size in (5, 7, 9)
            assert 10 <= cfg.n_corruptions <= 200
            assert 5 <= cfg.lstm_dim <= 30
            assert cfg.seed >= 0
            cfg.validate()

    def test_draws_are_pinned(self):
        # sha256 of 20 draws from seed 3, free and with alpha choices, as
        # drawn when the ranges were settable fields of SearchSpace
        h = hashlib.sha256()
        for choices in ((), (0.1, 1.0)):
            rng = np.random.default_rng(3)
            space = SearchSpace(alpha_choices=choices)
            for _ in range(20):
                h.update(serialize_config(space.draw(rng, Config())).encode())
        assert h.hexdigest() == ("fd935f4ab2cac4ab2ffdf0a71bd047ea"
                                 "6c0e83638205a7c7c085b5d1440a9639")

    def test_alpha_choices_pin_the_draw(self):
        space = SearchSpace(alpha_choices=(0.1, 1.0))
        rng = np.random.default_rng(1)
        drawn = {space.draw(rng, Config()).alpha for _ in range(20)}
        assert drawn == {0.1, 1.0}

    def test_draw_is_seeded(self):
        space = SearchSpace()
        a = space.draw(np.random.default_rng(5), Config())
        b = space.draw(np.random.default_rng(5), Config())
        assert a == b


TINY_CFG = """\
data_path = {data}
splits_dir = {root}/splits
models_dir = {root}/models
reports_dir = {root}/reports
heatmaps_dir = {root}/heatmaps
min_count = 1
embed_dim = 8
hidden_dim = 6
window_size = 3
n_corruptions = 5
embed_epochs = 1
alpha = 0.1
learning_rate = 0.001
lstm_dim = 4
layers = 1
dropout = 0.0
peepholes = off
epochs = 2
batch_size = 8
patience = 5
"""


def write_workspace_config(root, **overrides):
    text = TINY_CFG.format(data=root / "synth.tsv", root=root)
    for key, value in overrides.items():
        text += f"{key} = {value}\n"
    path = root / "pipeline.cfg"
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A fully trained tiny pipeline: corpus, splits, embeddings, scorer."""
    root = tmp_path_factory.mktemp("cli")
    cfgpath = write_workspace_config(root)
    argv = ["--config", str(cfgpath)]
    assert main(["synth", "--profile", "overfit16",
                 "--out", str(root / "synth.tsv")]) == 0
    assert main(argv + ["ingest"]) == 0
    assert main(argv + ["train-embeddings"]) == 0
    assert main(argv + ["train-scorer"]) == 0
    return root, cfgpath


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.tsv", "b.tsv", "c.tsv"))
        assert main(["synth", "--profile", "misspell", "--out", str(a)]) == 0
        assert main(["synth", "--profile", "misspell", "--out", str(b)]) == 0
        assert main(["synth", "--profile", "misspell", "--seed", "9",
                     "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_unknown_profile_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--profile", "junk",
                   "--out", str(tmp_path / "x.tsv")])
        assert rc == 1
        capsys.readouterr()


class TestIngestCommand:
    def test_manifests_partition_the_corpus(self, workspace):
        root, _ = workspace
        ids = {}
        for name in ("train", "val", "test"):
            ids[name] = read_manifest(root / "splits" / f"{name}.ids")
            assert ids[name]
        combined = ids["train"] + ids["val"] + ids["test"]
        assert len(combined) == len(set(combined)) == 16
        corpus, chash = load_corpus_cache(root / "splits" / "corpus.json")
        assert len(corpus.essays) == 16
        assert len(chash) == 16

    def test_rerun_reuses_manifests(self, workspace, capsys):
        root, cfgpath = workspace
        before = (root / "splits" / "train.ids").read_bytes()
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        assert "reusing existing split manifests" in capsys.readouterr().out
        assert (root / "splits" / "train.ids").read_bytes() == before

    def test_missing_data_file_is_a_data_error(self, tmp_path, capsys):
        cfgpath = write_workspace_config(tmp_path)
        rc = main(["--config", str(cfgpath), "ingest"])
        assert rc == 2
        capsys.readouterr()

    def test_flag_overrides_config_file(self, tmp_path):
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
        cfgpath = write_workspace_config(tmp_path, min_count=999)
        assert main(["--config", str(cfgpath), "--min-count", "1",
                     "ingest"]) == 0
        corpus, _ = load_corpus_cache(tmp_path / "splits" / "corpus.json")
        # min_count 999 would leave only the special tokens
        assert len(corpus.vocab) > 3

    def test_reused_manifest_with_unknown_id_is_a_data_error(self, tmp_path,
                                                             capsys):
        # ingest used to accept it and report its length as the split's
        # size; train-embeddings then failed on the missing id
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
        cfgpath = write_workspace_config(tmp_path)
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        manifest = tmp_path / "splits" / "train.ids"
        manifest.write_text(manifest.read_text() + "99\n")
        cache = tmp_path / "splits" / "corpus.json"
        cache.unlink()
        capsys.readouterr()
        assert main(["--config", str(cfgpath), "ingest"]) == 2
        out, err = capsys.readouterr()
        assert f"train manifest {manifest}" in err
        assert "essay ids missing from corpus: [99]" in err
        assert "splits:" not in out
        assert not cache.exists()
        assert not list((tmp_path / "splits").glob("*.tmp"))

    def test_oversized_field_is_a_data_error(self, tmp_path):
        # a field over the csv module's limit (131,072 characters by
        # default) used to end in an uncaught csv.Error and exit 1
        tsv = tmp_path / "synth.tsv"
        assert main(["synth", "--profile", "overfit16", "--out", str(tsv)]) == 0
        lines = tsv.read_text().splitlines()
        header = lines[0].split("\t")
        row = dict(zip(header, lines[1].split("\t")))
        row.update(essay_id="999", essay="word " * 30000)
        tsv.write_text("\n".join(lines + ["\t".join(row[c] for c in header)])
                       + "\n")
        cfgpath = write_workspace_config(tmp_path)
        proc = run_limited_cli(["--config", str(cfgpath), "ingest"])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{tsv}:{len(lines) + 1}: field larger than field limit" \
            in proc.stderr

    def test_config_via_environment(self, tmp_path, monkeypatch):
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
        cfgpath = write_workspace_config(tmp_path)
        monkeypatch.setenv("ESSAYSCORE_CONFIG", str(cfgpath))
        assert main(["ingest"]) == 0
        assert (tmp_path / "splits" / "corpus.json").exists()


class TestTrainCommands:
    def test_artifacts_exist_with_config_stamp(self, workspace):
        root, cfgpath = workspace
        chash = config_hash(load_config(cfgpath))
        emb = root / "models" / "embeddings.sswe"
        model = root / "models" / "model.sats"
        assert emb.exists() and model.exists()
        _, tag = load_model(model)
        assert tag == chash
        for report in ("embed_history.csv", "scorer_history.csv"):
            first = (root / "reports" / report).read_text().splitlines()[0]
            assert first == f"# config {chash}"

    def test_embedding_training_is_reproducible(self, workspace):
        root, cfgpath = workspace
        emb = root / "models" / "embeddings.sswe"
        before = emb.read_bytes()
        assert main(["--config", str(cfgpath), "train-embeddings"]) == 0
        assert emb.read_bytes() == before

    def test_scorer_from_learned_embeddings(self, workspace):
        root, cfgpath = workspace
        assert main(["--config", str(cfgpath), "train-scorer",
                     "--embeddings", "learned"]) == 0
        model, _ = load_model(root / "models" / "model.sats")
        assert model.vocab_size > 3

    def test_vocabulary_mismatch_names_both_sizes(self, workspace, tmp_path,
                                                  capsys):
        root, cfgpath = workspace
        vocab = Vocabulary(["a", "b", "c"])
        cfg = Config(embed_dim=8, hidden_dim=6, window_size=3,
                     n_corruptions=5)
        params = SSWEParams.init(len(vocab), cfg, np.random.default_rng(0))
        alien = tmp_path / "alien.sswe"
        save_embeddings(alien, params, vocab)
        rc = main(["--config", str(cfgpath), "train-scorer",
                   "--embeddings", str(alien)])
        assert rc == 2
        err = capsys.readouterr().err
        corpus, _ = load_corpus_cache(root / "splits" / "corpus.json")
        assert str(len(vocab)) in err
        assert str(len(corpus.vocab)) in err

    def test_same_size_foreign_vocabulary_names_first_mismatch(
            self, workspace, tmp_path, capsys):
        # the corpus's words with the two most frequent swapped: equal
        # sizes, but every column of the matrix would score the wrong word
        root, cfgpath = workspace
        corpus, _ = load_corpus_cache(root / "splits" / "corpus.json")
        words = corpus.vocab.id_to_token[3:]
        words[0], words[1] = words[1], words[0]
        vocab = Vocabulary(words)
        assert len(vocab) == len(corpus.vocab)
        cfg = Config(embed_dim=8, hidden_dim=6, window_size=3,
                     n_corruptions=5)
        params = SSWEParams.init(len(vocab), cfg, np.random.default_rng(0))
        alien = tmp_path / "alien.sswe"
        save_embeddings(alien, params, vocab)
        model_bytes = (root / "models" / "model.sats").read_bytes()
        rc = main(["--config", str(cfgpath), "train-scorer",
                   "--embeddings", str(alien)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "id 3" in err
        assert repr(words[0]) in err and repr(words[1]) in err
        assert (root / "models" / "model.sats").read_bytes() == model_bytes

    def test_embedding_dimension_must_match_config(self, workspace, tmp_path,
                                                   capsys):
        # the corpus's own vocabulary, but 5 dimensions against the
        # config's embed_dim = 8: the saved model's config hash would
        # name a dimension it does not have
        root, cfgpath = workspace
        _, vocab, _ = load_embeddings(root / "models" / "embeddings.sswe")
        cfg = Config(embed_dim=5, hidden_dim=6, window_size=3)
        params = SSWEParams.init(len(vocab), cfg, np.random.default_rng(0))
        narrow = tmp_path / "narrow.sswe"
        save_embeddings(narrow, params, vocab)
        model_bytes = (root / "models" / "model.sats").read_bytes()
        rc = main(["--config", str(cfgpath), "train-scorer",
                   "--embeddings", str(narrow)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "dimension 5" in err and "embed_dim is 8" in err
        assert (root / "models" / "model.sats").read_bytes() == model_bytes

    def test_missing_cache_is_a_data_error(self, tmp_path, capsys):
        cfgpath = write_workspace_config(tmp_path)
        rc = main(["--config", str(cfgpath), "train-embeddings"])
        assert rc == 2
        assert "ingest" in capsys.readouterr().err

    def test_one_word_vocabulary_is_a_data_error(self, tmp_path):
        # every token but "only" occurs once, so min_count 2 keeps one
        # word and most windows center an unknown word, which can be
        # corrupted; the windows of "only" cannot
        rows = ["essay_id\tessay_set\tessay\tdomain1_score"] + [
            f"{k}\t1\tu{k}a u{k}b only u{k}c u{k}d u{k}e\t{k % 4}"
            for k in range(1, 21)]
        (tmp_path / "synth.tsv").write_text("\n".join(rows) + "\n")
        cfgpath = write_workspace_config(tmp_path, min_count=2)
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        corpus, _ = load_corpus_cache(tmp_path / "splits" / "corpus.json")
        assert corpus.vocab.n_words == 1
        proc = run_limited_cli(["--config", str(cfgpath), "train-embeddings"])
        assert proc.returncode == 2, proc.stderr
        assert "vocabulary too small to corrupt the target word" \
            in proc.stderr
        assert "Traceback" not in proc.stderr


class TestEvaluateCommand:
    def test_single_split_report(self, workspace, capsys):
        root, cfgpath = workspace
        assert main(["--config", str(cfgpath), "evaluate",
                     "--split", "val"]) == 0
        out = capsys.readouterr().out
        assert "[val]" in out
        lines = (root / "reports" / "metrics_val.csv").read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "model,n,spearman,pearson,rmse,qwk"
        assert lines[2].startswith("model.sats,")
        n_val = len(read_manifest(root / "splits" / "val.ids"))
        assert lines[2].split(",")[1] == str(n_val)

    def test_all_splits(self, workspace, capsys):
        root, cfgpath = workspace
        assert main(["--config", str(cfgpath), "evaluate",
                     "--split", "all"]) == 0
        capsys.readouterr()
        for name in ("train", "val", "test"):
            assert (root / "reports" / f"metrics_{name}.csv").exists()
            assert (root / "reports" / f"metrics_{name}.txt").exists()

    def test_calls_in_one_process_share_no_parsed_state(self, workspace,
                                                        capsys):
        # main builds its parser once per process: a flag given to one
        # call must not reach the next
        root, cfgpath = workspace
        argv = ["--config", str(cfgpath)]
        stamp = root / "reports" / "metrics_test.csv"
        assert main(argv + ["evaluate", "--split", "all"]) == 0
        capsys.readouterr()
        assert main(argv + ["evaluate"]) == 0
        out = capsys.readouterr().out
        assert "[test]" in out and "[train]" not in out
        plain = stamp.read_text().splitlines()[0]
        # the file sets epochs = 2; the config hash stamped on a report
        # shows which value a call ran with
        assert main(argv + ["--epochs", "3", "evaluate"]) == 0
        assert stamp.read_text().splitlines()[0] != plain
        assert main(argv + ["evaluate"]) == 0
        assert stamp.read_text().splitlines()[0] == plain
        capsys.readouterr()

    def test_numerical_failure_keeps_old_report(self, workspace, tmp_path,
                                                capsys):
        root, cfgpath = workspace
        assert main(["--config", str(cfgpath), "evaluate",
                     "--split", "val"]) == 0
        capsys.readouterr()
        old = (root / "reports" / "metrics_val.csv").read_bytes()

        model, tag = load_model(root / "models" / "model.sats")
        model.W_yh[...] = np.nan  # predictions that are not finite
        broken = tmp_path / "broken.sats"
        save_model(broken, model, tag)
        rc = main(["--config", str(cfgpath), "evaluate",
                   "--model", str(broken), "--split", "val"])
        assert rc == 3
        capsys.readouterr()
        assert (root / "reports" / "metrics_val.csv").read_bytes() == old
        assert not list((root / "reports").glob("*.tmp"))

    def test_constant_predictions_report_rmse_and_qwk(self, workspace,
                                                      tmp_path, capsys):
        # a zero-weight head predicts one score for every essay, which
        # leaves the correlations undefined; evaluate used to exit 3
        root, cfgpath = workspace
        model, tag = load_model(root / "models" / "model.sats")
        model.W_yh[...] = 0.0
        flat = tmp_path / "flat.sats"
        save_model(flat, model, tag)
        capsys.readouterr()
        assert main(["--config", str(cfgpath), "evaluate", "--model",
                     str(flat), "--split", "all"]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            f"note: {name} split: the predictions are constant, so "
            "Spearman and Pearson are undefined"
            for name in ("train", "val", "test")]
        assert out.count("spearman  undefined") == 3
        for name in ("train", "val", "test"):
            row = (root / "reports" / f"metrics_{name}.csv").read_text() \
                .splitlines()[2].split(",")
            assert row[2:4] == ["nan", "nan"]
            assert float(row[4]) > 0 and float(row[5]) == 0.0
            assert "pearson   undefined" in \
                (root / "reports" / f"metrics_{name}.txt").read_text()

    def test_constant_gold_scores_are_a_data_error(self, tmp_path):
        # the first five overfit16 essays all score 0; evaluating their
        # 4-essay train split used to exit 3 as a numerical failure
        tsv = tmp_path / "synth.tsv"
        assert main(["synth", "--profile", "overfit16", "--out", str(tsv)]) == 0
        tsv.write_text("\n".join(tsv.read_text().splitlines()[:6]) + "\n")
        cfgpath = write_workspace_config(tmp_path)
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        corpus, _ = load_corpus_cache(tmp_path / "splits" / "corpus.json")
        assert {e.raw_score for e in corpus.essays} == {0.0}
        rng = np.random.default_rng(0)
        M = np.asfortranarray(rng.uniform(-1, 1, (4, len(corpus.vocab))))
        (tmp_path / "models").mkdir()
        save_model(tmp_path / "models" / "model.sats",
                   SeqModel.init(M, Config(lstm_dim=4), rng))
        proc = run_limited_cli(["--config", str(cfgpath), "evaluate",
                                "--split", "train"])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        manifest = tmp_path / "splits" / "train.ids"
        assert f"train split ({manifest}) has one distinct gold score" \
            in proc.stderr
        assert not (tmp_path / "reports").exists()

    def test_missing_model_is_a_data_error(self, tmp_path, capsys):
        cfgpath = write_workspace_config(tmp_path)
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        rc = main(["--config", str(cfgpath), "evaluate"])
        assert rc == 2
        capsys.readouterr()


class TestVisualizeCommand:
    def test_heatmaps_and_index(self, workspace, capsys):
        root, cfgpath = workspace
        model_bytes = (root / "models" / "model.sats").read_bytes()
        assert main(["--config", str(cfgpath), "visualize",
                     "--ids", "1,5"]) == 0
        out = capsys.readouterr().out
        assert "\x1b[38;5;" in out
        for eid in (1, 5):
            assert (root / "heatmaps" / f"essay_{eid}.html").exists()
        lines = (root / "heatmaps" / "index.csv").read_text().splitlines()
        assert lines[1] == "essay_id,predicted,mean_q"
        assert len(lines) == 4
        # rendering must never touch the model
        assert (root / "models" / "model.sats").read_bytes() == model_bytes

    def test_span_mode_with_long_span_matches_essay_mode(self, workspace,
                                                         capsys):
        root, cfgpath = workspace
        assert main(["--config", str(cfgpath), "visualize", "--ids", "2",
                     "--monochrome"]) == 0
        essay_out = capsys.readouterr().out
        assert main(["--config", str(cfgpath), "visualize", "--ids", "2",
                     "--mode", "span", "--span-len", "10000",
                     "--monochrome"]) == 0
        span_out = capsys.readouterr().out
        assert span_out == essay_out

    def test_span_mode_rebins_within_tiles(self, workspace, capsys):
        root, cfgpath = workspace
        assert main(["--config", str(cfgpath), "visualize", "--ids", "3",
                     "--mode", "span", "--span-len", "4",
                     "--monochrome"]) == 0
        out = capsys.readouterr().out.split()
        bins = [int(tok.rsplit("[", 1)[1].rstrip("]")) for tok in out]
        for start in range(0, len(bins) - 3, 4):
            assert sorted(bins[start:start + 4]) == [0, 2, 4, 6]

    def test_bad_ids_are_usage_errors(self, workspace, capsys):
        root, cfgpath = workspace
        assert main(["--config", str(cfgpath), "visualize",
                     "--ids", "one,two"]) == 1
        assert main(["--config", str(cfgpath), "visualize", "--ids", ","]) == 1
        assert main(["--config", str(cfgpath), "visualize",
                     "--ids", "999"]) == 2
        capsys.readouterr()

    def test_larger_vocabulary_model_is_a_data_error(self, workspace,
                                                      tmp_path, capsys):
        # one extra embedding column: ids would still be in range, so
        # only the vocabulary check stops it scoring the wrong columns
        root, cfgpath = workspace
        model, tag = load_model(root / "models" / "model.sats")
        model.M = np.asfortranarray(
            np.hstack((model.M, np.zeros((model.embed_dim, 1)))))
        big = tmp_path / "big.sats"
        save_model(big, model, tag)
        maps = tmp_path / "maps"
        rc = main(["--config", str(cfgpath), "--heatmaps-dir", str(maps),
                   "visualize", "--model", str(big), "--ids", "1"])
        assert rc == 2
        assert "vocabulary" in capsys.readouterr().err
        assert not maps.exists() or list(maps.iterdir()) == []

    def test_missing_id_leaves_no_heatmap(self, workspace, tmp_path, capsys):
        # essay 4 renders before 999 fails; nothing of the run may remain
        root, cfgpath = workspace
        maps = tmp_path / "maps"
        assert main(["--config", str(cfgpath), "--heatmaps-dir", str(maps),
                     "visualize", "--ids", "4,999"]) == 2
        capsys.readouterr()
        assert maps.is_dir()
        assert list(maps.iterdir()) == []

    def test_zero_span_length_is_a_usage_error(self, workspace, tmp_path,
                                               capsys):
        root, cfgpath = workspace
        maps = tmp_path / "maps"
        rc = main(["--config", str(cfgpath), "--heatmaps-dir", str(maps),
                   "visualize", "--ids", "1", "--mode", "span",
                   "--span-len", "0"])
        assert rc == 1
        assert "--span-len" in capsys.readouterr().err
        assert not maps.exists()

    def test_repeated_id_renders_once(self, workspace, tmp_path, capsys):
        # the second registration of essay_5.html used to move a temp file
        # the first had already moved, failing before index.csv was written
        root, cfgpath = workspace
        maps = tmp_path / "maps"
        assert main(["--config", str(cfgpath), "--heatmaps-dir", str(maps),
                     "visualize", "--ids", "5,5"]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in maps.iterdir()) \
            == ["essay_5.html", "index.csv"]
        rows = (maps / "index.csv").read_text().splitlines()[2:]
        assert len(rows) == 2 and rows[0] == rows[1]


class TestSearchCommand:
    def test_single_trial_is_deterministic(self, workspace, capsys):
        root, cfgpath = workspace
        argv = ["--config", str(cfgpath), "search", "--trials", "1",
                "--search-seed", "3", "--alpha-choices", "0.1"]
        assert main(argv) == 0
        capsys.readouterr()
        trials = root / "reports" / "search_trials.csv"
        best = root / "reports" / "best_config.cfg"
        first = trials.read_bytes()
        best_first = best.read_bytes()
        assert main(argv) == 0
        capsys.readouterr()
        assert trials.read_bytes() == first
        assert best.read_bytes() == best_first

        chosen = load_config(best)
        assert chosen.alpha == 0.1
        header = first.decode().splitlines()
        assert header[1].startswith("trial,alpha,")
        assert len(header) == 3

    def test_zero_trials_rejected(self, workspace, capsys):
        root, cfgpath = workspace
        rc = main(["--config", str(cfgpath), "search", "--trials", "0"])
        assert rc == 1
        capsys.readouterr()

    # whether 1.5 was caught used to depend on the draw: seed 2 failed
    # after training a trial, seed 3 never drew it and exited 0
    @pytest.mark.parametrize("search_seed", ["2", "3"])
    def test_alpha_choice_outside_unit_interval_runs_no_trial(
            self, workspace, capsys, search_seed):
        root, cfgpath = workspace
        trials = root / "reports" / "search_trials.csv"
        before = trials.read_bytes() if trials.exists() else None
        rc = main(["--config", str(cfgpath), "search", "--trials", "4",
                   "--search-seed", search_seed, "--alpha-choices", "0.5,1.5"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "--alpha-choices must lie in [0, 1], got 1.5" in err
        assert "trial" not in out
        assert (trials.read_bytes() if trials.exists() else None) == before


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["--does-not-exist", "1", "ingest"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_invalid_config_value_via_flag(self, tmp_path, capsys):
        cfgpath = write_workspace_config(tmp_path)
        rc = main(["--config", str(cfgpath), "--alpha", "2.0", "ingest"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("seed", ["abc", "-1"])
    def test_bad_synth_seed(self, tmp_path, capsys, seed):
        out = tmp_path / "x.tsv"
        rc = main(["synth", "--profile", "ablation", "--seed", seed,
                   "--out", str(out)])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_seed(self, workspace, capsys):
        # numpy's generators refuse a negative seed with a bare ValueError
        _, cfgpath = workspace
        rc = main(["--config", str(cfgpath), "--seed", "-1",
                   "train-embeddings"])
        assert rc == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_non_numeric_alpha_choices(self, capsys):
        assert main(["search", "--alpha-choices", "a,b"]) == 1
        assert "--alpha-choices" in capsys.readouterr().err

    # NaN passes every range comparison: ratios used to crash ingest in
    # split_corpus, and clip_norm turned clipping off with exit 0
    @pytest.mark.parametrize("flag,command", [
        ("--val-ratio", "ingest"), ("--test-ratio", "ingest"),
        ("--clip-norm", "train-scorer")])
    def test_nan_values_rejected(self, workspace, flag, command, capsys):
        root, cfgpath = workspace
        model = root / "models" / "model.sats"
        before = model.read_bytes()
        rc = main(["--config", str(cfgpath), flag, "nan", command])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err
        assert model.read_bytes() == before

    # a NUL in a path from a config file reached open(), whose ValueError
    # ended the run in a traceback
    @pytest.mark.parametrize("key", ["data_path", "range_table"])
    def test_nul_in_a_config_path(self, tmp_path, key, capsys):
        cfgpath = write_workspace_config(tmp_path, **{key: "a\0b"})
        assert main(["--config", str(cfgpath), "ingest"]) == 1
        assert f"{key} must not contain a NUL" in capsys.readouterr().err

    # a size of 10**20 failed in numpy with "Maximum allowed dimension
    # exceeded", one of 10**8 with a MemoryError, both as tracebacks
    @pytest.mark.parametrize("key", ["embed_dim", "hidden_dim", "window_size",
                                     "n_corruptions", "lstm_dim"])
    def test_size_above_the_bound(self, workspace, key, capsys):
        _, cfgpath = workspace
        rc = main(["--config", str(cfgpath), f"--{key.replace('_', '-')}",
                   "99999999999999999999", "train-embeddings"])
        assert rc == 1
        assert f"{key} must be <= {MAX_SIZE}" in capsys.readouterr().err

    def test_sizes_beyond_memory(self, workspace):
        # the largest embed_dim asks for a (2**24, V) matrix, past the
        # child's 2 GiB address space
        _, cfgpath = workspace
        proc = run_limited_cli(["--config", str(cfgpath), "--embed-dim",
                                str(MAX_SIZE), "--models-dir",
                                str(cfgpath.parent / "big"),
                                "train-embeddings"])
        assert proc.returncode == 1
        assert "out of memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    # a hand-edited cache used to train with a float token truncated to
    # an id; the cache holds int32 ids and f64 scores, so an id out of
    # range and a score that is not finite are what they can be
    @pytest.mark.parametrize("command", [
        ["train-embeddings"], ["train-scorer", "--embeddings", "learned"]],
        ids=["embeddings", "scorer"])
    @pytest.mark.parametrize("field,value,message", [
        ("tokens", -1, "not an id"), ("tokens", "vocab", "not an id"),
        ("scores", float("nan"), "a score is not finite"),
        ("scores", float("-inf"), "a score is not finite")])
    def test_bad_corpus_cache_values(self, tmp_path, capsys, command, field,
                                     value, message):
        cfgpath = write_workspace_config(tmp_path)
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        cache = tmp_path / "splits" / "corpus.json"
        corpus, _ = load_corpus_cache(cache)
        if value == "vocab":
            value = len(corpus.vocab)  # one past the last id
        # the first token of the last essay, or its score
        *head, last = corpus.essays
        at, fmt = (sum(len(e.tokens) for e in head), "i") \
            if field == "tokens" else (len(head), "d")
        cache.write_bytes(put(cache.read_bytes(), field, at, fmt, value))
        capsys.readouterr()
        assert main(["--config", str(cfgpath)] + command) == 2
        err = capsys.readouterr().err
        assert f"corpus cache {cache}: " in err and message in err

    def test_every_cache_mutation_exits_2(self, tmp_path, capsys):
        cfgpath = write_workspace_config(tmp_path)
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        cache = tmp_path / "splits" / "corpus.json"
        saved = saved_cache(tmp_path)[1].read_bytes()
        for name, (edit, message) in CACHE_MUTATIONS.items():
            cache.write_bytes(edit(saved))
            capsys.readouterr()
            assert main(["--config", str(cfgpath), "train-embeddings"]) == 2
            err = capsys.readouterr().err
            assert str(cache) in err and re.search(message, err), name
        # and a JSON cache of an older version, as a process: one line on
        # stderr, no traceback
        cache.write_text(JSON_CACHE)
        proc = run_limited_cli(["--config", str(cfgpath), "train-scorer"])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (f"error: corpus cache {cache}: wrong magic "
                               "b'{\"co'; run `ingest` again\n")

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "absent.cfg"), "ingest"])
        assert rc == 2
        capsys.readouterr()

    # each of these echoed its 5,000-character input whole, in an error
    # line of over 5,000 characters; "CFG" is a config file whose
    # embed_dim is the long value
    LONG = "7" * 4999 + "x"

    @pytest.mark.parametrize("argv,code", [
        (["--embed-dim", LONG, "ingest"], 1),
        (["--config", "CFG", "ingest"], 1),
        (["--peepholes", "p" * 5000, "ingest"], 1),
        (["visualize", "--ids", "1", "--span-len", LONG], 1),
        (["evaluate", "--split", "s" * 5000], 1),
        (["visualize", "--ids", "i" * 5000], 1),
        (["search", "--alpha-choices", "a" * 5000], 1),
        (["--data-path", "d" * 5000, "ingest"], 2)],
        ids=["embed-dim", "config-file", "peepholes", "span-len", "split",
             "ids", "alpha-choices", "data-path"])
    def test_long_input_gives_a_bounded_error_line(self, tmp_path, capsys,
                                                   argv, code):
        cfgpath = tmp_path / "long.cfg"
        cfgpath.write_text(f"embed_dim = {self.LONG}\n", encoding="utf-8")
        capsys.readouterr()
        assert main([str(cfgpath) if a == "CFG" else a for a in argv]) == code
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        head, length = re.fullmatch(r"(.*)\.\.\. \((\d+) characters\)",
                                    line).groups()
        assert len(head) == ERROR_LINE_CHARS and int(length) > 5000
        assert head.startswith("error: ")


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any input file is a typed error that
    names the file: exit 2 for data, exit 1 for the config."""

    @staticmethod
    def corrupt(path, old: bytes, new: bytes):
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))

    @pytest.mark.parametrize("target", ["data", "range_table", "manifest",
                                        "cache"])
    def test_data_files_exit_2(self, tmp_path, capsys, target):
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
        ranges = tmp_path / "ranges.tsv"
        ranges.write_text("1\t0\t10\n")
        cfgpath = write_workspace_config(tmp_path, range_table=ranges)
        argv = ["--config", str(cfgpath)]
        command = "ingest"
        if target == "data":
            bad = tmp_path / "synth.tsv"
            self.corrupt(bad, b" the ", b" th\xe9 ")
        elif target == "range_table":
            bad = ranges
            self.corrupt(bad, b"1\t", b"# \xff\n1\t")
        else:
            assert main(argv + ["ingest"]) == 0
            command = "train-embeddings"
            if target == "manifest":
                bad = tmp_path / "splits" / "train.ids"
                self.corrupt(bad, b"\n", b"\n\xff\n")
            else:
                bad = tmp_path / "splits" / "corpus.json"
                self.corrupt(bad, b"\nthe\n", b"\nth\xe9\n")
        capsys.readouterr()
        assert main(argv + [command]) == 2
        # the cache is binary, and its words are its one text field
        assert (f"corpus cache {bad}: text field is not UTF-8"
                if target == "cache" else f"{bad} is not valid UTF-8") \
            in capsys.readouterr().err

    def test_config_file_exits_1(self, tmp_path, capsys):
        cfgpath = write_workspace_config(tmp_path)
        cfgpath.write_bytes(cfgpath.read_bytes() + b"# caf\xe9\n")
        assert main(["--config", str(cfgpath), "ingest"]) == 1
        assert f"{cfgpath} is not valid UTF-8" in capsys.readouterr().err


class TestRawScoreMode:
    """With normalize_scores off the scorer regresses raw scores."""

    @pytest.fixture(scope="class")
    def raw_workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("raw")
        cfgpath = write_workspace_config(root, normalize_scores="false")
        argv = ["--config", str(cfgpath)]
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(root / "synth.tsv")]) == 0
        for command in ("ingest", "train-embeddings", "train-scorer"):
            assert main(argv + [command]) == 0
        return root, argv

    @pytest.mark.parametrize("mode", [[], ["--mode", "span", "--span-len", "5"]],
                             ids=["essay", "span"])
    def test_visualize_shows_what_predict_gives(self, raw_workspace, capsys,
                                                mode):
        # the displayed score used to be clamped into [0, 1] first, so a
        # raw prediction of 1.26 showed as the set maximum
        root, argv = raw_workspace
        ids = list(range(1, 17))
        assert main(argv + ["visualize", "--ids", ",".join(map(str, ids)),
                            "--monochrome"] + mode) == 0
        capsys.readouterr()
        rows = (root / "heatmaps" / "index.csv").read_text().splitlines()[2:]
        shown = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        corpus, _ = load_corpus_cache(root / "splits" / "corpus.json")
        model, _ = load_model(root / "models" / "model.sats")
        want = predict(model, [corpus.by_id(i) for i in ids], corpus.ranges,
                       normalized=False)
        for i, w in zip(ids, want):
            assert shown[i] == pytest.approx(w, rel=1e-12, abs=0)


class TestSplitManifests:
    @pytest.mark.parametrize("command", ["ingest", "train-embeddings"])
    def test_repeated_id_is_a_data_error(self, tmp_path, capsys, command):
        # the repeat used to collapse into one essay without a word
        cfgpath = write_workspace_config(tmp_path)
        assert main(["synth", "--profile", "overfit16",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        manifest = tmp_path / "splits" / "train.ids"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + [lines[1]]) + "\n")
        capsys.readouterr()
        assert main(["--config", str(cfgpath), command]) == 2
        err = capsys.readouterr().err
        assert (f"{manifest}:{len(lines) + 1}: essay id {lines[1]} "
                f"repeats line 2") in err

    @pytest.mark.parametrize("split", ["val", "all"])
    def test_empty_split_is_a_data_error(self, tmp_path, split):
        # five essays split 4/0/1; evaluating the empty validation split
        # used to end in an uncaught ValueError
        tsv = tmp_path / "synth.tsv"
        assert main(["synth", "--profile", "overfit16", "--out", str(tsv)]) == 0
        lines = tsv.read_text().splitlines()
        tsv.write_text("\n".join(lines[:1] + lines[-5:]) + "\n")
        cfgpath = write_workspace_config(tmp_path)
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        val = tmp_path / "splits" / "val.ids"
        assert read_manifest(val) == []
        corpus, _ = load_corpus_cache(tmp_path / "splits" / "corpus.json")
        rng = np.random.default_rng(0)
        M = np.asfortranarray(rng.uniform(-1, 1, (4, len(corpus.vocab))))
        model = SeqModel.init(M, Config(lstm_dim=4), rng)
        (tmp_path / "models").mkdir()
        save_model(tmp_path / "models" / "model.sats", model)
        proc = run_limited_cli(["--config", str(cfgpath), "evaluate",
                                "--split", split])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{val} lists no essays" in proc.stderr


class TestPinnedOutputs:
    # sha256 of every file the stages write, taken before the stages
    # shared one loader and one report writer; splits/corpus.json since
    # the cache is in the artifact container, after its corpus loaded
    # equal from the JSON cache it replaced
    PINNED = {
        "heatmaps/essay_1.html": "0faddc62a6e338b2778f8b3693cd5dcababbe0f4a284b3d5b41ed1e4298a4347",
        "heatmaps/essay_5.html": "edef256af1ef193bc938e3e21a582ff43343dc433364ef31607fc25755a01394",
        "heatmaps/index.csv": "8c068beb05bed5f6f915f08c302fd1723542aae9b4f4ec984ec66dc4c09596cf",
        "models/embeddings.sswe": "6426a0a156fbda5dd7a6fa71e7f3f1f4b24204eabeb0128938db26db870ba934",
        "models/model.sats": "03b82fcfc83617684d2eec36c3ca9099a9523e4261938d329bbb3246503a4b4c",
        "reports/best_config.cfg": "04817e6546e019ee85c92989dfd92fe81d179d0bcdc2d039c55b10d1b21a0a06",
        "reports/embed_history.csv": "9aafc46ea896ad5fd2ac2122ae4c7f669dfab1421499f76e6858f9ea20c9f6d0",
        "reports/metrics_test.csv": "936043150eb370ffdafd9710ad8fd1feb48471af9f4336777b2194dc8ccf3c26",
        "reports/metrics_test.txt": "661f8dd35289fda5beb9553e13fcef82f76d45e9089409e75c623936d7ed239e",
        "reports/metrics_train.csv": "28e8b465384eea5604f4ce43b1c9a19fda02a3721f6c3a7bbdaeeed282154ccb",
        "reports/metrics_train.txt": "0443b20993291870f1218be2117c317ecbfaa6406e45ea4705d3db3b0b6e2450",
        "reports/metrics_val.csv": "c234932cf7d807603da2841cf2c788d1254d1df67ad7846f5a87023061188271",
        "reports/metrics_val.txt": "1592eafdd84693a751282d30aa81a192d92d100038800de2db307bb4d73425f9",
        "reports/scorer_history.csv": "8416101fdefd70655632f72fb0ad8181f4b2a3127ce1f24f38272a0797d4ced9",
        "reports/search_trials.csv": "453c612b4ce50a30c17ee69df56752cc6b2e8fc8813433523c20e5570b3c493b",
        "spans/essay_1.html": "6adcd91603f9962413afcaa420e9a2b8cfea405cf6ccfa08eecd15646bfbca48",
        "spans/essay_5.html": "da1b6ee7d2d00e6ffc91c2e7afd409e660bd00461bfe61ad9f19118f384335ad",
        "spans/index.csv": "3ef7aa5226697e049f32116ab9c889ba4241095f2639cc20f5ecb0a44d16baf0",
        "splits/corpus.json": "9fd702bcf585281c96f7550658a0db2938591e4b85bc1400ac75d64ba4758bd6",
        "splits/test.ids": "7e5b6e8148d4672c0656f4c803d5c62e0655b9298b5e8b9d706eddfedf9306b0",
        "splits/train.ids": "c03543dc5bceddd5684e04c5bf17c3ba58db041c5088ad14df0b5fdc61dfa6c3",
        "splits/val.ids": "7d29cf3d788bb3c90e66c9fee63f52c2104f9af885b183bbaedbcfc2d6b648b6",
        "synth.tsv": "2a74e618aa6b9c047d63c536196ad9675ece4da9fabf4854e325c9dbf7b7b359",
    }

    def test_every_stage_output(self, tmp_path, monkeypatch, capsys):
        # relative paths, as the config hash covers the path keys
        monkeypatch.chdir(tmp_path)
        Path("pipeline.cfg").write_text(TINY_CFG.format(data="synth.tsv",
                                                        root="."))
        argv = ["--config", "pipeline.cfg"]
        for command in (
                ["synth", "--profile", "overfit16", "--out", "synth.tsv"],
                argv + ["ingest"], argv + ["train-embeddings"],
                argv + ["train-scorer"], argv + ["evaluate", "--split", "all"],
                argv + ["visualize", "--ids", "1,5"],
                argv + ["--heatmaps-dir", "spans", "visualize", "--ids", "1,5",
                        "--mode", "span", "--span-len", "4"],
                argv + ["search", "--trials", "2", "--search-seed", "3"]):
            assert main(command) == 0, command
        capsys.readouterr()
        written = {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in Path(".").rglob("*")
                   if p.is_file() and p.name != "pipeline.cfg"}
        assert written == self.PINNED


class TestRepeatedEssayId:
    def test_ingest_warns_and_keeps_the_first_row(self, tmp_path, capsys):
        tsv = tmp_path / "synth.tsv"
        assert main(["synth", "--profile", "overfit16", "--out", str(tsv)]) == 0
        lines = tsv.read_text().splitlines()
        eid, set_id = lines[1].split("\t")[:2]
        tsv.write_text("\n".join(lines + [f"{eid}\t{set_id}\ta copy\t1"])
                       + "\n")
        cfgpath = write_workspace_config(tmp_path)
        capsys.readouterr()
        assert main(["--config", str(cfgpath), "ingest"]) == 0
        err = capsys.readouterr().err
        assert f"line {len(lines) + 1}: essay_id {eid} repeats line 2" in err
        corpus, _ = load_corpus_cache(tmp_path / "splits" / "corpus.json")
        assert len(corpus.essays) == 16
        assert main(["--config", str(cfgpath), "train-embeddings"]) == 0


class TestForgedHeaders:
    """Headers declaring huge tensors are format errors (exit 2)."""

    def test_forged_embedding_file(self, workspace, tmp_path):
        root, cfgpath = workspace
        forged = tmp_path / "forged.sswe"
        specials = b"".join(struct.pack("<I", len(t)) + t
                            for t in (b"<pad>", b"<unk>", b"<edge>"))
        forged.write_bytes(EMBEDDING_MAGIC
                           + struct.pack("<5I", 1, 3, 2 ** 31, 3, 4)
                           + specials)
        proc = run_limited_cli(["--config", str(cfgpath), "train-scorer",
                                "--embeddings", str(forged)])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("dim,dropout", [(0, 0.0), (4, float("nan"))],
                             ids=["zero_lstm_dim", "nan_dropout"])
    def test_invalid_architecture_is_a_format_error(self, workspace, tmp_path,
                                                    capsys, dim, dropout):
        root, cfgpath = workspace
        forged = tmp_path / "model.sats"
        forged.write_bytes(MODEL_MAGIC + struct.pack(
            "<7I d", 1, 3, 4, dim, 1, 0, 0, dropout))
        assert len(forged.read_bytes()) == 40
        rc = main(["--config", str(cfgpath), "evaluate",
                   "--model", str(forged), "--split", "val"])
        assert rc == 2
        assert "corrupt architecture" in capsys.readouterr().err

    def test_non_utf8_token_is_a_format_error(self, workspace, tmp_path,
                                              capsys):
        root, cfgpath = workspace
        raw = bytearray((root / "models" / "embeddings.sswe").read_bytes())
        # magic, five header words, then the first token's length and bytes
        first = 4 + 20 + 4
        assert raw[first:first + 5] == b"<pad>"
        raw[first] = 0xFF
        forged = tmp_path / "forged.sswe"
        forged.write_bytes(bytes(raw))
        rc = main(["--config", str(cfgpath), "train-scorer",
                   "--embeddings", str(forged)])
        assert rc == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_zero_embed_dim_embedding_file(self, workspace, tmp_path, capsys):
        # the corpus's own vocabulary and tensors that fit the header: only
        # embed_dim = 0 is wrong, and it must not reach the scorer
        root, cfgpath = workspace
        _, vocab, _ = load_embeddings(root / "models" / "embeddings.sswe")
        v, n, h = len(vocab), 3, 2
        tokens = b"".join(struct.pack("<I", len(t.encode())) + t.encode()
                          for t in vocab.id_to_token)
        forged = tmp_path / "zero.sswe"
        forged.write_bytes(EMBEDDING_MAGIC + struct.pack("<5I", 1, v, 0, n, h)
                           + tokens + struct.pack(f"<{3 * h + 2}d",
                                                  *([0.0] * (3 * h + 2)))
                           + struct.pack("<I", 0))
        rc = main(["--config", str(cfgpath), "train-scorer",
                   "--embeddings", str(forged)])
        assert rc == 2
        assert "corrupt architecture" in capsys.readouterr().err

    def test_zero_embed_dim_model_file(self, workspace, tmp_path, capsys):
        root, cfgpath = workspace
        model, _ = load_model(root / "models" / "model.sats")
        empty = SeqModel.init(np.zeros((0, model.vocab_size), order="F"),
                              Config(lstm_dim=4), np.random.default_rng(0))
        forged = tmp_path / "zero.sats"
        save_model(forged, empty)
        rc = main(["--config", str(cfgpath), "evaluate",
                   "--model", str(forged), "--split", "val"])
        assert rc == 2
        assert "corrupt architecture" in capsys.readouterr().err

    @pytest.mark.parametrize("v,d,dim", [(3, 2 ** 31, 4), (3, 4, 2 ** 31)],
                             ids=["embed_dim", "lstm_dim"])
    def test_forged_model_file(self, workspace, tmp_path, v, d, dim):
        root, cfgpath = workspace
        forged = tmp_path / "model.sats"
        forged.write_bytes(MODEL_MAGIC
                           + struct.pack("<7I d", 1, v, d, dim, 1, 0, 0, 0.0))
        proc = run_limited_cli(["--config", str(cfgpath), "evaluate",
                                "--model", str(forged), "--split", "val"])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

"""Release gate: one test per shipping criterion.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion. The last test exercises a real corpus and is opt-in: point
ESSAYSCORE_ASAP_TSV at an ASAP-format TSV to enable it.
"""

import dataclasses
import hashlib
import math
import os
import time

import numpy as np
import pytest
import scipy.stats

from conftest import finite_difference, max_relative_error
from reference_lstm import dense_embedding_grad, direction, gate
from reference_sswe import dense_gradients, predict_window_score, sample_loss
from essayscore.cli import main
from essayscore.config import Config
from essayscore.corpus import (ScoreRange, Vocabulary,
                               corrupt_window, load_corpus, read_manifest,
                               split_corpus)
from essayscore.lstm import (SeqModel, bptt, forward_essay, load_model,
                             predict, save_model, train_scorer)
from essayscore.metrics import (pearson_r, quadratic_weighted_kappa, rmse,
                                spearman_rho)
from essayscore.saliency import quality_map
from essayscore.sswe import (SSWEParams, backward,
                             cosine_distance, load_embeddings,
                             save_embeddings, train_sswe)
from essayscore.synth import MISSPELL_PAIRS, write_tsv


def arrays_digest(model):
    h = hashlib.sha256()
    for name, arr in model.named_arrays():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def train_overfit(path):
    """The small-corpus recipe shared by the overfit and saliency checks."""
    write_tsv(path, "overfit16", seed=0)
    corpus, errors = load_corpus(path, min_count=1)
    assert errors == []
    started = time.perf_counter()
    params, _ = train_sswe(corpus.essays, corpus.vocab, Config(
        embed_dim=12, hidden_dim=8, window_size=3, n_corruptions=8,
        alpha=0.1, learning_rate=0.01, embed_epochs=5, seed=0))
    cfg = Config(lstm_dim=8, layers=1, bidirectional=False, dropout=0.0,
                 peepholes="full", learning_rate=0.01, epochs=200,
                 batch_size=4, patience=200, seed=0)
    model = SeqModel.init(params.M.copy(), cfg, np.random.default_rng(0))
    model, _ = train_scorer(model, corpus.essays, corpus.essays,
                            corpus.ranges, cfg)
    return corpus, model, time.perf_counter() - started


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    return train_overfit(root / "overfit.tsv")


def test_1_gradients_match_finite_differences():
    started = time.perf_counter()

    # window network, every loss mix
    vocab = Vocabulary([f"w{k}" for k in range(9)])
    ids = (4, 8, 6)
    for alpha in (0.0, 0.1, 0.5, 1.0):
        p = SSWEParams.init(12, Config(embed_dim=6, hidden_dim=7,
                                       window_size=3),
                            np.random.default_rng(3))
        corruptions = corrupt_window(ids[1], 6, np.random.default_rng(0),
                                     vocab)
        grads = backward(p, ids, corruptions, 0.7, alpha)
        arrays = {"M": p.M, **{n: getattr(p, n) for n in p.dense_names()}}
        numeric = finite_difference(
            lambda: sample_loss(p, ids, corruptions, 0.7, alpha)[0],
            arrays)
        # difference noise at step 1e-5 swamps entries whose true value
        # is ~0, so floor the denominator at what the step can resolve
        assert max_relative_error(dense_gradients(p, grads),
                                  numeric, floor=1e-6) <= 1e-4

    # sequence network, all four shapes, peepholes and dropout off
    tokens = [4, 2, 7, 2, 0, 5, 8, 1, 3, 6, 2, 4]
    for bidirectional in (False, True):
        for layers in (1, 2):
            cfg = Config(lstm_dim=3, layers=layers,
                         bidirectional=bidirectional, dropout=0.0,
                         peepholes="off")
            rng = np.random.default_rng(9)
            M = rng.uniform(-1.0, 1.0, size=(4, 9))
            model = SeqModel.init(M, cfg, rng)
            for name, arr in model.named_arrays():
                if name != "M":
                    arr *= 8.0
            # the saturated forget bias would hide under the difference
            # step, so flatten it before comparing
            for l in range(layers):
                for k in range(2 if bidirectional else 1):
                    gate(direction(model, l, k), "b_f")[...] = 0.3

            _, cache = forward_essay(model, tokens)
            grads, d_inputs = bptt(model, cache, 1.0)
            dense_m = dense_embedding_grad(model.M, tokens, d_inputs)

            def loss():
                y, _ = forward_essay(model, tokens)
                return (y - 1.0) ** 2

            numeric = finite_difference(loss, dict(model.named_arrays()))
            assert max_relative_error({"M": dense_m, **grads}, numeric,
                                      floor=1e-6) <= 1e-4

    assert time.perf_counter() - started < 60.0


def test_2_overfits_sixteen_essays(overfit_run):
    corpus, model, elapsed = overfit_run
    preds = predict(model, corpus.essays, corpus.ranges)
    gold = np.array([e.raw_score for e in corpus.essays], dtype=float)
    assert rmse(preds, gold) <= 0.5
    assert spearman_rho(preds, gold) >= 0.95
    assert elapsed < 300.0


def test_3_misspellings_separate_under_score_weight(tmp_path):
    write_tsv(tmp_path / "misspell.tsv", "misspell", seed=0)
    corpus, errors = load_corpus(tmp_path / "misspell.tsv", min_count=1)
    assert errors == []
    def mean_pair_distance(alpha, seed):
        params, _ = train_sswe(corpus.essays, corpus.vocab, Config(
            embed_dim=12, hidden_dim=8, window_size=3, n_corruptions=8,
            alpha=alpha, learning_rate=0.01, embed_epochs=5, seed=seed))
        return float(np.mean([cosine_distance(params, corpus.vocab, a, b)
                              for a, b in MISSPELL_PAIRS]))

    for seed in (0, 1, 2):
        assert mean_pair_distance(0.1, seed) > mean_pair_distance(1.0, seed)


def test_4_score_weight_beats_context_only_on_held_out(tmp_path):
    write_tsv(tmp_path / "ablation.tsv", "ablation", seed=0)
    corpus, errors = load_corpus(tmp_path / "ablation.tsv", min_count=2)
    assert errors == []
    train, val, test = split_corpus(corpus.essays, Config(seed=0))
    held = val + test
    gold = np.array([e.raw_score for e in held], dtype=float)

    def held_out_rho(alpha, seed):
        params, _ = train_sswe(train, corpus.vocab, Config(
            embed_dim=12, hidden_dim=8, window_size=3, n_corruptions=8,
            alpha=alpha, learning_rate=0.01, embed_epochs=5, seed=seed))
        cfg = Config(lstm_dim=8, layers=1, bidirectional=False,
                     dropout=0.0, peepholes="full", learning_rate=0.003,
                     epochs=60, batch_size=4, patience=60, seed=seed)
        model = SeqModel.init(params.M.copy(), cfg,
                              np.random.default_rng(seed))
        model, _ = train_scorer(model, train, val, corpus.ranges, cfg)
        return spearman_rho(predict(model, held, corpus.ranges), gold)

    # within this budget the score-weighted start converges at every
    # seed while the context-only start usually stays stuck, but the
    # occasional context-only run reaches the same ceiling and ties, so
    # the stable comparison is the mean across seeds
    seeds = (0, 1, 2)
    mean_mixed = np.mean([held_out_rho(0.1, s) for s in seeds])
    mean_context = np.mean([held_out_rho(1.0, s) for s in seeds])
    assert mean_mixed > mean_context


def brute_qwk(pred, gold, lo, hi):
    n_cats = hi - lo + 1
    observed = [[0.0] * n_cats for _ in range(n_cats)]
    for p, g in zip(pred, gold):
        observed[int(p) - lo][int(g) - lo] += 1.0
    total = float(len(pred))
    row = [sum(observed[i]) for i in range(n_cats)]
    col = [sum(observed[i][j] for i in range(n_cats)) for j in range(n_cats)]
    num = 0.0
    den = 0.0
    for i in range(n_cats):
        for j in range(n_cats):
            w = (i - j) ** 2 / (n_cats - 1) ** 2
            num += w * observed[i][j]
            den += w * row[i] * col[j] / total
    return 1.0 - num / den


def test_5_metrics_match_brute_force_oracles():
    rng = np.random.default_rng(20260822)
    for k in range(100):
        n = int(rng.integers(5, 41))
        if k % 2 == 0:
            a = rng.normal(5.0, 2.5, size=n)
            b = a + rng.normal(0.0, float(rng.uniform(0.1, 4.0)), size=n)
        else:
            # integer grids bring heavy tied ranks
            while True:
                a = rng.integers(0, 6, size=n).astype(float)
                b = rng.integers(0, 6, size=n).astype(float)
                if np.ptp(a) > 0 and np.ptp(b) > 0:
                    break
        if k % 10 == 9:
            b = 5.0 - a if k % 2 else -a

        assert abs(spearman_rho(a, b)
                   - float(scipy.stats.spearmanr(a, b).statistic)) <= 1e-10
        assert abs(pearson_r(a, b)
                   - float(scipy.stats.pearsonr(a, b).statistic)) <= 1e-10
        assert abs(rmse(a, b)
                   - math.sqrt(float(np.mean((a - b) ** 2)))) <= 1e-10
        if k % 2 and np.ptp(np.concatenate([a, b])) > 0:
            assert abs(quadratic_weighted_kappa(a, b, ScoreRange(0, 5))
                       - brute_qwk(a, b, 0, 5)) <= 1e-10

    assert abs(quadratic_weighted_kappa([0, 1, 2, 3], [0, 1, 2, 3],
                                        ScoreRange(0, 3)) - 1.0) <= 1e-10
    assert abs(quadratic_weighted_kappa([0, 1], [1, 0],
                                        ScoreRange(0, 1)) + 1.0) <= 1e-10


def test_6_planted_bad_token_lowers_local_quality(overfit_run):
    corpus, model, _ = overfit_run
    bad = corpus.vocab.id_of("terrible")
    before = arrays_digest(model)

    # corrupt essays rated above the scale midpoint: there the planted
    # word must drag the prediction down across the midpoint, which
    # flips the sign of q at the touched position regardless of how the
    # gradient magnitudes rearrange
    pool = [e for e in corpus.essays if e.scaled_score > 0.5]
    assert pool
    rng = np.random.default_rng(0)
    wins = 0
    for _ in range(50):
        essay = pool[int(rng.integers(len(pool)))]
        spots = [t for t, tok in enumerate(essay.tokens) if tok != bad]
        pos = int(spots[int(rng.integers(len(spots)))])
        tokens = list(essay.tokens)
        tokens[pos] = bad
        mutated = dataclasses.replace(essay, tokens=tokens)
        score_range = corpus.ranges[essay.set_id]
        q_before = quality_map(model, essay, corpus.vocab,
                               score_range=score_range)
        q_after = quality_map(model, mutated, corpus.vocab,
                              score_range=score_range)
        if q_after.entries[pos].quality < q_before.entries[pos].quality:
            wins += 1

    assert wins >= 40
    assert arrays_digest(model) == before


PIPELINE_CFG = """\
data_path = {root}/synth.tsv
splits_dir = {root}/splits
models_dir = {root}/models
reports_dir = {root}/reports
heatmaps_dir = {root}/heatmaps
min_count = 1
embed_dim = 8
hidden_dim = 6
window_size = 3
n_corruptions = 5
embed_epochs = 2
alpha = 0.1
learning_rate = 0.01
lstm_dim = 6
layers = 1
dropout = 0.0
peepholes = full
epochs = 12
batch_size = 4
patience = 12
seed = 7
"""


def run_pipeline(root, cfgpath):
    argv = ["--config", str(cfgpath)]
    assert main(["synth", "--profile", "overfit16",
                 "--out", str(root / "synth.tsv")]) == 0
    assert main(argv + ["ingest"]) == 0
    assert main(argv + ["train-embeddings"]) == 0
    assert main(argv + ["train-scorer"]) == 0
    assert main(argv + ["evaluate", "--split", "all"]) == 0
    return {name: (root / "reports" / f"metrics_{name}.csv").read_bytes()
            for name in ("train", "val", "test")}


def test_7_reruns_and_roundtrips_are_bitwise(tmp_path, capsys):
    root = tmp_path
    cfgpath = root / "pipeline.cfg"
    cfgpath.write_text(PIPELINE_CFG.format(root=root))
    first = run_pipeline(root, cfgpath)
    second = run_pipeline(root, cfgpath)
    capsys.readouterr()
    assert first == second

    corpus, errors = load_corpus(root / "synth.tsv", min_count=1)
    assert errors == []
    model, _ = load_model(root / "models" / "model.sats")
    save_model(tmp_path / "copy.sats", model)
    clone, _ = load_model(tmp_path / "copy.sats")
    for (name, a), (_, b) in zip(model.named_arrays(), clone.named_arrays()):
        assert np.array_equal(a, b), name
    original = predict(model, corpus.essays, corpus.ranges)
    assert np.array_equal(original, predict(clone, corpus.essays,
                                            corpus.ranges))

    params, vocab, _ = load_embeddings(root / "models" / "embeddings.sswe")
    save_embeddings(tmp_path / "copy.sswe", params, vocab)
    reloaded, _, _ = load_embeddings(tmp_path / "copy.sswe")
    assert np.array_equal(params.M, reloaded.M)
    window = np.concatenate([params.M[:, 5], params.M[:, 6], params.M[:, 7]])
    assert predict_window_score(params, window) \
        == predict_window_score(reloaded, window)


REAL_CFG = """\
data_path = {data}
splits_dir = {root}/splits
models_dir = {root}/models
reports_dir = {root}/reports
heatmaps_dir = {root}/heatmaps
min_count = 2
embed_dim = 24
hidden_dim = 16
window_size = 5
n_corruptions = 12
embed_epochs = 1
alpha = 0.1
learning_rate = 0.005
lstm_dim = 16
layers = 1
dropout = 0.0
peepholes = full
epochs = 25
batch_size = 8
patience = 25
"""


@pytest.mark.skipif("ESSAYSCORE_ASAP_TSV" not in os.environ,
                    reason="needs ESSAYSCORE_ASAP_TSV pointing at a corpus")
def test_8_real_corpus_smoke(tmp_path, capsys):
    started = time.perf_counter()
    source = os.environ["ESSAYSCORE_ASAP_TSV"]
    lines = open(source, "rb").read().splitlines(keepends=True)
    sample = tmp_path / "sample.tsv"
    with open(sample, "wb") as fh:
        fh.writelines(lines[:501])

    cfgpath = tmp_path / "real.cfg"
    cfgpath.write_text(REAL_CFG.format(data=sample, root=tmp_path))
    argv = ["--config", str(cfgpath)]
    assert main(argv + ["ingest"]) == 0
    assert main(argv + ["train-embeddings"]) == 0
    assert main(argv + ["train-scorer"]) == 0
    assert main(argv + ["evaluate", "--split", "val"]) == 0

    for name in ("train.ids", "val.ids", "test.ids"):
        assert (tmp_path / "splits" / name).exists()
    report = (tmp_path / "reports" / "metrics_val.csv").read_text()
    row = report.splitlines()[2].split(",")
    assert float(row[2]) > 0.0

    val_ids = read_manifest(tmp_path / "splits" / "val.ids")
    assert main(argv + ["visualize", "--ids", str(val_ids[0]),
                        "--monochrome"]) == 0
    capsys.readouterr()
    assert (tmp_path / "heatmaps" / f"essay_{val_ids[0]}.html").exists()
    assert time.perf_counter() - started < 1800.0

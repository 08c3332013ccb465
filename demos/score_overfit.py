"""
Overfitting sixteen essays end to end: embeddings, then the recurrent
scorer, then a side-by-side of predicted and gold scores.
"""

import os
import tempfile

import numpy as np

from essayscore.corpus import load_corpus
from essayscore.lstm import SeqHyper, SeqModel, predict, train_scorer
from essayscore.metrics import report
from essayscore.sswe import SSWEHyper, train_sswe
from essayscore.synth import write_tsv

workdir = tempfile.mkdtemp(prefix="essayscore_demo_")
path = os.path.join(workdir, "essays.tsv")
write_tsv(path, "overfit16", seed=0)
corpus, _ = load_corpus(path, min_count=1)

params, _ = train_sswe(corpus.essays, corpus.vocab, SSWEHyper(
    embed_dim=12, hidden_dim=8, window_size=3, n_corruptions=8,
    alpha=0.1, learning_rate=0.01, epochs=5, seed=0))
n_windows = sum(len(e.tokens) for e in corpus.essays)  # one per token
print(f"embeddings trained on {n_windows} windows")

hyper = SeqHyper(lstm_dim=8, layers=1, bidirectional=False, dropout=0.0,
                 peepholes="full", learning_rate=0.01, epochs=200,
                 batch_size=4, patience=200, seed=0)
model = SeqModel.init(params.M.copy(), hyper, np.random.default_rng(0))
# sixteen essays fit in memory many times over, so validate on train
model, history = train_scorer(model, corpus.essays, corpus.essays,
                              corpus.ranges, hyper)
best = min(h.val_rmse for h in history)
print(f"scorer trained for {len(history)} epochs, "
      f"best val rmse {best:.3f}; keeping that checkpoint")

preds = predict(model, corpus.essays, corpus.ranges)
gold = [e.raw_score for e in corpus.essays]
print("\nessay  gold  predicted")
for essay, p in zip(corpus.essays, preds):
    print(f"{essay.essay_id:>5}  {essay.raw_score:>4g}  {p:9.2f}")

score_range = corpus.ranges[1]
print("\n" + report(preds, gold, score_range).pretty())

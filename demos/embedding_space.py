"""
How the score term reshapes the embedding space.

Trains the window network twice on the same corpus: once with the loss
almost entirely score-weighted (alpha = 0.1) and once purely syntactic
(alpha = 1.0). The corpus plants misspelled twins of five words in its
lowest-scoring essays only, so the two runs disagree about whether a
twin belongs next to its correct spelling.
"""

import os
import tempfile

import numpy as np

from essayscore.corpus import load_corpus
from essayscore.sswe import (SSWEHyper, cosine_distance, nearest_neighbors,
                             train_sswe)
from essayscore.synth import MISSPELL_PAIRS, write_tsv

workdir = tempfile.mkdtemp(prefix="essayscore_demo_")
path = os.path.join(workdir, "essays.tsv")
write_tsv(path, "misspell", seed=0)
corpus, _ = load_corpus(path, min_count=1)
# one training window per token
n_windows = sum(len(e.tokens) for e in corpus.essays)
print(f"{len(corpus.essays)} essays, {n_windows} windows")


def train(alpha):
    hyper = SSWEHyper(embed_dim=12, hidden_dim=8, window_size=3,
                      n_corruptions=8, alpha=alpha, learning_rate=0.01,
                      epochs=5, seed=0)
    params, history = train_sswe(corpus.essays, corpus.vocab, hyper)
    print(f"alpha={alpha}: final loss {history[-1].loss_overall:.4f}")
    return params


mixed = train(0.1)
context_only = train(1.0)

print("\ncosine distance between each planted pair:")
print(f"{'pair':>24}  alpha=0.1  alpha=1.0")
for correct, wrong in MISSPELL_PAIRS:
    d_mixed = cosine_distance(mixed, corpus.vocab, correct, wrong)
    d_ctx = cosine_distance(context_only, corpus.vocab, correct, wrong)
    print(f"{correct + ' / ' + wrong:>24}  {d_mixed:9.4f}  {d_ctx:9.4f}")

# identical contexts pull the twins together; the score term, seeing
# them only in bottom-quartile essays, pushes them back apart
word = MISSPELL_PAIRS[0][0]
print(f"\nnearest neighbors of '{word}' with the score term:")
for neighbor, sim in nearest_neighbors(mixed, corpus.vocab, word, k=3):
    print(f"  {neighbor:>12}  {sim:+.3f}")
print(f"without it:")
for neighbor, sim in nearest_neighbors(context_only, corpus.vocab, word, k=3):
    print(f"  {neighbor:>12}  {sim:+.3f}")

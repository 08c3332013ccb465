"""
Which words carry the score? Gradient magnitudes per token, and what
happens to them when a known-bad word is planted into a good essay.
"""

import dataclasses
import os
import tempfile

import numpy as np

from essayscore.corpus import load_corpus
from essayscore.lstm import SeqHyper, SeqModel, train_scorer
from essayscore.saliency import quality_map, render_ansi, render_html
from essayscore.sswe import SSWEHyper, train_sswe
from essayscore.synth import write_tsv

workdir = tempfile.mkdtemp(prefix="essayscore_demo_")
path = os.path.join(workdir, "essays.tsv")
write_tsv(path, "overfit16", seed=0)
corpus, _ = load_corpus(path, min_count=1)

params, _ = train_sswe(corpus.essays, corpus.vocab, SSWEHyper(
    embed_dim=12, hidden_dim=8, window_size=3, n_corruptions=8,
    alpha=0.1, learning_rate=0.01, epochs=5, seed=0))
hyper = SeqHyper(lstm_dim=8, layers=1, bidirectional=False, dropout=0.0,
                 peepholes="full", learning_rate=0.01, epochs=200,
                 batch_size=4, patience=200, seed=0)
model = SeqModel.init(params.M.copy(), hyper, np.random.default_rng(0))
model, _ = train_scorer(model, corpus.essays, corpus.essays,
                        corpus.ranges, hyper)

# the top-scored essay, token by token
essay = max(corpus.essays, key=lambda e: e.raw_score)
score_range = corpus.ranges[essay.set_id]
qmap = quality_map(model, essay, corpus.vocab, score_range=score_range)
print(f"essay {essay.essay_id}: gold {essay.raw_score:g}, "
      f"predicted {qmap.predicted:.2f}")
print(render_ansi(qmap))

html_path = os.path.join(workdir, "heatmap.html")
render_html(qmap, html_path)
print(f"\nhtml heatmap written to {html_path}")

# plant the word that only ever appears in zero-scored essays
bad = corpus.vocab.id_of("terrible")
pos = len(essay.tokens) // 2
tokens = list(essay.tokens)
print(f"\nreplacing '{corpus.vocab.decode([tokens[pos]])[0]}' "
      f"at position {pos} with 'terrible':")
tokens[pos] = bad
corrupted = dataclasses.replace(essay, tokens=tokens)
qmap_after = quality_map(model, corrupted, corpus.vocab,
                         score_range=score_range)
print(render_ansi(qmap_after))
print(f"\npredicted score {qmap.predicted:.2f} -> {qmap_after.predicted:.2f}")
print(f"quality at position {pos}: "
      f"{qmap.entries[pos].quality:+.4f} -> "
      f"{qmap_after.entries[pos].quality:+.4f}")

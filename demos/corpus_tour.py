"""
A tour of corpus handling: TSV in, splits and training windows out.
"""

import os
import tempfile

from essayscore.config import Config
from essayscore.corpus import extract_windows, load_corpus, split_corpus
from essayscore.synth import write_tsv

workdir = tempfile.mkdtemp(prefix="essayscore_demo_")
path = os.path.join(workdir, "essays.tsv")

# generate a small graded corpus in the ASAP column layout
write_tsv(path, "ablation", seed=0)
corpus, errors = load_corpus(path, min_count=2)
print(f"loaded {len(corpus.essays)} essays, {len(errors)} bad rows")
print(f"vocabulary: {len(corpus.vocab)} entries "
      f"({corpus.vocab.n_words} real words plus specials)")
for set_id, score_range in sorted(corpus.ranges.items()):
    print(f"  set {set_id}: scores in [{score_range.lo}, {score_range.hi}]")

# the split is deterministic in the essay ids, not the row order
train, val, test = split_corpus(corpus.essays, Config(seed=0))
print(f"split sizes: train {len(train)}, val {len(val)}, test {len(test)}")

# every token becomes the center of one training window; the windows
# of all essays are rows of one id stream, each essay's edges padded
# by the boundary ids it shares with its neighbors
windows = extract_windows(train, 3)
essay = train[0]
print(f"\n{len(train)} training essays yield {len(windows)} windows of "
      f"3 tokens over a stream of {len(windows.stream)} ids")
print(f"the first, from essay {essay.essay_id} (score {essay.raw_score:g}):")
for k in range(4):
    ids = windows.view[windows.starts[k]]
    print("  ", corpus.vocab.decode(ids.tolist()), "->", windows.scores[k])
print("   ...")

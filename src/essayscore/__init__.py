"""Essay scoring with score-specific word embeddings and LSTM regression.

Each name is imported from its module: ``corpus`` (TSV ingest,
vocabulary, splits and windows), ``sswe`` (score-specific word
embeddings), ``lstm`` (the peephole LSTM scorer), ``saliency`` (token
quality maps), ``metrics``, ``config``, ``errors``, ``artifact`` (the
tensor file container), ``synth`` (synthetic corpora) and ``cli``.
Importing the package itself loads none of them.
"""

__version__ = "0.1.0"

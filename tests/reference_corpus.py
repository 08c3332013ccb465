"""The earlier tokenizer and vocabulary order: the references the corpus
module is checked against.

``tokenize`` runs the token pattern with ``finditer`` and keeps a token
verbatim only when it fully matches the placeholder pattern, lowering
every other one; ``vocabulary_order`` sorts the kept tokens with one
``(-count, token)`` tuple key per token. None of this is used by the
package; ``essayscore.corpus`` must give the same lists.
"""

from __future__ import annotations

import re
from collections import Counter

_PLACEHOLDER_RE = re.compile(r"@[A-Z]+[0-9]*")
_TOKEN_RE = re.compile(r"@[A-Z]+[0-9]*|[A-Za-z0-9]+|\S")


def tokenize(text: str) -> list[str]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        tok = match.group()
        if tok[0] == "@" and _PLACEHOLDER_RE.fullmatch(tok):
            tokens.append(tok)
        else:
            tokens.append(tok.lower())
    return tokens


def vocabulary_order(token_sequences, min_count: int) -> list[str]:
    """The non-special vocabulary entries, most frequent first, ties in
    lexicographic order."""
    counts = Counter()
    for seq in token_sequences:
        counts.update(seq)
    kept = [tok for tok, c in counts.items() if c >= min_count]
    kept.sort(key=lambda tok: (-counts[tok], tok))
    return kept

"""Seeded generator of ASAP-shaped essay corpora for the benchmark.

The corpus has the eight ASAP essay sets with their published score
ranges. Essay lengths follow each set: short for the source-based sets
3-6, longest for set 8. Words are drawn from a Zipfian lexicon of
invented words, a share of them misspelled, so the vocabulary has the
long tail of real student writing. Score-correlated marker words are
planted at a fixed rate, so a trained scorer beats chance.

Essay ids, sets and lengths depend only on the essay count, never on
the seed: every seed gives the same split sizes and token counts, so the
work a stage does is the same across seeds. The seed picks the words,
the scores and the lexicon itself.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# ASAP set -> (min score, max score, mean essay length in tokens).
SETS = {
    1: (2, 12, 366),
    2: (1, 6, 381),
    3: (0, 3, 108),
    4: (0, 3, 94),
    5: (0, 4, 122),
    6: (0, 4, 153),
    7: (0, 30, 171),
    8: (0, 60, 622),
}

LEXICON_SIZE = 30000
ZIPF_EXPONENT = 0.8
MIN_LEN, MAX_LEN = 60, 720
LENGTH_SPREAD = 0.3       # sd of log length within a set
SENTENCE_LEN = 14         # mean words between full stops
MARKER_RATE = 0.05        # share of word slots given to a marker word
TYPO_RATE = 0.1           # misspelled share of words at the lowest score
N_MARKERS = 12            # good markers, and as many bad ones
PLACEHOLDERS = ("@CAPS1", "@PERSON1", "@LOCATION1", "@NUM1", "@DATE1")
PLACEHOLDER_RATE = 0.004

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_VOWELS = np.array(list("aeiou"))


def essay_lengths(n_per_set: int) -> dict[int, list[int]]:
    """Token counts per set: log-normal quantiles in a fixed shuffled order."""
    z = ndtri((np.arange(n_per_set) + 0.5) / n_per_set)
    order = np.random.default_rng(0).permutation(n_per_set)
    out = {}
    for s, (_, _, mean) in SETS.items():
        lens = np.clip(np.round(mean * np.exp(LENGTH_SPREAD * z)),
                       MIN_LEN, MAX_LEN).astype(int)
        out[s] = [int(x) for x in lens[order]]
    return out


def _lexicon(rng, size: int) -> list[str]:
    """Distinct pronounceable invented words, 2-11 letters, in draw order."""
    words = np.empty(0, dtype="<U11")
    while len(words) < size:
        letters = rng.choice(_LETTERS, size=(size, 11))
        letters[:, 1::2] = rng.choice(_VOWELS, size=(size, 5))
        lens = rng.integers(2, 12, size=size)
        letters[np.arange(11) >= lens[:, None]] = ""   # trailing NULs drop
        drawn = np.concatenate([words, letters.view("<U11").ravel()])
        _, first = np.unique(drawn, return_index=True)
        words = drawn[np.sort(first)]
    return words[:size].tolist()


def _misspell(word: str, u: float) -> str:
    """Swap two adjacent letters at a position picked by ``u`` in [0, 1)."""
    if len(word) < 3:
        return word + word[-1]
    k = int(u * (len(word) - 1))
    return word[:k] + word[k + 1] + word[k] + word[k + 2:]


def generate(seed: int, n_per_set: int) -> list[tuple[int, int, str, int]]:
    """(essay_id, essay_set, text, score) rows, ``n_per_set`` per set."""
    rng = np.random.default_rng(seed)
    words = np.array(_lexicon(rng, LEXICON_SIZE + 2 * N_MARKERS), dtype=object)
    lexicon = words[:LEXICON_SIZE]
    good = words[LEXICON_SIZE:LEXICON_SIZE + N_MARKERS]
    bad = words[LEXICON_SIZE + N_MARKERS:]
    placeholders = np.array(PLACEHOLDERS, dtype=object)
    cdf = np.cumsum(1.0 / np.arange(1, LEXICON_SIZE + 1) ** ZIPF_EXPONENT)
    cdf /= cdf[-1]

    rows = []
    lengths = essay_lengths(n_per_set)
    essay_id = 0
    for s, (lo, hi, _) in SETS.items():
        for length in lengths[s]:
            essay_id += 1
            quality = rng.beta(2.0, 2.0)
            score = min(max(int(np.floor(lo + quality * (hi - lo + 1))), lo), hi)
            level = (score - lo) / (hi - lo)
            tokens = lexicon[np.searchsorted(cdf, rng.random(length))]
            u = rng.random((length, 4))
            # later assignments take precedence: full stop, marker,
            # placeholder, misspelling, plain word
            for t in np.flatnonzero(u[:, 2] < TYPO_RATE * (1.0 - level)):
                tokens[t] = _misspell(tokens[t], u[t, 3])
            slot = (u[:, 1] >= MARKER_RATE) \
                & (u[:, 1] < MARKER_RATE + PLACEHOLDER_RATE)
            tokens[slot] = placeholders[(u[slot, 3] * len(PLACEHOLDERS)).astype(int)]
            for pool, slot in ((good, (u[:, 1] < MARKER_RATE) & (u[:, 2] < level)),
                               (bad, (u[:, 1] < MARKER_RATE) & (u[:, 2] >= level))):
                tokens[slot] = pool[(u[slot, 3] * N_MARKERS).astype(int)]
            stop = u[:, 0] < 1.0 / SENTENCE_LEN
            stop[0] = False
            tokens[stop] = "."
            rows.append((essay_id, s, " ".join(tokens), score))
    return rows


def write_tsv(path, rows) -> None:
    """ASAP column layout; the text holds no tabs or newlines."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("essay_id\tessay_set\tessay\tdomain1_score\n")
        for essay_id, s, text, score in rows:
            fh.write(f"{essay_id}\t{s}\t{text}\t{score}\n")

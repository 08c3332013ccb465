"""Corpus handling: tokenization, vocabulary, TSV ingestion, splits and
training windows.

The training windows of a list of essays are the rows of one sliding
view over a single boundary-padded int32 id stream (:class:`Windows`),
so building them copies each token once and makes no object per window.

The ingestion format is the tab-separated essay dump used by the ASAP
competition: a header row with at least ``essay_id``, ``essay_set``,
``essay`` and ``domain1_score`` columns; extra columns are ignored.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import Config
from .errors import ConfigError, DataError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
BOUNDARY_TOKEN = "<edge>"

PAD_ID = 0
UNK_ID = 1
BOUNDARY_ID = 2

N_SPECIALS = 3

_PLACEHOLDER_RE = re.compile(r"@[A-Z]+[0-9]*")
_TOKEN_RE = re.compile(r"@[A-Z]+[0-9]*|[A-Za-z0-9]+|\S")

REQUIRED_COLUMNS = ("essay_id", "essay_set", "essay", "domain1_score")


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it into word and punctuation tokens.

    Words are maximal alphanumeric runs; any other non-space character
    becomes a standalone token. Anonymization placeholders such as
    ``@CAPS3`` are kept verbatim, case intact. Empty text gives an empty
    list.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        tok = match.group()
        if tok[0] == "@" and _PLACEHOLDER_RE.fullmatch(tok):
            tokens.append(tok)
        else:
            tokens.append(tok.lower())
    return tokens


class Vocabulary:
    """Bijective token <-> id mapping with reserved special ids.

    Ids 0, 1 and 2 are the padding, unknown-word and window-boundary
    tokens; corpus tokens start at id 3, assigned by descending frequency
    with lexicographic tie-breaking so two corpora with identical
    frequency profiles get identical ids.
    """

    def __init__(self, tokens: list[str]):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN, BOUNDARY_TOKEN] + list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def n_words(self) -> int:
        """Number of non-special entries."""
        return len(self.id_to_token) - N_SPECIALS

    def encode(self, tokens: list[str]) -> list[int]:
        """Map tokens to ids; out-of-vocabulary tokens map to UNK."""
        get = self.token_to_id.get
        return [get(tok, UNK_ID) for tok in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def id_of(self, token: str) -> int:
        try:
            return self.token_to_id[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None


def build_vocabulary(token_sequences, min_count: int = 2) -> Vocabulary:
    """Build a :class:`Vocabulary` from an iterable of token sequences.

    Tokens seen fewer than ``min_count`` times are dropped (they encode
    to UNK later). An empty corpus yields a vocabulary holding only the
    special tokens.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    for seq in token_sequences:
        counts.update(seq)
    kept = [tok for tok, c in counts.items() if c >= min_count]
    kept.sort(key=lambda tok: (-counts[tok], tok))
    return Vocabulary(kept)


@dataclass(frozen=True)
class ScoreRange:
    """Inclusive raw-score range of one essay set."""

    lo: float
    hi: float

    def scale(self, raw: float) -> float:
        """Map a raw score into [0, 1]; degenerate ranges map to 0.5."""
        if self.hi == self.lo:
            return 0.5
        return (raw - self.lo) / (self.hi - self.lo)

    def unscale(self, scaled: float) -> float:
        return self.lo + scaled * (self.hi - self.lo)

    def clamp(self, raw: float) -> float:
        return min(max(raw, self.lo), self.hi)


@dataclass
class Essay:
    """A scored, tokenized essay with ids from one :class:`Vocabulary`."""

    essay_id: int
    set_id: int
    tokens: list[int]
    raw_score: float
    scaled_score: float


@dataclass(frozen=True)
class RowError:
    """A rejected ingestion row."""

    line: int
    message: str


@contextmanager
def _open_utf8(path, newline=None):
    """``open`` for reading UTF-8 text; a byte that does not decode, met
    anywhere in the ``with`` block, is a :class:`DataError` naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc.reason} "
                        f"({exc.object[exc.start:exc.end]!r})") from None


def read_range_table(path) -> dict[int, ScoreRange]:
    """Parse a ``set_id<TAB>min<TAB>max`` score-range table."""
    ranges = {}
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected set_id<TAB>min<TAB>max")
            try:
                set_id, lo, hi = int(parts[0]), float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DataError(f"{path}:{lineno}: bounds must be finite")
            if hi < lo:
                raise DataError(f"{path}:{lineno}: max < min")
            ranges[set_id] = ScoreRange(lo, hi)
    return ranges


def _split_key(essay_id: int, seed: int) -> bytes:
    key = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
    return hashlib.blake2b(str(essay_id).encode(), digest_size=8, key=key).digest()


def split_corpus(essays: list[Essay], cfg: Config | None = None):
    """Partition essays into (train, validation, test) lists.

    The split is stratified by set: each essay set is cut independently
    at ``cfg.val_ratio`` and ``cfg.test_ratio`` (default :class:`Config`),
    with integer remainders going to train. Bucket membership depends
    only on the essay ids present in a set and ``cfg.seed``, never on
    input order.
    """
    cfg = Config() if cfg is None else cfg
    cfg.validate()

    by_set: dict[int, list[Essay]] = {}
    for e in essays:
        by_set.setdefault(e.set_id, []).append(e)

    val_ids, test_ids = set(), set()
    for set_id in sorted(by_set):
        members = by_set[set_id]
        order = sorted(members, key=lambda e: (_split_key(e.essay_id, cfg.seed),
                                               e.essay_id))
        n = len(order)
        n_val = int(math.floor(cfg.val_ratio * n + 1e-9))
        n_test = int(math.floor(cfg.test_ratio * n + 1e-9))
        test_ids.update(e.essay_id for e in order[:n_test])
        val_ids.update(e.essay_id for e in order[n_test:n_test + n_val])

    train = [e for e in essays if e.essay_id not in val_ids
             and e.essay_id not in test_ids]
    val = [e for e in essays if e.essay_id in val_ids]
    test = [e for e in essays if e.essay_id in test_ids]
    return train, val, test


@dataclass(frozen=True)
class Windows:
    """The n-gram training windows of a list of essays, one per token.

    ``stream`` holds every essay's ids in order as one int32 array, with
    ``(n - 1) // 2`` ``BOUNDARY_ID``s before the first essay, between
    every two essays and after the last, so each essay's edges are
    padded by the boundaries it shares with its neighbors. ``view`` is
    the ``(len(stream) - n + 1, n)`` sliding-window view of the stream,
    which copies nothing. Window ``k`` is ``view[starts[k]]``, centered
    at ``n // 2`` on one token, and ``scores[k]`` is its essay's
    ``scaled_score``. Windows run essay after essay, token after token.
    """

    stream: np.ndarray
    view: np.ndarray
    starts: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)


def extract_windows(essays: list[Essay], n: int) -> Windows:
    """Every token of ``essays`` as the center of one width-``n`` window.

    The windows are rows of one boundary-padded id stream (see
    :class:`Windows`); an essay with no tokens contributes none. A token
    id outside the int32 range is a :class:`DataError`.
    """
    if n % 2 == 0 or n < 3:
        raise ConfigError(f"window size must be odd and >= 3, got {n}")
    half = n // 2
    lengths = np.fromiter((len(e.tokens) for e in essays), dtype=np.intp,
                          count=len(essays))
    total = int(lengths.sum())
    pad = [BOUNDARY_ID] * half
    pieces = chain.from_iterable((e.tokens, pad) for e in essays)
    try:
        stream = np.fromiter(chain(pad, chain.from_iterable(pieces)),
                             dtype=np.int32,
                             count=total + half * (len(essays) + 1))
    except OverflowError:
        raise DataError("token id out of the int32 range") from None
    # essay k's tokens sit k + 1 paddings into the stream, so token j's
    # window starts at half * k plus the tokens before it
    starts = np.arange(total)
    starts += np.repeat(half * np.arange(len(essays)), lengths)
    scores = np.repeat(np.array([e.scaled_score for e in essays], dtype=float),
                       lengths)
    # a stream of paddings alone can be shorter than one window
    view = sliding_window_view(stream, n) if total \
        else np.empty((0, n), dtype=np.int32)
    return Windows(stream, view, starts, scores)


def corrupt_window(target: int, n_corruptions: int, rng,
                   vocab: Vocabulary) -> np.ndarray:
    """Draw the center ids of corrupted copies of a window.

    A corrupted window is the window whose center is ``target`` with
    that center replaced by one of the returned ids; every other
    position is shared, so only the centers are returned, as an int
    array in draw order. Replacements are uniform over non-special
    vocabulary ids excluding ``target``, drawn with replacement, so the
    draws depend on the target alone.
    """
    if n_corruptions < 1:
        raise ConfigError(f"need at least one corruption, got {n_corruptions}")
    n_candidates = vocab.n_words
    target_off = target - N_SPECIALS if target >= N_SPECIALS else None
    if target_off is not None:
        n_candidates -= 1
    if n_candidates < 1:
        raise DataError("vocabulary too small to corrupt the target word")

    draws = rng.integers(0, n_candidates, size=n_corruptions)
    if target_off is not None:
        draws = np.where(draws >= target_off, draws + 1, draws)
    return draws + N_SPECIALS


# --- split manifests and the corpus cache -------------------------------

def write_manifest(path, essay_ids, config_hash: str | None = None):
    """Write essay ids one per line; a leading '#' line carries metadata."""
    with open(path, "w", encoding="utf-8") as fh:
        if config_hash:
            fh.write(f"# config {config_hash}\n")
        for eid in essay_ids:
            fh.write(f"{eid}\n")


def read_manifest(path) -> list[int]:
    """Essay ids of a :func:`write_manifest` file; an id listed twice is
    a :class:`DataError` naming both lines."""
    first_line: dict[int, int] = {}  # essay id -> its line
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                eid = int(line)
            except ValueError:
                raise DataError(f"{path}:{lineno}: not an essay id: {line!r}") from None
            if eid in first_line:
                raise DataError(f"{path}:{lineno}: essay id {eid} repeats "
                                f"line {first_line[eid]}")
            first_line[eid] = lineno
    return list(first_line)


@dataclass
class Corpus:
    """Encoded essays plus the vocabulary and score ranges they share."""

    essays: list[Essay]
    vocab: Vocabulary
    ranges: dict[int, ScoreRange]

    def by_id(self, essay_id: int) -> Essay:
        for e in self.essays:
            if e.essay_id == essay_id:
                return e
        raise KeyError(f"essay id {essay_id} not in corpus")

    def subset(self, essay_ids) -> list[Essay]:
        wanted = set(essay_ids)
        found = [e for e in self.essays if e.essay_id in wanted]
        counts = Counter(e.essay_id for e in found)
        if len(counts) != len(found):
            repeated = sorted(k for k, c in counts.items() if c > 1)
            raise DataError(f"essay ids repeated in corpus: {repeated[:5]}")
        if len(found) != len(wanted):
            missing = wanted - counts.keys()
            raise DataError(f"essay ids missing from corpus: {sorted(missing)[:5]}")
        return found


def load_corpus(path, min_count: int = 2,
                ranges: dict[int, ScoreRange] | None = None
                ) -> tuple[Corpus, list[RowError]]:
    """Read a UTF-8 ASAP-style TSV into an encoded :class:`Corpus`.

    Rows that fail to parse are reported in the returned row errors with
    their line number; the remaining rows are still ingested. A row that
    repeats the ``essay_id`` of an ingested row is reported the same way
    and the first row is kept. When ``ranges`` is not supplied, each
    set's range is the observed min/max of its scores; otherwise a row
    outside its set's range is reported (line 0) and dropped. A missing
    required column raises :class:`DataError` naming the column. The
    vocabulary is built from the kept rows at ``min_count``.
    """
    rows = []  # (essay id, set id, tokens, raw score)
    row_errors = []
    first_line: dict[int, int] = {}  # essay id -> line of its kept row
    with _open_utf8(path, newline="") as fh:
        reader = csv.DictReader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        header = reader.fieldnames or []
        for col in REQUIRED_COLUMNS:
            if col not in header:
                raise DataError(f"missing required column {col!r} in {path}")
        for lineno, row in enumerate(reader, start=2):
            try:
                essay_id = int(row["essay_id"])
                set_id = int(row["essay_set"])
            except (TypeError, ValueError):
                row_errors.append(RowError(lineno, "non-integer essay_id or essay_set"))
                continue
            try:
                raw_score = float(row["domain1_score"])
            except (TypeError, ValueError):
                row_errors.append(RowError(
                    lineno, f"non-numeric domain1_score {row['domain1_score']!r}"))
                continue
            if not math.isfinite(raw_score):
                row_errors.append(RowError(lineno, "non-finite domain1_score"))
                continue
            tokens = tokenize(row["essay"] or "")
            if not tokens:
                row_errors.append(RowError(lineno, "essay text is empty"))
                continue
            if essay_id in first_line:
                row_errors.append(RowError(
                    lineno, f"essay_id {essay_id} repeats line "
                            f"{first_line[essay_id]}; row skipped"))
                continue
            first_line[essay_id] = lineno
            rows.append((essay_id, set_id, tokens, raw_score))

    if ranges is None:
        ranges = {}
        for _, set_id, _, score in rows:
            r = ranges.get(set_id)
            ranges[set_id] = ScoreRange(score, score) if r is None \
                else ScoreRange(min(r.lo, score), max(r.hi, score))
    else:
        in_range = []
        for essay_id, set_id, tokens, score in rows:
            r = ranges.get(set_id)
            if r is None:
                row_errors.append(RowError(0, f"essay {essay_id}: set {set_id} "
                                              "missing from score-range table"))
            elif not (r.lo <= score <= r.hi):
                row_errors.append(RowError(0, f"essay {essay_id}: score "
                                              f"{score} outside [{r.lo}, {r.hi}]"))
            else:
                in_range.append((essay_id, set_id, tokens, score))
        rows = in_range

    vocab = build_vocabulary((tokens for _, _, tokens, _ in rows),
                             min_count=min_count)
    essays = [Essay(essay_id, set_id, vocab.encode(tokens), score,
                    ranges[set_id].scale(score))
              for essay_id, set_id, tokens, score in rows]
    return Corpus(essays, vocab, ranges), row_errors


def save_corpus_cache(path, corpus: Corpus, config_hash: str = ""):
    payload = {
        "config_hash": config_hash,
        "vocabulary": corpus.vocab.id_to_token[N_SPECIALS:],
        "ranges": {str(k): [r.lo, r.hi] for k, r in sorted(corpus.ranges.items())},
        "essays": [
            {"id": e.essay_id, "set": e.set_id, "score": e.raw_score,
             "tokens": e.tokens}
            for e in corpus.essays
        ],
    }
    # one dumps call runs the C encoder; json.dump streams through the
    # pure-Python one, for the same bytes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))


def _cached_essay(d: dict, n_vocab: int, ranges: dict, path) -> Essay:
    """One essay of a corpus cache, its tokens and score checked."""
    tokens = list(d["tokens"])
    if tokens and (set(map(type, tokens)) != {int}
                   or min(tokens) < 0 or max(tokens) >= n_vocab):
        bad = next(t for t in tokens
                   if type(t) is not int or not 0 <= t < n_vocab)
        raise DataError(f"corrupt corpus cache {path}: essay {d['id']} has "
                        f"token {bad!r}, not an id in [0, {n_vocab})")
    score = d["score"]
    if type(score) not in (int, float) or not math.isfinite(score):
        raise DataError(f"corrupt corpus cache {path}: essay {d['id']} has "
                        f"score {score!r}, not a finite number")
    return Essay(d["id"], d["set"], tokens, score,
                 ranges[d["set"]].scale(score))


def load_corpus_cache(path) -> tuple[Corpus, str]:
    """Read a :func:`save_corpus_cache` file.

    Every token must be an integer id of the cached vocabulary and every
    score a finite number; anything else is a :class:`DataError`. A
    ``min_count`` key, which older caches carry, is ignored.
    """
    try:
        with _open_utf8(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt corpus cache {path}: {exc}") from None
    try:
        vocab = Vocabulary(payload["vocabulary"])
        ranges = {int(k): ScoreRange(lo, hi)
                  for k, (lo, hi) in payload["ranges"].items()}
        essays = [_cached_essay(d, len(vocab), ranges, path)
                  for d in payload["essays"]]
    except (KeyError, TypeError) as exc:
        raise DataError(f"corrupt corpus cache {path}: missing field {exc}") from None
    return Corpus(essays, vocab, ranges), payload.get("config_hash", "")

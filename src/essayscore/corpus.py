"""Corpus handling: tokenization, vocabulary, TSV ingestion, splits and
training windows.

A corpus keeps its token ids in one int32 array, essay after essay; each
:class:`Essay`'s ``tokens`` is a view into it, from :func:`load_corpus`
and from :func:`load_corpus_cache` alike. Functions that take essays
also accept token ids as a list of ints, as a library caller builds them.

The training windows of a list of essays are the rows of one sliding
view over a single boundary-padded int32 id stream (:class:`Windows`),
so building them copies each token once and makes no object per window.

The ingestion format is the tab-separated essay dump used by the ASAP
competition: a header row with at least ``essay_id``, ``essay_set``,
``essay`` and ``domain1_score`` columns; extra columns are ignored.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import math
import re
import struct
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count

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

# a word cannot start with "@" nor a placeholder with a word character,
# so the order of the first two alternatives changes no match (words,
# far more common, are tried first); a token that starts with "@" is a
# placeholder or a lone "@"
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|@[A-Z]+[0-9]*|\S")

REQUIRED_COLUMNS = ("essay_id", "essay_set", "essay", "domain1_score")


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it into word and punctuation tokens.

    Words are maximal alphanumeric runs; any other non-space character
    becomes a standalone token. Anonymization placeholders such as
    ``@CAPS3`` are kept verbatim, case intact. Empty text gives an empty
    list.
    """
    return [tok if tok[0] == "@" else tok.lower()
            for tok in _TOKEN_RE.findall(text)]


class Vocabulary:
    """Bijective token <-> id mapping with reserved special ids.

    Ids 0, 1 and 2 are the padding, unknown-word and window-boundary
    tokens; corpus tokens start at id 3, assigned by descending frequency
    with lexicographic tie-breaking so two corpora with identical
    frequency profiles get identical ids.
    """

    def __init__(self, tokens: list[str]):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN, BOUNDARY_TOKEN] + list(tokens)
        self.token_to_id = dict(zip(self.id_to_token,
                                    range(len(self.id_to_token))))
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def n_words(self) -> int:
        """Number of non-special entries."""
        return len(self.id_to_token) - N_SPECIALS

    def decode(self, ids) -> list[str]:
        """The tokens of an int array or a list of ids."""
        return list(map(self.id_to_token.__getitem__,
                        np.asarray(ids).tolist()))

    def id_of(self, token: str) -> int:
        try:
            return self.token_to_id[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None


def _ranked_vocabulary(tokens: list[str], counts: np.ndarray,
                       min_count: int) -> tuple[Vocabulary, np.ndarray]:
    """The :class:`Vocabulary` of distinct ``tokens`` seen ``counts`` times
    each, and the map from their positions in ``tokens`` (provisional ids)
    to vocabulary ids, UNK for a dropped token, as an int32 array."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    kept = sorted((counts >= min_count).nonzero()[0].tolist(),
                  key=tokens.__getitem__)
    # a stable sort keeps the lexicographic order among equal counts
    order = np.array(kept, dtype=np.intp)[
        np.argsort(-counts[kept], kind="stable")]
    remap = np.full(len(tokens), UNK_ID, dtype=np.int32)
    remap[order] = np.arange(N_SPECIALS, N_SPECIALS + order.size)
    return Vocabulary([tokens[k] for k in order.tolist()]), remap


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
    """A scored, tokenized essay with ids from one :class:`Vocabulary`.

    ``tokens`` is an int32 view into its corpus's token array (a list of
    ints works too).
    """

    essay_id: int
    set_id: int
    tokens: np.ndarray
    raw_score: float
    scaled_score: float

    def __eq__(self, other):
        # tokens by value: the generated method would compare them inside
        # a tuple, which raises for an array of more than one element
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.essay_id, self.set_id, self.raw_score,
                 self.scaled_score) == (other.essay_id, other.set_id,
                                        other.raw_score, other.scaled_score)
                and np.array_equal(self.tokens, other.tokens))


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


def _echo(text) -> str:
    """A field's text as an error shows it: at most 20 characters."""
    return repr(text) if text is None or len(text) <= 20 \
        else f"{text[:20]!r}... ({len(text)} characters)"


def _int_field(text, field: str) -> int:
    """``int(text)``; a value it rejects (a short row's None, or more
    digits than it converts, too) is a ValueError naming ``field`` that
    echoes at most 20 characters of ``text``."""
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ValueError(f"{field} {_echo(text)} is not an integer") from None


def _float_field(text, field: str) -> float:
    """``float(text)``; a value it rejects is a ValueError, as in
    :func:`_int_field`."""
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ValueError(f"{field} {_echo(text)} is not a number") from None


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
                set_id = _int_field(parts[0], "set_id")
                lo = _float_field(parts[1], "min")
                hi = _float_field(parts[2], "max")
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
    padded by the boundaries it shares with its neighbors; it is a copy,
    where the essays' tokens are int32 views into their corpus's array.
    ``view`` is the ``(len(stream) - n + 1, n)`` sliding-window view of
    the stream, which copies nothing. Window ``k`` is ``view[starts[k]]``,
    centered at ``n // 2`` on one token, and ``scores[k]`` is its essay's
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
    pad = np.full(half, BOUNDARY_ID, dtype=np.int32)
    pieces = [pad]
    for e in essays:
        pieces += (e.tokens, pad)
    # int64 first, so a list's id outside the int32 range is seen, not
    # wrapped; an empty list is a float array, which the cast accepts. A
    # list holding an id in [2**63, 2**64) is a float array too, whose
    # cast would only warn; ids of 2**64 and above overflow.
    try:
        with np.errstate(invalid="raise"):
            stream = np.concatenate(pieces, dtype=np.int64, casting="unsafe")
    except (OverflowError, FloatingPointError):
        raise DataError("token id out of the int32 range") from None
    int32 = np.iinfo(np.int32)
    if stream.min() < int32.min or stream.max() > int32.max:
        raise DataError("token id out of the int32 range")
    stream = stream.astype(np.int32)
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


def corrupt_window(target, n_corruptions: int, rng,
                   vocab: Vocabulary) -> np.ndarray:
    """Draw the center ids of corrupted copies of a window, or of several.

    A corrupted window is the window whose center is ``target`` with
    that center replaced by one of the returned ids; every other
    position is shared, so only the centers are returned, as an int
    array in draw order. Replacements are uniform over non-special
    vocabulary ids excluding ``target``, drawn with replacement, so the
    draws depend on the target alone.

    ``target`` may also be a 1-D array of the centers of m windows; row
    k of the (m, n_corruptions) result is then what the k-th of m
    single calls, made in order on the same generator, would return.
    The targets are split into runs of equal candidate count (a special
    id has one candidate more than a word), and each run takes one
    ``integers`` call. That call gives the stream of the run's single
    calls: numpy draws an array element by element in C order, and the
    unused half of a 64-bit output stays in the bit generator, not in
    the call. SSWE training draws this way for each chunk of
    consecutive windows in its shuffled order. A target without a
    candidate is a :class:`DataError` before anything is drawn.
    """
    if n_corruptions < 1:
        raise ConfigError(f"need at least one corruption, got {n_corruptions}")
    targets = np.asarray(target).reshape(-1)
    words = targets >= N_SPECIALS
    # a word's candidates are every word but itself
    n_candidates = vocab.n_words - words
    if (n_candidates < 1).any():
        raise DataError("vocabulary too small to corrupt the target word")

    # the runs' edges: both ends and every change of candidate count
    edges = np.diff(n_candidates, prepend=0, append=0).nonzero()[0].tolist()
    draws = np.empty((len(targets), n_corruptions), dtype=np.int64)
    for lo, hi in zip(edges, edges[1:]):
        draws[lo:hi] = rng.integers(0, n_candidates[lo],
                                    size=(hi - lo, n_corruptions))
    # a word's own offset among the words is skipped; a special id's
    # offset lies past every draw
    skip = np.where(words, targets - N_SPECIALS, vocab.n_words)
    draws += draws >= skip[:, None]
    draws += N_SPECIALS
    return draws if np.ndim(target) else draws[0]


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
                eid = _int_field(line, "essay id")
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
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
    vocabulary is built from the kept rows at ``min_count``, and the kept
    rows' ids are encoded into one int32 array that every essay's
    ``tokens`` views. While reading, each token is mapped to a
    provisional id, in the order tokens are first seen, so only one
    string per distinct token is held; the kept rows' ids are then
    counted at once and remapped to the vocabulary's with one gather.
    """
    rows = []  # (essay id, set id, provisional token ids, raw score)
    row_errors = []
    seen = defaultdict(count().__next__)  # token -> provisional id
    first_line: dict[int, int] = {}  # essay id -> line of its kept row
    with _open_utf8(path, newline="") as fh:
        reader = csv.DictReader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            header = reader.fieldnames or []
            for col in REQUIRED_COLUMNS:
                if col not in header:
                    raise DataError(f"missing required column {col!r} in {path}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    essay_id = _int_field(row["essay_id"], "essay_id")
                    set_id = _int_field(row["essay_set"], "essay_set")
                    raw_score = _float_field(row["domain1_score"],
                                             "domain1_score")
                except ValueError as exc:
                    row_errors.append(RowError(lineno, str(exc)))
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
                rows.append((essay_id, set_id,
                             np.fromiter(map(seen.__getitem__, tokens),
                                         dtype=np.int32, count=len(tokens)),
                             raw_score))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DataError(f"{path}:{reader.reader.line_num}: {exc}") from None

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

    ids, sets, id_lists, scores = zip(*rows) if rows else ((),) * 4
    lengths = np.fromiter(map(len, id_lists), dtype=np.int64, count=len(ids))
    flat = np.concatenate((np.empty(0, dtype=np.int32), *id_lists))
    # the per-row arrays go before the remap makes its copy of the ids
    del rows, id_lists
    vocab, remap = _ranked_vocabulary(
        list(seen), np.bincount(flat, minlength=len(seen)), min_count)
    tokens = remap[flat]
    essays = _flat_essays(ids, sets, scores, lengths, tokens, ranges)
    return Corpus(essays, vocab, ranges), row_errors


def _flat_essays(ids, sets, scores, lengths, tokens: np.ndarray,
                 ranges: dict[int, ScoreRange]) -> list[Essay]:
    """Essays whose tokens are consecutive views into ``tokens``, the
    k-th ``lengths[k]`` long."""
    ends = np.cumsum(lengths).tolist()
    return [Essay(essay_id, set_id, tokens[start:end], score,
                  ranges[set_id].scale(score))
            for essay_id, set_id, score, start, end
            in zip(ids, sets, scores, [0] + ends[:-1], ends)]


def save_corpus_cache(path, corpus: Corpus, config_hash: str = ""):
    """Write ``corpus`` as JSON: the vocabulary, the ranges, per-essay
    ``ids``, ``sets``, ``scores`` and ``lengths``, and every essay's
    tokens in order as one base64 field of little-endian int32."""
    essays = corpus.essays
    tokens = np.concatenate([np.empty(0, dtype=np.int32)]
                            + [e.tokens for e in essays]).astype("<i4", copy=False)
    payload = {
        "config_hash": config_hash,
        "vocabulary": corpus.vocab.id_to_token[N_SPECIALS:],
        "ranges": {str(k): [r.lo, r.hi] for k, r in sorted(corpus.ranges.items())},
        "ids": [e.essay_id for e in essays],
        "sets": [e.set_id for e in essays],
        "scores": [e.raw_score for e in essays],
        "lengths": [len(e.tokens) for e in essays],
        "tokens": base64.b64encode(tokens.tobytes()).decode("ascii"),
    }
    # one dumps call runs the C encoder; json.dump streams through the
    # pure-Python one, for the same bytes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))


def _finite_number(x) -> bool:
    """Whether ``x``, read from JSON, is an int or float that is finite
    as a float; a bool is not a number here."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def load_corpus_cache(path) -> tuple[Corpus, str]:
    """Read a :func:`save_corpus_cache` file.

    Every token must be an id of the cached vocabulary, every score a
    finite number, every essay id and set an integer and every set one
    of the cached ranges; the lengths must be non-negative and sum to the
    token count. Anything else, or a cache in the older per-essay format,
    is a :class:`DataError` naming the file.
    """
    try:
        with _open_utf8(path) as fh:
            payload = json.load(fh)
    # a JSONDecodeError is a ValueError, as is an integer of more digits
    # than int() converts; deep nesting exhausts the decoder's recursion
    except (ValueError, RecursionError) as exc:
        raise DataError(f"corrupt corpus cache {path}: {exc}") from None

    def corrupt(message: str) -> DataError:
        return DataError(f"corrupt corpus cache {path}: {message}")

    if not isinstance(payload, dict):
        raise corrupt("not a JSON object")
    if "essays" in payload:
        raise DataError(f"corpus cache {path} is in an older format; "
                        "re-run `ingest`")
    try:
        vocabulary, range_items, ids, sets, scores, lengths, field = (
            payload[k] for k in ("vocabulary", "ranges", "ids", "sets",
                                 "scores", "lengths", "tokens"))
    except KeyError as exc:
        raise corrupt(f"missing field {exc}") from None

    if not (isinstance(vocabulary, list)
            and set(map(type, vocabulary)) <= {str}):
        raise corrupt("the vocabulary is not a list of strings")
    try:
        vocab = Vocabulary(vocabulary)
    except DataError as exc:
        raise corrupt(str(exc)) from None
    if not isinstance(range_items, dict):
        raise corrupt("the ranges are not an object")
    ranges = {}
    for key, bounds in range_items.items():
        if not (re.fullmatch(r"-?[0-9]+", key) and isinstance(bounds, list)
                and len(bounds) == 2 and all(map(_finite_number, bounds))
                and bounds[0] <= bounds[1]):
            raise corrupt(f"range {key!r}: {bounds!r} is not a finite "
                          "[min, max] of an integer set")
        ranges[int(key)] = ScoreRange(*bounds)

    columns = (ids, sets, scores, lengths)
    if not all(isinstance(c, list) for c in columns) \
            or len(set(map(len, columns))) != 1:
        raise corrupt("ids, sets, scores and lengths are not lists of "
                      "one length")
    for name, column in (("essay ids", ids), ("sets", sets),
                         ("lengths", lengths)):
        if not set(map(type, column)) <= {int}:
            bad = next(x for x in column if type(x) is not int)
            raise corrupt(f"{name} must be integers, found {bad!r}")

    if not isinstance(field, str):
        raise corrupt("the token field is not a base64 string")
    try:
        raw = base64.b64decode(field, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise corrupt(f"the token field is not base64: {exc}") from None
    if len(raw) % 4:
        raise corrupt(f"the token field holds {len(raw)} bytes, not a "
                      "whole number of int32 ids")
    tokens = np.frombuffer(raw, dtype="<i4").astype(np.int32, copy=False)
    if lengths and min(lengths) < 0:
        k = lengths.index(min(lengths))
        raise corrupt(f"essay {ids[k]} has length {lengths[k]}")
    if sum(lengths) != tokens.size:
        raise corrupt(f"the lengths sum to {sum(lengths)}, but the token "
                      f"field holds {tokens.size} tokens")
    n_vocab = len(vocab)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= n_vocab):
        at = np.flatnonzero((tokens < 0) | (tokens >= n_vocab))[0]
        k = np.searchsorted(np.cumsum(lengths), at, side="right")
        raise corrupt(f"essay {ids[k]} has token {int(tokens[at])!r}, not "
                      f"an id in [0, {n_vocab})")
    try:
        finite = set(map(type, scores)) <= {int, float} \
            and bool(np.isfinite(np.array(scores, dtype=float)).all())
    except OverflowError:
        finite = False
    if not finite:
        k = next(k for k, s in enumerate(scores) if not _finite_number(s))
        raise corrupt(f"essay {ids[k]} has score {scores[k]!r}, not a "
                      "finite number")
    missing = set(sets) - ranges.keys()
    if missing:
        k = next(k for k, s in enumerate(sets) if s in missing)
        raise corrupt(f"essay {ids[k]} is in set {sets[k]}, which has no "
                      "cached range")
    essays = _flat_essays(ids, sets, scores, lengths, tokens, ranges)
    return Corpus(essays, vocab, ranges), payload.get("config_hash", "")

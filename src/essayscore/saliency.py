"""Gradient-magnitude token quality maps and their renderers.

Feeding the scorer a pseudo-score and measuring the gradient of the
squared error at each input word vector says how hard that word pushes
against the pseudo-score. Tokens that need little adjustment toward the
set maximum and much adjustment toward the set minimum are good ones, so
quality is the minimum-side magnitude minus the maximum-side magnitude:
larger means better. Colors run dark red (worst octile) to dark green
(best octile).

For a pseudo-score p the gradient is ``2 (y - p) dy/dx_t``, so both
magnitudes are scalar multiples of ``g_t = |dy/dx_t|`` and one forward
and one backward pass (seeded with ``dy = 1``) give the whole map:
quality is ``2 (|y - y_min| - |y - y_max|) g_t``. Within an essay (or
span) the ranking is therefore the input-gradient norm, flipped when the
prediction falls below the midpoint of the scale.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass

import numpy as np

from .corpus import Essay, ScoreRange, Vocabulary
from .errors import DataError
from .lstm import SeqModel, backward_inputs, forward_batch, predict_batch

# Octile color scales, worst to best: 4 reds then 4 greens.
ANSI_SCALE = (52, 88, 124, 167, 150, 77, 28, 22)
HEX_SCALE = ("#67000d", "#a50f15", "#cb181d", "#fb6a4a",
             "#a1d99b", "#74c476", "#31a354", "#006d2c")
N_BINS = 8


def input_gradients(model: SeqModel, tokens, pseudo_score: float) -> np.ndarray:
    """Gradient of (y - pseudo_score)^2 at each position's word vector.

    One forward and one backward pass, which works out no parameter
    gradient; no parameter is touched. Repeated tokens get separate
    per-position rows. The prediction enters the loss unclamped.
    """
    y, cache = forward_batch(model, [tokens])
    return backward_inputs(model, cache, 2.0 * (y - pseudo_score))


@dataclass(frozen=True)
class TokenQuality:
    """One scored token position."""

    token: str
    mag_max: float
    mag_min: float
    quality: float
    bin: int


@dataclass
class QualityMap:
    """Per-token quality of one essay plus its predicted score."""

    essay_id: int
    predicted: float
    entries: list[TokenQuality]

    @property
    def mean_quality(self) -> float:
        return float(np.mean([e.quality for e in self.entries]))

    def tokens(self) -> list[str]:
        return [e.token for e in self.entries]


def quality_bins(quality: np.ndarray) -> np.ndarray:
    """Per-essay octile of each value, ties broken by position."""
    T = quality.size
    order = np.argsort(quality, kind="stable")
    ranks = np.empty(T, dtype=int)
    ranks[order] = np.arange(T)
    return np.minimum(ranks * N_BINS // T, N_BINS - 1)


def _displayed(y: float, score_range: ScoreRange | None, y_max: float,
               y_min: float) -> float:
    """A prediction clamped into [y_min, y_max], the target-space bounds,
    and mapped from there onto the raw scale of ``score_range`` if given."""
    bounds = ScoreRange(y_min, y_max)
    predicted = bounds.clamp(float(y))
    if score_range is not None:
        predicted = score_range.clamp(
            score_range.unscale(bounds.scale(predicted)))
    return predicted


def _entries(words, grad_norms, y: float, y_max: float,
             y_min: float) -> list[TokenQuality]:
    """Quality entries of one scored sequence from its |dy/dx_t| norms."""
    mag_max = abs(2.0 * (y - y_max)) * grad_norms
    mag_min = abs(2.0 * (y - y_min)) * grad_norms
    quality = mag_min - mag_max
    bins = quality_bins(quality)
    return [TokenQuality(words[t], float(mag_max[t]), float(mag_min[t]),
                         float(quality[t]), int(bins[t]))
            for t in range(len(words))]


def quality_map(model: SeqModel, essay: Essay, vocab: Vocabulary,
                score_range: ScoreRange | None = None,
                y_max: float = 1.0, y_min: float = 0.0) -> QualityMap:
    """Score every token position of one essay.

    ``y_max`` and ``y_min`` are the essay set's extreme scores in the
    model's target space; after min-max scaling those are simply 1 and 0.
    The displayed prediction is clamped into [y_min, y_max] and, when
    ``score_range`` is given, mapped from there onto the raw score scale.
    One forward and one backward pass: :func:`quality_map_spans` with
    the whole essay as its one span.
    """
    return quality_map_spans(model, essay, vocab, len(essay.tokens),
                             score_range, y_max, y_min)


def quality_map_spans(model: SeqModel, essay: Essay, vocab: Vocabulary,
                      span_len: int,
                      score_range: ScoreRange | None = None,
                      y_max: float = 1.0, y_min: float = 0.0) -> QualityMap:
    """Tile the essay into fixed-length spans scored independently.

    Each span is fed to the model as if it were a whole essay, so the
    gradients reflect the span in isolation; bins are assigned within
    each span. All spans run as one lockstep batch. A span length at or
    beyond the essay length gives :func:`quality_map`. The displayed
    prediction is still the whole essay's.
    """
    if len(essay.tokens) == 0:
        raise DataError(f"essay {essay.essay_id} has no tokens")
    if span_len < 1:
        raise DataError(f"span length must be >= 1, got {span_len}")
    starts = range(0, len(essay.tokens), span_len)
    spans = [essay.tokens[s:s + span_len] for s in starts]
    y, cache = forward_batch(model, spans)
    d_inputs = backward_inputs(model, cache, np.ones(len(spans)))
    whole = y[0] if len(spans) == 1 \
        else predict_batch(model, [essay.tokens])[0]
    norms = np.linalg.norm(d_inputs, axis=1)
    words = vocab.decode(essay.tokens)
    entries: list[TokenQuality] = []
    for s, span, y_span in zip(starts, spans, y):
        end = s + len(span)
        entries.extend(_entries(words[s:end], norms[s:end], y_span,
                                y_max, y_min))
    return QualityMap(essay.essay_id,
                      _displayed(whole, score_range, y_max, y_min), entries)


def render_ansi(qmap: QualityMap, monochrome: bool = False) -> str:
    """Tokens joined by single spaces, colored on the 256-color scale.

    With ``monochrome`` set, color codes are replaced by a ``[bin]``
    suffix on each token.
    """
    if monochrome:
        return " ".join(f"{e.token}[{e.bin}]" for e in qmap.entries)
    return " ".join(f"\x1b[38;5;{ANSI_SCALE[e.bin]}m{e.token}\x1b[0m"
                    for e in qmap.entries)


# Light text on the two darkest reds and the darkest green.
_DARK_BINS = frozenset((0, 1, 7))


def render_html(qmap: QualityMap, path, config_hash: str = ""):
    """Standalone heatmap page, one colored span per token."""
    if not qmap.entries:
        raise DataError(f"essay {qmap.essay_id} has an empty quality map")
    title = f"essay {qmap.essay_id}, predicted {qmap.predicted:.2f}"
    spans = []
    for e in qmap.entries:
        fg = "#f0f0f0" if e.bin in _DARK_BINS else "#111111"
        spans.append(
            f'<span class="tok" style="background:{HEX_SCALE[e.bin]};'
            f'color:{fg}" title="q={e.quality:.3g}">'
            f"{_html.escape(e.token)}</span>")
    meta = (f'<meta name="config" content="{config_hash}">\n  '
            if config_hash else "")
    doc = f"""<!DOCTYPE html>
<html lang="en">
<head>
  <meta charset="utf-8">
  {meta}<title>{_html.escape(title)}</title>
  <style>
    body {{ font-family: Georgia, serif; margin: 2em auto; max-width: 42em;
           line-height: 1.9; }}
    .tok {{ padding: 0.1em 0.15em; border-radius: 0.15em; }}
  </style>
</head>
<body>
  <h1>{_html.escape(title)}</h1>
  <p>{" ".join(spans)}</p>
</body>
</html>
"""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)

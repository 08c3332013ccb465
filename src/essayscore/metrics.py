"""Rater-agreement metrics for predicted vs gold essay scores.

All four headline numbers live here: Spearman's rank correlation,
Pearson's product-moment correlation, root mean square error, and
quadratically weighted kappa on the discrete score grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import ScoreRange
from .errors import DataError, NumericalError

CSV_HEADER = "model,n,spearman,pearson,rmse,qwk"


def _pair(a, b, min_n: int):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DataError(f"expected equal-length 1-d sequences, got shapes "
                        f"{a.shape} and {b.shape}")
    if a.size < min_n:
        raise DataError(f"need at least {min_n} pairs, got {a.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericalError("non-finite value in metric input")
    return a, b


def average_ranks(x) -> np.ndarray:
    """Fractional ranks starting at 1; tied values share their mean rank."""
    _, inverse, counts = np.unique(np.asarray(x, dtype=float),
                                   return_inverse=True, return_counts=True)
    # a value first seen at sorted position start holds ranks start + 1 ...
    # start + count, whose mean is start + (count + 1) / 2
    start = np.cumsum(counts) - counts
    return (start + (counts + 1) / 2.0)[inverse]


def pearson_r(a, b) -> float:
    """Product-moment correlation. Raises on constant input."""
    a, b = _pair(a, b, 2)
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da @ da) * (db @ db))
    if denom == 0.0:
        raise NumericalError("correlation undefined for constant input")
    return float((da @ db) / denom)


def spearman_rho(a, b) -> float:
    """Rank correlation: Pearson on average ranks."""
    a, b = _pair(a, b, 2)
    return pearson_r(average_ranks(a), average_ranks(b))


def rmse(pred, gold) -> float:
    """Root mean square error on whatever scale the inputs share."""
    pred, gold = _pair(pred, gold, 1)
    return float(np.sqrt(np.mean((pred - gold) ** 2)))


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def discretize(pred, score_range: ScoreRange) -> np.ndarray:
    """Round predictions half away from zero, then clamp into the range."""
    pred = np.asarray(pred, dtype=float)
    return np.clip(_round_half_away(pred), score_range.lo, score_range.hi)


def quadratic_weighted_kappa(pred, gold, score_range: ScoreRange) -> float:
    """Cohen's kappa with quadratic disagreement weights.

    Predictions are discretized onto the integer grid of ``score_range``;
    gold scores must already be integers inside it. With O the observed
    confusion matrix and E the outer product of its marginals scaled to
    the same total, kappa = 1 - sum(w*O)/sum(w*E), w_ij = (i-j)^2/(R-1)^2.
    """
    pred, gold = _pair(pred, gold, 1)
    lo, hi = score_range.lo, score_range.hi
    if lo != int(lo) or hi != int(hi):
        raise DataError(f"kappa needs an integer score range, got [{lo}, {hi}]")
    lo, hi = int(lo), int(hi)
    n_cats = hi - lo + 1
    if np.any(gold != np.round(gold)) or gold.min() < lo or gold.max() > hi:
        raise DataError(f"gold scores must be integers in [{lo}, {hi}]")

    p_idx = discretize(pred, score_range).astype(int) - lo
    g_idx = gold.astype(int) - lo
    observed = np.zeros((n_cats, n_cats))
    np.add.at(observed, (p_idx, g_idx), 1.0)

    if n_cats == 1:
        raise NumericalError("kappa undefined for a single-category range")
    idx = np.arange(n_cats)
    weights = (idx[:, None] - idx[None, :]) ** 2 / (n_cats - 1) ** 2
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    denom = float((weights * expected).sum())
    if denom == 0.0:
        raise NumericalError("kappa undefined: all mass on the diagonal weights")
    return 1.0 - float((weights * observed).sum()) / denom


@dataclass(frozen=True)
class MetricsReport:
    """Agreement summary between one model's predictions and gold scores.

    A correlation that is undefined because the predictions do not vary
    is ``nan``: ``nan`` in the CSV row and ``undefined`` in the text.
    """

    n: int
    spearman_rho: float
    pearson_r: float
    rmse: float
    qwk: float

    def csv_row(self, model_name: str) -> str:
        return (f"{model_name},{self.n},{self.spearman_rho!r},"
                f"{self.pearson_r!r},{self.rmse!r},{self.qwk!r}")

    def pretty(self) -> str:
        def signed(x: float) -> str:
            return "undefined" if math.isnan(x) else f"{x:+.4f}"
        return "\n".join([
            f"n         {self.n}",
            f"spearman  {signed(self.spearman_rho)}",
            f"pearson   {signed(self.pearson_r)}",
            f"rmse      {self.rmse:.4f}",
            f"qwk       {self.qwk:+.4f}",
        ])


def report(pred, gold, score_range: ScoreRange) -> MetricsReport:
    """All four metrics over one prediction/gold pairing (raw scale).

    Constant predictions leave the correlations undefined (``nan``);
    RMSE and QWK are reported all the same, QWK 0 when the gold scores
    vary.
    """
    pred_arr, gold_arr = _pair(pred, gold, 2)
    flat = pred_arr.min() == pred_arr.max()
    return MetricsReport(
        n=pred_arr.size,
        spearman_rho=math.nan if flat else spearman_rho(pred_arr, gold_arr),
        pearson_r=math.nan if flat else pearson_r(pred_arr, gold_arr),
        rmse=rmse(pred_arr, gold_arr),
        qwk=quadratic_weighted_kappa(pred_arr, gold_arr, score_range),
    )

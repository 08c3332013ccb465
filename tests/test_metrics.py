import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from essayscore.corpus import ScoreRange
from essayscore.errors import DataError, NumericalError
from essayscore.metrics import (
    CSV_HEADER,
    MetricsReport,
    average_ranks,
    discretize,
    pearson_r,
    quadratic_weighted_kappa,
    report,
    rmse,
    spearman_rho,
)


# --- independent brute-force oracles ------------------------------------

def brute_ranks(xs):
    """Average ranks by explicit counting of smaller and equal values."""
    out = []
    for x in xs:
        smaller = sum(1 for y in xs if y < x)
        equal = sum(1 for y in xs if y == x)
        # ranks smaller+1 .. smaller+equal, averaged
        out.append(smaller + (equal + 1) / 2)
    return out


def brute_pearson(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)


def brute_spearman(a, b):
    return brute_pearson(brute_ranks(a), brute_ranks(b))


def brute_rmse(p, g):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(p, g)) / len(p))


def brute_qwk(pred, gold, lo, hi):
    cats = list(range(lo, hi + 1))
    R = len(cats)

    def snap(x):
        r = math.floor(abs(x) + 0.5) * (1 if x >= 0 else -1)
        return min(max(r, lo), hi)

    p = [snap(x) for x in pred]
    O = [[0.0] * R for _ in range(R)]
    for x, y in zip(p, gold):
        O[x - lo][int(y) - lo] += 1
    total = len(p)
    row = [sum(O[i][j] for j in range(R)) for i in range(R)]
    col = [sum(O[i][j] for i in range(R)) for j in range(R)]
    num = den = 0.0
    for i in range(R):
        for j in range(R):
            w = (i - j) ** 2 / (R - 1) ** 2
            num += w * O[i][j]
            den += w * row[i] * col[j] / total
    return 1.0 - num / den


# --- worked examples ----------------------------------------------------

class TestSpearman:
    def test_identity(self):
        assert spearman_rho([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman_rho([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0)

    def test_tied_ranks_worked_example(self):
        # ranks of a: [1, 2.5, 2.5, 4]; of b: [1, 3, 2, 4]
        value = spearman_rho([1, 2, 2, 4], [1, 3, 2, 4])
        assert value == pytest.approx(0.9486832980505138, abs=1e-15)

    def test_monotone_transform_invariance(self):
        a = [0.1, 2.0, 3.5, 9.9]
        b = [4.0, 1.0, 2.0, 3.0]
        assert spearman_rho(a, b) == pytest.approx(
            spearman_rho([math.exp(x) for x in a], b))

    def test_constant_input_rejected(self):
        with pytest.raises(NumericalError):
            spearman_rho([1, 1, 1], [1, 2, 3])

    def test_needs_two_points(self):
        with pytest.raises(DataError):
            spearman_rho([1], [1])


class TestPearson:
    def test_positive_affine(self):
        a = [1.0, 2.0, 5.0]
        assert pearson_r(a, [2 * x + 3 for x in a]) == pytest.approx(1.0)

    def test_negation(self):
        a = [1.0, 2.0, 5.0]
        assert pearson_r(a, [-x for x in a]) == pytest.approx(-1.0)

    def test_worked_example(self):
        assert pearson_r([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        a, b = [1, 4, 2, 8], [3, 1, 4, 1]
        assert pearson_r(a, b) == pytest.approx(pearson_r(b, a))

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericalError):
            pearson_r([1, 2, 3], [5, 5, 5])


class TestRmse:
    def test_perfect(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_pair(self):
        assert rmse([0], [3]) == 3.0

    def test_worked_example(self):
        assert rmse([1, 2], [2, 4]) == pytest.approx(math.sqrt(2.5))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            rmse([1, 2], [1])


class TestQwk:
    def test_perfect_agreement(self):
        r = ScoreRange(0, 10)
        gold = [0, 3, 5, 7, 10]
        assert quadratic_weighted_kappa(gold, gold, r) == pytest.approx(1.0)

    def test_two_by_two_anti_diagonal(self):
        value = quadratic_weighted_kappa([0, 1], [1, 0], ScoreRange(0, 1))
        assert value == pytest.approx(-1.0, abs=1e-15)

    def test_shift_invariance(self):
        pred = [1, 2, 3, 2, 1, 3]
        gold = [1, 3, 3, 2, 2, 1]
        a = quadratic_weighted_kappa(pred, gold, ScoreRange(1, 3))
        b = quadratic_weighted_kappa([x + 4 for x in pred],
                                     [x + 4 for x in gold], ScoreRange(5, 7))
        assert a == pytest.approx(b, abs=1e-15)

    def test_discretization_rounds_half_away_and_clamps(self):
        r = ScoreRange(0, 4)
        out = discretize([1.5, 2.49, -0.6, 9.0], r)
        assert list(out) == [2.0, 2.0, 0.0, 4.0]

    def test_gold_must_be_integral_in_range(self):
        r = ScoreRange(0, 4)
        with pytest.raises(DataError):
            quadratic_weighted_kappa([1, 2], [1.5, 2], r)
        with pytest.raises(DataError):
            quadratic_weighted_kappa([1, 2], [1, 9], r)

    def test_degenerate_single_cell_rejected(self):
        with pytest.raises(NumericalError):
            quadratic_weighted_kappa([3, 3], [3, 3], ScoreRange(0, 10))
        with pytest.raises(NumericalError):
            quadratic_weighted_kappa([4, 4], [4, 4], ScoreRange(4, 4))


class TestReport:
    def test_perfect_predictions(self):
        gold = [0, 2, 5, 8, 10]
        rep = report(gold, gold, ScoreRange(0, 10))
        assert rep.n == 5
        assert rep.spearman_rho == pytest.approx(1.0)
        assert rep.pearson_r == pytest.approx(1.0)
        assert rep.rmse == 0.0
        assert rep.qwk == pytest.approx(1.0)

    def test_matches_components_bitwise(self):
        rng = np.random.default_rng(0)
        gold = rng.integers(0, 11, size=40).astype(float)
        pred = np.clip(gold + rng.normal(0, 2, size=40), 0, 10)
        r = ScoreRange(0, 10)
        rep = report(pred, gold, r)
        assert rep.spearman_rho == spearman_rho(pred, gold)
        assert rep.pearson_r == pearson_r(pred, gold)
        assert rep.rmse == rmse(pred, gold)
        assert rep.qwk == quadratic_weighted_kappa(pred, gold, r)

    def test_constant_predictions_leave_the_correlations_undefined(self):
        gold = [2.0, 5.0, 8.0, 8.0]
        rep = report([4.0] * 4, gold, ScoreRange(0, 10))
        assert math.isnan(rep.spearman_rho) and math.isnan(rep.pearson_r)
        assert rep.rmse == rmse([4.0] * 4, gold)
        assert rep.qwk == 0.0
        assert rep.csv_row("m").startswith("m,4,nan,nan,")
        assert rep.pretty().splitlines()[1:3] == ["spearman  undefined",
                                                  "pearson   undefined"]
        # the components still raise, and so does constant gold
        with pytest.raises(NumericalError):
            pearson_r([4.0] * 4, gold)
        with pytest.raises(NumericalError):
            report([1.0, 2.0, 3.0], [5.0] * 3, ScoreRange(0, 10))

    def test_csv_row_shape(self):
        rep = MetricsReport(n=3, spearman_rho=0.5, pearson_r=0.25,
                            rmse=1.5, qwk=0.125)
        row = rep.csv_row("model.sats")
        assert CSV_HEADER.count(",") == row.count(",")
        assert row.startswith("model.sats,3,0.5,0.25,1.5,0.125")


class TestOracleAgreement:
    def test_hundred_random_pairs(self):
        # mixes continuous pairs, heavy-tie pairs and extreme disagreement
        rng = np.random.default_rng(42)
        r = ScoreRange(0, 8)
        for case in range(100):
            n = int(rng.integers(5, 40))
            gold = rng.integers(0, 9, size=n).astype(float)
            if case % 3 == 0:
                pred = rng.integers(0, 9, size=n).astype(float)
            elif case % 3 == 1:
                pred = np.clip(gold + rng.normal(0, 1.5, size=n), -2, 12)
            else:
                pred = (8 - gold) + rng.normal(0, 0.2, size=n)
            if len(set(gold.tolist())) < 2:
                gold[0] = (gold[0] + 1) % 9
            if len(set(pred.tolist())) < 2:
                pred[0] += 1.0

            assert abs(spearman_rho(pred, gold)
                       - brute_spearman(pred.tolist(), gold.tolist())) <= 1e-10
            assert abs(pearson_r(pred, gold)
                       - brute_pearson(pred.tolist(), gold.tolist())) <= 1e-10
            assert abs(rmse(pred, gold)
                       - brute_rmse(pred.tolist(), gold.tolist())) <= 1e-10
            assert abs(quadratic_weighted_kappa(pred, gold, r)
                       - brute_qwk(pred.tolist(), gold.tolist(), 0, 8)) <= 1e-10


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=2, max_size=50))
def test_average_ranks_match_brute_force(xs):
    assert np.allclose(average_ranks(xs), brute_ranks(xs))


@given(st.lists(st.tuples(
    st.floats(min_value=-5, max_value=15, allow_nan=False),
    st.integers(min_value=0, max_value=10)), min_size=2, max_size=30))
def test_qwk_agrees_with_brute_force_property(pairs):
    pred = [p for p, _ in pairs]
    gold = [float(g) for _, g in pairs]
    r = ScoreRange(0, 10)
    try:
        fast = quadratic_weighted_kappa(pred, gold, r)
    except NumericalError:
        return
    assert fast == pytest.approx(brute_qwk(pred, gold, 0, 10), abs=1e-10)

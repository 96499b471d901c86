"""Paired t-test and Bonferroni correction, checked against an
independently computed t-distribution tail (numerical quadrature of the
density written out directly), and the standard-library numerics behind
them against exact rational sums and a 50-digit mpmath reference."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from irdrift import _numeric
from irdrift._numeric import t_two_sided_p
from irdrift.model import MeasureSpec, PerTopicScores, TopicId
from irdrift.significance import TestResult, bonferroni, compare, paired_t_test

from conftest import NO_SHRINK, exact_sum, score_list_pairs


def _scores(values: list[float], measure="p@10") -> PerTopicScores:
    return PerTopicScores(
        MeasureSpec.parse(measure),
        {TopicId(f"t{i}"): v for i, v in enumerate(values)},
    )


def t_two_sided_p_oracle(t: float, df: int) -> float:
    """Tail mass of the t distribution by adaptive quadrature of its
    density, written directly from the density formula."""

    def density(x: float) -> float:
        log_c = (
            math.lgamma((df + 1) / 2.0)
            - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
        )
        return math.exp(log_c) * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    tail, _ = quad(density, abs(t), math.inf)
    return 2.0 * tail


def t_brute(diffs: list[float]) -> float:
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    return mean / math.sqrt(var / n)


def test_identical_scores_give_p_one():
    a = _scores([0.1] * 10 + [0.5] * 0)
    t, p, n = paired_t_test(a, a)
    assert (t, p, n) == (0.0, 1.0, 10)


def test_constant_nonzero_difference_gives_p_zero():
    a = _scores([0.2 + 0.1] * 10)
    b = _scores([0.2] * 10)
    t, p, n = paired_t_test(a, b)
    assert p == 0.0
    assert math.isinf(t) and t > 0


def test_fixture_differences_match_oracle():
    diffs = [0.3, 0.1, -0.1, 0.2, 0.0]
    a = _scores([0.5 + d for d in diffs])
    b = _scores([0.5] * 5)
    t, p, n = paired_t_test(a, b)
    assert n == 5
    assert t == pytest.approx(1.4142, abs=1e-3)
    assert p == pytest.approx(0.230, abs=5e-3)
    assert p == pytest.approx(t_two_sided_p_oracle(t, n - 1), abs=1e-9)


def test_bonferroni_examples():
    assert bonferroni(0.05, 1) == 0.05
    assert bonferroni(0.05, 10) == pytest.approx(0.005)
    assert bonferroni(0.05, 8) == 0.00625
    with pytest.raises(ValueError):
        bonferroni(0.0, 1)
    with pytest.raises(ValueError):
        bonferroni(0.05, 0)


def test_antisymmetry():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(3, 12)
        a = _scores([rng.random() for _ in range(n)])
        b = _scores([rng.random() for _ in range(n)])
        t_ab, p_ab, _ = paired_t_test(a, b)
        t_ba, p_ba, _ = paired_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)


def test_shift_invariance():
    rng = random.Random(32)
    for _ in range(50):
        n = rng.randint(3, 12)
        base_a = [rng.uniform(0.0, 0.4) for _ in range(n)]
        base_b = [rng.uniform(0.0, 0.4) for _ in range(n)]
        shift = rng.uniform(0.0, 0.5)
        _, p0, _ = paired_t_test(_scores(base_a), _scores(base_b))
        _, p1, _ = paired_t_test(
            _scores([x + shift for x in base_a]), _scores([x + shift for x in base_b])
        )
        assert p0 == pytest.approx(p1, abs=1e-9)


def test_t_statistic_matches_brute_force():
    rng = random.Random(33)
    for _ in range(100):
        n = rng.randint(2, 20)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        diffs = [x - y for x, y in zip(a, b)]
        if len(set(diffs)) == 1:
            continue
        t, _, _ = paired_t_test(_scores(a), _scores(b))
        assert t == pytest.approx(t_brute(diffs), abs=1e-12)


def test_differences_whose_squared_deviations_underflow_keep_their_t():
    # each squared deviation of the differences 0 and -1.27e-225 from
    # their mean underflows to 0 unless the differences are scaled first;
    # t does not depend on their scale, and is -1 for any pair (0, -x)
    t, p, n = paired_t_test(_scores([0.0, 0.0]), _scores([0.0, 1.27e-225]))
    assert t == pytest.approx(-1.0, rel=1e-15)
    assert p == pytest.approx(0.5, rel=1e-14)
    assert n == 2
    # the squared deviations of 5e-162 and 0 are subnormal; unscaled, they
    # keep too few bits and t reads 1.1247
    t, p, _ = paired_t_test(_scores([5e-162, 0.0]), _scores([0.0, 0.0]))
    assert t == pytest.approx(1.0, rel=1e-15)
    assert p == pytest.approx(0.5, rel=1e-14)


# a difference in every binade down to the smallest subnormal, 2**-1074
tiny_difference = st.builds(
    lambda mantissa, exponent, sign: sign * math.ldexp(mantissa, exponent),
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(-1074, 0),
    st.sampled_from([1.0, -1.0]),
) | st.just(0.0)


@NO_SHRINK
@given(st.lists(tiny_difference, min_size=2, max_size=40))
def test_t_statistic_is_finite_whenever_the_differences_vary(diffs):
    assume(len(set(diffs)) > 1)
    # a - b == d exactly, with both scores in [0, 1]
    a = _scores([max(d, 0.0) for d in diffs])
    b = _scores([max(-d, 0.0) for d in diffs])
    t, p, n = paired_t_test(a, b)
    assert math.isfinite(t)
    assert 0.0 <= p <= 1.0 and n == len(diffs)


def test_paired_t_test_requires_two_common_topics():
    with pytest.raises(ValueError, match=">= 2"):
        paired_t_test(_scores([0.1]), _scores([0.2]))


def test_paired_t_test_requires_matching_measure():
    with pytest.raises(ValueError, match="measure"):
        paired_t_test(_scores([0.1, 0.2]), _scores([0.1, 0.2], measure="bpref"))


def test_compare_builds_consistent_result():
    a = _scores([0.9, 0.8, 0.9, 0.95, 0.85])
    b = _scores([0.1, 0.2, 0.15, 0.1, 0.2])
    result = compare(a, b, alpha=0.05, family_size=8)
    assert result.adjusted_alpha == 0.00625
    assert result.significant == (result.p_value < 0.00625)
    assert result.n == 5


def test_test_result_invariant_enforced():
    with pytest.raises(ValueError, match="n must be"):
        TestResult(t_statistic=1.0, p_value=0.5, adjusted_alpha=0.05, n=1)
    # significance is p < adjusted alpha, strictly
    assert not TestResult(t_statistic=1.0, p_value=0.05, adjusted_alpha=0.05, n=5).significant
    assert TestResult(t_statistic=1.0, p_value=0.049, adjusted_alpha=0.05, n=5).significant


# --- the standard-library numerics ---

def t_by_exact_sums(diffs: list[float]) -> float:
    """t by the float steps paired_t_test takes, with each sum exact."""
    n = len(diffs)
    _, exponent = math.frexp(max(map(abs, diffs)))
    scaled = [math.ldexp(d, -exponent) for d in diffs]
    mean = exact_sum(scaled) / n
    sd = math.sqrt(exact_sum([(d - mean) * (d - mean) for d in scaled]) / (n - 1))
    return mean / (sd / math.sqrt(n))


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@NO_SHRINK
@given(score_list_pairs(min_size=2))
def test_t_statistic_has_the_bits_of_the_exact_sums(pair):
    a, b = pair
    diffs = [x - y for x, y in zip(a, b)]
    # the zero-variance convention is tested above
    assume(len(set(diffs)) > 1)
    t, _, n = paired_t_test(_scores(a), _scores(b))
    assert t.hex() == t_by_exact_sums(diffs).hex()
    # against t itself, from the exact mean and variance; the rounded mean
    # may shift the deviations by an ulp of the largest difference, so
    # this holds where they spread wider than that
    exact = [Fraction(d) for d in diffs]
    mean = sum(exact) / n
    variance = sum((d - mean) ** 2 for d in exact) / (n - 1)
    with mpmath.workdps(50):
        reference = _mp(mean) / mpmath.sqrt(_mp(variance) / n)
        if mpmath.sqrt(_mp(variance)) > 1e-6 * max(map(abs, diffs)):
            assert abs(t - reference) <= 1e-14 * abs(reference)


def _mp_two_sided_p(t: float, df: int):
    x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
    return mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)


def test_t_two_sided_p_matches_mpmath_to_1e_11():
    dfs = list(range(1, 11)) + [13, 20, 30, 50, 75, 99, 150, 200, 350, 500, 750, 999]
    # |t| from 1e-7 (p within 1e-7 of 1) to 60 (tails far below 1e-250)
    ts = [10.0 ** (k / 4) for k in range(-28, 8)] + [15.0, 25.0, 40.0, 60.0]
    smallest = 1.0
    with mpmath.workdps(50):
        for df in dfs:
            for t in ts:
                expected = _mp_two_sided_p(t, df)
                if expected < 1e-250:
                    continue
                smallest = min(smallest, float(expected))
                got = t_two_sided_p(t, df)
                assert abs(got - expected) <= 1e-11 * expected, (t, df, got, expected)
                assert t_two_sided_p(-t, df) == got
    assert smallest < 1e-200


def test_t_two_sided_p_limits():
    assert t_two_sided_p(0.0, 5) == 1.0
    assert t_two_sided_p(math.inf, 5) == 0.0
    assert t_two_sided_p(-math.inf, 5) == 0.0


def test_t_two_sided_p_non_convergence_is_not_a_user_error(monkeypatch):
    monkeypatch.setattr(_numeric, "_MAX_ITERATIONS", 1)
    with pytest.raises(ArithmeticError, match="did not converge") as exc:
        t_two_sided_p(2.0, 50)
    assert not isinstance(exc.value, ValueError)

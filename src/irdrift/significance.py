"""Paired significance testing with multiple-comparison correction.

Per-topic score differences are tested with a two-sided paired t-test;
the Bonferroni correction divides the significance level by the size of
the comparison family. Pairing is only statistically sound when both
score sets were computed against the same qrels.

The arithmetic needs only the standard library: the mean and the
squared deviations from it are summed by ``math.fsum``, correctly
rounded, so the t statistic does not depend on the order of the topics.
The differences are first scaled by a power of two, which is exact and
leaves t unchanged, so that the largest lies in [0.5, 1) and tiny
differences keep their t. The p value
is the regularised incomplete beta function's continued fraction, within
~1e-12 relative of a 50-digit reference for 1-999 degrees of freedom.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numeric import t_two_sided_p
from .model import PerTopicScores, _Checked


class _TestResultFields(NamedTuple):
    t_statistic: float
    p_value: float
    adjusted_alpha: float
    n: int


class TestResult(_Checked, _TestResultFields):
    __test__ = False  # keep pytest from collecting this as a test class
    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value must lie in [0, 1], got {self.p_value}")
        if not 0.0 < self.adjusted_alpha <= 1.0:
            raise ValueError(
                f"adjusted_alpha must lie in (0, 1], got {self.adjusted_alpha}"
            )
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    @property
    def significant(self) -> bool:
        return self.p_value < self.adjusted_alpha


def paired_t_test(
    scores_a: PerTopicScores, scores_b: PerTopicScores
) -> tuple[float, float, int]:
    """Two-sided paired t-test over the common topics' score differences.

    Returns (t statistic, p value, n). The p value is the two-sided tail
    of the t distribution with n-1 degrees of freedom. Degenerate
    zero-variance samples use the convention p = 0 for a nonzero mean
    difference and p = 1 otherwise.
    """
    if scores_a.measure != scores_b.measure:
        raise ValueError(
            f"paired test requires matching measures, got {scores_a.measure.name} "
            f"vs {scores_b.measure.name}"
        )
    common = scores_a.topics() & scores_b.topics()
    n = len(common)
    if n < 2:
        raise ValueError(f"paired test requires >= 2 common topics, got {n}")
    diffs = [scores_a.scores[t] - scores_b.scores[t] for t in common]
    # identical differences mean zero variance; detect exactly rather than
    # through the computed standard deviation, which carries summation noise
    first = diffs[0]
    if all(d == first for d in diffs):
        if first == 0.0:
            return 0.0, 1.0, n
        return math.copysign(math.inf, first), 0.0, n
    # t is scale-free, and a power-of-two scale is exact: with the largest
    # |difference| in [0.5, 1) the squared deviations of differences that
    # vary cannot all underflow, so sd > 0
    _, exponent = math.frexp(max(map(abs, diffs)))
    diffs = [math.ldexp(d, -exponent) for d in diffs]
    mean = math.fsum(diffs) / n
    sd = math.sqrt(math.fsum((d - mean) * (d - mean) for d in diffs) / (n - 1))
    t = mean / (sd / math.sqrt(n))
    p = t_two_sided_p(t, n - 1)
    return t, min(p, 1.0), n


def bonferroni(alpha: float, m: int) -> float:
    """Bonferroni-adjusted significance level alpha / m."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if m < 1:
        raise ValueError(f"family size must be >= 1, got {m}")
    return alpha / m


def compare(
    scores_a: PerTopicScores,
    scores_b: PerTopicScores,
    alpha: float = 0.05,
    family_size: int = 1,
) -> TestResult:
    """Run the paired test and decide significance at the corrected level."""
    t, p, n = paired_t_test(scores_a, scores_b)
    adjusted = bonferroni(alpha, family_size)
    return TestResult(t_statistic=t, p_value=p, adjusted_alpha=adjusted, n=n)

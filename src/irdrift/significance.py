"""Paired significance testing with multiple-comparison correction.

Per-topic score differences are tested with a two-sided paired t-test;
the Bonferroni correction divides the significance level by the size of
the comparison family. Pairing is only statistically sound when both
score sets were computed against the same qrels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import PerTopicScores


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # keep pytest from collecting this as a test class

    t_statistic: float
    p_value: float
    adjusted_alpha: float
    significant: bool
    n: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value must lie in [0, 1], got {self.p_value}")
        if not 0.0 < self.adjusted_alpha <= 1.0:
            raise ValueError(
                f"adjusted_alpha must lie in (0, 1], got {self.adjusted_alpha}"
            )
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.significant != (self.p_value < self.adjusted_alpha):
            raise ValueError("significant must equal p_value < adjusted_alpha")


def paired_t_test(
    scores_a: PerTopicScores, scores_b: PerTopicScores
) -> tuple[float, float, int]:
    """Two-sided paired t-test over the common topics' score differences.

    Returns (t statistic, p value, n). The p value comes from the t
    distribution with n-1 degrees of freedom. Degenerate zero-variance
    samples use the convention p = 0 for a nonzero mean difference and
    p = 1 otherwise.
    """
    if scores_a.measure != scores_b.measure:
        raise ValueError(
            f"paired test requires matching measures, got {scores_a.measure.name} "
            f"vs {scores_b.measure.name}"
        )
    common = sorted(scores_a.topics() & scores_b.topics())
    n = len(common)
    if n < 2:
        raise ValueError(f"paired test requires >= 2 common topics, got {n}")
    # imported here so that only callers of the test pay numpy's and
    # scipy's import time, the largest fixed cost of a CLI call
    import numpy as np
    from scipy import stats

    diffs = np.array(
        [scores_a.scores[t] - scores_b.scores[t] for t in common]
    )
    # identical differences mean zero variance; detect exactly rather than
    # through the computed standard deviation, which carries summation noise
    if np.all(diffs == diffs[0]):
        value = float(diffs[0])
        if value == 0.0:
            return 0.0, 1.0, n
        return math.copysign(math.inf, value), 0.0, n
    mean = float(np.mean(diffs))
    sd = float(np.std(diffs, ddof=1))
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(stats.t.sf(abs(t), df=n - 1))
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
    return TestResult(
        t_statistic=t,
        p_value=p,
        adjusted_alpha=adjusted,
        significant=p < adjusted,
        n=n,
    )

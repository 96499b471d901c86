"""The Student t tail, in the standard library only.

``t_two_sided_p`` evaluates the regularised incomplete beta function by
its continued fraction (Numerical Recipes, ``betai``/``betacf``, with
the modified Lentz method). Sums need no helper here: every mean and
score sum is ``math.fsum``, which is correctly rounded, so its bits
depend neither on the order of the values nor on the Python version.
"""

from __future__ import annotations

import math

_EPS = 1e-15  # the fraction stops once a step changes it by less than this
_TINY = 1e-300  # stands in for a zero denominator in Lentz's method
_MAX_ITERATIONS = 10_000  # df up to 10^6 needs at most ~60


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail P(|T| >= |t|) of Student's t with df degrees of freedom.

    This is I_x(df/2, 1/2) at x = df / (df + t^2). Where t^2 overflows
    (|t| > 1.3e154, far beyond any paired t statistic) the limit 0 is
    returned.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    x = df / (df + t2)
    y = t2 / (df + t2)  # 1 - x, without the cancellation of computing it so
    a, b = 0.5 * df, 0.5
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(y)
    )
    # the fraction converges fast on the side of the mean a / (a + b)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, modified Lentz."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}"
    )

"""Student-t quantiles for integer degrees of freedom.

The interval estimates (:mod:`repro.testbed.replication`,
:mod:`repro.testbed.batchmeans`) need ``t_{p, df}`` with
``df = n - 1``.  For integer ``df`` the two-sided CDF has a closed
form in ``theta = atan(t / sqrt(df))`` (Abramowitz & Stegun
26.7.3-4) that rises monotonically from 0 to 1 on ``[0, pi/2)``, so
bisection on ``theta`` finds the quantile to the last bit.
"""

from __future__ import annotations

import math

__all__ = ["t_quantile"]


def _two_sided_cdf(theta: float, df: int) -> float:
    """``P(|T| < sqrt(df) tan(theta))`` for ``T ~ t(df)``."""
    if df == 1:
        return 2.0 / math.pi * theta
    cos2 = math.cos(theta) ** 2
    # Both parities sum a finite series in powers of cos^2(theta).
    term = total = 1.0
    if df % 2:  # 26.7.3: coefficients 2/3, 2*4/(3*5), ...
        for k in range(1, (df - 1) // 2):
            term *= cos2 * (2 * k) / (2 * k + 1)
            total += term
        return 2.0 / math.pi * (
            theta + math.sin(theta) * math.cos(theta) * total)
    # 26.7.4: coefficients 1/2, 1*3/(2*4), ...
    for k in range(1, df // 2):
        term *= cos2 * (2 * k - 1) / (2 * k)
        total += term
    return math.sin(theta) * total


def t_quantile(p: float, df: int) -> float:
    """The ``p`` quantile of Student's t with ``df >= 1`` degrees of
    freedom (``0 < p < 1``)."""
    if df < 1 or not 0.0 < p < 1.0:
        raise ValueError(f"need df >= 1 and 0 < p < 1, got {df}, {p}")
    target = abs(2.0 * p - 1.0)
    lo, hi = 0.0, math.pi / 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _two_sided_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
    t = math.sqrt(df) * math.tan(lo)
    return t if p >= 0.5 else -t

"""The §V-B correlation study.

*"Of the 110,438 production jobs (jobs run in production queues that
completed successfully and ran for more than an hour) ... there is a
correlation coefficient of −0.11 between CPU_Usage and MDCReqs, one of
−0.20 between CPU_Usage and OSCReqs, and −0.19 between CPU_Usage and
LnetAveBW."*

The coefficients are Pearson correlations over the production-job
population; Lustre pressure costs wall time in the workload model, so
the negative sign and the |OSC| ≳ |Lnet| > |MDC| ordering emerge from
the same mechanism the paper identifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.db.queryset import QuerySet
from repro.pipeline.records import JobRecord

#: the metric pairs the paper reports, with its measured coefficients
PAPER_COEFFICIENTS: Tuple[Tuple[str, float], ...] = (
    ("MDCReqs", -0.11),
    ("OSCReqs", -0.20),
    ("LnetAveBW", -0.19),
)


def production_jobs(min_runtime: int = 3600) -> QuerySet:
    """The §V-B production-job filter: completed, production queue, >1 h."""
    return JobRecord.objects.filter(
        status="COMPLETED", queue="normal", run_time__gt=min_runtime
    )


@dataclass
class CorrelationResult:
    """One measured coefficient alongside the paper's value."""

    metric: str
    measured: float
    paper: float
    n_jobs: int
    p_value: float = float("nan")

    @property
    def sign_matches(self) -> bool:
        return np.sign(self.measured) == np.sign(self.paper)

    @property
    def significant(self) -> bool:
        """Statistically distinguishable from zero at the 1 % level.

        With the paper's population sizes (10⁵ jobs) even |r| ≈ 0.1 is
        overwhelmingly significant, which is why the paper can lean on
        such weak coefficients."""
        return self.p_value == self.p_value and self.p_value < 0.01


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation, NaN-safe."""
    return pearson_with_p(x, y)[0]


def pearson_with_p(x: np.ndarray, y: np.ndarray):
    """Pearson r and its two-sided p-value, NaN-safe.

    r is computed on centred columns scaled by their largest magnitude
    (so no square overflows), and the p-value is the t-test's: with
    ``df = n - 2`` degrees of freedom, ``P(|T| >= |t|)`` for
    ``t = r * sqrt(df / (1 - r**2))`` is the regularised incomplete beta
    ``I(df / (df + t**2); df/2, 1/2) = I(1 - r**2; df/2, 1/2)``.
    """
    ok = ~(np.isnan(x) | np.isnan(y))
    x, y = x[ok], y[ok]
    if len(x) < 3 or np.std(x) == 0 or np.std(y) == 0:
        return float("nan"), float("nan")
    xm, ym = x - x.mean(), y - y.mean()
    xm /= np.abs(xm).max()
    ym /= np.abs(ym).max()
    r = float(np.dot(xm / np.linalg.norm(xm), ym / np.linalg.norm(ym)))
    r = max(-1.0, min(1.0, r))
    return r, betainc((len(x) - 2) / 2.0, 0.5, 1.0 - r * r)


def betainc(a: float, b: float, x: float) -> float:
    """The regularised incomplete beta function ``I_x(a, b)``.

    Lentz's evaluation of its continued fraction, which converges fast
    for ``x < (a + 1) / (a + b + 2)``; above that the symmetry
    ``I_x(a, b) = 1 - I_{1-x}(b, a)`` brings ``x`` under it.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - betainc(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            step = 1.0
        elif i % 2:
            step = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            step = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + step * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + step / (c if abs(c) > tiny else tiny)
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            break
    return front * (f - 1.0)


def correlation_study(
    target: str = "CPU_Usage",
    against: Sequence[Tuple[str, float]] = PAPER_COEFFICIENTS,
    min_runtime: int = 3600,
) -> List[CorrelationResult]:
    """Reproduce the §V-B table of coefficients over production jobs."""
    fields = [target] + [m for m, _ in against]
    rows = production_jobs(min_runtime).values(*fields)
    if not rows:
        return [
            CorrelationResult(metric=m, measured=float("nan"), paper=c, n_jobs=0)
            for m, c in against
        ]
    cols = {
        f: np.array([r[f] if r[f] is not None else np.nan for r in rows])
        for f in fields
    }
    out = []
    for metric, paper_c in against:
        r, p = pearson_with_p(cols[target], cols[metric])
        out.append(
            CorrelationResult(
                metric=metric,
                measured=r,
                paper=paper_c,
                n_jobs=len(rows),
                p_value=p,
            )
        )
    return out

"""Co-evolution analyses across a snapshot sequence.

Four attachment-logic proxies are tracked per period, read off that period's
metrics row and power-law fit: the degree-distribution exponent (preferential
attachment), the degree correlation over edges (homophily), mean actor
strength (embedding), and mean neighbor degree (multi-connectivity). Their
correlation with network centralization ranks which logic drives topology
change; a static-attribute scan finds measures that barely move while the
network grows; and the four-part small-world test (low density, high
clustering, small diameter, scale-free fit) turns a metrics row into a
verdict.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional, Sequence

from .errors import UndefinedMetricError
from .graph_core import _rebuild
from .metrics import CENTRALIZATION_KINDS, MetricsRow
from .powerlaw import PowerLawFit

PROXY_NAMES = ("embedding", "homophily", "multi_connectivity", "pref_attachment")

# Series shorter than this always correlate with Spearman: parametric
# normality testing is meaningless at the period counts involved.
SMALL_SAMPLE_CUTOFF = 20


class ProxyRow(NamedTuple):
    """The four attachment-logic proxy values for one snapshot."""

    label: str
    pref_attachment: Optional[float]
    homophily: Optional[float]
    embedding: Optional[float]
    multi_connectivity: Optional[float]


class CorrelationPair(NamedTuple):
    """One (proxy, centralization kind) correlation result."""

    proxy: str
    centralization: str
    coefficient: Optional[float]
    method: Optional[str]
    n: int
    status: str  # "ok" | "insufficient-data" | "undefined-metric"


class CorrelationReport(NamedTuple):
    """All proxy-vs-centralization correlations plus the driver ranking.

    `ranked_drivers` orders proxies by |coefficient| against degree
    centralization (the headline kind), ties broken alphabetically.
    """

    pairs: tuple[CorrelationPair, ...]
    ranked_drivers: tuple[str, ...]


class StaticCheck(NamedTuple):
    """Whether one metric stayed (almost) constant across the periods."""

    metric: str
    static: bool
    spread: float
    mean: float


class SmallWorldThresholds(NamedTuple):
    """Configurable cutoffs for the four small-world flags."""

    density_max: float = 0.05
    clustering_min: float = 0.3
    clustering_random_factor: float = 3.0
    diameter_log_factor: float = 2.0
    r_squared_min: float = 0.6
    exponent_min: float = 1.0


class _VerdictFields(NamedTuple):
    label: str
    density_low: Optional[bool]
    clustering_high: Optional[bool]
    diameter_small: Optional[bool]
    scale_free: Optional[bool]
    verdict: Optional[bool]


class SmallWorldVerdict(_VerdictFields):
    """The four small-world flags and the overall `verdict`, a field set at
    construction: None if any flag is None (an undefined input), else
    whether all four hold. `_make`, `_replace`, pickle and copy derive it
    again from the flags."""

    __slots__ = ()

    def __new__(cls, label: str, density_low, clustering_high, diameter_small, scale_free):
        flags = (density_low, clustering_high, diameter_small, scale_free)
        return super().__new__(cls, label, *flags, None if None in flags else all(flags))

    @classmethod
    def _make(cls, iterable):
        label, *flags, _ = iterable  # the verdict is derived again
        return cls(label, *flags)

    __reduce__ = _rebuild


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation coefficient in [-1, 1].

    Requires equal lengths >= 3, finite values (NaN or an infinity raises
    ValueError) and nonzero variance on both sides.
    """
    if len(x) != len(y):
        raise ValueError(f"series lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 paired observations")
    if not all(map(math.isfinite, (*x, *y))):
        raise ValueError("correlation needs finite values")
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((v - mx) ** 2 for v in x)
    syy = math.fsum((v - my) ** 2 for v in y)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedMetricError("correlation is undefined for a constant series")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their positions."""
    ordered = sorted(values)
    return [(bisect_left(ordered, v) + bisect_right(ordered, v) + 1) / 2.0 for v in values]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: Pearson on average ranks (ties get mean rank).

    Invariant under strictly monotone transforms of either input; undefined
    when either series is constant. NaN has no rank and raises ValueError;
    an infinity ranks like any other value.
    """
    if any(map(math.isnan, (*x, *y))):
        raise ValueError("rank correlation needs values that are not NaN")
    return pearson(_average_ranks(x), _average_ranks(y))


def normality_gate(x: Sequence[float]) -> str:
    """Pick the correlation method for a series: "pearson" or "spearman".

    Short series (< 20 points) always get Spearman. Longer series get
    Pearson unless the joint skewness/kurtosis normality test rejects at
    the 5% level.
    """
    if len(x) < 3:
        raise ValueError("need at least 3 observations")
    if len(x) < SMALL_SAMPLE_CUTOFF:
        return "spearman"
    return "spearman" if _normaltest_pvalue(x) < 0.05 else "pearson"


def _normaltest_pvalue(x: Sequence[float]) -> float:
    """D'Agostino-Pearson K^2 omnibus normality test; returns the p-value.

    K^2 adds the squared skewness z-score (D'Agostino 1970) and kurtosis
    z-score (Anscombe & Glynn 1983); under normality it is chi-squared with
    two degrees of freedom, whose survival function is exp(-K^2/2). Needs
    n >= 8; NaN when the series has (numerically) no spread, which never
    counts as a rejection.
    """
    n = len(x)
    if n < 8:
        raise ValueError("the normality test needs at least 8 observations")
    mean = math.fsum(x) / n
    m2, m3, m4 = (math.fsum((v - mean) ** k for v in x) / n for k in (2, 3, 4))
    # a spread whose square underflows is none: m2**1.5 and m2 * m2 divide below
    if m2 <= (sys.float_info.epsilon * mean) ** 2 or m2 * m2 == 0.0:
        return math.nan
    # skewness z-score
    y = m3 / m2**1.5 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = 3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3) / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    y = (y or 1.0) / alpha
    z_skew = math.log(y + math.sqrt(y * y + 1.0)) / math.sqrt(0.5 * math.log(w2))
    # kurtosis z-score
    expected = 3.0 * (n - 1) / (n + 1)
    variance = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1.0) * (n + 3) * (n + 5))
    k = (m4 / (m2 * m2) - expected) / math.sqrt(variance)
    root_beta1 = (
        6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
        * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3)))
    )
    a = 6.0 + 8.0 / root_beta1 * (2.0 / root_beta1 + math.sqrt(1.0 + 4.0 / root_beta1**2))
    denom = 1.0 + k * math.sqrt(2.0 / (a - 4.0))
    if denom == 0.0:
        return math.nan
    tail = math.copysign(((1.0 - 2.0 / a) / abs(denom)) ** (1.0 / 3.0), denom)
    z_kurt = (1.0 - 2.0 / (9.0 * a) - tail) / math.sqrt(2.0 / (9.0 * a))
    return math.exp(-(z_skew * z_skew + z_kurt * z_kurt) / 2.0)


def proxy_series(
    rows: Sequence[MetricsRow], fits: Sequence[Optional[PowerLawFit]]
) -> list[ProxyRow]:
    """One ProxyRow per period from its metrics row and power-law fit.

    A proxy is None where its source is undefined: no fit (degenerate
    histogram), zero degree variance, or no links at all.
    """
    if not rows:
        raise ValueError("need at least one period")
    return [
        ProxyRow(
            row.label,
            None if fit is None else fit.exponent,
            row.assortativity,
            row.avg_strength,
            row.avg_neighbor_degree,
        )
        for row, fit in zip(rows, fits, strict=True)
    ]


def _correlate(proxy: str, kind: str, defined: Sequence[tuple[float, float]]) -> CorrelationPair:
    """The correlation of one proxy with one centralization kind over the
    periods where both are `defined`, as (proxy, centralization) values."""
    n = len(defined)
    if n < 3:
        return CorrelationPair(proxy, kind, None, None, n, "insufficient-data")
    xs, ys = zip(*defined)
    method = "spearman" if "spearman" in (normality_gate(xs), normality_gate(ys)) else "pearson"
    try:
        coefficient = (spearman if method == "spearman" else pearson)(xs, ys)
    except UndefinedMetricError:
        return CorrelationPair(proxy, kind, None, method, n, "undefined-metric")
    return CorrelationPair(proxy, kind, coefficient, method, n, "ok")


def correlate_attachment(
    proxies: Sequence[ProxyRow], rows: Sequence[MetricsRow]
) -> CorrelationReport:
    """Correlate each proxy series against each centralization series.

    Periods where either value is undefined are dropped per pair; pairs with
    fewer than 3 usable periods are marked insufficient-data and excluded
    from the ranking, as are pairs where either series is constant. The
    method (Pearson or Spearman) is gated per pair on both series and
    recorded in the result.
    """
    if [p.label for p in proxies] != [r.label for r in rows]:
        raise ValueError("proxy and metrics rows must align by period label")
    pairs = []
    for proxy in PROXY_NAMES:
        xs = [getattr(p, proxy) for p in proxies]
        for kind in CENTRALIZATION_KINDS:
            ys = [getattr(r, f"centralization_{kind}") for r in rows]
            defined = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
            pairs.append(_correlate(proxy, kind, defined))
    ranked = sorted(
        (p for p in pairs if p.status == "ok" and p.centralization == "degree"),
        key=lambda p: (-abs(p.coefficient), p.proxy),
    )
    return CorrelationReport(tuple(pairs), tuple(p.proxy for p in ranked))


_EPSILON = 1e-9


def static_attributes(
    rows: Sequence[MetricsRow],
    rel_tolerance: float = 0.10,
    fits: Optional[Sequence[Optional[PowerLawFit]]] = None,
) -> list[StaticCheck]:
    """Flag metrics whose range stays within rel_tolerance of their mean.

    A metric is static when (max - min) <= rel_tolerance * max(|mean|, eps).
    Evaluated for clustering, both densities, diameter, average distance,
    and (when fits are supplied) the power-law exponent. Metrics with fewer
    than two defined values are skipped.
    """
    if len(rows) < 2:
        raise ValueError("need at least two periods")
    if not 0.0 < rel_tolerance <= 1.0:
        raise ValueError("rel_tolerance must be in (0, 1]")
    series: dict[str, list[Optional[float]]] = {
        "clustering": [r.clustering for r in rows],
        "density_weighted": [r.density_weighted for r in rows],
        "density_simple": [r.density_simple for r in rows],
        "diameter": [None if r.diameter is None else float(r.diameter) for r in rows],
        "avg_distance": [r.avg_distance for r in rows],
    }
    if fits is not None:
        series["power_law_exponent"] = [
            None if f is None else f.exponent for f in fits
        ]
    checks = []
    for name, values in series.items():
        defined = [v for v in values if v is not None]
        if len(defined) < 2:
            continue
        spread = max(defined) - min(defined)
        mean = math.fsum(defined) / len(defined)
        static = spread <= rel_tolerance * max(abs(mean), _EPSILON)
        checks.append(StaticCheck(name, static, spread, mean))
    return checks


def classify_small_world(
    row: MetricsRow,
    fit: Optional[PowerLawFit],
    thresholds: Optional[SmallWorldThresholds] = None,
) -> SmallWorldVerdict:
    """Evaluate the four small-world flags for one period, with N actors, L
    links and average degree k = 2L/N.

    density_low: density_simple < density_max. clustering_high: clustering
    >= clustering_min AND clustering >= clustering_random_factor *
    density_simple, a multiple of the value a random graph of the same
    density would show. diameter_small: diameter <= ceil(diameter_log_factor
    * ln(N) / ln(max(k, 2))). scale_free: r_squared >= r_squared_min AND
    exponent >= exponent_min. Undefined inputs leave the affected flag (and
    the verdict) as None.
    """
    t = thresholds or SmallWorldThresholds()
    if row.density_simple is None:
        density_low = None
    else:
        density_low = row.density_simple < t.density_max
    if row.clustering is None or row.density_simple is None:
        clustering_high = None
    else:
        clustering_high = (
            row.clustering >= t.clustering_min
            and row.clustering >= t.clustering_random_factor * row.density_simple
        )
    if row.diameter is None or row.n_actors < 2:
        diameter_small = None
    else:
        avg_degree = 2.0 * row.n_links / row.n_actors
        bound = math.ceil(
            t.diameter_log_factor
            * math.log(row.n_actors)
            / math.log(max(avg_degree, 2.0))
        )
        diameter_small = row.diameter <= bound
    if fit is None:
        scale_free = None
    else:
        scale_free = fit.r_squared >= t.r_squared_min and fit.exponent >= t.exponent_min
    return SmallWorldVerdict(
        row.label, density_low, clustering_high, diameter_small, scale_free
    )

"""Power-law fitting of degree distributions.

The exponent is the negated slope of an ordinary least-squares line through
the (log10 degree, log10 frequency) scatter of occupied degrees. Raw,
unbinned frequency points only: degree 0 and empty bins are excluded (their
log is undefined) and no pseudocounts are added. Logarithmic binning and
maximum-likelihood estimation are deliberately out of scope.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .errors import InsufficientDataError


class PowerLawFit(NamedTuple):
    """Least-squares line through the log-log degree/frequency points.

    `exponent` is the negated slope (so a frequency proportional to
    k**-2 fits with exponent 2.0); `intercept` lives in log10 space;
    `r_squared` is the coefficient of determination in [0, 1].
    """

    exponent: float
    intercept: float
    r_squared: float
    n_points: int


def loglog_points(hist: Mapping[int, float]) -> list[tuple[float, float]]:
    """(log10 k, log10 count) for each degree k >= 1 with count >= 1.

    Points come out sorted by degree. Fewer than two usable points cannot
    anchor a line and raise InsufficientDataError.
    """
    points = [
        (math.log10(k), math.log10(c))
        for k, c in sorted(hist.items())
        if k >= 1 and c >= 1
    ]
    if len(points) < 2:
        raise InsufficientDataError(
            f"need at least 2 log-log points, have {len(points)}"
        )
    return points


def fit_powerlaw(hist: Mapping[int, float]) -> PowerLawFit:
    """Ordinary least squares on the log-log points of a degree histogram.

    A perfectly flat histogram fits a horizontal line (exponent 0.0, never
    -0.0) with r_squared 1; downstream classification treats a near-zero
    exponent as non-scale-free. r_squared is clamped at 0, since rounding can
    put a fit that explains nothing a hair below it. Deterministic and
    insensitive to input ordering.
    """
    points = loglog_points(hist)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    n = len(points)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise InsufficientDataError("all usable degrees are equal")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    if syy == 0.0:
        r_squared = 1.0
    else:
        ss_res = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
        r_squared = max(0.0, 1.0 - ss_res / syy)
    return PowerLawFit(0.0 - slope, intercept, r_squared, n)  # -slope would give -0.0

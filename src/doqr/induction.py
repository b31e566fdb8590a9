"""Depth-Outlyingness-Quantile-Rank functions induced from 2-D halfspace
depth contours.

Levels are counts: the depths attained on n points are k / n, so the functions
compare the cached integer sample counts c_i, and a user level a selects the
c_i >= k for the smallest k with k / n >= a - 1e-12.  The empirical central
region at level a is the convex hull of those points; its probability weight p
is their fraction, the same set as the sample points in the
closed hull because regions are convex (counted, not hull-tested with a
tolerance, so float-collinear data get exact weights).  The rank of a query
x is u = p * v, where p is the weight of the region at x's own count
and v is the unit direction toward x from the Tukey median M.  The quantile
map inverts this along rays from M by bisection on the (nondecreasing,
stepwise) weight profile.  Outlyingness is ||u|| and depth is recovered as
1/(1+O), so all four functions share one contour system.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .data import Dataset, as_point
from .halfspace import (
    _min_halfplane_counts,
    _require_dim,
    _self_depths,
    convex_hull,
    tukey_median,
)

_LEVEL_EPS = 1e-12  # slack for comparing a user-given level with attained ones (spacing 1/n)
_RANK_CAP = 1.0 - 1e-9


class EmptyRegionError(ValueError):
    """No sample point attains the requested depth level."""


@dataclass(frozen=True)
class CentralRegion:
    """Convex central region {x : depth(x) >= level} of a 2-D sample."""

    level: float
    vertices: np.ndarray  # counterclockwise hull vertices, shape (k, 2)
    weight: float  # fraction of sample points in the closed region

    def __post_init__(self):
        self.vertices.setflags(write=False)


@dataclass(frozen=True)
class RankVector:
    """Quantile index u = p * v of a query point."""

    u: np.ndarray
    p: float  # weight of the central region at the query's depth level
    v: np.ndarray  # unit direction from the Tukey median (zero at the median)

    def __post_init__(self):
        self.u.setflags(write=False)
        self.v.setflags(write=False)


def _level_count(alpha: float, n: int) -> int:
    """Smallest count k in [0, n + 1] with k / n >= alpha - _LEVEL_EPS, for a
    user-given level alpha (not NaN): a count c reaches alpha iff c >= k."""
    return bisect.bisect_left(range(n + 1), alpha - _LEVEL_EPS, key=lambda k: k / n)


def _members(ds: Dataset, alpha: float) -> np.ndarray:
    """Mask of the sample points with depth >= alpha, a user-given level."""
    mask = _self_depths(ds)[1] >= _level_count(alpha, ds.n)
    if not mask.any():
        raise EmptyRegionError(f"no sample point has depth >= {alpha}")
    return mask


def central_region(ds: Dataset, alpha: float) -> CentralRegion:
    """Empirical central region at depth level alpha.

    Raises EmptyRegionError when no sample point attains the level (alpha may
    legitimately exceed every sample point's depth while staying below the
    maximal depth, which is attained off the sample).
    """
    _require_dim(ds, 2, "central_region")
    alpha = float(alpha)
    top = _self_depths(ds)[3]  # the Tukey median's count
    if not (0.0 < alpha and top >= _level_count(alpha, ds.n)):
        raise ValueError(f"level must lie in (0, max_depth={top / ds.n}], got {alpha}")
    members = _members(ds, alpha)
    return CentralRegion(alpha, convex_hull(ds.data[members]), int(members.sum()) / ds.n)


def _weight_at(ds: Dataset, y: np.ndarray) -> float:
    """Weight of the region at y's count, #{i : c_i >= min(c, c_max)} / n with
    c = count(y) and c_max the largest sample count: 1 outside every region, the
    deepest sample region's weight where no c_i reaches c."""
    counts = _self_depths(ds)[1]
    c = int(_min_halfplane_counts(ds.data, y[None, :])[0])
    return np.count_nonzero(counts >= min(c, counts.max())) / ds.n


def rank_function(ds: Dataset, x) -> RankVector:
    """Centered rank u = p * v of a query point, with ||u|| <= 1 - 1e-9."""
    _require_dim(ds, 2, "rank_function")
    x = as_point(x, 2)
    m, _ = tukey_median(ds)
    if x[0] == m[0] and x[1] == m[1]:
        zero = np.zeros(2)
        return RankVector(zero, 0.0, zero.copy())
    diff = x - m
    v = diff / np.linalg.norm(diff)
    p = min(_weight_at(ds, x), _RANK_CAP)
    return RankVector(p * v, p, v)


def outlyingness(ds: Dataset, x) -> float:
    """DOQR outlyingness ||rank(x)||, in [0, 1)."""
    return rank_function(ds, x).p


def doqr_depth(ds: Dataset, x) -> float:
    """Depth recovered from outlyingness via 1 / (1 + O); lies in (0, 1]."""
    return 1.0 / (1.0 + outlyingness(ds, x))


def sign_test(ds: Dataset, theta0) -> tuple[RankVector, float]:
    """Sample rank at a hypothesized center and its norm as test statistic."""
    rv = rank_function(ds, theta0)
    return rv, rv.p


def quantile_function(ds: Dataset, u) -> np.ndarray:
    """Point whose central-region weight first reaches ||u|| along the ray
    from the Tukey median in direction u; requires ||u|| < 1.

    The weight profile along the ray is a nondecreasing step function, so the
    crossing is located by bisection; the search stops when the weight is
    within 1/n of the target or the bracket is below 1e-6 of the ray length.
    """
    _require_dim(ds, 2, "quantile_function")
    u = as_point(u, 2)
    nu = float(np.linalg.norm(u))
    if nu >= 1.0:
        raise ValueError(f"quantile index must satisfy ||u|| < 1, got {nu}")
    m, _ = tukey_median(ds)
    if nu == 0.0:
        return m.copy()
    v = u / nu
    counts = _self_depths(ds)[1]  # m's weight, no sweep: its count is never below a c_i
    if np.count_nonzero(counts == counts.max()) / ds.n >= nu:  # as when every point is m
        return m.copy()
    t_max = 2.0 * float(np.max(np.linalg.norm(ds.data - m, axis=1)))
    lo, hi = 0.0, t_max
    while hi - lo > 1e-6 * t_max:
        mid = 0.5 * (lo + hi)
        w = _weight_at(ds, m + mid * v)
        if abs(w - nu) <= 1.0 / ds.n:
            return m + mid * v
        if w >= nu:
            hi = mid
        else:
            lo = mid
    return m + 0.5 * (lo + hi) * v


def trimmed_mean(ds: Dataset, alpha: float) -> np.ndarray:
    """Coordinatewise mean of the sample points with depth >= alpha."""
    _require_dim(ds, 2, "trimmed_mean")
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError(f"trim level must be positive, got {alpha}")
    return ds.data[_members(ds, alpha)].mean(axis=0)


def contour_polyline(ds: Dataset, alpha: float) -> np.ndarray:
    """CCW vertex list of the depth contour at level alpha (hull boundary)."""
    return central_region(ds, alpha).vertices

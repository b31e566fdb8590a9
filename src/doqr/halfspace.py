"""Halfspace (Tukey) depth: exact 1-D/2-D evaluation, direction-sampled
approximation for any dimension, and deepest-point search.

Conventions, fixed across the module:

* Halfplanes are closed.  A sample point coincident with the query point lies
  in every halfplane through the query, so it always counts.
* Depth values are exact integer counts divided by n; the 2-D algorithms
  manipulate counts, not floating depth values, until the final division.

The exact 2-D evaluator sorts the angles of the sample points around the
query and sweeps a closed halfplane.  A closed halfplane through the query
covers a closed semicircle of point angles, so the minimal closed count
equals n' minus the maximal number of angles inside an open semicircle, and
the maximizing open semicircle can be anchored just below one of the point
angles: max over i of #{j : angle_j in [angle_i, angle_i + pi)}.  With the
angles sorted, one vectorized pass of binary searches evaluates all anchors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import Dataset, SeedSpec, as_point

_TWO_PI = 2.0 * np.pi
# Padding value for angle slots of points coincident with the query.  It must
# exceed every semicircle bound (< 3*pi) and stay below the per-row offset
# used to emulate row-wise searchsorted on flattened arrays.
_SENTINEL = 10.0
_ROW_OFFSET = 16.0
_CHUNK_BUDGET = 800_000  # floats per work chunk in the batch kernel
# Angular resolution: angle separations within this of exactly pi are treated
# as exactly antipodal.  Queries constructed from the data (midpoints, line
# intersections) yield difference vectors that are antipodal/collinear up to
# rounding; the ideal coincidences reappear as ~1e-16 rad slivers where
# halfplane membership is float noise.  Snapping below 1e-9 rad restores the
# ideal-configuration count while leaving genuine configurations (angle gaps
# >= ~1e-8 rad even at n = 20000 random points) untouched.
_GAP_EPS = 1e-9

_ENUM_LIMIT = 60      # up to this n the deepest point is found by enumeration
_SEARCH_SEED = 710517  # fixed seed for the multi-start search fallback


@dataclass(frozen=True)
class DepthConfig:
    """Approximation budget and random source for sampled-direction methods."""

    n_directions: int = 1000
    seed: SeedSpec = SeedSpec(0)

    def __post_init__(self):
        if self.n_directions < 1:
            raise ValueError("n_directions must be >= 1")
        if not isinstance(self.seed, SeedSpec):
            raise TypeError("seed must be a SeedSpec")

    def directions(self, d: int) -> np.ndarray:
        """The (n_directions, d) unit directions, from substream 0 of the seed."""
        return unit_directions(self.seed.generator(0), self.n_directions, d)


def unit_directions(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """Draw k unit vectors in R^d, uniform on the sphere (normalized Gaussians).

    Drawing k+1 directions from a fresh generator reproduces the first k
    exactly, so direction sequences are nested across budgets.
    """
    v = rng.standard_normal((k, d))
    norms = np.linalg.norm(v, axis=1)
    bad = norms < 1e-12
    if np.any(bad):
        v[bad] = 0.0
        v[bad, 0] = 1.0
        norms[bad] = 1.0
    return v / norms[:, None]


def project(points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(m, k) projections of m points on k directions, summed coordinate by
    coordinate rather than by matmul, so that a row's rounding does not depend
    on the other rows: a point projects bit-identically alone and in a sample.
    """
    acc = np.multiply.outer(points[:, 0], u[:, 0])
    for k in range(1, points.shape[1]):
        acc += np.multiply.outer(points[:, k], u[:, k])
    return acc


def approx_counts(data: np.ndarray, queries: np.ndarray, cfg: DepthConfig) -> np.ndarray:
    """Per query, the min over the config's directions of the smaller closed
    tail count.  A sample point counts in both its own tails, so at least 1."""
    u = cfg.directions(data.shape[1])
    proj = project(data, u)  # (n, k)
    out = np.empty(queries.shape[0], dtype=np.int64)
    chunk = max(1, _CHUNK_BUDGET // proj.size)
    for s in range(0, queries.shape[0], chunk):
        t = project(queries[s : s + chunk], u)[:, None, :]
        le = np.count_nonzero(proj <= t, axis=1)
        ge = np.count_nonzero(proj >= t, axis=1)
        out[s : s + chunk] = np.minimum(le, ge).min(axis=1)
    return out


def _require_dim(ds: Dataset, d: int, op: str) -> None:
    if ds.d != d:
        raise ValueError(f"{op} requires d = {d}, got d = {ds.d}")


def depth_1d(ds: Dataset, x: float) -> float:
    """Univariate halfspace depth: min of the two closed tail fractions at x."""
    _require_dim(ds, 1, "depth_1d")
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("query must be finite")
    v = ds.data[:, 0]
    le = int(np.count_nonzero(v <= x))
    ge = int(np.count_nonzero(v >= x))
    return min(le, ge) / ds.n


def _min_halfplane_counts(data: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact min closed-halfplane counts (depth * n) for many 2-D queries."""
    n = data.shape[0]
    m = queries.shape[0]
    out = np.empty(m, dtype=np.int64)
    chunk = max(1, _CHUNK_BUDGET // max(n, 1))
    for s in range(0, m, chunk):
        out[s : s + chunk] = _counts_chunk(data, queries[s : s + chunk])
    return out


def _counts_chunk(data: np.ndarray, queries: np.ndarray) -> np.ndarray:
    c, n = queries.shape[0], data.shape[0]
    w = data[None, :, :] - queries[:, None, :]  # (c, n, 2)
    coincident = (w[:, :, 0] == 0.0) & (w[:, :, 1] == 0.0)
    m0 = coincident.sum(axis=1)
    nprime = n - m0  # valid (noncoincident) points per row

    alpha = np.arctan2(w[:, :, 1], w[:, :, 0])
    alpha = np.mod(alpha, _TWO_PI)
    alpha[alpha >= _TWO_PI] = 0.0
    alpha[coincident] = _SENTINEL
    alpha.sort(axis=1)  # valid angles first, sentinels last

    # For each anchor i, count angles in the half-open semicircle
    # [alpha_i, alpha_i + pi), split into the linear part [alpha_i, b) and
    # the wrapped part [0, b - 2*pi).  Angles within _GAP_EPS of exactly
    # pi away count as antipodal and fall outside the open semicircle.
    # Row-wise searchsorted runs as one flattened call: row r is shifted by
    # r * _ROW_OFFSET, which exceeds every bound (< 3*pi) and the sentinel.
    base = _ROW_OFFSET * np.arange(c)
    flat_alpha = (alpha + base[:, None]).ravel()
    bound = alpha + (np.pi - _GAP_EPS)
    hi = np.searchsorted(flat_alpha, (bound + base[:, None]).ravel(), side="left")
    wrap = np.searchsorted(
        flat_alpha, (bound - _TWO_PI + base[:, None]).ravel(), side="left"
    )
    row_start = np.repeat(np.arange(c) * n, n)
    col = np.tile(np.arange(n), c)
    semi = (hi - row_start - col) + (wrap - row_start)
    semi = semi.reshape(c, n)
    semi[~(np.arange(n)[None, :] < nprime[:, None])] = 0  # sentinel anchors
    return m0 + (nprime - semi.max(axis=1))


def depth_2d_exact(ds: Dataset, x) -> float:
    """Exact bivariate halfspace depth by the angular sweep (O(n log n))."""
    _require_dim(ds, 2, "depth_2d_exact")
    x = as_point(x, 2)
    return int(_min_halfplane_counts(ds.data, x[None, :])[0]) / ds.n


def depth_approx(ds: Dataset, x, cfg: DepthConfig) -> float:
    """Approximate depth from above: min 1-D depth over sampled directions.

    Directions are normalized Gaussian vectors from substream 0 of the
    config's seed, so results are reproducible and nested in the budget.
    """
    x = as_point(x, ds.d)
    return int(approx_counts(ds.data, x[None, :], cfg)[0]) / ds.n


def _line_intersections(pts: np.ndarray) -> np.ndarray:
    """Pairwise intersection points of all lines through data-point pairs."""
    n = pts.shape[0]
    ia, ib = np.triu_indices(n, k=1)
    a = pts[ia]
    d = pts[ib] - pts[ia]  # line k: a[k] + t * d[k]
    m = a.shape[0]
    if m < 2:
        return np.empty((0, 2))
    ka, kb = np.triu_indices(m, k=1)
    denom = d[ka, 0] * d[kb, 1] - d[ka, 1] * d[kb, 0]
    ok = np.abs(denom) > 1e-12
    ka, kb, denom = ka[ok], kb[ok], denom[ok]
    rel = a[kb] - a[ka]
    t = (rel[:, 0] * d[kb, 1] - rel[:, 1] * d[kb, 0]) / denom
    return a[ka] + t[:, None] * d[ka]


def _tie_break_best(cands: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, int]:
    # highest count, then smallest norm, then lexicographic coordinates
    norm2 = cands[:, 0] ** 2 + cands[:, 1] ** 2
    order = np.lexsort((cands[:, 1], cands[:, 0], norm2, -counts))
    best = order[0]
    return cands[best].copy(), int(counts[best])


def _enumeration_candidates(pts: np.ndarray) -> np.ndarray:
    n = pts.shape[0]
    ia, ib = np.triu_indices(n, k=1)
    mids = 0.5 * (pts[ia] + pts[ib])
    inter = _line_intersections(pts)
    cands = np.concatenate([pts, mids, inter], axis=0)
    # the deepest point lies in the convex hull, hence in the bounding box
    lo = pts.min(axis=0) - 1e-12
    hi = pts.max(axis=0) + 1e-12
    keep = np.all((cands >= lo) & (cands <= hi), axis=1)
    cands = cands[keep]
    cands = cands[np.all(np.isfinite(cands), axis=1)]
    return np.unique(cands, axis=0)


_SEARCH_OFFSETS = np.array(
    [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]],
    dtype=float,
)


def _search_pool(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multi-start pattern search on a shrinking grid; returns all evaluations.

    Bounded iteration budget: each pass either moves every improvable start
    to its best compass neighbour or halves the step; improvement passes per
    step scale are capped so large samples (depth increments of 1/n) cannot
    stall the shrinkage.
    """
    rng = np.random.default_rng(_SEARCH_SEED)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    cmed = np.array([np.median(pts[:, 0]), np.median(pts[:, 1])])
    near = pts[np.argsort(((pts - cmed) ** 2).sum(axis=1))[:8]]
    starts = np.concatenate(
        [cmed[None, :], pts.mean(axis=0)[None, :], near, lo + rng.random((8, 2)) * (hi - lo)]
    )
    if span == 0.0:
        return starts[:1], _min_halfplane_counts(pts, starts[:1])
    pool_pts = [starts.copy()]
    cur = starts
    cur_counts = _min_halfplane_counts(pts, cur)
    pool_counts = [cur_counts.copy()]
    h = span / 4.0
    moves_at_scale = 0
    for _ in range(64):
        if h <= 1e-7 * span:
            break
        trial = (cur[:, None, :] + h * _SEARCH_OFFSETS[None, :, :]).reshape(-1, 2)
        tc = _min_halfplane_counts(pts, trial).reshape(cur.shape[0], 8)
        pool_pts.append(trial)
        pool_counts.append(tc.ravel())
        best = tc.max(axis=1)
        improved = best > cur_counts
        if np.any(improved) and moves_at_scale < 8:
            pick = tc.argmax(axis=1)
            cur = np.where(improved[:, None], cur + h * _SEARCH_OFFSETS[pick], cur)
            cur_counts = np.maximum(cur_counts, best)
            moves_at_scale += 1
        else:
            h *= 0.5
            moves_at_scale = 0
    return np.concatenate(pool_pts), np.concatenate(pool_counts)


@functools.lru_cache(maxsize=64)
def _tukey_median_cached(ds: Dataset) -> tuple[tuple[float, float], int]:
    pts = ds.data
    if ds.n <= _ENUM_LIMIT:
        cands = _enumeration_candidates(pts)
        counts = _min_halfplane_counts(pts, cands)
    else:
        cands, counts = _search_pool(pts)
    best_pt, best_cnt = _tie_break_best(cands, counts)
    return (float(best_pt[0]), float(best_pt[1])), best_cnt


def tukey_median(ds: Dataset) -> tuple[np.ndarray, float]:
    """A maximizer of exact 2-D depth, with its depth.

    For n <= 60 the candidate set (data points, pairwise midpoints, and all
    intersection points of lines through data pairs) is enumerated; depth is
    piecewise constant on that line arrangement, so the enumeration is exact.
    Beyond that a deterministic seeded multi-start pattern search on a
    shrinking grid is used.  Ties break toward the smallest Euclidean norm,
    then lexicographic coordinates.
    """
    _require_dim(ds, 2, "tukey_median")
    (px, py), cnt = _tukey_median_cached(ds)
    return np.array([px, py]), cnt / ds.n


def max_depth(ds: Dataset) -> float:
    """Maximal attained halfspace depth (the Tukey median's depth)."""
    return tukey_median(ds)[1]


@functools.lru_cache(maxsize=64)
def _sample_depths_cached(ds: Dataset) -> np.ndarray:
    counts = _min_halfplane_counts(ds.data, ds.data)
    depths = counts / ds.n
    depths.setflags(write=False)
    return depths


def sample_depths(ds: Dataset) -> np.ndarray:
    """Exact depth of every sample point w.r.t. the full sample (cached, d=2)."""
    _require_dim(ds, 2, "sample_depths")
    return _sample_depths_cached(ds)

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
_CHUNK_BUDGET = 800_000  # array elements per work chunk in the batch kernels
# Angular resolution: angle separations within this of exactly pi are treated
# as exactly antipodal.  Queries constructed from the data (midpoints, line
# intersections) yield difference vectors that are antipodal/collinear up to
# rounding; the ideal coincidences reappear as ~1e-16 rad slivers where
# halfplane membership is float noise.  Snapping below 1e-9 rad restores the
# ideal-configuration count while leaving genuine configurations (angle gaps
# >= ~1e-8 rad even at n = 20000 random points) untouched.
_GAP_EPS = 1e-9
# Margin of the median bound's tail counts, relative to the largest coordinate
# magnitude M.  Projections err by ~1e-15 M, so a point the bound leaves out
# lies >= 1e-7 M / |x - c| >= 3.5e-8 rad (|x - c| <= 2*sqrt(2) M) inside an
# open halfplane: all such points fit in one sweep semicircle (pi - _GAP_EPS).
_BOUND_TOL = 1e-7

_ENUM_LIMIT = 60      # up to this n the deepest point is found by enumeration
_SEARCH_SEED = 710517  # fixed seed for the multi-start search fallback
_BOUND_SEEDS = 64     # candidates nearest the coordinatewise median swept first
# the median bound's 32 evenly spaced directions, bit-reversed: each far from those before
_BOUND_DIRS = np.exp(1j * np.pi * np.array([int(f"{i:05b}"[::-1], 2) for i in range(32)]) / 32)


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
    """(m, k) projections of m points on k directions: the view of a direction-major
    (k, m) buffer, summed coordinate by coordinate rather than by matmul, so that a
    row's rounding does not depend on the other rows: a point projects
    bit-identically alone and in a sample."""
    return _project_into(points, u, np.empty((u.shape[0], points.shape[0]))).T


def _project_into(points: np.ndarray, u: np.ndarray, out: np.ndarray, tmp=None) -> np.ndarray:
    """``project``'s (k, m) buffer written into ``out``, the products into ``tmp`` (or new)."""
    np.multiply.outer(u[:, 0], points[:, 0], out=out)
    for j in range(1, points.shape[1]):
        out += np.multiply.outer(u[:, j], points[:, j], out=tmp)
    return out


def _block_rows(k: int, width: int) -> int:
    """Rows per work block of ``width`` elements each: about _CHUNK_BUDGET elements, at most k."""
    return min(k, max(1, _CHUNK_BUDGET // width))


def sample_approx_counts(data: np.ndarray, cfg: DepthConfig) -> np.ndarray:
    """Per sample point, the min over the config's directions of its smaller closed
    tail count (at least 1), from one sort per direction: O(n k log n).  Sorted, its
    <=-count is the last index of its tie group + 1, its >=-count n - the first."""
    u, n = cfg.directions(data.shape[1]), data.shape[0]
    out, pos, step = np.full(n, n), np.arange(n), _block_rows(len(u), n)
    buf, tmp = np.empty((step, n)), np.empty((step, n))
    for uc in np.split(u, range(step, len(u), step)):
        proj = _project_into(data, uc, buf[: len(uc)], tmp[: len(uc)])  # rows contiguous
        order = proj.argsort(axis=1)
        s = np.take_along_axis(proj, order, axis=1)
        ends = np.ones(s.shape, dtype=bool)  # ends[:, p]: a tie group ends at p
        np.not_equal(s[:, 1:], s[:, :-1], out=ends[:, :-1])
        first = np.maximum.accumulate(np.where(np.roll(ends, 1, axis=1), pos, 0), axis=1)
        last = np.minimum.accumulate(np.where(ends, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
        tails = np.empty_like(order)
        np.put_along_axis(tails, order, np.minimum(last + 1, n - first), axis=1)
        out = np.minimum(out, tails.min(axis=0))
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
    u = cfg.directions(ds.d)
    proj, t = project(ds.data, u).T, project(as_point(x, ds.d)[None, :], u).T  # (k, n), (k, 1)
    # int32 row sums vectorize best
    le, ge = (proj <= t).sum(axis=1, dtype=np.int32), (proj >= t).sum(axis=1, dtype=np.int32)
    return int(np.minimum(le, ge).min()) / ds.n


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


def _tail_bound(pts: np.ndarray, cands: np.ndarray, u: complex) -> np.ndarray:
    """Bounds of the swept counts: smaller closed tail counts along u = e^(i theta)."""
    tol = _BOUND_TOL * np.abs(pts).max()
    s = np.sort(pts[:, 0] * u.real + pts[:, 1] * u.imag)
    p = cands[:, 0] * u.real + cands[:, 1] * u.imag
    le = np.searchsorted(s, p + tol, side="right")
    ge = pts.shape[0] - np.searchsorted(s, p - tol, side="left")
    return np.minimum(le, ge)


def _enumerated_median(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """Branch and bound: sweep the candidates nearest the coordinatewise
    median, prune by projection bounds, sweep the highest-bound survivors,
    then the rest that can still tie.  Same result as sweeping them all."""
    ia, ib = np.triu_indices(pts.shape[0], k=1)
    cands = np.concatenate([pts, 0.5 * (pts[ia] + pts[ib]), _line_intersections(pts)])
    # the deepest point lies in the convex hull, hence in the (finite) bounding box
    lo, hi = pts.min(axis=0) - 1e-12, pts.max(axis=0) + 1e-12
    cands = cands[np.all((cands >= lo) & (cands <= hi), axis=1)]
    near = ((cands - np.median(pts, axis=0)) ** 2).sum(axis=1)
    k = min(_BOUND_SEEDS, near.size) - 1
    best = _min_halfplane_counts(pts, cands[near.argpartition(k)[: k + 1]]).max()
    live, ub = cands, np.full(cands.shape[0], pts.shape[0])
    for u in _BOUND_DIRS:
        ub = np.minimum(ub, _tail_bound(pts, live, u))
        live, ub = live[ub >= best], ub[ub >= best]
    top = ub == ub.max()
    counts = _min_halfplane_counts(pts, live[top])
    rest = live[~top][ub[~top] >= counts.max()]
    live = np.concatenate([live[top], rest])
    counts = np.concatenate([counts, _min_halfplane_counts(pts, rest)])
    best_pt, best_cnt = _tie_break_best(live, counts)
    # +0.0 and -0.0 copies of the winner tie; keep the copy np.unique keeps
    if np.any(np.signbit(live[np.all(live == best_pt, axis=1)]) != np.signbit(best_pt)):
        uniq = np.unique(cands, axis=0)
        best_pt = uniq[np.all(uniq == best_pt, axis=1)][0]
    return best_pt, best_cnt


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
    if ds.n <= _ENUM_LIMIT:
        best_pt, best_cnt = _enumerated_median(ds.data)
    else:
        best_pt, best_cnt = _tie_break_best(*_search_pool(ds.data))
    return (float(best_pt[0]), float(best_pt[1])), best_cnt


def tukey_median(ds: Dataset) -> tuple[np.ndarray, float]:
    """A deepest point of the 2-D sample, with its depth; exact for n <= 60.

    For n <= 60 the candidates are the line-arrangement vertices (data points,
    pairwise midpoints, intersections of lines through data pairs), on which
    depth is piecewise constant; every candidate that can reach the maximal
    count is swept exactly.  Beyond that a deterministic seeded multi-start
    pattern search on a shrinking grid is used, and the point it returns may
    not be deepest.  Ties break toward the smallest Euclidean norm, then
    lexicographic coordinates.
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

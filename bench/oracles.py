"""Reference computations made apart from doqr.

Nothing here imports doqr or reuses its tolerances.  Depth counts come from
exact orientation signs; hulls and containment from ``scipy.spatial``; the
normal-model law from ``scipy.stats``; projection outlyingness from
``np.median`` and the seeding rule the README documents.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import spatial, stats

# Relative error bound of the float orientation filter.  The computed cross
# product of two difference vectors is within ~4.5e-16 * (|a*d| + |b*c|) of
# the exact one; anything closer to zero than this wider bound has its sign
# recomputed in rational arithmetic.  This decides only when to go exact, so
# no result depends on it.
_FILTER = 1e-14
_ROWS = 256  # rows of the pairwise sign matrix held at once


def _exact_signs(p: np.ndarray, r: np.ndarray, q: np.ndarray) -> tuple[int, int]:
    """Exact signs of cross(p - q, r - q) and dot(p - q, r - q)."""
    qx, qy = Fraction(float(q[0])), Fraction(float(q[1]))
    ax, ay = Fraction(float(p[0])) - qx, Fraction(float(p[1])) - qy
    bx, by = Fraction(float(r[0])) - qx, Fraction(float(r[1])) - qy
    cross = ax * by - ay * bx
    dot = ax * bx + ay * by
    return (cross > 0) - (cross < 0), (dot > 0) - (dot < 0)


def depth_count(points, q) -> int:
    """Exact closed-halfplane Tukey depth of ``q``, as a count of points.

    The depth count is n minus the most points an open halfplane through q
    holds.  An open halfplane holds the points whose directions from q lie
    in an open semicircle, and a largest such set is the half-open arc
    [a_i, a_i + pi) anchored at one of the point directions a_i.  Point j
    lies in that arc iff cross(w_i, w_j) > 0, or cross = 0 and dot > 0.
    """
    pts = np.asarray(points, dtype=float)
    q = np.asarray(q, dtype=float)
    n = pts.shape[0]
    w = pts - q  # zero exactly when the point equals q
    valid = (w[:, 0] != 0.0) | (w[:, 1] != 0.0)
    m0 = n - int(np.count_nonzero(valid))
    w, p = w[valid], pts[valid]
    k = w.shape[0]
    if k == 0:
        return n
    best = 0
    for s in range(0, k, _ROWS):
        rows = np.arange(s, min(s + _ROWS, k))
        a = w[rows, 0, None] * w[None, :, 1]
        b = w[rows, 1, None] * w[None, :, 0]
        cross = a - b
        unsure = np.abs(cross) <= _FILTER * (np.abs(a) + np.abs(b))
        unsure |= (np.abs(a) + np.abs(b)) < 1e-280  # underflow: go exact
        inside = (cross > 0) & ~unsure
        unsure[np.arange(rows.size), rows] = False  # w_i against itself
        counts = inside.sum(axis=1) + 1  # + 1: each point is in its own arc
        for r, j in zip(*np.nonzero(unsure)):
            c, d = _exact_signs(p[rows[r]], p[j], q)
            if c > 0 or (c == 0 and d > 0):
                counts[r] += 1
        best = max(best, int(counts.max()))
    return m0 + k - best


_CERTIFY = 1e-12  # radians; float angles are within ~4e-15 rad of exact


def depth_count_fast(points, q) -> int:
    """``depth_count`` in O(n log n) from float angles, when they certify it.

    Every arc membership decision compares two point directions: equal,
    or exactly pi apart, are the only ties.  When all directions are
    pairwise more than 1e-12 rad from both ties, float angles (error below
    ~4e-15 rad) decide every membership as exact arithmetic would, and the
    sorted sweep is exact.  Otherwise the exact pairwise count is used.
    """
    pts = np.asarray(points, dtype=float)
    q = np.asarray(q, dtype=float)
    n = pts.shape[0]
    w = pts - q
    w = w[(w[:, 0] != 0.0) | (w[:, 1] != 0.0)]
    k = w.shape[0]
    if k < 2:
        return n - k
    a = np.sort(np.mod(np.arctan2(w[:, 1], w[:, 0]), 2 * np.pi))
    ext = np.concatenate([a, a + 2 * np.pi, [a[0] + 4 * np.pi]])
    gap = np.diff(ext[: k + 1])
    target = a + np.pi
    hi = np.searchsorted(ext, target, side="left")
    near = np.minimum(ext[hi] - target, target - ext[hi - 1])
    if gap.min() <= _CERTIFY or near.min() <= _CERTIFY:
        return depth_count(points, q)
    return n - int((hi - np.arange(k)).max())


def depth_counts(points, queries) -> np.ndarray:
    """``depth_count_fast`` of each query."""
    return np.array([depth_count_fast(points, q) for q in np.atleast_2d(queries)], dtype=int)


def hull_vertex_indices(points) -> np.ndarray:
    """Indices of the convex-hull vertices of a 2-D point set (scipy/Qhull).

    Degenerate sets fall back to the distinct points (one point) or the two
    lexicographic extremes (collinear points).
    """
    pts = np.asarray(points, dtype=float)
    uniq, first = np.unique(pts, axis=0, return_index=True)
    if uniq.shape[0] >= 3:
        try:
            return np.sort(spatial.ConvexHull(pts).vertices)
        except spatial.QhullError:
            pass
    if uniq.shape[0] == 1:
        return first[:1]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return np.sort(np.unique([order[0], order[-1]]))


def closed_hull_membership(vertices, points, rel_tol: float = 1e-12):
    """Split ``points`` against the closed hull of ``vertices``.

    Returns (inside, unsure) boolean masks.  Points equal to a vertex are
    inside; points within ``rel_tol`` (relative to the coordinate scale) of
    the boundary are unsure, so a checker accepts either answer for them.
    """
    v = np.unique(np.asarray(vertices, dtype=float), axis=0)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scale = max(1.0, float(np.abs(v).max()), float(np.abs(pts).max()))
    tol = rel_tol * scale
    is_vertex = (pts[:, None, :] == v[None, :, :]).all(axis=2).any(axis=1)
    if v.shape[0] >= 3:
        try:
            eq = spatial.ConvexHull(v).equations  # unit normals, <= 0 inside
        except spatial.QhullError:
            eq = None
        if eq is not None:
            dist = pts @ eq[:, :2].T + eq[:, 2]
            inside = (dist < -tol).all(axis=1)
            outside = (dist > tol).any(axis=1)
            return inside | is_vertex, ~(inside | outside | is_vertex)
    if v.shape[0] == 1:
        near = np.linalg.norm(pts - v[0], axis=1) <= tol
        return is_vertex, near & ~is_vertex
    order = np.lexsort((v[:, 1], v[:, 0]))
    a, b = v[order[0]], v[order[-1]]
    e = b - a
    ln = float(np.linalg.norm(e))
    rel = pts - a
    off = np.abs(rel[:, 0] * e[1] - rel[:, 1] * e[0]) / ln
    t = rel @ e / ln
    near = (off <= tol) & (t >= -tol) & (t <= ln + tol)
    return is_vertex, near & ~is_vertex


def region_weight_bounds(points, depth_counts_, level_count: int) -> tuple[int, int, np.ndarray]:
    """Count bounds of the points in the closed hull of {depth >= level}.

    Returns (low, high, vertex_indices); ``None`` vertices when no point
    attains the level.
    """
    pts = np.asarray(points, dtype=float)
    sel = np.nonzero(np.asarray(depth_counts_) >= level_count)[0]
    if sel.size == 0:
        return 0, 0, None
    verts = sel[hull_vertex_indices(pts[sel])]
    inside, unsure = closed_hull_membership(pts[verts], pts)
    lo = int(np.count_nonzero(inside))
    return lo, lo + int(np.count_nonzero(unsure)), verts


def mean_exact(points) -> np.ndarray:
    """Coordinatewise mean with correctly rounded sums."""
    pts = np.asarray(points, dtype=float)
    return np.array([math.fsum(pts[:, j]) / pts.shape[0] for j in range(pts.shape[1])])


# --- normal-model law -----------------------------------------------------


def oh_cdf(lam: float, d: int) -> float:
    """P(1 - 2 Phi(-|X|) <= lam) for X standard normal in R^d."""
    z = stats.norm.ppf(0.5 * (1.0 + lam))
    return float(stats.chi2.cdf(z * z, d))


def oh_threshold(fpr: float, d: int) -> float:
    """2 Phi(sqrt(chi2_{1-fpr, d})) - 1."""
    return float(2.0 * stats.norm.cdf(math.sqrt(stats.chi2.ppf(1.0 - fpr, d))) - 1.0)


# --- projection outlyingness ----------------------------------------------


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 seeded with SeedSequence(master_seed, spawn_key=path)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(seq))


def directions(master_seed: int, k: int, d: int) -> np.ndarray:
    """k normalized Gaussian directions from substream 0 of ``master_seed``."""
    v = substream(master_seed, 0).standard_normal((k, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


def projection_outlyingness(data, queries, dirs, block: int = 64) -> np.ndarray:
    """max over directions of |q.u - med(X.u)| / MAD(X.u), MAD unscaled.

    Directions whose MAD is zero are skipped.  Works through the directions
    in blocks to keep memory small.
    """
    data = np.asarray(data, dtype=float)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    out = np.full(queries.shape[0], -np.inf)
    for s in range(0, dirs.shape[0], block):
        u = dirs[s : s + block]
        proj = data @ u.T
        med = np.median(proj, axis=0)
        mad = np.median(np.abs(proj - med), axis=0)
        keep = mad > 0
        if np.any(keep):
            ratio = np.abs(queries @ u[keep].T - med[keep]) / mad[keep]
            out = np.maximum(out, ratio.max(axis=1))
    return out


def contaminated_sample(master_seed: int, trial: int, n_clean: int, d: int,
                        n_outliers: int, center, spread: float) -> np.ndarray:
    """Trial data by the documented rule: substream (0, trial), clean first."""
    rng = substream(master_seed, 0, trial)
    clean = rng.standard_normal((n_clean, d))
    out = np.asarray(center, dtype=float) + spread * rng.standard_normal((n_outliers, d))
    return np.concatenate([clean, out])


def projection_cutoff(master_seed: int, n_clean: int, d: int, fpr: float,
                      dirs: np.ndarray) -> float:
    """Order statistic ceil((1 - fpr) m) of the calibration outlyingness,
    on m = 10 n_clean clean points from substream (1, 0)."""
    m = 10 * n_clean
    cal = substream(master_seed, 1, 0).standard_normal((m, d))
    vals = np.sort(projection_outlyingness(cal, cal, dirs))
    return float(vals[max(1, math.ceil((1.0 - fpr) * m)) - 1])

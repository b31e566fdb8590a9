"""Halfspace (Tukey) depth: exact 1-D/2-D evaluation, direction-sampled
approximation for any dimension, and the exact Tukey median.

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
angles sorted, the semicircle bounds are sorted too, and one stable merge of
the bounds with the angles per query, then a running count of the angles,
evaluates all anchors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import Dataset, SeedSpec, as_point

_TWO_PI = 2.0 * np.pi
# Padding value for angle slots of points coincident with the query.  It must
# sort after every valid angle and sweep key (< 2*pi).
_SENTINEL = 10.0
# Array elements per work block in the batch kernels: a block's buffers stay
# within a per-core cache.
_CHUNK_BUDGET = 32_768
# Angular resolution: angle separations within this of exactly pi are treated
# as exactly antipodal.  Queries constructed from the data (midpoints, region
# centroids) yield difference vectors that are antipodal/collinear up to
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


def _approx_members_at_least(data: np.ndarray, k: int, cfg: DepthConfig) -> np.ndarray:
    """Mask of the sample points whose sampled-direction count (the min over the
    config's directions of the smaller closed tail) is >= k.  A count is below k
    when, on some direction, the projection lies strictly below the k-th smallest
    or strictly above the k-th largest: one partition per direction, O(n k)."""
    n = data.shape[0]
    if k <= 1 or k > n:  # a sample point always counts itself
        return np.full(n, k <= 1)
    u, out = cfg.directions(data.shape[1]), np.ones(n, dtype=bool)
    step = _block_rows(len(u), n)
    buf, work = np.empty((step, n)), np.empty((step, n))
    for uc in np.split(u, range(step, len(u), step)):
        proj, w = _project_into(data, uc, buf[: len(uc)], work[: len(uc)]), work[: len(uc)]
        np.copyto(w, proj)
        w.partition(sorted({k - 1, n - k}), axis=1)
        out &= ~((proj < w[:, k - 1 : k]) | (proj > w[:, n - k : n - k + 1])).any(axis=0)
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


def _min_halfplane_counts(data: np.ndarray, queries: np.ndarray, window=None):
    """Exact min closed-halfplane counts (depth * n) for many 2-D queries.

    Each query is one row, sorted and merged on its own, so its count does not
    depend on the other queries.  Rows go in blocks of about _CHUNK_BUDGET merged
    entries through buffers allocated once per call: memory is O(block + n + m).

    With ``window`` = (floor, top) it also returns (row, angle, S, m0) arrays of
    the semicircle counts S <= top with S + m0 - 1 >= max(floor, counts so far).
    """
    n, m = data.shape[0], queries.shape[0]
    (floor, top), out, found = window or (0, None), np.empty(m, dtype=np.int64), []
    step = _block_rows(max(m, 1), 2 * n)
    merged, cum = np.empty((step, 2 * n)), np.empty((step, 2 * n), dtype=np.int64)
    tmp, coincident = np.empty((step, n)), np.empty((step, n), dtype=bool)
    flags = np.empty((step, 2 * n), dtype=bool)
    prod = None if top is None else np.empty_like(cum)  # keeps order, the anchors' indices
    for s in range(0, m, step):
        q = queries[s : s + step]
        c = q.shape[0]
        key, alpha, t = merged[:c, :n], merged[:c, n:], tmp[:c]
        co, b = coincident[:c], flags[:c, :n]
        x, y = key, t  # the differences, until the angles are taken
        np.subtract(data[:, 0], q[:, :1], out=x)
        np.subtract(data[:, 1], q[:, 1:], out=y)
        np.logical_and(np.equal(x, 0.0, out=co), np.equal(y, 0.0, out=b), out=co)
        m0 = co.sum(axis=1)
        nprime = n - m0  # valid (noncoincident) points per row
        np.arctan2(y, x, out=alpha)
        alpha += np.multiply(np.less(alpha, 0.0, out=b), _TWO_PI, out=t)  # np.mod's rounding
        alpha[np.greater_equal(alpha, _TWO_PI, out=b)] = 0.0
        alpha[co] = _SENTINEL
        alpha.sort(axis=1)  # valid angles first, sentinels last

        # Anchor i counts the angles in [alpha_i, b_i) and below b_i - 2*pi, with
        # the bound b_i = alpha_i + pi - _GAP_EPS: angles within _GAP_EPS of
        # exactly pi away count as antipodal and fall outside the open semicircle.
        # Valid angles lie in [0, 2*pi), so below b_i < 2*pi nothing wraps, and
        # from b_i >= 2*pi on all n' angles lie below b_i: one comparison per
        # anchor, with the key b_i or b_i - 2*pi.  Sorted angles give sorted
        # bounds, so the keys are two sorted runs (then the coincident points'),
        # and one stable argsort merges them with the sorted angles.  Keys come
        # first, so a key tied with angles counts only those strictly below it.
        np.add(alpha, np.pi - _GAP_EPS, out=key)
        high = np.greater_equal(key, _TWO_PI, out=b)  # a suffix of each row
        low = n - high.sum(axis=1)
        key -= np.multiply(high, _TWO_PI, out=t)
        key[np.equal(alpha, _SENTINEL, out=b)] = -np.inf  # coincident points anchor nothing
        order = merged[:c].argsort(axis=1, kind="stable")
        cu = np.cumsum(np.greater_equal(order, n, out=flags[:c]), axis=1, out=cum[:c])
        # After the running count of angles, the key of a valid anchor i scores
        # its semicircle S_i = #{angles < key_i} - i (+ n' when high), >= 1 for
        # its own angle; angle j scores (j + 1) - (n + j) + n' = 1 - m0 and a
        # coincident anchor o >= n' scores n' - o <= 0.  So the row max is the
        # fullest semicircle (0 when n' = 0), and a score >= 1 is an anchor's.
        cu -= order
        plus = np.greater_equal(order, low[:, None], out=flags[:c])  # high keys, angles
        cu += np.multiply(plus, nprime[:, None], out=order if top is None else prod[:c])
        out[s : s + c] = m0 + (nprime - cu.max(axis=1))
        if top is not None:
            floor = max(floor, int(out[s : s + c].max()))
            lo = np.maximum(floor + 1 - m0, 1)[:, None]
            r, p = np.divmod(np.flatnonzero((cu >= lo) & (cu <= top)), 2 * n)
            found.append((r + s, alpha[r, order[r, p]], cu[r, p], m0[r]))
    return out if top is None else (out, tuple(np.concatenate(f) for f in zip(*found)))


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


def _tail_bound(pts: np.ndarray, cands: np.ndarray, u: complex) -> np.ndarray:
    """Bounds of the swept counts: smaller closed tail counts along u = e^(i theta)."""
    tol = _BOUND_TOL * np.abs(pts).max()
    s = np.sort(pts[:, 0] * u.real + pts[:, 1] * u.imag)
    p = cands[:, 0] * u.real + cands[:, 1] * u.imag
    le = np.searchsorted(s, p + tol, side="right")
    ge = pts.shape[0] - np.searchsorted(s, p - tol, side="left")
    return np.minimum(le, ge)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Counterclockwise convex hull by monotone chain.

    Degenerate inputs are allowed: one vertex for a single distinct point,
    the two extreme points for collinear data.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] == 1:
        return pts
    pts = pts.tolist()  # unique rows come sorted by (x, y); float arithmetic, fast loop

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _members_at_least(data: np.ndarray, k: int) -> np.ndarray:
    """Mask of the 2-D sample points whose exact count (depth * n) is >= k.

    Projection tail counts bound every count from above and drop the points
    that cannot reach k; the hull vertices of the rest are swept exactly, and
    those below k are peeled until every hull vertex passes.  The region
    {x : count >= k} is convex, so every point left inside that hull is a member.
    """
    n = data.shape[0]
    if k <= 1:  # a sample point always counts itself
        return np.ones(n, dtype=bool)
    ub = np.min([_tail_bound(data, data, u) for u in _BOUND_DIRS], axis=0)
    live, passed = ub >= k, np.zeros(n, dtype=bool)
    while live.any():
        hull = convex_hull(data[live])
        # every copy of a hull vertex, not yet swept
        idx = np.flatnonzero(live & ~passed & (data[:, None, :] == hull).all(axis=2).any(axis=1))
        ok = _min_halfplane_counts(data, data[idx]) >= k
        passed[idx[ok]] = True
        if ok.all():
            break
        live[idx[~ok]] = False
    return live


def _clip(poly: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Convex ``poly`` cut by a x <= b + tol (unit normals a), the most violated first."""
    while len(poly) and len(a):
        s = poly @ a.T - b
        s = s[:, s.max(axis=0).argmax()]
        if s.max() <= tol:
            break
        inside = s <= tol  # kept, with the edges' crossings of a x = b
        cross = inside != np.roll(inside, -1)
        t = np.clip(s / np.where(cross, s - np.roll(s, -1), 1.0), 0.0, 1.0)[:, None]
        cut = np.stack([poly, poly + t * (np.roll(poly, -1, axis=0) - poly)], axis=1)
        poly = cut[np.stack([inside, cross], axis=1)]
    return poly


def _centroid(poly: np.ndarray) -> np.ndarray:
    """Area centroid of a convex polygon; the vertex mean when it is thinner than 1e-6."""
    c = poly - poly.mean(axis=0)
    cr = c[:, 0] * np.roll(c[:, 1], -1) - np.roll(c[:, 0], -1) * c[:, 1]
    if cr.sum() <= 1e-6 * np.ptp(c, axis=0).max() ** 2:
        return poly.mean(axis=0)
    return poly.mean(axis=0) + (c + np.roll(c, -1, axis=0)).T @ cr / (3 * cr.sum())


def _snap(pts: np.ndarray, x0: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """x0 (count k), or the representable point nearest it within rounding that
    sweeps >= k, with its count: the nearest sample point, or the nearest midpoint
    0.5 * (p_i + p_j) of a pair with p_i + p_j = 2 x0, exactly the centre of a
    symmetric pair (p + (-p) is +0.0).  Partners come from searching the
    reflections 2 x0 - p_i among the sorted projections on a direction of
    irrational slope, which separates grid points: O(n log n), then one sweep."""
    eps, u = 1e-12 * np.abs(pts).max(), np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    proj, r = pts @ u, 2.0 * x0 - pts
    order = proj.argsort()
    j = order[np.minimum(np.searchsorted(proj[order], r @ u - 4.0 * eps), len(pts) - 1)]
    paired = (np.abs(pts[j] - r) <= 2.0 * eps).all(axis=1, keepdims=True)
    mids = np.where(paired, 0.5 * (pts + pts[j]), np.inf)
    cands = np.stack([c[np.abs(c - x0).max(axis=1).argmin()] for c in (pts, mids)])
    d = np.abs(cands - x0).max(axis=1)
    cands = cands[d <= eps][d[d <= eps].argsort(kind="stable")]
    counts = _min_halfplane_counts(pts, cands)
    ok = np.flatnonzero(counts >= k)
    return (cands[ok[0]], int(counts[ok[0]])) if len(ok) else (x0, k)


def _levels(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Sample counts, and a deepest point with its count, from one self-depth pass.

    D_k = {x : count >= k} is the intersection of the closed halfplanes right of
    the lines (pivot, angle) with semicircle count S <= k <= S + m0 - 1 (S - 1
    points left of the line in general position; m0, the pivot's copies, covers
    collinear points behind it).  The pass keeps the levels from the count c0 at
    the centroid of the deepest meeting of the slabs between the k-th smallest
    and largest projections on _BOUND_DIRS (they contain D_k) up to that level.
    The largest level whose region's centroid sweeps >= k is bisected, and that
    centroid returned, snapped to a representable point (``_snap``); if it sweeps
    below (no interior), the best of it, the slab centroid and the deepest sample
    points.
    """
    mid, n, found = pts.mean(axis=0), len(pts), {}
    q = pts - mid  # exact for data within a factor 2 of their mean, as when shifted
    tol, ext = 1e-12 * np.abs(q).max(), np.stack([q.min(axis=0), q.max(axis=0)])
    box = np.stack([ext[[0, 1, 1, 0], 0], ext[[0, 0, 1, 1], 1]], axis=1)  # counterclockwise

    def largest(lo: int, hi: int, test) -> int:  # by bisection, lo taken to pass
        while lo < hi:
            k = (lo + hi + 1) // 2
            lo, hi = (k, hi) if test(k) else (lo, k - 1)
        return lo

    def centre(poly: np.ndarray):  # a clipped box's centroid and count (-1 when empty)
        x = _centroid(poly) + mid if len(poly) else mid
        return x, int(_min_halfplane_counts(pts, x[None, :])[0]) if len(poly) else -1

    u = np.stack([_BOUND_DIRS.real, _BOUND_DIRS.imag], axis=1)
    u, proj = np.concatenate([u, -u]), np.sort(q @ u.T, axis=0)
    slab = functools.cache(lambda k: _clip(box, u, np.r_[proj[n - k], -proj[k - 1]], tol))
    top = largest(-(-n // 3), n, lambda k: len(slab(k)))  # centerpoints: D_ceil(n/3) is nonempty
    x0, c0 = centre(slab(top))  # only the kept slab level is swept
    counts, (piv, ang, s, m0) = _min_halfplane_counts(pts, pts, (c0, top))
    span = s + m0 - 1
    a = np.stack([-np.sin(ang), np.cos(ang)], axis=1)
    b = (a * q[piv]).sum(axis=1)

    def reaches(k: int) -> bool:
        if k not in found:
            on = (s <= k) & (span >= k)
            found[k] = centre(_clip(box, a[on], b[on], tol))
        return found[k][1] >= k

    lo = largest(max(int(counts.max()), c0), top, reaches)  # top >= k*: D_k lies in its slabs
    if reaches(lo):
        return counts, *_snap(pts, *found[lo])
    pairs = [found[lo], (x0, c0), *zip(pts[counts == lo], counts[counts == lo])]
    cands, c = map(np.array, zip(*pairs))  # highest count, smallest norm, lexicographic
    best = np.lexsort((cands[:, 1], cands[:, 0], cands[:, 0] ** 2 + cands[:, 1] ** 2, -c))[0]
    return counts, cands[best], int(c[best])


@functools.lru_cache(maxsize=64)
def _self_depths(ds: Dataset) -> tuple[np.ndarray, tuple[float, float], int]:
    """Read-only sample depths and the Tukey median with its count, from the one
    self-depth pass of ``_levels``: the per-dataset cache of both."""
    counts, (px, py), count = _levels(ds.data)
    depths = counts / ds.n
    depths.setflags(write=False)
    return depths, (float(px), float(py)), count


def tukey_median(ds: Dataset) -> tuple[np.ndarray, float]:
    """A deepest point of the 2-D sample, with its depth.

    The area centroid of the deepest region D_k*, the classical Tukey median,
    read from the k-edges of the self-depth pass that also fills
    ``sample_depths``; within rounding of a sample point, or of the midpoint of
    a pair symmetric about it, it is that exactly representable point (the
    centre of centrosymmetric data is exactly (0, 0)).  Where a region without
    interior puts the centroid below k*, the deepest of it and the sample
    points (see ``_levels``).  The depth is the swept count at the point.
    """
    _require_dim(ds, 2, "tukey_median")
    _, pt, cnt = _self_depths(ds)
    return np.array(pt), cnt / ds.n


def max_depth(ds: Dataset) -> float:
    """Maximal attained halfspace depth (the Tukey median's depth)."""
    return tukey_median(ds)[1]


def sample_depths(ds: Dataset) -> np.ndarray:
    """Exact depth of every sample point w.r.t. the full sample (cached, d=2)."""
    _require_dim(ds, 2, "sample_depths")
    return _self_depths(ds)[0]

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
angles sorted, anchor i's count is the number of angles below its semicircle
bound less i, so one binary search of the bounds in the sorted angles per
query evaluates all anchors.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, SeedSpec, _as_int, _project_into, as_point, project

_TWO_PI = 2.0 * np.pi
# Padding value for angle slots of points coincident with the query.  It must
# sort after every valid angle and sweep key (< 2*pi).
_SENTINEL = 10.0
# Array elements per work block in the batch kernels: a block's arrays stay
# within a per-core cache.
_CHUNK_BUDGET = 32_768
# Angular resolution: angle separations within this of exactly pi are treated
# as exactly antipodal.  Queries constructed from the data (midpoints, region
# centroids) yield difference vectors that are antipodal/collinear up to
# rounding; the ideal coincidences reappear as ~1e-16 rad slivers where
# halfplane membership is float noise.  Snapping below 1e-9 rad restores the
# ideal count, and it over-counts genuine pairs as close to antipodal: a seeded
# elongated n = 1000 sample has one 9.42e-10 rad off pi (ROADMAP item 1).
_GAP_EPS = 1e-9
# Margin of the d = 2 projection bounds on the count at a point c (a sample point
# for the level prefilter, a probe m + t v for the quantile's bisection), relative
# to a bound M on the coordinate magnitudes of the sample and of c.  Projections,
# the centring and a probe's m + t v err by ~1e-15 M, so a point a bound leaves
# out lies >= 1e-7 M / |x - c| >= 3.5e-8 rad (|x - c| <= 2*sqrt(2) M) inside an
# open halfplane through c: all such points fit in one sweep semicircle
# (pi - _GAP_EPS), so the swept count is at most the bound's.
_BOUND_TOL = 1e-7

# 32 evenly spaced directions for the level prefilter and the median's slabs,
# bit-reversed (each far from those before), as (cos, sin) rows
_BOUND_DIRS = np.exp(1j * np.pi * np.c_[[int(f"{i:05b}"[::-1], 2) for i in range(32)]] / 32)
_BOUND_DIRS = _BOUND_DIRS.view(float)


@dataclass(frozen=True)
class DepthConfig:
    """Approximation budget and random source for sampled-direction methods."""

    n_directions: int = 1000
    seed: SeedSpec = SeedSpec(0)

    def __post_init__(self):
        object.__setattr__(self, "n_directions", _as_int(self.n_directions, "n_directions"))
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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _scan_directions(score, merge, points: np.ndarray, u: np.ndarray):
    """``score(directions, projections, scratch)`` of each block of the directions u,
    the (block, m) projections of the m points and scratch of their shape, folded by
    ``merge``.  When the process may run on two CPUs and u takes two blocks, one worker
    thread walks the second half of u while the caller walks the first, and the two
    folds are merged.

    Blocks hold about 2 * _CHUNK_BUDGET entries: numpy's partitions and ufuncs release
    the GIL, per-block overhead holds it, and halving that overhead is what lets two
    threads overlap.  Every direction is scored on its own, so an exact, order-free
    ``merge`` gives the same bytes on any CPU count.
    """
    cols = np.ascontiguousarray(points.T)  # (d, m) coordinate rows
    step = max(1, 2 * _CHUNK_BUDGET // cols.shape[1])

    def walk(v):
        rows = min(step, len(v))
        # one allocation for both: freeing it raises glibc's dynamic mmap threshold
        # (and so its trim threshold) enough that the next call's pair and a
        # block-sized temporary stay on the heap, instead of being page-faulted in
        buf, work = np.empty((2, rows, cols.shape[1]))
        blocks = ((uc, buf[: len(uc)], work[: len(uc)]) for uc in np.split(v, range(rows, len(v), rows)))
        return functools.reduce(merge, (score(uc, _project_into(cols, uc, p, w), w) for uc, p, w in blocks))

    if len(u) <= step or _usable_cpus() < 2:  # on one CPU a worker only takes turns
        return walk(u)
    half, second = len(u) // 2, [None]

    def run():
        try:
            second[0] = walk(u[half:])
        except BaseException as e:  # re-raised by the caller after the join
            second[0] = e

    worker = threading.Thread(target=run)
    worker.start()
    try:
        first = walk(u[:half])
    finally:
        worker.join()
    if isinstance(second[0], BaseException):
        raise second[0]
    return merge(first, second[0])


def _approx_members_at_least(data: np.ndarray, k: int, u: np.ndarray, tol=0.0) -> np.ndarray:
    """Mask of the sample points whose count over the directions u (the min of the
    smaller closed tail, each projection widened by ``tol``) is >= k.  It is below k
    when, on some direction, the projection lies more than tol below the k-th smallest
    or above the k-th largest: one partition per direction, O(n k)."""
    n = data.shape[0]
    if k <= 1 or k > n:  # a sample point always counts itself
        return np.full(n, k <= 1)

    def score(_, proj, w):
        np.copyto(w, proj)
        w.partition(sorted({k - 1, n - k}), axis=1)
        low, high = proj + tol < w[:, k - 1 : k], proj - tol > w[:, n - k : n - k + 1]
        return ~(low | high).any(axis=0)

    return _scan_directions(score, np.logical_and, data, u)


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

    Each query is one row, sorted and searched on its own, so its count does not
    depend on the other queries.  Rows go in blocks of about _CHUNK_BUDGET / 2
    angles, each block's arrays freed before the next: memory is O(block + n + m).

    With ``window`` = (floor, top) it also returns (row, angle, S, m0) arrays of
    the semicircle counts S <= top with S + m0 - 1 >= max(floor, counts so far),
    by row, then by sweep key, ties by anchor.
    """
    n, m = data.shape[0], queries.shape[0]
    (floor, top), out, found = window or (0, None), np.empty(m, dtype=np.int64), []
    step = max(1, _CHUNK_BUDGET // (2 * n))
    cols, anchor = np.ascontiguousarray(data.T), np.arange(n)
    for s in range(0, m, step):
        q = queries[s : s + step]
        x, y = cols[0] - q[:, :1], cols[1] - q[:, 1:]
        coincident = (x == 0.0) & (y == 0.0)
        m0 = coincident.sum(axis=1)
        nprime = n - m0  # valid (noncoincident) points per row
        alpha = np.arctan2(y, x)
        del x, y
        alpha += (alpha < 0.0) * _TWO_PI  # np.mod's rounding
        alpha[alpha >= _TWO_PI] = 0.0
        alpha[coincident] = _SENTINEL
        alpha.sort(axis=1)  # valid angles first, sentinels last

        # Anchor i counts the angles in [alpha_i, b_i) and below b_i - 2*pi, with
        # the bound b_i = alpha_i + pi - _GAP_EPS: angles within _GAP_EPS of
        # exactly pi away count as antipodal and fall outside the open semicircle.
        # Valid angles lie in [0, 2*pi), so below b_i < 2*pi nothing wraps, and
        # from b_i >= 2*pi on all n' angles lie below b_i: one comparison per
        # anchor, with the key b_i or b_i - 2*pi (> 0 either way).  With the angles
        # sorted, S_i = #{angles < key_i} - i (+ n' when high): a key tied with
        # angles counts only those strictly below it.  S_i >= 1 for a valid anchor's
        # own angle; a coincident anchor i >= n' (key -inf) scores n' - i <= 0, so
        # the row max over anchors is the fullest semicircle (0 when n' = 0).
        key = alpha + (np.pi - _GAP_EPS)
        high = key >= _TWO_PI  # a suffix of each row
        np.subtract(key, _TWO_PI, out=key, where=high)
        key[alpha == _SENTINEL] = -np.inf  # coincident points anchor nothing
        score = np.empty(alpha.shape, dtype=np.int64)
        for r in range(len(q)):
            score[r] = alpha[r].searchsorted(key[r], side="left")
        score -= anchor
        np.add(score, nprime[:, None], out=score, where=high)
        out[s : s + len(q)] = m0 + (nprime - score.max(axis=1))
        if top is not None:
            floor = max(floor, int(out[s : s + len(q)].max()))
            lo = np.maximum(floor + 1 - m0, 1)[:, None]
            r, i = np.nonzero((score >= lo) & (score <= top))
            o = np.lexsort((key[r, i], r))  # stable: ties keep anchor order
            r, i = r[o], i[o]
            found.append((r + s, alpha[r, i], score[r, i], m0[r]))
        del alpha, key, high, score  # before the next block's are made
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
    x = as_point(x, ds.d)[None, :]

    def score(uc, proj, _):
        t = project(x, uc).T  # (block, 1); int32 row sums vectorize best
        le, ge = (proj <= t).sum(axis=1, dtype=np.int32), (proj >= t).sum(axis=1, dtype=np.int32)
        return int(np.minimum(le, ge).min())

    return _scan_directions(score, min, ds.data, cfg.directions(ds.d)) / ds.n


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

    The level test on the 32 _BOUND_DIRS, with projections widened by their
    rounding margin, bounds every count from above and drops the points that
    cannot reach k; the hull vertices of the rest are swept exactly, and
    those below k are peeled until every hull vertex passes.  The region
    {x : count >= k} is convex, so every point left inside that hull is a member.
    """
    live = _approx_members_at_least(data, k, _BOUND_DIRS, _BOUND_TOL * np.abs(data).max())
    passed = np.zeros(len(data), dtype=bool)
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
    """Convex ``poly`` cut by a x <= b + tol (unit normals a), the most violated first.

    Each cut scores every constraint in one matmul (its rounding follows the
    shapes), then walks the few vertices in plain floats, the operations of the
    whole-array formula without numpy's per-call cost on such small arrays.
    A constraint once cut stays met within rounding (later cuts add points between
    vertices), so len(a) cuts suffice; more would chase rounding, at tol 0 forever.
    """
    for _ in range(len(a)):
        if not len(poly):
            break
        s = poly @ a.T - b
        worst = s.max(axis=0)
        j = worst.argmax()
        if worst[j] <= tol:
            break
        pv, sv = poly.tolist(), s[:, j].tolist()
        cut = []
        for p, q, sp, sq in zip(pv, pv[1:] + pv[:1], sv, sv[1:] + sv[:1]):
            if sp <= tol:
                cut.append(p)
            if (sp <= tol) != (sq <= tol):
                t = min(max(sp / (sp - sq), 0.0), 1.0)
                cut.append([p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])])
        poly = np.array(cut).reshape(-1, 2)
    return poly


def _centroid(poly: np.ndarray) -> np.ndarray:
    """Area centroid of a convex polygon; the vertex mean when it is thinner than 1e-6."""
    mean = poly.mean(axis=0)
    e = np.frexp(np.abs(poly - mean).max())[1]
    c = np.ldexp(poly - mean, -e)  # exactly into [0.5, 1): no product over- or underflows
    nxt = np.concatenate([c[1:], c[:1]])
    cr = c[:, 0] * nxt[:, 1] - nxt[:, 0] * c[:, 1]
    if cr.sum() <= 1e-6 * np.ptp(c, axis=0).max() ** 2:
        return mean
    return mean + np.ldexp((c + nxt).T @ cr / (3 * cr.sum()), e)


def _land(pts: np.ndarray, x: np.ndarray, k: int, known: list) -> tuple[np.ndarray, int]:
    """The first point of one ordered list whose count reaches k, with its count:
    the sample point and the midpoint 0.5 * (p_i + p_j) of a pair with p_i + p_j =
    2 x (exact for a symmetric pair: p + (-p) is +0.0) within rounding of x, nearest
    first and swept, then the ``known`` (point, count) pairs.  The reflections
    2 x - p_i are searched among projections on a slope that separates grid points."""
    eps, u = 1e-12 * np.abs(pts).max(), np.array([[np.cos(np.pi / 8), np.sin(np.pi / 8)]])
    r = 2.0 * x - pts
    proj, rproj = project(pts, u)[:, 0], project(r, u)[:, 0]
    order = proj.argsort()
    j = order[np.minimum(np.searchsorted(proj[order], rproj - 4.0 * eps), len(pts) - 1)]
    paired = (np.abs(pts[j] - r) <= 2.0 * eps).all(axis=1, keepdims=True)
    mids = np.where(paired, 0.5 * (pts + pts[j]), np.inf)
    cands = np.stack([c[np.abs(c - x).max(axis=1).argmin()] for c in (pts, mids)])
    d = np.abs(cands - x).max(axis=1)
    cands = cands[d <= eps][d[d <= eps].argsort(kind="stable")]
    swept = zip(cands, _min_halfplane_counts(pts, cands))
    return next((p, int(c)) for p, c in [*swept, *known] if c >= k)


def _levels(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, tuple[np.ndarray, np.ndarray]]:
    """Sample counts, a deepest point with its count, and the sample mean with the
    sorted projections of the points less it on _BOUND_DIRS[:8], from one pass.

    D_k = {x : count >= k} is the intersection of the closed halfplanes right of
    the lines (pivot, angle) with semicircle count S <= k <= S + m0 - 1 (S - 1
    points left of the line in general position; m0, the pivot's copies, covers
    collinear points behind it).  The pass keeps the levels from the count c0 at
    the centroid of the deepest meeting of the slabs between the k-th smallest
    and largest projections on _BOUND_DIRS (they contain D_k) up to that level.
    The largest level whose region's centroid x sweeps >= k is bisected.  The
    median (``_land``) is the first to sweep that level (x's count if higher) of
    the points within rounding of x, x, the sample points at the level nearest x
    first and the slab centroid, which count the bisection's start when x cannot.
    """
    mid, n = pts.mean(axis=0), len(pts)
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

    u, proj = np.concatenate([_BOUND_DIRS, -_BOUND_DIRS]), np.sort(project(q, _BOUND_DIRS), axis=0)
    slab = functools.cache(lambda k: _clip(box, u, np.r_[proj[n - k], -proj[k - 1]], tol))
    top = largest(-(-n // 3), n, lambda k: len(slab(k)))  # centerpoints: D_ceil(n/3) is nonempty
    x0, c0 = centre(slab(top))  # only the kept slab level is swept
    counts, (piv, ang, s, m0) = _min_halfplane_counts(pts, pts, (c0, top))
    span = s + m0 - 1
    a = np.stack([-np.sin(ang), np.cos(ang)], axis=1)
    b = (a * q[piv]).sum(axis=1)

    @functools.cache
    def region(k: int):  # D_k's centroid and count, from its k-edges
        on = (s <= k) & (span >= k)
        return centre(_clip(box, a[on], b[on], tol))

    lo = largest(max(int(counts.max()), c0), top, lambda k: region(k)[1] >= k)  # top >= k*
    x, cx = region(lo)
    deep = np.flatnonzero(counts == lo) if cx < lo else ()  # else x, counting lo, ends the list
    deep = sorted(deep, key=lambda i: np.abs(pts[i] - x).max())  # ties in row order
    median, count = _land(pts, x, max(cx, lo), [(x, cx), *((pts[i], lo) for i in deep), (x0, c0)])
    return counts, median, count, (mid, proj[:, :8].copy())


def _norm(x: np.ndarray, axis: int | None = None):
    """``np.linalg.norm(x, axis=axis)``; when the largest magnitude in x lies
    outside [2**-500, 2**500], where squares can leave the float range, the
    norm of x scaled by a power of two per result and scaled back (exact, as
    ``_centroid`` does)."""
    if 2.0**-500 <= np.abs(x).max() <= 2.0**500:
        return np.linalg.norm(x, axis=axis)
    e = np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(x, -e), axis=axis, keepdims=True), e).squeeze(axis)


class _SelfDepths(NamedTuple):
    """A dataset's cached self-depth pass; the arrays are read-only."""

    depths: np.ndarray  # c_i / n
    counts: np.ndarray  # the sample counts c_i
    median: tuple[float, float]
    count: int  # the median's count, >= every c_i
    weights: np.ndarray  # #{i : c_i >= c} / n for c = 0..max c_i
    centre: np.ndarray  # the origin of ``proj``: the sample mean
    proj: np.ndarray  # (n, 8) sorted projections on _BOUND_DIRS[:8] (pi/8 apart)
    ray: float  # 2 * max ||x_i - median||, the quantile's search length


@functools.lru_cache(maxsize=64)
def _self_depths(ds: Dataset) -> _SelfDepths:
    """The per-dataset cache, from the one self-depth pass of ``_levels``."""
    counts, median, count, (centre, proj) = _levels(ds.data)
    weights = np.cumsum(np.bincount(counts)[::-1])[::-1] / ds.n
    ray = 2.0 * float(np.max(_norm(ds.data - median, axis=1)))
    cached = _SelfDepths(counts / ds.n, counts, (float(median[0]), float(median[1])), count,
                         weights, centre, proj, ray)
    for a in (cached.depths, counts, weights, centre, proj):
        a.setflags(write=False)
    return cached


def tukey_median(ds: Dataset) -> tuple[np.ndarray, float]:
    """A deepest point of the 2-D sample, with its depth.

    The area centroid of the deepest region D_k*, the classical Tukey median,
    read from the k-edges of the self-depth pass that also fills
    ``sample_depths``; within rounding of a sample point, or of the midpoint of
    a pair symmetric about it, it is that exactly representable point (the
    centre of centrosymmetric data is exactly (0, 0)).  Where a region without
    interior puts the centroid below k*, the deepest sample point nearest it, else
    the slab centroid (``_levels``): collinear data land on a sample point or the
    extreme points' midpoint.  The depth is the swept count at the point.
    """
    _require_dim(ds, 2, "tukey_median")
    cached = _self_depths(ds)
    return np.array(cached.median), cached.count / ds.n


def max_depth(ds: Dataset) -> float:
    """Maximal attained halfspace depth (the Tukey median's depth)."""
    return tukey_median(ds)[1]


def sample_depths(ds: Dataset) -> np.ndarray:
    """Exact depth of every sample point w.r.t. the full sample (cached, d=2)."""
    _require_dim(ds, 2, "sample_depths")
    return _self_depths(ds).depths

"""Reference implementations used only by the tests."""

from __future__ import annotations

import numpy as np

from doqr import Dataset, DegenerateDirectionsError, depth_1d
from doqr.data import as_point, project
from doqr.halfspace import (
    _BOUND_DIRS,
    _BOUND_TOL,
    _CHUNK_BUDGET,
    _GAP_EPS,
    DepthConfig,
    _min_halfplane_counts,
)


def _perp(v: np.ndarray) -> np.ndarray:
    return np.stack([-v[:, 1], v[:, 0]], axis=1)


def depth_bruteforce(ds: Dataset, x, max_points: int = 30) -> float:
    """Depth by exhaustive direction enumeration; testing oracle for small n.

    Evaluates the closed-halfplane count over: both normals of every line
    through the query and a data point, the point-to-query directions
    themselves, the bisectors of every pair of those normals (the count is
    constant between consecutive normal directions, so bisectors of adjacent
    pairs realize every attainable count), and a 3600-angle fallback grid.
    Near-parallel normal pairs (below the shared angular resolution) are
    skipped, and counting includes a small inclusive tolerance, so that
    points lying on a halfplane boundary are never dropped by rounding.
    """
    if ds.d not in (1, 2):
        raise ValueError("depth_bruteforce supports d in {1, 2}")
    if ds.n > max_points:
        raise ValueError(f"depth_bruteforce limited to n <= {max_points} points")
    if ds.d == 1:
        return depth_1d(ds, float(np.asarray(x).reshape(())))
    x = as_point(x, 2)
    w = ds.data - x
    nz = (w[:, 0] != 0.0) | (w[:, 1] != 0.0)
    m0 = int(ds.n - np.count_nonzero(nz))
    w = w[nz]
    if w.shape[0] == 0:
        return 1.0
    v = w / np.linalg.norm(w, axis=1)[:, None]
    p = _perp(v)
    events = np.concatenate([p, -p], axis=0)
    iu, ju = np.triu_indices(events.shape[0], k=1)
    cross = events[iu, 0] * events[ju, 1] - events[iu, 1] * events[ju, 0]
    keep = np.abs(cross) > _GAP_EPS
    sums = events[iu[keep]] + events[ju[keep]]
    bisectors = sums / np.linalg.norm(sums, axis=1)[:, None]
    grid_ang = 2.0 * np.pi * np.arange(3600) / 3600.0
    grid = np.stack([np.cos(grid_ang), np.sin(grid_ang)], axis=1)
    dirs = np.concatenate([v, -v, p, -p, bisectors, grid], axis=0)
    tol = 1e-12 * np.linalg.norm(w, axis=1)
    counts = (dirs @ w.T >= -tol[None, :]).sum(axis=1)
    return (m0 + int(counts.min())) / ds.n


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


def enumeration_counts(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex candidate of the line arrangement, deduplicated, with its
    swept count: data points, pairwise midpoints and intersections of lines
    through data pairs, inside the bounding box.  Depth is constant between
    the lines, so the largest of these counts is the maximal count."""
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
    cands = np.unique(cands, axis=0)
    return cands, _min_halfplane_counts(pts, cands)


def approx_counts_pairwise(data: np.ndarray, queries: np.ndarray, cfg: DepthConfig) -> np.ndarray:
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


def tail_bound(pts: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Upper bounds of the candidates' swept counts: the min over the 32 _BOUND_DIRS
    of the smaller closed tail count, each candidate's projection widened by
    _BOUND_TOL times the largest coordinate magnitude, by binary search in each
    direction's sorted sample projections.  The reference for the d = 2
    prefilter, which partitions instead of sorting."""
    tol, out = _BOUND_TOL * np.abs(pts).max(), np.full(len(cands), len(pts))
    for u in _BOUND_DIRS:
        s = np.sort(pts[:, 0] * u[0] + pts[:, 1] * u[1])
        p = cands[:, 0] * u[0] + cands[:, 1] * u[1]
        le = np.searchsorted(s, p + tol, side="right")
        ge = len(pts) - np.searchsorted(s, p - tol, side="left")
        out = np.minimum(out, np.minimum(le, ge))
    return out


def median_mad_sorted(values: np.ndarray):
    """Median and unscaled MAD along axis 0 from two full sorts: the average of
    the order statistics ceil(n/2) and floor(n/2) + 1 (1-based) of the values,
    then of their absolute deviations from that median."""
    v = np.sort(np.asarray(values, dtype=float), axis=0)
    n = v.shape[0]
    i, j = (n + 1) // 2 - 1, n // 2
    med = 0.5 * (v[i] + v[j])
    dev = np.sort(np.abs(v - med), axis=0)
    return med, 0.5 * (dev[i] + dev[j])


def po_profile_unblocked(data: np.ndarray, queries: np.ndarray, cfg: DepthConfig) -> np.ndarray:
    """``po_profile`` over all k directions at once, holding (m, k) arrays: the
    library's code before it took directions in blocks, with the sort-based
    ``median_mad_sorted`` in place of the library's selection."""
    u = cfg.directions(data.shape[1])
    proj = project(data, u)
    med, mad = median_mad_sorted(proj)
    good = mad > 0.0
    if not np.any(good):
        raise DegenerateDirectionsError(f"all {u.shape[0]} sampled directions have zero MAD")
    ratios = (proj if queries is data else project(queries, u)).T[good]  # (k_good, m)
    ratios -= med[good, None]
    np.abs(ratios, out=ratios)
    ratios /= mad[good, None]
    return ratios.max(axis=0)


def points_in_hull(hull: np.ndarray, points: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Boolean mask of points inside the closed convex polygon ``hull``.

    ``hull`` is a CCW vertex list as produced by :func:`convex_hull`;
    degenerate hulls (segment, single point) are handled.  ``tol`` is an
    absolute distance tolerance, by default 1e-9 times the coordinate scale.
    """
    hull = np.asarray(hull, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if tol is None:
        scale = max(1.0, float(np.max(np.abs(hull))) if hull.size else 1.0)
        tol = 1e-9 * scale
    k = hull.shape[0]
    if k == 1:
        return np.linalg.norm(pts - hull[0], axis=1) <= tol
    if k == 2:
        a, b = hull[0], hull[1]
        d = b - a
        ln = float(np.linalg.norm(d))
        rel = pts - a
        cross = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0]) / ln
        t = rel @ d
        return (cross <= tol) & (t >= -tol * ln) & (t <= ln * ln + tol * ln)
    inside = np.ones(pts.shape[0], dtype=bool)
    for i in range(k):
        a = hull[i]
        b = hull[(i + 1) % k]
        e = b - a
        ln = float(np.linalg.norm(e))
        cross = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
        inside &= cross >= -tol * ln
    return inside


def clip_rolled(poly: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """``halfspace._clip`` as whole-array operations over the rolled vertices: every
    vertex with s <= tol, then p + t (q - p) on each edge whose ends fall on
    either side, t = s_p / (s_p - s_q) clipped to [0, 1]."""
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


def centroid_rolled(poly: np.ndarray) -> np.ndarray:
    """``halfspace._centroid`` with the next vertex from ``np.roll``."""
    c = poly - poly.mean(axis=0)
    cr = c[:, 0] * np.roll(c[:, 1], -1) - np.roll(c[:, 0], -1) * c[:, 1]
    if cr.sum() <= 1e-6 * np.ptp(c, axis=0).max() ** 2:
        return poly.mean(axis=0)
    return poly.mean(axis=0) + (c + np.roll(c, -1, axis=0)).T @ cr / (3 * cr.sum())


def _as_ints(values: np.ndarray) -> np.ndarray:
    """Python ints proportional to the float values, all scaled by one power of
    two (``float.as_integer_ratio``): differences and products of them are exact."""
    ratios = [v.as_integer_ratio() for v in values.ravel().tolist()]
    den = max(d for _, d in ratios)
    return np.array([num * (den // d) for num, d in ratios], dtype=object).reshape(values.shape)


def depth_count_exact(points, q) -> int:
    """Exact closed-halfplane depth count (depth * n) of the point q.

    It is n minus the most points an open halfplane through q holds, and a
    fullest open halfplane is an arc [a_i, a_i + pi) of directions from q
    anchored at a point direction: with w = p - q, point j lies in anchor i's
    arc iff cross(w_i, w_j) > 0, or cross = 0 and dot(w_i, w_j) > 0.  A float
    filter decides the clear signs (the products of the rounded differences
    err by < 6e-16 (|a| + |b|), far inside its 1e-14), and Python-int cross and
    dot products of the coordinates scaled to integers decide the rest: no
    tolerance is shared with the sweep.  O(n^2) time and memory.
    """
    pts, q = np.asarray(points, dtype=float), np.asarray(q, dtype=float)
    ints = _as_ints(np.concatenate([pts, q[None, :]]))
    w, wi = pts - q, ints[:-1] - ints[-1]
    valid = np.any(w != 0.0, axis=1)  # a float difference is 0 only for equal floats
    w, wi = w[valid], wi[valid]
    if len(w) == 0:
        return len(pts)
    a, b = w[:, None, 0] * w[None, :, 1], w[:, None, 1] * w[None, :, 0]
    inside = a - b > 0.0
    r, c = np.nonzero((np.abs(a - b) <= 1e-14 * (np.abs(a) + np.abs(b)))
                      | (np.abs(a) + np.abs(b) < 1e-280))  # underflow: go exact
    cross = wi[r, 0] * wi[c, 1] - wi[r, 1] * wi[c, 0]
    dot = wi[r, 0] * wi[c, 0] + wi[r, 1] * wi[c, 1]
    inside[r, c] = [x > 0 or (x == 0 and y > 0) for x, y in zip(cross, dot)]
    return len(pts) - int(inside.sum(axis=1).max())


def exact_side_counts(pts: np.ndarray):
    """For every data-pair line (i < j, p_i != p_j): the numbers of points strictly
    left of, strictly right of and on the directed line p_i -> p_j.

    Orientation signs are exact: a float filter decides the clear ones (no
    result depends on it), and the rest come from Python-int cross products of
    the coordinates scaled to integers (``float.as_integer_ratio``).
    """
    pts = np.asarray(pts, dtype=float)
    ints = _as_ints(pts)
    ia, ib = np.triu_indices(len(pts), k=1)
    keep = np.any(pts[ia] != pts[ib], axis=1)
    ia, ib = ia[keep], ib[keep]
    out = np.empty((3, len(ia)), dtype=np.int64)
    for s in range(0, len(ia), 512):
        a, b = ia[s : s + 512], ib[s : s + 512]
        d = (pts[b] - pts[a])[:, None, :]
        w = pts[None, :, :] - pts[a][:, None, :]
        t1, t2 = d[..., 0] * w[..., 1], d[..., 1] * w[..., 0]
        sign = np.sign(t1 - t2).astype(np.int64)
        r, c = np.nonzero(np.abs(t1 - t2) <= 1e-14 * (np.abs(t1) + np.abs(t2)))
        if len(r):
            di, wi = ints[b[r]] - ints[a[r]], ints[c] - ints[a[r]]
            cross = di[:, 0] * wi[:, 1] - di[:, 1] * wi[:, 0]
            sign[r, c] = [(v > 0) - (v < 0) for v in cross]
        out[:, s : s + 512] = [(sign > 0).sum(axis=1), (sign < 0).sum(axis=1),
                               (sign == 0).sum(axis=1)]
    return ia, ib, out


def max_count_exact(pts: np.ndarray) -> int:
    """The largest k such that some point has Tukey depth count >= k, for data
    not all on one line, from exact side counts and one LP per level.

    {x : count >= k} is the intersection of the closed halfplanes bounded by
    data-pair lines that leave at most k - 1 points strictly outside (Rousseeuw
    & Ruts).  A side with L points outside and c on the line is redundant when
    L + c <= k - 1: the parallel line moved just off the points is valid and
    stronger.  So a level takes the sides with k - c <= L <= k - 1, and it is
    nonempty when the Chebyshev-radius LP (scipy.optimize.linprog, a free radius
    maximized) reaches a radius >= -1e-9 times the data scale.  Levels are
    bisected between ceil(n / 3), which the centerpoint theorem guarantees,
    and n.
    """
    from scipy.optimize import linprog

    pts = np.asarray(pts, dtype=float)
    q = pts - pts.mean(axis=0)
    ia, ib, (left, right, on) = exact_side_counts(pts)
    d = q[ib] - q[ia]
    nrm = np.stack([-d[:, 1], d[:, 0]], axis=1) / np.linalg.norm(d, axis=1)[:, None]
    off = (nrm * q[ia]).sum(axis=1)  # the right side of p_i -> p_j: nrm x <= off
    scale = float(np.abs(q).max())

    def nonempty(k: int) -> bool:
        r = (k - on <= left) & (left <= k - 1)
        lft = (k - on <= right) & (right <= k - 1)
        a = np.concatenate([nrm[r], -nrm[lft]])
        b = np.concatenate([off[r], -off[lft]])
        if len(a) == 0:
            return True
        res = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([a, np.ones(len(a))]), b_ub=b,
                      bounds=[(None, None), (None, None), (None, scale)], method="highs")
        return res.status == 0 and -res.fun >= -1e-9 * scale

    lo, hi = -(-len(pts) // 3), len(pts)
    while lo < hi:
        k = (lo + hi + 1) // 2
        lo, hi = (k, hi) if nonempty(k) else (lo, k - 1)
    return lo

"""Reference implementations used only by the tests, in two groups.

Truth oracles share no code, constant or tolerance with the library:
``depth_count_exact``, ``exact_side_counts``, ``max_count_exact`` and
``points_in_hull``.  Every orientation sign they use is exact (``_orient``);
the one float decision left is ``max_count_exact``'s feasibility LP, with its
own margin.  A test against a truth oracle checks that the library is right.

Declared mirrors restate a library computation by another route and share the
constant or step that their docstring names, on purpose: ``depth_bruteforce``,
``tail_bound``, ``clip_rolled``, ``centroid_rolled``, ``median_mad_sorted``,
``po_profile_unblocked`` and ``approx_counts_pairwise``.  A test against a
mirror checks that the library kept its semantics (often its bytes) through a
rewrite, not that they are right.

A new oracle joins the truth oracles only if it uses nothing from ``doqr`` and
decides its comparisons exactly; otherwise it is a mirror and names what it
shares.  ``tests/test_package.py`` checks what this module takes from
``doqr.halfspace``.
"""

from __future__ import annotations

import numpy as np

from doqr import Dataset, DegenerateDirectionsError, depth_1d
from doqr.data import as_point, project
from doqr.halfspace import _BOUND_DIRS, _BOUND_TOL, _GAP_EPS, DepthConfig


def _orient(o, a, b) -> np.ndarray:
    """Exact signs (1, 0, -1) of cross(a - o, b - o) over broadcast (..., 2)
    float arrays: b left of, on or right of the directed line o -> a.

    A float filter decides the clear signs: the products of the rounded
    differences err by < 6e-16 (|t1| + |t2|), far inside its 1e-14.  The rest,
    and products that under- or overflow, come from Python-int cross products
    of the coordinates, all scaled to integers by one power of two
    (``float.as_integer_ratio``).
    """
    o, a, b = (np.asarray(v, dtype=float) for v in (o, a, b))
    with np.errstate(all="ignore"):
        u, v = a - o, b - o
        t1, t2 = u[..., 0] * v[..., 1], u[..., 1] * v[..., 0]
        mag = np.abs(t1) + np.abs(t2)
        clear = (np.abs(t1 - t2) > 1e-14 * mag) & (mag >= 1e-280)
        sign = np.where(clear, np.sign(t1 - t2), 0.0).astype(np.int64)
    idx = np.nonzero(~clear)
    if len(idx[0]):
        shape = clear.shape + (2,)
        vals = np.stack([np.broadcast_to(p, shape)[idx] for p in (o, a, b)])  # (3, m, 2)
        uniq, inv = np.unique(vals, return_inverse=True)
        ratios = [x.as_integer_ratio() for x in uniq.tolist()]
        den = max(d for _, d in ratios)
        ints = np.array([num * (den // d) for num, d in ratios], dtype=object)
        (ox, oy), (ax, ay), (bx, by) = ints[inv.reshape(vals.shape)].transpose(0, 2, 1)
        cross = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
        sign[idx] = (cross > 0).astype(np.int64) - (cross < 0).astype(np.int64)
    return sign


def depth_count_exact(points, q) -> int:
    """Exact closed-halfplane depth count (depth * n) of the point q.

    It is n minus the most points an open halfplane through q holds, and a
    fullest open halfplane is an arc [a_i, a_i + pi) of directions from q
    anchored at a point direction: with w = p - q, point j lies in anchor i's
    arc iff cross(w_i, w_j) > 0, or cross = 0 and dot(w_i, w_j) > 0.  The
    crosses are exact (``_orient``).  Along one line the dot's sign is the sum of
    the products of the coordinates' signs, which the rounded differences keep.
    O(n^2) time and memory.
    """
    pts, q = np.asarray(points, dtype=float), np.asarray(q, dtype=float)
    w = pts[np.any(pts != q, axis=1)]  # a point at q lies in every halfplane
    if len(w) == 0:
        return len(pts)
    cross = _orient(q, w[:, None, :], w[None, :, :])
    s = np.sign(w - q)
    ahead = s[:, None, 0] * s[None, :, 0] + s[:, None, 1] * s[None, :, 1] > 0
    inside = (cross > 0) | ((cross == 0) & ahead)
    return len(pts) - int(inside.sum(axis=1).max())


def exact_side_counts(pts: np.ndarray):
    """For every data-pair line (i < j, p_i != p_j): the numbers of points strictly
    left of, strictly right of and on the directed line p_i -> p_j, from exact
    orientation signs (``_orient``)."""
    pts = np.asarray(pts, dtype=float)
    ia, ib = np.triu_indices(len(pts), k=1)
    keep = np.any(pts[ia] != pts[ib], axis=1)
    ia, ib = ia[keep], ib[keep]
    out = np.empty((3, len(ia)), dtype=np.int64)
    for s in range(0, len(ia), 512):
        sign = _orient(pts[ia[s : s + 512], None], pts[ib[s : s + 512], None], pts[None])
        out[:, s : s + 512] = [(sign > 0).sum(axis=1), (sign < 0).sum(axis=1),
                               (sign == 0).sum(axis=1)]
    return ia, ib, out


def max_count_exact(pts: np.ndarray) -> int:
    """The largest k such that some point has Tukey depth count >= k, from exact
    side counts, then the 1-D rule or one LP per level.

    With no point off any pair line, the data lie on one line (or coincide): a
    point off it has count 0, and a point on it its 1-D count, largest at a
    sample point.  So the answer is the most, over the distinct points in order
    along the line, of the smaller of #{at or before} and #{at or after}.
    Otherwise {x : count >= k}
    is the intersection of the closed halfplanes bounded by data-pair lines that
    leave at most k - 1 points strictly outside (Rousseeuw & Ruts).  A side with
    L points outside and c on the line is redundant when L + c <= k - 1: the
    parallel line moved just off the points is valid and stronger.  So a level
    takes the sides with k - c <= L <= k - 1, and it is nonempty when the
    Chebyshev-radius LP (scipy.optimize.linprog, a free radius maximized)
    reaches a radius >= -1e-9 times the data scale.  Levels are bisected between
    ceil(n / 3), which the centerpoint theorem guarantees, and n.
    """
    from scipy.optimize import linprog

    pts = np.asarray(pts, dtype=float)
    ia, ib, (left, right, on) = exact_side_counts(pts)
    if not (left + right).any():
        mult = np.unique(pts, axis=0, return_counts=True)[1]  # lexicographic: along the line
        before = np.cumsum(mult)
        return int(np.minimum(before, len(pts) - before + mult).max())
    q = pts - pts.mean(axis=0)
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


def points_in_hull(hull: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Boolean mask of the points in the closed convex polygon ``hull``, a CCW
    vertex list as from ``convex_hull`` (a segment or a single point included),
    decided exactly: in the hull's bounding box, and on or left of every edge
    (``_orient``).  For a segment the edges run both ways, so the points must lie
    on its line; for a single point the box is the point."""
    hull = np.asarray(hull, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.all((pts >= hull.min(axis=0)) & (pts <= hull.max(axis=0)), axis=1)
    nxt = np.roll(hull, -1, axis=0)
    return inside & (_orient(hull[:, None], nxt[:, None], pts[None]) >= 0).all(axis=0)


def depth_bruteforce(ds: Dataset, x, max_points: int = 30) -> float:
    """Depth by exhaustive direction enumeration, for small n.

    Evaluates the closed-halfplane count over: both normals of every line
    through the query and a data point, the point-to-query directions
    themselves, the bisectors of every pair of those normals (the count is
    constant between consecutive normal directions, so bisectors of adjacent
    pairs realize every attainable count), and a 3600-angle fallback grid.

    A mirror of the sweep's antipodal snap: it skips the bisector of a normal
    pair less than ``_GAP_EPS`` from parallel, and counts within 1e-12 of a
    boundary as on it, so that it agrees with the sweep where a query built
    from the data (a pair midpoint) sees two points antipodal up to rounding.
    The exact count (``depth_count_exact``) is one lower at such midpoints.
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
    p = np.stack([-v[:, 1], v[:, 0]], axis=1)
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


def tail_bound(pts: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Upper bounds of the candidates' swept counts: the min over the 32 _BOUND_DIRS
    of the smaller closed tail count, each candidate's projection widened by
    _BOUND_TOL times the largest coordinate magnitude, by binary search in each
    direction's sorted sample projections.

    A mirror of the d = 2 level prefilter, which partitions instead of sorting:
    it shares the directions and the margin, because the test is that the
    partition computes this bound."""
    tol, out = _BOUND_TOL * np.abs(pts).max(), np.full(len(cands), len(pts))
    for u in _BOUND_DIRS:
        s = np.sort(pts[:, 0] * u[0] + pts[:, 1] * u[1])
        p = cands[:, 0] * u[0] + cands[:, 1] * u[1]
        le = np.searchsorted(s, p + tol, side="right")
        ge = len(pts) - np.searchsorted(s, p - tol, side="left")
        out = np.minimum(out, np.minimum(le, ge))
    return out


def clip_rolled(poly: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """``halfspace._clip`` as whole-array operations over the rolled vertices: every
    vertex with s <= tol, then p + t (q - p) on each edge whose ends fall on
    either side, t = s_p / (s_p - s_q) clipped to [0, 1].

    A mirror of ``_clip``'s steps and its ``tol``: the test pins its bytes."""
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
    """``halfspace._centroid`` with the next vertex from ``np.roll``.

    A mirror of ``_centroid``'s formula and its 1e-6 thinness threshold: the
    test pins its bytes."""
    c = poly - poly.mean(axis=0)
    cr = c[:, 0] * np.roll(c[:, 1], -1) - np.roll(c[:, 0], -1) * c[:, 1]
    if cr.sum() <= 1e-6 * np.ptp(c, axis=0).max() ** 2:
        return poly.mean(axis=0)
    return poly.mean(axis=0) + (c + np.roll(c, -1, axis=0)).T @ cr / (3 * cr.sum())


def median_mad_sorted(values: np.ndarray):
    """Median and unscaled MAD along axis 0 from two full sorts: the average of
    the order statistics ceil(n/2) and floor(n/2) + 1 (1-based) of the values,
    then of their absolute deviations from that median.

    A mirror of the library's median and MAD (its order statistics and its
    float steps), found by sorting instead of selection: the test pins bytes."""
    v = np.sort(np.asarray(values, dtype=float), axis=0)
    n = v.shape[0]
    i, j = (n + 1) // 2 - 1, n // 2
    med = 0.5 * (v[i] + v[j])
    dev = np.sort(np.abs(v - med), axis=0)
    return med, 0.5 * (dev[i] + dev[j])


def po_profile_unblocked(data: np.ndarray, queries: np.ndarray, cfg: DepthConfig) -> np.ndarray:
    """``po_profile`` over all k directions at once, holding (m, k) arrays: the
    library's code before it took directions in blocks, with the sort-based
    ``median_mad_sorted`` in place of the library's selection.

    A mirror: it shares ``DepthConfig.directions`` and ``project``, so that the
    test can pin the blocked profile's bytes."""
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


def approx_counts_pairwise(data: np.ndarray, queries: np.ndarray, cfg: DepthConfig) -> np.ndarray:
    """Per query, the min over the config's directions of the smaller closed
    tail count, by comparing its projection with every point's.  A sample point
    counts in both its own tails, so at least 1.

    A mirror: it shares ``DepthConfig.directions`` and ``project`` (the same
    products), so that ties in the projections are the library's ties."""
    u = cfg.directions(data.shape[1])
    proj = project(data, u)  # (n, k)
    out = np.empty(queries.shape[0], dtype=np.int64)
    chunk = max(1, 65_536 // proj.size)  # queries per (chunk, n, k) comparison
    for s in range(0, queries.shape[0], chunk):
        t = project(queries[s : s + chunk], u)[:, None, :]
        le = np.count_nonzero(proj <= t, axis=1)
        ge = np.count_nonzero(proj >= t, axis=1)
        out[s : s + chunk] = np.minimum(le, ge).min(axis=1)
    return out

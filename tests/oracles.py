"""Reference implementations used only by the tests."""

from __future__ import annotations

import numpy as np

from doqr import Dataset, depth_1d
from doqr.data import as_point
from doqr.halfspace import (
    _GAP_EPS,
    _line_intersections,
    _min_halfplane_counts,
    _tie_break_best,
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


def enumeration_counts(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every arrangement candidate of the median enumeration, deduplicated,
    with its exact count: data points, pairwise midpoints and intersections
    of lines through data pairs, inside the bounding box."""
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


def tukey_median_enumerated(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """Deepest point and its count by sweeping every arrangement candidate,
    then the library's tie-break: the enumeration ``tukey_median`` ran before
    it bounded the candidates."""
    return _tie_break_best(*enumeration_counts(pts))

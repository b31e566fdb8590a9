"""Reference implementations used only by the tests."""

from __future__ import annotations

import numpy as np

from doqr import Dataset, depth_1d
from doqr.data import as_point
from doqr.halfspace import _GAP_EPS


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

"""Projection outlyingness: scaled deviation |x - median| / MAD and its
sup-over-directions multivariate generalization, plus the induced depth.

Median convention (fixed so results are exactly reproducible): the average
of the order statistics at positions ceil(n/2) and floor(n/2)+1 (1-based).
MAD is the median, same convention, of absolute deviations from that median,
with no consistency factor.
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import Dataset, as_point, project
from .halfspace import DepthConfig, _require_dim, _scan_directions


class DegenerateScaleWarning(UserWarning):
    """Scale (MAD) is zero along the evaluated direction."""


class DegenerateDirectionsError(ValueError):
    """Every sampled direction had zero MAD; no outlyingness is defined."""


def _median_partitioned(v: np.ndarray, j: int):
    # rows of v partitioned at j = floor(n/2) + 1 (1-based); average of the order
    # statistics ceil(n/2) and j per row.  For even n the lower one is the largest
    # of the j entries below v[..., j].
    lower = v[..., j] if v.shape[-1] % 2 else v[..., :j].max(axis=-1)
    return 0.5 * (lower + v[..., j])


def _median_mad_rows(rows: np.ndarray, work: np.ndarray):
    """Median (as +0.0 when zero) and MAD of each row, read from in-place
    partitions of ``work``, a buffer of the rows' shape; ``rows`` is left holding
    the absolute deviations |row - median|."""
    j = rows.shape[-1] // 2
    np.copyto(work, rows)
    work.partition(j, axis=-1)
    med = _median_partitioned(work, j) + 0.0
    rows -= np.expand_dims(med, -1)
    np.abs(rows, out=rows)
    np.copyto(work, rows)
    work.partition(j, axis=-1)
    return med, _median_partitioned(work, j)


def median_mad(values: np.ndarray):
    """Median and unscaled MAD along axis 0 (per column of an (n, k) array),
    midpoint-average convention; a zero median is returned as +0.0.  Each is read
    from one partition at the upper central index, not a full sort, with the same
    order statistics."""
    rows = np.array(values, dtype=float).T
    return _median_mad_rows(rows, np.empty(rows.shape))


def po_1d(ds: Dataset, x: float) -> float:
    """Scaled deviation |x - median| / MAD for a univariate sample.

    When MAD is zero (more than half the points identical) the value is
    +inf for x off the median and 0 at the median, and a
    DegenerateScaleWarning is issued.
    """
    _require_dim(ds, 1, "po_1d")
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("query must be finite")
    med, mad = median_mad(ds.data[:, 0])
    dev = abs(x - med)
    if mad == 0.0:
        warnings.warn(
            "MAD is zero: more than half the sample is identical", DegenerateScaleWarning
        )
        return 0.0 if dev == 0.0 else np.inf
    return dev / mad


def po_profile(data: np.ndarray, queries: np.ndarray, cfg: DepthConfig) -> np.ndarray:
    """Max scaled deviation |u.x - med| / MAD over the config's directions,
    per query.

    Directions with zero projected MAD are skipped, so the profile is -inf, and
    DegenerateDirectionsError is raised, exactly when every direction has zero
    MAD.  Each block of directions (``_scan_directions``) scores its max per
    query, and the blocks merge by an elementwise max: memory is
    O(block + m + k) for m points and k directions.
    """
    u = cfg.directions(data.shape[1])

    def score(uc, proj, work):  # (block, m)
        med, mad = _median_mad_rows(proj, work)  # proj now holds the sample's deviations
        ratios = proj if queries is data else np.abs(project(queries, uc).T - med[:, None])
        good = mad > 0.0
        if not good.all():  # skip the zero-MAD rows
            ratios, mad = ratios[good], mad[good]
        ratios /= mad[:, None]
        return ratios.max(axis=0, initial=-np.inf)

    best = _scan_directions(score, np.maximum, data, u)
    if np.isneginf(best).all():
        raise DegenerateDirectionsError(f"all {len(u)} sampled directions have zero MAD")
    return best


def po_approx(ds: Dataset, x, cfg: DepthConfig) -> float:
    """Projection outlyingness approximated from below over sampled directions.

    Directions come from substream 0 of the config's seed (same scheme as
    ``depth_approx``), so values are deterministic and nondecreasing when the
    budget grows along a fixed stream.
    """
    return float(po_profile(ds.data, as_point(x, ds.d)[None, :], cfg)[0])


def projection_depth(ds: Dataset, x, cfg: DepthConfig) -> float:
    """Depth induced from projection outlyingness via 1 / (1 + O)."""
    o = po_approx(ds, x, cfg)
    return 1.0 / (1.0 + o)

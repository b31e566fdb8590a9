"""Checkers for doqr's outputs.  Each returns a list of problems (empty: pass).

They compare against the computations in ``oracles`` and against properties
that hold for every correct answer, never against stored output.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

RANK_CAP = 1.0 - 1e-9  # documented cap on ||u|| for zero-depth points
ENUM_LIMIT = 60  # documented: tukey_median enumerates the arrangement up to this n


def counts(got, want, what: str) -> list[str]:
    """Program depth counts must equal the exact counts."""
    bad = np.nonzero(np.asarray(got) != np.asarray(want))[0]
    return [f"{what} {i}: depth count {got[i]}, exact {want[i]}" for i in bad]


def median(n: int, count: int, deepest_sample: int, exact_at_point: int) -> list[str]:
    """Reported maximal count vs the centerpoint bound, the deepest sample
    point, and the exact count at the returned point.

    Beyond the documented enumeration limit (n = 60) the median is a point
    of a search grid, evaluated as it is: its exact count must equal the
    reported one.  Up to the limit it is an arrangement vertex or midpoint
    rounded to floats, which can fall off a line through it; that moves only
    the points on that line (two, in general position) across a halfplane
    boundary, so its exact count may lie up to 2 below the reported one."""
    out = []
    if count < math.ceil(n / 3):
        out.append(f"median count {count} below centerpoint bound {math.ceil(n / 3)}")
    if count < deepest_sample:
        out.append(f"median count {count} below a sample point's count {deepest_sample}")
    slack = 2 if n <= ENUM_LIMIT else 0
    if not count - slack <= exact_at_point <= count:
        out.append(f"median count {count}, exact count {exact_at_point} at the point")
    return out


class Regions:
    """Closed hulls of {depth >= k} and their weights, computed per level
    from given sample depth counts, with scipy hulls."""

    def __init__(self, points, sample_counts):
        self.pts = np.asarray(points, dtype=float)
        self.counts = np.asarray(sample_counts)
        self.n = self.pts.shape[0]
        self._memo = {}

    def level(self, k: int):
        """(low, high, vertex indices) for level k; vertices None if empty."""
        if k not in self._memo:
            self._memo[k] = oracles.region_weight_bounds(self.pts, self.counts, k)
        return self._memo[k]

    def weight_bounds(self, point_count: int) -> tuple[float, float]:
        """Bounds of the rank weight p at a point of the given exact count:
        1 outside the data, else the region weight at the point's level, or
        at the deepest attained level when no sample point is that deep."""
        if point_count == 0:
            return 1.0, 1.0
        k = min(point_count, int(self.counts.max()))
        lo, hi, _ = self.level(k)
        return lo / self.n, hi / self.n


def region(reg: Regions, k: int, vertices, weight: float) -> list[str]:
    lo, hi, idx = reg.level(k)
    if idx is None:
        return [f"level {k}: no sample point attains it, but a region was returned"]
    out = []
    want = {tuple(p) for p in reg.pts[idx]}
    got = {tuple(p) for p in np.asarray(vertices, dtype=float)}
    if got != want:
        out.append(f"level {k}: {len(got)} vertices, hull has {len(want)}; "
                   f"{len(want - got)} missing, {len(got - want)} extra")
    if not lo <= round(weight * reg.n) <= hi:
        out.append(f"level {k}: weight {weight} outside [{lo}, {hi}]/{reg.n}")
    return out


def nesting(levels, regions_) -> list[str]:
    """Regions at increasing levels must be contained in each other."""
    out = []
    order = np.argsort(levels)
    for a, b in zip(order[:-1], order[1:]):
        outer, inner = regions_[a], regions_[b]
        inside, unsure = oracles.closed_hull_membership(outer.vertices, inner.vertices)
        if not np.all(inside | unsure) or inner.weight > outer.weight:
            out.append(f"region at level {levels[b]} not nested in level {levels[a]}")
    return out


def trimmed_mean(points, sample_counts, k: int, got) -> list[str]:
    pts = np.asarray(points, dtype=float)
    sel = pts[np.asarray(sample_counts) >= k]
    want = oracles.mean_exact(sel)
    tol = 1e-12 * max(1.0, float(np.abs(sel).max()))
    if np.max(np.abs(np.asarray(got) - want)) > tol:
        return [f"trimmed mean at level {k}: {got}, mean of {sel.shape[0]} points is {want}"]
    return []


def rank(reg: Regions, m, x, point_count: int, u, p, v) -> list[str]:
    """u = p v with v the unit vector from the median and p the region
    weight at x's exact depth level (capped)."""
    x, m = np.asarray(x, dtype=float), np.asarray(m, dtype=float)
    diff = x - m
    want_v = diff / np.linalg.norm(diff)
    lo, hi = reg.weight_bounds(point_count)
    out = []
    if np.max(np.abs(np.asarray(v) - want_v)) > 1e-12:
        out.append(f"rank direction {v}, expected {want_v}")
    if not min(lo, RANK_CAP) <= p <= min(hi, RANK_CAP):
        out.append(f"rank weight {p} outside [{lo}, {hi}] at count {point_count}")
    if np.max(np.abs(np.asarray(u) - p * want_v)) > 1e-12:
        out.append(f"rank u {u} is not p * v = {p * want_v}")
    return out


def quantile(reg: Regions, m, u, y, radius: float, count_at) -> list[str]:
    """y must lie on the ray from m along u and be its first crossing of
    weight ||u||: |p(y) - ||u||| <= 1/n, or p just before y is < ||u|| and
    p just after is >= ||u||.  ``count_at`` gives exact depth counts;
    "just before/after" is one bisection resolution (1e-6 of the documented
    search length 2 * radius) along the ray."""
    m, u, y = (np.asarray(a, dtype=float) for a in (m, u, y))
    nu = float(np.linalg.norm(u))
    n = reg.n
    d = y - m
    t = float(np.linalg.norm(d))
    if t == 0.0:
        lo, hi = reg.weight_bounds(count_at(m))
        return [] if hi >= nu - 1e-12 else [f"quantile at the median, but p(m) = {hi} < {nu}"]
    cross = d[0] * u[1] - d[1] * u[0]
    if abs(cross) > 1e-9 * t * nu or d @ u <= 0:
        return [f"quantile {y} is off the ray from {m} along {u}"]
    lo, hi = reg.weight_bounds(count_at(y))
    if lo - 1.0 / n - 1e-12 <= nu <= hi + 1.0 / n + 1e-12:
        return []
    v = d / t
    step = 1e-6 * 2.0 * radius
    before = reg.weight_bounds(count_at(m + max(t - step, 0.0) * v))
    after = reg.weight_bounds(count_at(m + (t + step) * v))
    if before[0] < nu <= after[1]:
        return []
    return [f"quantile {y}: weight {lo}..{hi} at the point, {before} before, "
            f"{after} after, target {nu}"]


def flagged_counts(flagged, truth) -> tuple[int, tuple, tuple, int]:
    """(n_flagged, detected, masked, false positives) of a flagged set."""
    f, t = set(flagged), set(truth)
    return len(f), tuple(sorted(t & f)), tuple(sorted(t - f)), len(f - t)


def identification(report, sure, unsure, truth, what: str) -> list[str]:
    """A report tuple (n_flagged, detected, masked, fp) must come from a
    flagged set F with sure <= F <= sure | unsure."""
    n_flagged, detected, masked, fp = report
    sure, unsure, t = set(sure), set(unsure), set(truth)
    det = set(detected)
    ok = (t & sure <= det <= t & (sure | unsure)
          and set(masked) == t - det
          and len(sure - t) <= fp <= len((sure | unsure) - t)
          and n_flagged == len(det) + fp)
    if ok:
        return []
    return [f"{what}: reported {n_flagged} flagged, detected {detected}, masked {masked}, "
            f"fp {fp}; expected flagged set {sorted(sure)} (+ either of {sorted(unsure)})"]


def close(got: float, want: float, rel: float, what: str) -> list[str]:
    if abs(got - want) <= rel * max(abs(want), 1e-300):
        return []
    return [f"{what}: {got!r}, reference {want!r}"]


def cli_output(code: int, stdout: str, want: str, what: str) -> list[str]:
    if code != 0:
        return [f"{what}: exit code {code}"]
    if stdout != want:
        return [f"{what}: printed {stdout!r}, library gives {want!r}"]
    return []

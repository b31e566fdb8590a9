import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doqr import (
    Dataset,
    EmptyRegionError,
    affine_transform,
    central_region,
    contour_polyline,
    convex_hull,
    depth_2d_exact,
    doqr_depth,
    max_depth,
    outlyingness,
    quantile_function,
    rank_function,
    sample_depths,
    sign_test,
    trimmed_mean,
    tukey_median,
)
from doqr.halfspace import _members_at_least
from oracles import depth_count_exact, points_in_hull

AXES4 = Dataset([[1, 0], [-1, 0], [0, 1], [0, -1]])
AXES5 = Dataset([[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]])
CAP = 1.0 - 1e-9


def symmetric_dataset(rng, k):
    half = rng.standard_normal((k, 2))
    return Dataset(np.concatenate([half, -half]))


def test_convex_hull_basic_and_degenerate():
    hull = convex_hull(np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1], [2, 1]], float))
    assert hull.shape == (4, 2)
    # counterclockwise orientation: positive signed area
    area2 = 0.0
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        area2 += a[0] * b[1] - a[1] * b[0]
    assert area2 > 0
    seg = convex_hull(np.array([[0, 0], [1, 1], [2, 2], [3, 3]], float))
    assert seg.shape == (2, 2)
    single = convex_hull(np.array([[1, 2], [1, 2]], float))
    assert single.shape == (1, 2)


def test_points_in_hull_closed_semantics():
    hull = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float)
    pts = np.array([[1, 1], [0, 0], [2, 1], [2.0000001, 1], [3, 3], [-0.1, 0]])
    got = points_in_hull(hull, pts, tol=1e-9)
    assert got.tolist() == [True, True, True, False, False, False]
    seg = np.array([[0, 0], [2, 2]], float)
    got = points_in_hull(seg, np.array([[1, 1], [1, 1.1], [3, 3], [0, 0]]))
    assert got.tolist() == [True, False, False, True]
    pt = np.array([[1, 1]], float)
    got = points_in_hull(pt, np.array([[1, 1], [1.1, 1]]))
    assert got.tolist() == [True, False]


def level_families():
    """Seeded 2-D samples for the level-membership oracle: general position,
    rounded to 1 decimal and to halves, half on one line (also rounded), all
    collinear, duplicate-heavy, all identical, n = 1, and a point the sweep
    snaps onto the line through two others."""
    rng = np.random.default_rng(2024)
    for n in (2, 3, 7, 20, 61, 150, 400):
        x = rng.standard_normal((n, 2))
        yield f"general-{n}", x
        yield f"decimal-{n}", np.round(x, 1)
        yield f"halves-{n}", np.round(2.0 * x) / 2.0
        t = rng.standard_normal(n)
        line = np.stack([0.3 + t, -1.0 + 2.0 * t], axis=1)
        yield f"half-line-{n}", np.concatenate([line[: n // 2], x[n // 2 :]])
        yield f"half-line-decimal-{n}", np.round(np.concatenate([line[: n // 2], x[n // 2 :]]), 1)
        yield f"collinear-{n}", line
        pool = rng.standard_normal((max(1, n // 8), 2)).round(1)
        yield f"duplicates-{n}", pool[rng.integers(0, pool.shape[0], n)]
    yield "identical", np.full((9, 2), 1.5)
    yield "single", np.array([[0.25, -3.0]])
    # the sweep's antipodal snap counts both ends of this near-line at the origin
    yield "snap", np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 5e-10]])


def test_members_at_least_matches_sample_depths():
    for name, pts in level_families():
        ds = Dataset(pts)
        counts = np.rint(sample_depths(ds) * ds.n)
        top = int(counts.max())
        for k in sorted({1, 2, 3, ds.n // 10, ds.n // 4, top, top + 1}):
            got = _members_at_least(ds.data, k)
            assert got.dtype == bool and np.array_equal(got, counts >= k), (name, k)


def boundary_levels(n: int) -> list[float]:
    """k / n for k = 0..n + 1, shifted by +-5e-13, +-1e-12 and +-2e-12, and its
    two float neighbours: on both sides of the 1e-12 level slack."""
    out = []
    for k in range(n + 2):
        a = k / n
        out += [a + s for s in (0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12)]
        out += [np.nextafter(a, -np.inf), np.nextafter(a, np.inf)]
    return [float(a) for a in out]


def test_levels_at_the_slack_boundary():
    rng = np.random.default_rng(77)
    for n in (1, 2, 7, 20, 61):
        x = rng.standard_normal((n, 2))
        t = rng.standard_normal(n)
        pool = rng.standard_normal((max(1, n // 6), 2)).round(1)
        for pts in (x, x.round(1), pool[rng.integers(0, len(pool), n)],
                    np.stack([0.3 + t, -1.0 + 2.0 * t], axis=1)):
            ds = Dataset(pts)
            depths, top = sample_depths(ds), max_depth(ds)
            for a in boundary_levels(n):
                # a level selects the points whose depth reaches it up to 1e-12
                want = depths >= a - 1e-12
                if not (a > 0.0 and top >= a - 1e-12):
                    with pytest.raises(ValueError) as err:
                        central_region(ds, a)
                    assert not isinstance(err.value, EmptyRegionError), (n, a)
                elif not want.any():
                    with pytest.raises(EmptyRegionError):
                        central_region(ds, a)
                else:
                    reg = central_region(ds, a)
                    assert np.array_equal(reg.vertices, convex_hull(ds.data[want])), (n, a)
                    assert reg.weight == np.count_nonzero(want) / n, (n, a)
                if a <= 0.0:
                    with pytest.raises(ValueError) as err:
                        trimmed_mean(ds, a)
                    assert not isinstance(err.value, EmptyRegionError), (n, a)
                elif not want.any():
                    with pytest.raises(EmptyRegionError):
                        trimmed_mean(ds, a)
                else:
                    assert np.array_equal(trimmed_mean(ds, a), ds.data[want].mean(axis=0)), (n, a)
            # a rank's weight counts the sample points at least as deep as the
            # query, up to the deepest sample count (which a query beside the
            # median can exceed); the query's count is exact
            counts = np.rint(depths * n).astype(int)
            near_median = tukey_median(ds)[0] + [1e-7, 3e-8]
            for q in [*2.0 * rng.standard_normal((8, 2)), near_median]:
                c = min(depth_count_exact(ds.data, q), counts.max())
                assert rank_function(ds, q).p == min(np.count_nonzero(counts >= c) / n, CAP), (n, q)


def test_central_region_examples():
    # every sample point has depth >= 1/n, so the lowest region is everything
    reg = central_region(AXES5, 1 / 5)
    assert reg.weight == 1.0
    assert points_in_hull(reg.vertices, AXES5.data).all()
    with pytest.raises(EmptyRegionError):
        central_region(AXES4, 1 / 2)  # vertices have depth 1/4; max depth is 1/2
    reg = central_region(AXES5, 2 / 5)
    assert reg.vertices.shape == (1, 2)
    assert np.array_equal(reg.vertices[0], [0.0, 0.0])
    assert reg.weight == 1 / 5


def test_collinear_region_weights_count_members():
    # float-collinear sample: every point lies within rounding of each region's
    # segment, so a weight must count the members, not test the hull with a tolerance
    t = np.random.default_rng(0).standard_normal(9)
    ds = Dataset(np.stack([t, 2 * t + 1], axis=1))
    r = np.argsort(np.argsort(t)) + 1
    counts = np.minimum(r, ds.n - r + 1)  # a point's depth on a line is its 1-D rank depth
    assert counts.tolist() == [5, 3, 3, 4, 2, 4, 1, 2, 1]
    weights = [central_region(ds, k / 9).weight for k in range(1, 6)]
    assert weights == [9 / 9, 7 / 9, 5 / 9, 3 / 9, 1 / 9]
    assert rank_function(ds, ds.data[counts == 4][0]).p == 3 / 9
    assert rank_function(ds, ds.data[counts == 2][0]).p == 7 / 9
    q = quantile_function(ds, 0.5 * np.array([1.0, 2.0]) / np.sqrt(5.0))
    assert depth_2d_exact(ds, q) == 3 / 9
    # between the count-4 point at t ~ 0.362 and the count-3 one at t ~ 0.640
    assert t[5] < q[0] < t[2]


def _in_closed_hull(hull: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Exact membership of integer points in the closed hull of integer CCW vertices."""
    hull, pts = hull.astype(np.int64), pts.astype(np.int64)
    if hull.shape[0] == 1:
        return (pts == hull[0]).all(axis=1)
    edge = np.roll(hull, -1, axis=0) - hull
    rel = pts[None, :, :] - hull[:, None, :]
    cross = edge[:, None, 0] * rel[:, :, 1] - edge[:, None, 1] * rel[:, :, 0]  # (edges, points)
    inside = (cross >= 0).all(axis=0)
    if hull.shape[0] == 2:  # a segment: on its line and within its box
        lo, hi = hull.min(axis=0), hull.max(axis=0)
        inside = (cross[0] == 0) & ((pts >= lo) & (pts <= hi)).all(axis=1)
    return inside


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=13))
def test_region_weights_count_closed_hull(points):
    # small integer samples: duplicates and exact collinearity are common
    ds = Dataset(np.array(points, dtype=float))
    counts = np.rint(sample_depths(ds) * ds.n).astype(int)
    m, _ = tukey_median(ds)
    weight, prev = {}, None
    for c in np.unique(counts):
        reg = central_region(ds, c / ds.n)
        members = ds.data[counts >= c]
        # the vertices are members and every member lies in their closed hull
        assert (reg.vertices[:, None, :] == members).all(axis=2).any(axis=1).all()
        assert _in_closed_hull(reg.vertices, members).all()
        assert reg.weight == np.count_nonzero(_in_closed_hull(reg.vertices, ds.data)) / ds.n
        if prev is not None:  # nested: the deeper region lies in the shallower one, weighs less
            assert _in_closed_hull(prev.vertices, reg.vertices).all()
            assert reg.weight < prev.weight
        weight[c], prev = reg.weight, reg
    for x, c in zip(ds.data, counts):
        want = 0.0 if (x == m).all() else min(weight[c], CAP)
        assert rank_function(ds, x).p == want


def test_central_region_level_validation():
    with pytest.raises(ValueError):
        central_region(AXES5, 0.0)
    with pytest.raises(ValueError):
        central_region(AXES5, max_depth(AXES5) + 0.01)


def test_rank_function_examples():
    m, _ = tukey_median(AXES5)
    rv = rank_function(AXES5, m)
    assert rv.p == 0.0 and np.array_equal(rv.u, [0.0, 0.0])
    far = rank_function(AXES5, [60.0, 0.0])
    assert far.p == CAP
    assert np.array_equal(far.v, [1.0, 0.0])
    # depth of (1,0) is 1/5; the region at that level is the hull of all
    # five points with weight 1, capped
    rv = rank_function(AXES5, [1.0, 0.0])
    assert np.array_equal(rv.v, [1.0, 0.0])
    assert rv.p == CAP
    assert np.allclose(rv.u, [CAP, 0.0])
    # deeper than every sample point: the deepest nonempty region's weight
    ds = Dataset([[2, 2], [2, -2], [-2, 2], [-2, -2], [1, 0], [-1, 0], [0, 1], [0, -1]])
    assert depth_2d_exact(ds, [0.1, 0.0]) > sample_depths(ds).max()
    assert rank_function(ds, [0.1, 0.0]).p == 4 / 8


def test_outlyingness_examples_and_monotone_along_ray():
    m, _ = tukey_median(AXES5)
    assert outlyingness(AXES5, m) == 0.0
    assert outlyingness(AXES5, [9.0, 9.0]) == CAP
    rng = np.random.default_rng(31)
    ds = Dataset(rng.standard_normal((60, 2)))
    m, _ = tukey_median(ds)
    v = np.array([0.6, -0.8])
    vals = [outlyingness(ds, m + t * v) for t in np.linspace(0.0, 4.0, 25)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= val < 1.0 for val in vals)


def test_doqr_depth_examples():
    m, _ = tukey_median(AXES5)
    assert doqr_depth(AXES5, m) == 1.0
    assert doqr_depth(AXES5, [9.0, 9.0]) == 1.0 / (1.0 + CAP)
    rng = np.random.default_rng(6)
    ds = Dataset(rng.standard_normal((40, 2)))
    o = np.array([outlyingness(ds, p) for p in ds.data])
    d = np.array([doqr_depth(ds, p) for p in ds.data])
    order = np.argsort(o)
    assert np.all(np.diff(d[order]) <= 0)


def test_sign_test_examples():
    m, _ = tukey_median(AXES5)
    rv, stat = sign_test(AXES5, m)
    assert stat == 0.0
    _, stat = sign_test(AXES5, [40.0, -3.0])
    assert stat == CAP
    rng = np.random.default_rng(13)
    for _ in range(5):
        ds = symmetric_dataset(rng, int(rng.integers(4, 12)))
        _, stat = sign_test(ds, [0.0, 0.0])
        assert stat <= 2 / ds.n


def test_quantile_zero_index_is_median():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.standard_normal((35, 2)))
    m, _ = tukey_median(ds)
    assert np.array_equal(quantile_function(ds, [0.0, 0.0]), m)
    with pytest.raises(ValueError):
        quantile_function(ds, [1.0, 0.0])


def test_quantile_of_equal_points_is_the_point():
    # every count is n, so the median's weight 1 reaches any ||u|| < 1
    ds = Dataset(np.tile([[1.5, -2.0]], (7, 1)))
    for u in ([0.3, 0.4], [0.0, 0.99], [-0.7, 0.0]):
        assert quantile_function(ds, u).tolist() == [1.5, -2.0]


def test_quantile_direction_fidelity():
    rng = np.random.default_rng(14)
    ds = Dataset(rng.standard_normal((80, 2)))
    m, _ = tukey_median(ds)
    for _ in range(15):
        u = rng.uniform(-0.65, 0.65, 2)
        nu = np.linalg.norm(u)
        if not 0.05 < nu < 1.0:
            continue
        x = quantile_function(ds, u)
        d = x - m
        if np.linalg.norm(d) > 1e-12:
            cos = d @ u / (np.linalg.norm(d) * nu)
            assert cos > 1 - 1e-9


def test_rank_quantile_round_trip_small():
    rng = np.random.default_rng(2024)
    ds = Dataset(rng.standard_normal((120, 2)))
    checked = 0
    while checked < 25:
        x = rng.standard_normal(2) * 0.8
        if depth_2d_exact(ds, x) < 3 / ds.n:
            continue
        checked += 1
        u = rank_function(ds, x).u
        u2 = rank_function(ds, quantile_function(ds, u)).u
        assert np.max(np.abs(u2 - u)) <= 2 / ds.n + 1e-3


def test_quantile_normal_radius_20k(normal20k):
    # the half-weight contour of a standard bivariate normal is a circle of
    # radius sqrt(chi-square_2 quantile at 1/2) ~ 1.1774
    m, _ = tukey_median(normal20k)
    q = quantile_function(normal20k, [0.5, 0.0])
    assert abs(np.linalg.norm(q - m) - 1.17741) <= 0.1


def test_trimmed_mean_examples():
    assert np.array_equal(trimmed_mean(AXES5, 2 / 5), [0.0, 0.0])
    rng = np.random.default_rng(18)
    ds = Dataset(rng.standard_normal((21, 2)))
    assert np.allclose(trimmed_mean(ds, 1 / ds.n), ds.data.mean(axis=0), atol=1e-15)
    for _ in range(4):
        sym = symmetric_dataset(rng, int(rng.integers(4, 11)))
        for lev in np.unique(sample_depths(sym)):
            assert np.max(np.abs(trimmed_mean(sym, lev))) <= 1e-9
    with pytest.raises(EmptyRegionError):
        trimmed_mean(AXES4, 0.5)
    with pytest.raises(EmptyRegionError):
        trimmed_mean(AXES4, float("inf"))
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError, match="level") as err:
            trimmed_mean(AXES4, bad)
        assert not isinstance(err.value, EmptyRegionError)


def test_contour_polyline_examples():
    tri = Dataset([[0, 0], [1, 0], [0, 1]])
    poly = contour_polyline(tri, 1 / 3)
    assert poly.shape == (3, 2)
    assert points_in_hull(poly, tri.data).all()
    # lowest level: hull of all data
    rng = np.random.default_rng(8)
    ds = Dataset(rng.standard_normal((15, 2)))
    poly = contour_polyline(ds, 1 / ds.n)
    assert points_in_hull(poly, ds.data).all()


def test_region_nesting():
    rng = np.random.default_rng(5)
    for _ in range(6):
        ds = Dataset(rng.standard_normal((int(rng.integers(8, 26)), 2)))
        levels = np.unique(sample_depths(ds))
        regions = [central_region(ds, lev) for lev in levels]
        for outer, inner in zip(regions, regions[1:]):
            assert points_in_hull(outer.vertices, inner.vertices).all()
            assert inner.weight <= outer.weight + 1e-12


def test_affine_median_depth_preserved():
    # the transformed Tukey median point attains the transformed maximal depth
    rng = np.random.default_rng(29)
    for _ in range(5):
        ds = Dataset(rng.standard_normal((int(rng.integers(6, 20)), 2)))
        m, dep = tukey_median(ds)
        while True:
            A = rng.standard_normal((2, 2))
            if abs(np.linalg.det(A)) > 0.2:
                break
        b = rng.standard_normal(2)
        ds2 = affine_transform(ds, A, b)
        assert depth_2d_exact(ds2, A @ m + b) == dep == max_depth(ds2)


def test_dimension_guards():
    one_d = Dataset([1.0, 2.0, 3.0])
    for fn in (
        lambda: rank_function(one_d, [0.0]),
        lambda: quantile_function(one_d, [0.0]),
        lambda: central_region(one_d, 0.5),
        lambda: trimmed_mean(one_d, 0.5),
    ):
        with pytest.raises(ValueError):
            fn()

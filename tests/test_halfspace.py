import numpy as np
import pytest

from doqr import (
    Dataset,
    DepthConfig,
    SeedSpec,
    affine_transform,
    depth_1d,
    depth_2d_exact,
    depth_approx,
    max_depth,
    sample_depths,
    tukey_median,
    unit_directions,
)
from doqr.halfspace import _BOUND_DIRS, _min_halfplane_counts, _tail_bound, _tie_break_best
from oracles import depth_bruteforce, enumeration_counts

AXES4 = Dataset([[1, 0], [-1, 0], [0, 1], [0, -1]])


def count_depth_1d(values, x):
    # independent oracle: closed tail counts
    le = sum(1 for v in values if v <= x)
    ge = sum(1 for v in values if v >= x)
    return min(le, ge) / len(values)


def test_depth_1d_examples():
    vals = [1, 2, 3, 4, 5]
    ds = Dataset(vals)
    assert depth_1d(ds, 3) == count_depth_1d(vals, 3) == 3 / 5
    assert depth_1d(ds, 0) == 0.0
    assert depth_1d(Dataset([1, 1, 1]), 1) == 1.0
    assert depth_1d(ds, 2.5) == count_depth_1d(vals, 2.5) == 2 / 5
    with pytest.raises(ValueError):
        depth_1d(AXES4, 1.0)


def test_depth_2d_exact_examples():
    assert depth_2d_exact(AXES4, [0, 0]) == 2 / 4
    assert depth_2d_exact(AXES4, [1, 0]) == 1 / 4
    assert depth_2d_exact(AXES4, [5, 5]) == 0.0
    with pytest.raises(ValueError):
        depth_2d_exact(Dataset([1.0, 2.0]), [0, 0])


def test_depth_bruteforce_examples():
    assert depth_bruteforce(Dataset([[0, 0]]), [0, 0]) == 1.0
    assert depth_bruteforce(Dataset([[0, 0], [1, 0]]), [0.5, 0]) == 1 / 2
    assert depth_bruteforce(AXES4, [0, 0]) == depth_2d_exact(AXES4, [0, 0])
    with pytest.raises(ValueError):
        depth_bruteforce(Dataset(np.zeros((31, 2))), [0, 0])
    with pytest.raises(ValueError):
        depth_bruteforce(Dataset(np.zeros((4, 3))), [0, 0, 0])


def test_oracle_equivalence_random():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(1, 16))
        pts = rng.standard_normal((n, 2))
        ds = Dataset(pts)
        for _ in range(6):
            kind = rng.integers(0, 3)
            if kind == 0:
                x = pts[rng.integers(0, n)]
            elif kind == 1 and n >= 2:
                i, j = rng.integers(0, n, 2)
                x = 0.5 * (pts[i] + pts[j])
            else:
                x = rng.standard_normal(2) * 2
            dep = depth_2d_exact(ds, x)
            assert dep == depth_bruteforce(ds, x)
            assert float(dep * n).is_integer() and 0.0 <= dep <= 1.0


def test_oracle_equivalence_degenerate_data():
    grids = [
        np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]], float),
        np.array([[0, 0], [0, 0], [1, 1], [1, 1], [2, 2]], float),
        np.array([[i, j] for i in range(4) for j in range(4)], float),
    ]
    for g in grids:
        ds = Dataset(g)
        for x in [g[0], g.mean(axis=0), [0.5, 0.5], [0.8, 0.8], [10.0, 10.0]]:
            x = np.asarray(x, float)
            assert depth_2d_exact(ds, x) == depth_bruteforce(ds, x)


def test_affine_invariance_exact_counts():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ds = Dataset(rng.standard_normal((int(rng.integers(3, 14)), 2)))
        while True:
            A = rng.standard_normal((2, 2))
            if abs(np.linalg.det(A)) > 0.2:
                break
        b = rng.standard_normal(2)
        ds2 = affine_transform(ds, A, b)
        for _ in range(4):
            x = rng.standard_normal(2)
            assert depth_2d_exact(ds, x) == depth_2d_exact(ds2, A @ x + b)


def test_vanishing_at_infinity_and_hull_vertices():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.standard_normal((12, 2)))
    assert depth_2d_exact(ds, [1e7, -1e7]) == 0.0
    # points in convex position all have the minimal attainable depth 1/n
    ang = 2 * np.pi * np.arange(9) / 9
    circle = Dataset(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    assert np.all(sample_depths(circle) == 1 / 9)


def test_depth_approx_upper_bound_and_nested_monotone():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.standard_normal((40, 2)))
    seed = SeedSpec(5)
    budgets = [1, 10, 50, 200, 800]
    for _ in range(10):
        x = rng.standard_normal(2)
        exact = depth_2d_exact(ds, x)
        vals = [depth_approx(ds, x, DepthConfig(k, seed)) for k in budgets]
        assert all(v >= exact for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_depth_approx_counts_sample_point_itself():
    # a sample point lies in both closed tails of its own projection, so its
    # sampled-direction depth is at least 1/n, like its exact depth
    cfg = DepthConfig()
    for d in (2, 3, 5):
        ds = Dataset(np.random.default_rng(d).standard_normal((100, d)))
        assert min(depth_approx(ds, x, cfg) for x in ds.data) >= 1 / ds.n


def test_depth_approx_single_direction_case():
    ds = Dataset([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [3.0, 0.0]])
    x = np.array([1.0, 0.5])
    cfg = DepthConfig(1, SeedSpec(9))
    u = unit_directions(cfg.seed.generator(0), 1, 2)[0]
    proj = Dataset(ds.data @ u)
    assert depth_approx(ds, x, cfg) == depth_1d(proj, float(u @ x))


def test_depth_approx_matches_exact_on_axes():
    val = depth_approx(AXES4, [0, 0], DepthConfig(1000, SeedSpec(0)))
    assert val >= 0.5
    assert val - 0.5 <= 1 / 4  # within one sample step of the exact value
    assert val == 0.5  # quantized: some sampled direction is near-diagonal


def test_depth_approx_1d_consistency():
    ds = Dataset([3.0, 1.0, 4.0, 1.0, 5.0])
    for k in (1, 7, 50):
        for x in (0.0, 1.0, 3.2, 9.0):
            assert depth_approx(ds, [x], DepthConfig(k, SeedSpec(2))) == depth_1d(ds, x)


def test_depth_approx_deterministic():
    rng = np.random.default_rng(8)
    ds = Dataset(rng.standard_normal((25, 4)))
    x = rng.standard_normal(4)
    cfg = DepthConfig(300, SeedSpec(44))
    assert depth_approx(ds, x, cfg) == depth_approx(ds, x, cfg)


def test_depth_config_validation():
    with pytest.raises(ValueError):
        DepthConfig(0)
    with pytest.raises(TypeError):
        DepthConfig(10, seed=7)


def test_tukey_median_examples():
    m, dep = tukey_median(AXES4)
    assert np.array_equal(m, [0.0, 0.0]) and dep == 0.5
    m, dep = tukey_median(Dataset([[0, 0]]))
    assert np.array_equal(m, [0.0, 0.0]) and dep == 1.0
    m, dep = tukey_median(Dataset([[0, 0], [1, 0]]))
    assert dep == 0.5  # any point of the segment; tie-break picks min norm
    assert np.array_equal(m, [0.0, 0.0])


def test_tukey_median_centrosymmetric_bound():
    rng = np.random.default_rng(42)
    for _ in range(6):
        half = rng.standard_normal((int(rng.integers(3, 10)), 2))
        ds = Dataset(np.concatenate([half, -half]))
        m, dep = tukey_median(ds)
        assert dep >= (ds.n // 2) / ds.n
        assert np.array_equal(m, [0.0, 0.0])


def test_max_depth_centerpoint_bound():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(3, 24))
        ds = Dataset(rng.standard_normal((n, 2)))
        assert max_depth(ds) >= np.ceil(n / 3) / n
    assert max_depth(AXES4) == 0.5
    assert max_depth(Dataset([[0, 0], [2, 1]])) == 0.5


def test_tukey_median_search_branch():
    # n > 60 goes through the seeded pattern search; it must deliver a point
    # at least as deep as every sample point and be deterministic
    rng = np.random.default_rng(15)
    ds = Dataset(rng.standard_normal((150, 2)))
    m1, d1 = tukey_median(ds)
    m2, d2 = tukey_median(ds)
    assert np.array_equal(m1, m2) and d1 == d2
    assert d1 >= sample_depths(ds).max()
    assert d1 >= np.ceil(ds.n / 3) / ds.n


def median_samples() -> list[np.ndarray]:
    """210 seeded samples, n from 1 to 40, of seven kinds in turn: general
    position, rounded to 1 decimal, half on one line, duplicate-heavy, all
    identical or all collinear, shifted by 1e6, rounded to half-integers."""
    out = []
    for i in range(210):
        rng = np.random.default_rng([47, i])
        n = 28 + 2 * (i // 30) if i % 30 == 29 else int(rng.integers(1, 25))
        x = rng.standard_normal((n, 2))
        kind = i % 7
        if kind == 1:
            x = np.round(x, 1)
        elif kind == 2:
            t = rng.standard_normal(n // 2)
            x[: n // 2] = np.stack([t, 0.5 * t + 0.3], axis=1)
        elif kind == 3:
            x = x[rng.integers(0, n // 4 + 1, n)]
        elif kind == 4:
            x = np.outer(x[:, 0], [1.0, -2.0]) if i % 2 else np.full((n, 2), 1.5)
        elif kind == 5:
            x = x + 1e6
        elif kind == 6:
            x = np.round(2.0 * x) / 2.0
        out.append(x)
    return out


@pytest.fixture(scope="module")
def enumerated():
    """(sample, its deduplicated arrangement candidates, their swept counts)."""
    return [(x, *enumeration_counts(x)) for x in median_samples()]


def test_tukey_median_matches_full_enumeration(enumerated):
    # the branch and bound returns the full enumeration's point, to the bit
    # (+0.0 and -0.0 included), and its count
    for x, cands, counts in enumerated:
        ref_pt, ref_cnt = _tie_break_best(cands, counts)  # = tukey_median_enumerated(x)
        m, dep = tukey_median(Dataset(x))
        assert m.tobytes() == ref_pt.tobytes() and dep == ref_cnt / x.shape[0]


def test_tukey_median_matches_full_enumeration_n60():
    # the sample of test_outlyingness_examples_and_monotone_along_ray; the
    # expected point is oracles.tukey_median_enumerated's, pinned because
    # computing it takes ~15 s
    ds = Dataset(np.random.default_rng(31).standard_normal((60, 2)))
    m, dep = tukey_median(ds)
    expected = [float.fromhex("0x1.a40a44dcf18c5p-4"), float.fromhex("-0x1.d60dabb6c2218p-3")]
    assert m.tobytes() == np.array(expected).tobytes() and dep == 27 / 60


def enumeration_bound(pts: np.ndarray, cands: np.ndarray) -> np.ndarray:
    return np.min([_tail_bound(pts, cands, u) for u in _BOUND_DIRS], axis=0)


def test_median_bound_is_upper_bound_of_swept_counts(enumerated):
    # includes the arrangement vertices of rounded data, where the two points
    # on a line through the vertex project to either side by rounding noise
    for x, cands, counts in enumerated:
        assert np.all(enumeration_bound(x, cands) >= counts)
    # the sweep's antipodal snap counts 1 here, where the exact depth is 0
    snap, origin = np.array([[1.0, 0.0], [-1.0, -5e-10]]), np.zeros((1, 2))
    assert _min_halfplane_counts(snap, origin)[0] == 1
    assert enumeration_bound(snap, origin)[0] >= 1


def test_max_depth_affine_invariant_up_to_enumeration_limit():
    rng = np.random.default_rng(53)
    ds = Dataset(rng.standard_normal((40, 2)))
    for _ in range(5):
        while True:
            A = rng.standard_normal((2, 2))
            if abs(np.linalg.det(A)) > 0.2:
                break
        assert max_depth(affine_transform(ds, A, rng.normal(0.0, 5.0, 2))) == max_depth(ds)


def test_sample_depths_matches_pointwise():
    rng = np.random.default_rng(23)
    ds = Dataset(rng.standard_normal((18, 2)))
    depths = sample_depths(ds)
    for i in range(ds.n):
        assert depths[i] == depth_2d_exact(ds, ds.data[i])

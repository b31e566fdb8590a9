import numpy as np
import pytest

from doqr import (
    Dataset,
    DegenerateDirectionsError,
    DegenerateScaleWarning,
    DepthConfig,
    SeedSpec,
    median_mad,
    po_1d,
    po_approx,
    projection_depth,
)
from doqr.halfspace import project
from doqr.projection import po_profile

from oracles import median_mad_sorted

CFG = DepthConfig(400, SeedSpec(11))


def test_median_mad_conventions():
    assert median_mad(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == (3.0, 1.0)
    # even n: average of the two central order statistics
    med, mad = median_mad(np.array([1.0, 2.0, 4.0, 10.0]))
    assert med == 3.0
    assert mad == 0.5 * (1.0 + 2.0)  # deviations 2,1,1,7 -> sorted 1,1,2,7


def test_median_mad_matches_sort_reference():
    rng = np.random.default_rng(21)
    cases = [rng.standard_normal(n) for n in (1, 2, 3, 4, 101, 1000)]
    cases += [rng.integers(0, 3, n).astype(float) for n in (5, 6, 40)]  # heavy ties
    cases += [np.full(7, -0.0), Dataset(rng.standard_normal(9)).data[:, 0]]  # po_1d's column
    cfg = DepthConfig(300, SeedSpec(2))
    for m, d in ((1, 2), (2, 2), (103, 2), (104, 3), (1000, 5)):
        cases.append(project(rng.standard_normal((m, d)), cfg.directions(d)))  # (m, k) view
        cases.append(project(np.round(rng.standard_normal((m, d))), cfg.directions(d)))
    for v in cases:
        got, want = median_mad(v), median_mad_sorted(v)
        for g, w in zip(got, want):
            # bit for bit, but for the sign of a zero median: which of the tied
            # +0.0 and -0.0 lands at the centre is the sort's or selection's choice
            assert (np.asarray(g) + 0.0).tobytes() == (np.asarray(w) + 0.0).tobytes()


def test_po_1d_examples():
    ds = Dataset([1, 2, 3, 4, 5])
    assert po_1d(ds, 5) == 2.0
    assert po_1d(ds, 3) == 0.0
    with pytest.warns(DegenerateScaleWarning):
        assert po_1d(Dataset([1, 1, 1]), 2) == np.inf
    with pytest.warns(DegenerateScaleWarning):
        assert po_1d(Dataset([1, 1, 1]), 1) == 0.0


def test_po_1d_scale_equivariance():
    ds = Dataset([1, 2, 3, 4, 5])
    for s in (2.0, 0.5, 4.0):  # power-of-two scalings are float-exact
        scaled = Dataset(ds.data * s)
        assert po_1d(scaled, s * 4.4) == po_1d(ds, 4.4)
    scaled = Dataset(ds.data * 3.0)
    assert abs(po_1d(scaled, 3.0 * 4.4) - po_1d(ds, 4.4)) <= 1e-12


def test_po_approx_1d_reduction_exact():
    ds = Dataset([3.0, 1.0, 4.0, 1.0, 5.0])
    for k in (1, 5, 64):
        for x in (0.0, 2.0, 3.0, 8.0):
            assert po_approx(ds, [x], DepthConfig(k, SeedSpec(7))) == po_1d(ds, x)


def test_po_approx_axes_center_zero():
    ds = Dataset([[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert po_approx(ds, [0, 0], CFG) == 0.0


def test_po_approx_monotone_in_nested_budgets():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((30, 3)))
    x = rng.standard_normal(3)
    seed = SeedSpec(5)
    vals = [po_approx(ds, x, DepthConfig(k, seed)) for k in (1, 4, 16, 64, 256, 1024)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_po_approx_below_supremum():
    # along the direction to a far point the scaled deviation is explicit;
    # the sampled-direction value cannot exceed the true supremum
    rng = np.random.default_rng(4)
    ds = Dataset(rng.standard_normal((41, 2)))
    x = np.array([9.0, 0.0])
    val = po_approx(ds, x, DepthConfig(2000, SeedSpec(1)))
    # brute supremum over a fine direction grid
    ang = np.linspace(0, np.pi, 20001)
    sup = 0.0
    for u in np.stack([np.cos(ang), np.sin(ang)], axis=1):
        proj = ds.data @ u
        med, mad = median_mad(proj)
        if mad > 0:
            sup = max(sup, abs(u @ x - med) / mad)
    assert val <= sup + 1e-12


def test_po_approx_translation_invariance():
    rng = np.random.default_rng(12)
    ds = Dataset(rng.standard_normal((24, 2)))
    x = rng.standard_normal(2)
    c = np.array([3.7, -1.2])
    a = po_approx(ds, x, CFG)
    b = po_approx(Dataset(ds.data + c), x + c, CFG)
    assert abs(a - b) <= 1e-9 * max(1.0, a)
    # axis-aligned shift along a coordinate: still only near-exact, because
    # the projections u.(x+c) round differently from u.x + u.c
    a = po_approx(ds, x, CFG)
    b = po_approx(Dataset(ds.data + [4.0, 0.0]), x + [4.0, 0.0], CFG)
    assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_po_approx_deterministic():
    rng = np.random.default_rng(9)
    ds = Dataset(rng.standard_normal((20, 5)))
    x = rng.standard_normal(5)
    assert po_approx(ds, x, CFG) == po_approx(ds, x, CFG)


def test_po_profile_sample_reuse_equals_reprojection():
    # the sample's own scores reuse its projection; a copy of the sample is
    # projected again as queries, and every value must agree bit for bit
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 5):
        x = rng.standard_normal((200, d))
        for data in (x, np.round(x)):
            got = po_profile(data, data, CFG)
            want = po_profile(data, data.copy(), CFG)
            assert got.tobytes() == want.tobytes()


def test_po_approx_all_degenerate_errors():
    ds = Dataset(np.ones((7, 2)))
    with pytest.raises(DegenerateDirectionsError, match="400"):
        po_approx(ds, [2.0, 2.0], CFG)


def test_projection_depth_values():
    ds = Dataset([1, 2, 3, 4, 5])
    assert projection_depth(ds, [3.0], CFG) == 1.0  # outlyingness 0
    assert projection_depth(ds, [5.0], CFG) == 1.0 / 3.0  # outlyingness 2
    # +inf outlyingness maps to depth 0 under the same convention
    assert 1.0 / (1.0 + np.inf) == 0.0


def test_projection_depth_strictly_decreasing_in_outlyingness():
    rng = np.random.default_rng(21)
    ds = Dataset(rng.standard_normal((50, 2)))
    queries = rng.standard_normal((25, 2)) * 2
    po = np.array([po_approx(ds, q, CFG) for q in queries])
    pd = np.array([projection_depth(ds, q, CFG) for q in queries])
    order = np.argsort(po)
    assert np.all(np.diff(pd[order]) <= 0)
    assert np.argmax(pd) == np.argmin(po)

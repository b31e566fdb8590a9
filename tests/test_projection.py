import operator
import threading
import tracemalloc
from collections import Counter

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
from doqr import halfspace
from doqr.data import project
from doqr.projection import po_profile

from oracles import median_mad_sorted, po_profile_unblocked

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
            # bit for bit; the reference's zero median takes the sign of whichever
            # of the tied +0.0 and -0.0 its sort puts at the centre
            assert np.asarray(g).tobytes() == (np.asarray(w) + 0.0).tobytes()


def test_median_mad_zero_median_is_positive():
    # whether -0.0 or +0.0 is selected at the centre is numpy's choice; the
    # returned median is +0.0 whatever it picked
    x = np.round(np.random.default_rng(2).standard_normal((1000, 5)))
    med, _ = median_mad(project(x, DepthConfig(300, SeedSpec(2)).directions(5)))
    assert np.count_nonzero(med == 0.0) > 0
    assert not np.any(np.signbit(med[med == 0.0]))


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


class _FixedDirections:
    """A stand-in for DepthConfig whose directions are given."""

    def __init__(self, u: np.ndarray):
        self.n_directions, self.u = len(u), u

    def directions(self, d: int) -> np.ndarray:
        return self.u


def _profile_or_error(profile, data, queries, cfg):
    try:
        return profile(data, queries, cfg).tobytes()
    except DegenerateDirectionsError as e:
        return str(e)


def _assert_blocks_match_unblocked(monkeypatch, data, cfg, rows_per_block):
    # rows_per_block None: the library's own budget; else a budget small enough
    # for that many directions per block, so the last block of most k is partial
    for queries in (data, data.copy(), np.random.default_rng(7).standard_normal((7, data.shape[1]))):
        if rows_per_block is not None:
            budget = rows_per_block * max(len(data), len(queries))
            monkeypatch.setattr(halfspace, "_CHUNK_BUDGET", budget)
        got = _profile_or_error(po_profile, data, queries, cfg)
        assert got == _profile_or_error(po_profile_unblocked, data, queries, cfg)


@pytest.mark.parametrize("rows_per_block", [None, 7])
def test_po_profile_blocks_match_unblocked(monkeypatch, rows_per_block):
    # 400 directions: one block at the real budget up to m = 2000, two (399 + 1)
    # at m = 2001; 57 blocks of 7 and a last one of 1 at the small budget.
    # m = 1 has zero MAD in every direction and raises in both.
    rng = np.random.default_rng(31)
    for d in (1, 2, 3, 5):
        for m in (1, 2, 3, 200, 201) + ((2001,) if d == 2 else ()):
            x = rng.standard_normal((m, d))
            for data in (x, np.round(x)):
                _assert_blocks_match_unblocked(monkeypatch, data, CFG, rows_per_block)


@pytest.mark.parametrize("rows_per_block", [None, 4])
def test_po_profile_blocks_skip_zero_mad_directions(monkeypatch, rows_per_block):
    # 25 of 41 points share their last coordinate, so the MAD is exactly zero
    # along +-e_d and positive along the random directions; at 4 per block the
    # e_d rows fill one block and share two with random directions
    rng = np.random.default_rng(32)
    for d in (2, 3):
        e = np.eye(d)[-1]
        data = rng.standard_normal((41, d))
        data[:25, -1] = 0.5
        u = DepthConfig(20, SeedSpec(4)).directions(d)
        dirs = np.concatenate([u[:10], np.tile(e, (6, 1)), u[10:13], [-e], u[13:]])
        on_e = np.zeros(len(dirs), dtype=bool)
        on_e[10:16] = on_e[19] = True
        assert np.array_equal(median_mad_sorted(project(data, dirs))[1] == 0.0, on_e)
        _assert_blocks_match_unblocked(monkeypatch, data, _FixedDirections(dirs), rows_per_block)
        # zero MAD in every block: raised once, naming every direction
        for points, cfg in ((data, _FixedDirections(np.tile(e, (9, 1)))), (np.ones((7, d)), CFG)):
            if rows_per_block is not None:
                monkeypatch.setattr(halfspace, "_CHUNK_BUDGET", rows_per_block * len(points))
            with pytest.raises(DegenerateDirectionsError, match=f"all {cfg.n_directions} "):
                po_profile(points, points, cfg)


def test_po_profile_zero_mad_in_one_half(monkeypatch):
    # the MAD is exactly zero along e_d for 25 of 41 points: with every such
    # direction in one half of a two-CPU split, that half scores nothing and the
    # other half the profile, the bytes of one CPU; with zero MAD in both halves
    # the error is raised once, naming all 20
    monkeypatch.setattr(halfspace, "_CHUNK_BUDGET", 4 * 41)  # 8 rows a block
    rng = np.random.default_rng(32)
    for d in (2, 3):
        e = np.eye(d)[-1]
        data = rng.standard_normal((41, d))
        data[:25, -1] = 0.5
        u = DepthConfig(10, SeedSpec(4)).directions(d)
        for dirs in (np.r_[np.tile(e, (10, 1)), u], np.r_[u, np.tile(-e, (10, 1))],
                     np.tile(e, (20, 1))):
            got = []
            for cpus in (1, 2):
                monkeypatch.setattr(halfspace, "_usable_cpus", lambda: cpus)
                got.append(_profile_or_error(po_profile, data, data, _FixedDirections(dirs)))
            caller = threading.current_thread()
            rows = halfspace._scan_directions(
                lambda uc, p, w: Counter({threading.current_thread() is caller: len(uc)}),
                operator.add, data, dirs,
            )
            assert rows == {True: 10, False: 10}  # two halves: the caller's and a worker's
            assert got[0] == got[1]
            if (dirs[:, :-1] == 0.0).all():
                assert got[1] == "all 20 sampled directions have zero MAD"
            else:
                assert isinstance(got[1], bytes)


def test_po_profile_memory_is_one_block():
    # each of the two halves of the directions (the caller's and the worker's)
    # holds two (block, m) float64 buffers of about 2 * _CHUNK_BUDGET elements,
    # plus O(m + k) vectors: O(block + m + k), never an (m, k) array
    # (the unblocked profile peaked at 160 MB here, with several 80 MB ones)
    cal = np.random.default_rng(3).standard_normal((10_000, 2))
    cfg = DepthConfig()
    po_profile(cal, cal, cfg)  # warm
    m, k, block = cal.shape[0], cfg.n_directions, 2 * halfspace._CHUNK_BUDGET
    bound = 8 * (2 * 2 * block + 16 * (m + k))  # bytes: two halves, two buffers each
    assert bound < 32e6
    tracemalloc.start()
    try:
        po_profile(cal, cal, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


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

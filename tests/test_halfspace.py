import hashlib
import operator
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doqr import (
    Dataset,
    DegenerateDirectionsError,
    DepthConfig,
    SeedSpec,
    affine_transform,
    central_region,
    depth_1d,
    depth_2d_exact,
    depth_approx,
    max_depth,
    sample_depths,
    tukey_median,
    unit_directions,
)
from doqr import halfspace, projection
from doqr.halfspace import (
    _approx_members_at_least,
    _min_halfplane_counts,
    _scan_directions,
)
from doqr.projection import po_profile
from oracles import (
    _line_intersections,
    approx_counts_pairwise,
    centroid_rolled,
    clip_rolled,
    depth_bruteforce,
    depth_count_exact,
    enumeration_counts,
    max_count_exact,
    tail_bound,
)

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


def test_batched_count_ignores_row_position():
    # two points 1e-9 rad off antipodal around the origin: the batched count of
    # every copy of the origin is the single query's 0, wherever its row lies
    pts = np.array([[1.0, 0.0], [-1.0, 1.000953664738599e-09]])
    assert depth_2d_exact(Dataset(pts), [0.0, 0.0]) == 0.0
    assert not _min_halfplane_counts(pts, np.zeros((3000, 2))).any()


def test_semicircle_bound_tie_counts_antipodal():
    # a point at angle pi - _GAP_EPS from another lies exactly on the bound of
    # that one's semicircle and counts as antipodal: outside the open semicircle
    c = np.pi - 1e-9
    p = [np.cos(c), np.sin(c)]
    assert np.arctan2(p[1], p[0]) == c
    for k in (1, 20, 300):
        data = np.array([[1.0, 0.0]] * k + [p] * k)
        assert _min_halfplane_counts(data, np.zeros((1, 2)))[0] == k


def sweep_families(rng: np.random.Generator, n: int):
    x = rng.standard_normal((n, 2))
    t = rng.standard_normal(n)
    yield x
    yield np.round(x, 1)
    yield x[rng.integers(0, n // 5 + 1, n)]  # duplicate-heavy
    yield np.stack([t, 0.5 * t + 0.3], axis=1)  # collinear


@pytest.mark.parametrize("rows", [1, 3, None])
def test_batched_counts_match_single_queries(rows, monkeypatch):
    # a block of one row, a few rows or the default budget: every batched count
    # is the query's count alone
    rng = np.random.default_rng(29)
    for n in (1, 7, 45, 160):
        for data in sweep_families(rng, n):
            i, j = rng.integers(0, n, (2, n))
            queries = np.concatenate(
                [data, 0.5 * (data[i] + data[j]), rng.standard_normal((20, 2)), np.zeros((1, 2))]
            )
            single = [_min_halfplane_counts(data, q[None, :])[0] for q in queries]
            if rows is not None:
                monkeypatch.setattr(halfspace, "_CHUNK_BUDGET", rows * 2 * n)
            assert np.array_equal(_min_halfplane_counts(data, queries), single)
            monkeypatch.undo()


def of_kind(rng: np.random.Generator, x: np.ndarray, kind: int) -> np.ndarray:
    """The normal sample x made one of five kinds: 0 general position, 1 rounded
    to 1 decimal, 2 duplicate-heavy, 3 half on one line, 4 scaled by 1e6 and
    shifted by 1e7."""
    n = len(x)
    if kind == 1:
        return np.round(x, 1)
    if kind == 2:
        return x[rng.integers(0, n // 4 + 1, n)]
    if kind == 3:
        t = rng.standard_normal(n // 2)
        return np.concatenate([np.stack([t, 0.5 * t + 0.3], axis=1), x[n // 2 :]])
    return 1e6 * x + 1e7 if kind == 4 else x


def kernel_cases():
    """(data, queries) pairs: the five kinds of ``of_kind`` at n = 9, 40 and
    130; queries at the sample points, midpoints of random pairs and random
    points, plus the line intersections at n = 9."""
    out = []
    for i, n in enumerate((9, 40, 130) * 5):
        rng = np.random.default_rng([61, i])
        x, q = rng.standard_normal((n, 2)), 1.5 * rng.standard_normal((n, 2))
        x = of_kind(rng, x, i // 3)
        if i // 3 == 4:
            q = 1e6 * q + 1e7
        a, b = rng.integers(0, n, (2, n))
        queries = [x, 0.5 * (x[a] + x[b]), q]
        if n == 9:
            queries.append(_line_intersections(x))
        out.append((x, np.concatenate(queries)))
    return out


def test_kernel_golden():
    # SHA-256 of the 5333 counts as little-endian int64, pinned from the
    # binary-search sweep this merge sweep replaced: the same counts, bit for bit
    h = hashlib.sha256()
    for x, q in kernel_cases():
        h.update(_min_halfplane_counts(x, q).astype("<i8").tobytes())
    assert h.hexdigest() == "d33fcafdb3be05478eb0360bfb45951727e7a5638b2c70d2009da4a9f998f403"


def test_window_entries_golden():
    # SHA-256 of the counts and the window entries (row, angle, S, m0) of the
    # self-depth pass at window (ceil(n/3), n // 2), little-endian, on the
    # samples of kernel_cases: every Tukey median is built from these entries
    h = hashlib.sha256()
    for x, _ in kernel_cases():
        n = len(x)
        counts, entries = _min_halfplane_counts(x, x, (-(-n // 3), n // 2))
        for a in (counts, *entries):
            h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    assert h.hexdigest() == "429d7809352d9b599dbc995fd103e18ba45731e657597c4dc223c6a84d15619c"


def test_levels_same_bytes_at_any_block_size(monkeypatch):
    # the running window floor depends on the blocking, so the entries the
    # kernel keeps do too; the levels, median and count read from them do not
    for n in (5, 24, 60, 130, 400):
        for kind in range(5):
            rng = np.random.default_rng([83, n, kind])
            x = of_kind(rng, rng.standard_normal((n, 2)), kind)
            runs = []
            for budget in (None, 2 * n, 6 * n):  # the default, one row, three rows
                if budget is not None:
                    monkeypatch.setattr(halfspace, "_CHUNK_BUDGET", budget)
                counts, median, count = halfspace._levels(x)
                runs.append((counts.tobytes(), median.tobytes(), count))
                monkeypatch.undo()
            assert runs[1] == runs[0] and runs[2] == runs[0], (n, kind)


def test_kernel_memory_is_one_block():
    # one block of about _CHUNK_BUDGET / 2 angles at a time, in three arrays of
    # 8 bytes an entry (angles, sweep keys, semicircle counts), and O(n + m)
    # vectors: never a 2n-wide merge of keys and angles (three arrays of
    # _CHUNK_BUDGET entries) nor an (m, n) array (64 MB here)
    x = np.random.default_rng(2).standard_normal((2000, 2))
    _min_halfplane_counts(x, x)  # warm
    n = m = len(x)
    bound = 8 * (2 * halfspace._CHUNK_BUDGET + 4 * (n + m))  # bytes
    assert bound < 1e6
    tracemalloc.start()
    try:
        _min_halfplane_counts(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@st.composite
def integer_sweeps(draw):
    """An integer-valued sample (|coordinates| <= 1000) with a collinear run and
    duplicates, and queries: its points, midpoints of its pairs and other
    integer points, some on the run's line."""
    coord, step = st.integers(-1000, 1000), st.integers(-9, 9)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=25))
    (a0, a1), (b0, b1) = draw(st.tuples(coord, coord)), draw(st.tuples(step, step))
    line = [(a0 + t * b0, a1 + t * b1) for t in range(-12, 13)]
    line = [p for p in line if max(map(abs, p)) <= 1000]
    pts += draw(st.lists(st.sampled_from(line), max_size=12))
    pts += draw(st.lists(st.sampled_from(pts), max_size=8))
    x = np.array(draw(st.permutations(pts)), dtype=float)
    index = st.integers(0, len(x) - 1)
    i, j = np.array(draw(st.lists(st.tuples(index, index), max_size=15)), dtype=int).reshape(-1, 2).T
    others = draw(st.lists(st.one_of(st.tuples(coord, coord), st.sampled_from(line)), max_size=10))
    return x, np.concatenate([x, 0.5 * (x[i] + x[j]), np.array(others, dtype=float).reshape(-1, 2)])


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(integer_sweeps())
def test_kernel_matches_integer_oracle(case):
    # with integer coordinates <= 1000 (half-integer differences <= 2000), two
    # directions from a query that are not exactly parallel or antipodal differ
    # by >= 3e-8 rad, far above _GAP_EPS: the sweep's snap must agree with exact
    # Python-int orientation, which shares no tolerance with it
    x, queries = case
    assert _min_halfplane_counts(x, queries).tolist() == [depth_count_exact(x, q) for q in queries]


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


@pytest.mark.parametrize("chunked", [False, True])
def test_sample_approx_counts_match_pairwise_oracle(chunked, monkeypatch):
    # one partition per direction answers "count >= k" for every sample point
    # and every level k exactly as comparing it with every point, ties (rounding,
    # duplicate rows) included; the single-query depth_approx keeps the
    # comparison and matches too
    if chunked:  # a few directions per chunk, the last chunk shorter
        monkeypatch.setattr("doqr.halfspace._CHUNK_BUDGET", 420)
    cfg = DepthConfig(300, SeedSpec(4))
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 5):
        x = rng.standard_normal((60, d))
        samples = [
            x,
            np.round(2.0 * x),
            np.concatenate([x[:20], x[:20], x[5:15]]),
            np.full((9, d), 1.5),
            x[:1],
        ]
        for data in samples:
            counts = approx_counts_pairwise(data, data, cfg)
            for k in range(len(data) + 2):
                got = _approx_members_at_least(data, k, cfg.directions(d))
                assert got.dtype == bool and np.array_equal(got, counts >= k)
            ds = Dataset(data)
            queries = np.concatenate([data[:3], np.round(rng.standard_normal((3, d)))])
            for q, c in zip(queries, approx_counts_pairwise(data, queries, cfg)):
                assert depth_approx(ds, q, cfg) == c / ds.n


def test_approx_members_at_least_long_rows():
    # rows long enough that a partition at one order statistic leaves the
    # other out of place: both k-th smallest and k-th largest are partition points
    cfg = DepthConfig(300, SeedSpec(4))
    x = np.random.default_rng(23).standard_normal((400, 3))
    for data in (x, np.round(8.0 * x)):
        counts = approx_counts_pairwise(data, data, cfg)
        for k in (*range(0, 402, 9), 2, 399, 400, 401):
            assert np.array_equal(_approx_members_at_least(data, k, cfg.directions(3)), counts >= k)


def test_depth_approx_memory_is_a_few_blocks():
    # directions in blocks of about _CHUNK_BUDGET projections in two reused
    # buffers, never a (k, n) comparison: the unblocked query peaked at 320 MB
    ds = Dataset(np.random.default_rng(5).standard_normal((20_000, 3)))
    x, cfg = np.zeros(3), DepthConfig(1000, SeedSpec(1))
    depth_approx(ds, x, cfg)  # warm
    tracemalloc.start()
    try:
        depth_approx(ds, x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _on_cpus(monkeypatch, cpus: int, f, *args):
    """f(*args) with the CPU probe reading ``cpus``, and how many threads scored its
    blocks (0 when it walked no directions); an error's message in place of a value."""
    threads, walk = set(), halfspace._scan_directions

    def scan(score, *a):
        def seen(*b):
            threads.add(threading.current_thread())
            return score(*b)

        return walk(seen, *a)

    with monkeypatch.context() as m:
        m.setattr(halfspace, "_usable_cpus", lambda: cpus)
        m.setattr(halfspace, "_scan_directions", scan)
        m.setattr(projection, "_scan_directions", scan)
        try:
            out = f(*args)
        except DegenerateDirectionsError as e:
            out = str(e)
    return (out.tobytes() if isinstance(out, np.ndarray) else out), len(threads)


def _half_rows(points, u):
    """The block rows of the walk over the directions u, in merge order, as the
    rows the calling thread scored and those a worker scored."""
    caller = threading.current_thread()
    rows = _scan_directions(
        lambda uc, proj, w: [(threading.current_thread() is caller, len(uc))], operator.add, points, u
    )
    assert rows == sorted(rows, key=lambda r: not r[0])  # the caller's half merges first
    return [r for c, r in rows if c], [r for c, r in rows if not c]


def test_direction_split_rule(monkeypatch):
    # two halves, the second on a worker thread, when the process may use two
    # CPUs and the directions take two blocks of 2 * _CHUNK_BUDGET entries
    monkeypatch.setattr(halfspace, "_CHUNK_BUDGET", 50)  # 10 rows of 10 points
    pts, u = np.zeros((10, 2)), unit_directions(np.random.default_rng(0), 41, 2)
    for cpus, k, want in (
        (2, 10, ([10], [])), (2, 11, ([5], [6])), (2, 41, ([10, 10], [10, 10, 1])),
        (1, 11, ([10, 1], [])), (1, 41, ([10, 10, 10, 10, 1], [])), (8, 1, ([1], [])),
    ):
        monkeypatch.setattr(halfspace, "_usable_cpus", lambda: cpus)
        assert _half_rows(pts, u[:k]) == want


def test_direction_split_same_bytes_as_one_cpu(monkeypatch):
    # every direction is scored on its own, and the blocks and halves merge by
    # max (po_profile), AND (the level test) and min (depth_approx): the same bytes
    # on one CPU and two, on both sides of the two-block rule (100 directions
    # take two blocks from m = 656 at the real budget, from m = 9 at 420)
    cfg = DepthConfig(100, SeedSpec(11))
    rng = np.random.default_rng(41)
    for budget in (None, 420):
        if budget is not None:
            monkeypatch.setattr(halfspace, "_CHUNK_BUDGET", budget)
        halves = set()
        for d in (1, 2, 3, 5):
            for m in (1, 2, 3, 60, 201) + ((2001,) if d == 2 else ()):
                x = rng.standard_normal((m, d))
                dup = np.concatenate([x[: m // 2 + 1], x[: m // 2]])
                new = rng.standard_normal((7, d))
                ks = range(m + 2) if m <= 60 else (0, 1, 2, m // 3, m // 2, m - 1, m, m + 1)
                for data in (x, np.round(x), dup):
                    ds, u = Dataset(data), cfg.directions(d)
                    calls = [(po_profile, data, q, cfg) for q in (data, data.copy(), new)]
                    calls += [(_approx_members_at_least, data, k, u) for k in ks]
                    calls += [(depth_approx, ds, q, cfg) for q in (*data[:3], *np.round(new[:3]))]
                    for f, *args in calls:
                        one, n1 = _on_cpus(monkeypatch, 1, f, *args)
                        two, n2 = _on_cpus(monkeypatch, 2, f, *args)
                        assert one == two, (budget, d, m, f.__name__)
                        assert n1 <= 1 and n2 in (n1, 2)
                        halves.add(n2)
        assert halves == {0, 1, 2}  # k <= 1 or k > m walks no directions


def test_direction_split_one_cpu_starts_no_thread(monkeypatch):
    class NoThread:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread was started")

    monkeypatch.setattr(halfspace, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(threading, "Thread", NoThread)
    x = np.random.default_rng(2).standard_normal((2001, 2))
    cfg = DepthConfig()  # 1000 directions, 32 a block: 32 blocks
    po_profile(x, x, cfg)
    _approx_members_at_least(x, 5, cfg.directions(2))
    depth_approx(Dataset(x), np.zeros(2), cfg)


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_direction_split_errors_reach_the_caller(monkeypatch, where):
    # an error in either half is raised by the call, after the worker is joined
    monkeypatch.setattr(halfspace, "_usable_cpus", lambda: 2)
    pts, u = np.zeros((10, 2)), unit_directions(np.random.default_rng(0), 20_000, 2)
    caller = threading.current_thread()

    def score(*block):
        if (threading.current_thread() is caller) == (where == "caller"):
            raise KeyError(where)
        return 0

    before = threading.active_count()
    with pytest.raises(KeyError, match=where):
        _scan_directions(score, min, pts, u)
    assert threading.active_count() == before


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
    # the type before the range: no str comparison, no float or bool budget
    for n in ("5", 2.5, True):
        with pytest.raises(TypeError, match="n_directions"):
            DepthConfig(n)
    assert DepthConfig(np.int64(3)).directions(2).shape == (3, 2)


def test_tukey_median_examples():
    m, dep = tukey_median(AXES4)
    assert np.array_equal(m, [0.0, 0.0]) and dep == 0.5
    m, dep = tukey_median(Dataset([[0, 0]]))
    assert np.array_equal(m, [0.0, 0.0]) and dep == 1.0
    m, dep = tukey_median(Dataset([[0, 0], [1, 0]]))
    assert dep == 0.5  # any point of the segment; the centroid snaps to the pair's midpoint
    assert np.array_equal(m, [0.5, 0.0])


def test_tukey_median_centrosymmetric_bound():
    rng = np.random.default_rng(42)
    for _ in range(6):
        half = rng.standard_normal((int(rng.integers(3, 10)), 2))
        ds = Dataset(np.concatenate([half, -half]))
        m, dep = tukey_median(ds)
        assert dep >= (ds.n // 2) / ds.n
        assert np.array_equal(m, [0.0, 0.0])


def test_tukey_median_centrosymmetric_exact_count():
    # D_k* is the single centre point: its rounded centroid snaps to the
    # midpoint of a symmetric pair, exactly (0, 0) and with +0.0, where the
    # exact count, with no tolerance shared with the sweep, is the reported one
    for n in range(8, 231, 2):
        h = np.random.default_rng([5, n]).standard_normal((n // 2, 2))
        x = np.concatenate([h, -h])
        m, dep = tukey_median(Dataset(x))
        assert m.tobytes() == np.zeros(2).tobytes() and dep == depth_count_exact(x, m) / n


def test_tukey_median_at_extreme_scales():
    # the centroid's products are taken on offsets scaled by a power of two:
    # at 1e300 they overflowed (a NaN median with depth 0.98), at 1e-300 the
    # thinness test underflowed and returned the vertex mean
    x = np.random.default_rng(3).standard_normal((50, 2))
    m, dep = tukey_median(Dataset(x))
    for scale in (1e300, 1e-300):
        ms, deps = tukey_median(Dataset(x * scale))
        assert deps == dep == 0.44
        assert np.allclose(ms, m * scale, rtol=1e-14, atol=0.0)


def test_max_depth_centerpoint_bound():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(3, 24))
        ds = Dataset(rng.standard_normal((n, 2)))
        assert max_depth(ds) >= np.ceil(n / 3) / n
    assert max_depth(AXES4) == 0.5
    assert max_depth(Dataset([[0, 0], [2, 1]])) == 0.5


def test_tukey_median_region_branch(monkeypatch):
    # the centroid of the deepest region, deterministic, at least as deep as
    # every sample point, its swept count the reported one; the same pass
    # fills the sample depths, so sample_depths sweeps nothing more
    rng = np.random.default_rng(15)
    ds = Dataset(rng.standard_normal((150, 2)))
    m1, d1 = tukey_median(ds)
    _, m2, c2 = halfspace._levels(ds.data.copy())  # recomputed, not read from the cache
    assert np.array_equal(m1, m2) and d1 == c2 / ds.n
    assert d1 >= np.ceil(ds.n / 3) / ds.n and depth_2d_exact(ds, m1) == d1

    def no_sweep(*args, **kwargs):
        raise AssertionError("sample depths swept again")

    monkeypatch.setattr(halfspace, "_min_halfplane_counts", no_sweep)
    assert d1 >= sample_depths(ds).max()


def half_on_a_line(i: int, n: int = 400) -> Dataset:
    r = np.random.default_rng([77, i])
    x = r.standard_normal((n, 2))
    t = r.standard_normal(n // 2)
    x[: n // 2] = np.stack([t, 0.5 * t + 0.3], axis=1)
    return Dataset(x)


def test_tukey_median_half_on_a_line_reaches_every_sample_point():
    # half the sample on a line, n = 400: the deepest region lies on the line,
    # without interior.  On the first sample the old pattern search stopped at
    # 170/400, below sample point 11's 175/400, and central_region refused the
    # sample's own deepest level; now its median is a point of the line at 175
    for i in (33, 0, 1, 2, 3):
        ds = half_on_a_line(i)
        m, dep = tukey_median(ds)
        top = sample_depths(ds).max()
        assert dep >= top and depth_2d_exact(ds, m) == dep
        assert central_region(ds, top).weight >= 1 / ds.n
    m, dep = tukey_median(half_on_a_line(33))
    assert dep == 175 / 400 and abs(m[1] - (0.5 * m[0] + 0.3)) < 1e-15


def test_tukey_median_collinear_is_a_sample_point_or_the_extremes_midpoint():
    # rank-1 data, the all-collinear median_samples and exactly collinear seeded
    # ones (quarter-integer steps along integer directions, duplicates included):
    # the median is a sample row, or the midpoint of the two extreme rows, at
    # the reported count with no tolerance shared with the sweep.  Under a point
    # reflection, which reverses the line's direction, and two seeded maps, the
    # image's median is the image of the same row (the midpoint within rounding)
    samples = [(x, np.array([1.0, -2.0])) for i, x in enumerate(median_samples())
               if i % 7 == 4 and i % 2]  # lines through the origin along (1, -2)
    for n in range(1, 41):
        r = np.random.default_rng([83, n])
        v = np.array([(1, 0), (0, 1), (1, -2), (3, 1), (-2, 5)][n % 5], dtype=float)
        samples.append((np.outer(r.integers(-60, 61, n) / 4, v) + r.integers(-20, 21, 2), v))
    for x, v in samples:
        ds = Dataset(x)
        m, dep = tukey_median(ds)
        assert depth_count_exact(x, m) / ds.n == dep
        rows = np.flatnonzero((x == m).all(axis=1))
        ends = (x @ v).argmin(), (x @ v).argmax()
        assert len(rows) or np.array_equal(m, 0.5 * (x[ends[0]] + x[ends[1]])), x
        r = np.random.default_rng([89, len(x)])
        maps = [(-np.eye(2), r.normal(0.0, 5.0, 2))]
        maps += [(r.standard_normal((2, 2)), r.normal(0.0, 5.0, 2)) for _ in range(2)]
        for A, b in maps:
            y = affine_transform(ds, A, b).data
            m2, dep2 = tukey_median(Dataset(y))
            assert dep2 == dep, (x, A)
            if len(rows):
                assert m2.tobytes() == y[rows[0]].tobytes(), (x, A)
            else:
                want = 0.5 * (y[ends[0]] + y[ends[1]])
                assert np.allclose(m2, want, rtol=0.0, atol=1e-12 * np.abs(y).max()), (x, A)


def test_tukey_median_collinear_choice_moves_with_the_data():
    # six rows on a line whose median interval, rows 2 and 3, lies off the
    # midpoint of the extreme rows: the deepest row nearest that midpoint, row 3,
    # for the rows as given and shifted exactly by (-20, -40)
    x = np.array([[0, 0], [1, 2], [2, 4], [3, 6], [10, 20], [11, 22]], dtype=float)
    for shift in ([0.0, 0.0], [-20.0, -40.0]):
        m, dep = tukey_median(Dataset(x + shift))
        assert m.tobytes() == (x[3] + shift).tobytes() and dep == 0.5


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
    # the 210 small samples, collinear and duplicate-heavy ones included: the
    # enumeration's maximal count, swept at the returned point, and the pass's
    # sample depths are the pointwise sweep's
    for x, cands, counts in enumerated:
        ds = Dataset(x)
        m, dep = tukey_median(ds)
        assert dep == counts.max() / ds.n == depth_2d_exact(ds, m)
        assert np.array_equal(sample_depths(ds), _min_halfplane_counts(x, x) / ds.n)


def test_tukey_median_matches_full_enumeration_n60():
    # the sample of test_outlyingness_examples_and_monotone_along_ray; its
    # maximal count is the full enumeration's (oracles.enumeration_counts,
    # pinned because computing it takes ~15 s)
    ds = Dataset(np.random.default_rng(31).standard_normal((60, 2)))
    m, dep = tukey_median(ds)
    assert dep == 27 / 60 and depth_2d_exact(ds, m) == dep


def test_clip_and_centroid():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    # x + y <= 2 leaves the lower-left triangle, whose area centroid is (2/3, 2/3)
    tri = halfspace._clip(square, np.array([[1.0, 1.0]]) / np.sqrt(2), np.array([np.sqrt(2)]), 0.0)
    assert np.allclose(halfspace._centroid(tri), [2 / 3, 2 / 3])
    # a pentagon: the area centroid, not the vertex mean (1.1, 0.5)
    trap = halfspace._clip(square, np.array([[0.0, 1.0], [1.0, 1.0] / np.sqrt(2)]),
                           np.array([1.0, 2.5 / np.sqrt(2)]), 0.0)
    area = 2.0 - 0.5 * 0.5 * 0.5
    want = (np.array([1.0, 0.5]) * 2.0 - np.array([2.0 - 0.5 / 3, 1.0 - 0.5 / 3]) * 0.125) / area
    assert np.allclose(halfspace._centroid(trap), want)
    # opposite halfplanes meeting in a segment: empty at tol 0 by rounding at
    # most, kept as a sliver within tol, whose centroid is on the segment
    a, b = np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([1.0, -1.0])
    sliver = halfspace._clip(square, a, b, 1e-12)
    assert len(sliver) and np.allclose(halfspace._centroid(sliver), [1.0, 1.0])
    assert len(halfspace._clip(square, a, b - [0.1, 0.0], 1e-12)) == 0


AXIS_NORMALS = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]],
                        dtype=float)


def clip_cases() -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
    """(polygon, normals, offsets, tol) for _clip: hand-made edge cases, then 320
    seeded ones in four kinds: random hulls cut by random unit normals, the same
    with duplicated vertices or shifted by 1e6, and integer hulls with zeros as
    -0.0, cut by integer normals at integer offsets, so that vertex scores are
    exactly 0 or exactly tol.  A cut ends when every vertex scores <= tol, so
    tol is 0 only where the crossings are exact, else at least 1e-12 times the
    largest coordinate, as in _levels."""
    pent = np.array([[0.0, -0.0], [1.0, -0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 1.0]])
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    e1, slab = np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]])
    cases = [
        (pent, e1, np.array([1.0]), 0.0),  # s = +0.0 kept before a cut: t = -0.0
        (pent, e1, np.array([0.5]), 0.5),  # s = tol kept before a cut: t < 0, clamped
        (pent, -e1, np.array([-1.0]), 0.0),
        (pent, -e1, np.array([-1.5]), 0.5),  # s = tol kept after a cut: t > 1, clamped
        (np.repeat(square, 2, axis=0), np.array([[1.0, 1.0]]) / np.sqrt(2), np.array([1.0]), 1e-12),
        (np.array([[0.0, 0.0], [2.0, 2.0]]), e1, np.array([1.0]), 0.0),  # zero area
        (np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]), e1, np.array([1.5]), 1e-12),
        (np.array([[1.0, -0.0]]), e1, np.array([0.5]), 0.0),  # a single point, cut away
        (square, slab, np.array([0.5, -1.0]), 0.0),  # opposite halfplanes: empty
        (square, slab, np.array([-1.0, 0.5]), 1e-12),
    ]
    for i in range(320):
        rng = np.random.default_rng([20, i])
        kind = i % 4
        if kind == 3:
            poly = halfspace.convex_hull(rng.integers(-3, 4, (int(rng.integers(1, 12)), 2)))
            poly = np.where((poly == 0) & (rng.random(poly.shape) < 0.5), -0.0, poly)
            a = AXIS_NORMALS[rng.integers(0, 8, int(rng.integers(1, 6)))]
            cases.append((poly, a, rng.integers(-3, 4, len(a)).astype(float),
                          float(rng.integers(1, 3))))
            continue
        poly = halfspace.convex_hull(rng.standard_normal((int(rng.integers(1, 40)), 2)))
        ang = rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(0, 12)))
        a = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        proj = poly @ a.T
        b = proj.min(axis=0) + rng.uniform(-0.2, 1.1, len(a)) * np.ptp(proj, axis=0)
        if kind == 1:
            poly = np.repeat(poly, rng.integers(1, 3, len(poly)), axis=0)
        elif kind == 2:
            poly, b = poly + 1e6, b + 1e6 * a.sum(axis=1)
        tol = (float(rng.choice([0.0, 0.05, 0.5])) * float(np.ptp(poly, axis=0).max())
               + 1e-12 * float(np.abs(poly).max()))
        cases.append((poly, a, b, tol))
    return cases


def test_clip_and_centroid_same_bytes_as_rolled_arrays():
    # the float loop of _clip and the sliced next vertex of _centroid give the
    # bytes of the whole-array formulas (oracles.clip_rolled, centroid_rolled)
    for poly, a, b, tol in clip_cases():
        got, want = halfspace._clip(poly, a, b, tol), clip_rolled(poly, a, b, tol)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (poly, a, b, tol)
        for p in filter(len, (poly, got)):
            assert halfspace._centroid(p).tobytes() == centroid_rolled(p).tobytes(), p


def test_clip_ends_at_tol_zero():
    # at tol 0 a cut's inexact crossings can score a rounding error above 0, and
    # cutting again for it need never end: the integer pentagon cut by
    # -x + y <= 1, and 1e6-shifted 5-vertex normal hulls cut by 3 random unit
    # normals (an alarm fails the test after 10 s).  _clip stops after len(a)
    # cuts, every vertex scoring at most 4 ulps of the polygon's largest
    # coordinate on every constraint
    pent = np.array([[-3.0, -3.0], [3.0, -3.0], [3.0, -1.0], [1.0, 3.0], [-1.0, 3.0]])
    cases = [(pent, np.array([[-1.0, 1.0]]) / np.sqrt(2), np.array([1.0]) / np.sqrt(2))]
    for i in range(40):
        rng = np.random.default_rng([11, i])
        poly = np.zeros((0, 2))
        while len(poly) != 5:
            poly = halfspace.convex_hull(rng.standard_normal((5, 2)))
        ang = rng.uniform(0.0, 2.0 * np.pi, 3)
        a = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        poly = poly + 1e6
        proj = poly @ a.T
        cases.append((poly, a, proj.min(axis=0) + rng.uniform(0.1, 0.9, 3) * np.ptp(proj, axis=0)))

    def stop(*args):
        raise TimeoutError("_clip did not return")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        got = [halfspace._clip(poly, a, b, 0.0) for poly, a, b in cases]
    except TimeoutError:
        got = None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got is not None, "_clip did not return"
    for (poly, a, b), out in zip(cases, got):
        assert (out @ a.T - b <= 4 * np.spacing(np.abs(poly).max())).all(), (poly, a, b)


def test_levels_same_bytes_under_rolled_clip(monkeypatch):
    # the self-depth pass on the 210 small samples: counts, median and count
    # are the bytes it gives with the whole-array clip and centroid
    samples = median_samples()
    got = [halfspace._levels(x) for x in samples]
    monkeypatch.setattr(halfspace, "_clip", clip_rolled)
    monkeypatch.setattr(halfspace, "_centroid", centroid_rolled)
    for x, (counts, m, k) in zip(samples, got):
        want_counts, want_m, want_k = halfspace._levels(x)
        assert counts.tobytes() == want_counts.tobytes(), x
        assert m.tobytes() == want_m.tobytes() and k == want_k, x


def test_region_levels_match_full_enumeration(enumerated):
    # the self-depth pass itself on the 210 small samples, collinear and
    # duplicate-heavy ones included: the sample counts are the pointwise sweep's,
    # the count is the enumeration's maximum and is swept at the returned point
    for x, cands, counts in enumerated:
        sample, m, k = halfspace._levels(x)
        assert np.array_equal(sample, _min_halfplane_counts(x, x))
        assert k == counts.max() == _min_halfplane_counts(x, m[None, :])[0]


def oracle_samples() -> list[tuple[int, np.ndarray]]:
    """(kind, sample) with n from 61 to 200: general position, half on a line,
    shifted by 1e6 (14 each), then rounded to 1 decimal and duplicate-heavy (3 each)."""
    out = []
    for i in range(48):
        rng = np.random.default_rng([61, i])
        n = 61 + (139 * i) // 47
        x = rng.standard_normal((n, 2))
        kind = i % 3 if i < 42 else 3 + i % 2
        if kind == 1:
            t = rng.standard_normal(n // 2)
            x[: n // 2] = np.stack([t, 0.5 * t + 0.3], axis=1)
        elif kind == 2:
            x = x + 1e6
        elif kind == 3:
            x = np.round(x, 1)
        elif kind == 4:
            x = x[rng.integers(0, n // 4 + 1, n)]
        out.append((kind, x))
    return out


def test_max_depth_matches_exact_oracle():
    # against exact side counts of every data-pair line and an LP per level,
    # which share no tolerance with the sweep; rounded and duplicate-heavy data
    # meet the snapped sweep's own semantics, so there only the sample bound
    for kind, x in oracle_samples():
        ds = Dataset(x)
        m, dep = tukey_median(ds)
        assert depth_2d_exact(ds, m) == dep >= sample_depths(ds).max()
        if kind < 3:
            assert dep == max_count_exact(x) / ds.n


def test_median_bound_is_upper_bound_of_swept_counts(enumerated):
    # the prefilter's bound (the tail_bound oracle) at arbitrary candidates,
    # including the arrangement vertices of rounded data, where the two points
    # on a line through the vertex project to either side by rounding noise
    for x, cands, counts in enumerated:
        assert np.all(tail_bound(x, cands) >= counts)
    # the sweep's antipodal snap counts 1 here, where the exact depth is 0
    snap, origin = np.array([[1.0, 0.0], [-1.0, -5e-10]]), np.zeros((1, 2))
    assert _min_halfplane_counts(snap, origin)[0] == 1 and depth_count_exact(snap, origin[0]) == 0
    assert tail_bound(snap, origin)[0] >= 1


@pytest.mark.parametrize("chunked", [False, True])
def test_prefilter_level_test_matches_tail_bound(chunked, monkeypatch):
    # the d = 2 identifier's prefilter is the shared level test (on the 32
    # bound directions, with the rounding margin): at every level k it keeps
    # exactly the points whose binary-searched tail bound reaches k, ties and
    # near-ties included
    if chunked:  # a few directions per block, the last block shorter
        monkeypatch.setattr(halfspace, "_CHUNK_BUDGET", 5 * 130)
    level_test, masks = _approx_members_at_least, []

    def recording(*args):
        masks.append(level_test(*args))
        return masks[-1].copy()

    monkeypatch.setattr(halfspace, "_approx_members_at_least", recording)
    rng = np.random.default_rng(71)
    for n in (3, 4, 17, 130):
        x = rng.standard_normal((n, 2))
        for data in (x, np.round(x, 1), x[rng.integers(0, n // 4 + 1, n)], 1e6 * x + 1e6):
            bound = tail_bound(data, data)
            for k in range(n + 2):
                halfspace._members_at_least(data, k)
                assert np.array_equal(masks[-1], bound >= k), (n, k)


def test_max_depth_affine_invariant_up_to_enumeration_limit():
    # an n = 40 sample under five maps: the maximal depth is invariant and the
    # median maps along
    rng = np.random.default_rng(53)
    ds = Dataset(rng.standard_normal((40, 2)))
    m, dep = tukey_median(ds)
    for _ in range(5):
        while True:
            A = rng.standard_normal((2, 2))
            if abs(np.linalg.det(A)) > 0.2:
                break
        b = rng.normal(0.0, 5.0, 2)
        m2, dep2 = tukey_median(affine_transform(ds, A, b))
        assert dep2 == dep and np.allclose(m2, A @ m + b, rtol=0.0, atol=1e-9)


def test_max_depth_affine_invariant_beyond_enumeration_limit():
    # the n = 100 sample where the old pattern search found 0.46 for the sample
    # and 0.45 for its image, and an n = 1000 sample; the median maps along
    rng = np.random.default_rng(19)
    ds = Dataset(rng.standard_normal((100, 2)))
    big = Dataset(np.random.default_rng(20).standard_normal((1000, 2)))
    for data, A, b in ((ds, rng.standard_normal((2, 2)), np.zeros(2)),
                       (ds, np.array([[2.0, 0.7], [-0.3, 1.1]]), np.array([3.0, -1.0])),
                       (big, np.array([[0.5, -1.2], [0.9, 0.4]]), np.array([-2.0, 5.0]))):
        m, dep = tukey_median(data)
        m2, dep2 = tukey_median(affine_transform(data, A, b))
        assert dep2 == dep and np.allclose(m2, A @ m + b, rtol=0.0, atol=1e-9)
    assert max_depth(ds) == 0.46


def test_median_pass_memory_is_one_block_plus_window(monkeypatch):
    # one kernel block (a few arrays of about _CHUNK_BUDGET entries, 8 bytes
    # each), O(n) vectors and at most four copies of the window's entries (row,
    # angle, S, m0: 32 bytes): never an (n, n) array (72 MB here)
    x = np.random.default_rng(4).standard_normal((3000, 2))
    entries = []

    def counting(data, queries, window=None):
        out = _min_halfplane_counts(data, queries, window)
        if window:
            entries.append(len(out[1][0]))
        return out

    monkeypatch.setattr(halfspace, "_min_halfplane_counts", counting)
    halfspace._levels(x)  # warm
    bound = 8 * (7 * halfspace._CHUNK_BUDGET + 8 * len(x)) + 4 * 32 * entries[-1]  # bytes
    assert bound < 8e6
    tracemalloc.start()
    try:
        halfspace._levels(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_sample_depths_matches_pointwise():
    rng = np.random.default_rng(23)
    ds = Dataset(rng.standard_normal((18, 2)))
    depths = sample_depths(ds)
    for i in range(ds.n):
        assert depths[i] == depth_2d_exact(ds, ds.data[i])

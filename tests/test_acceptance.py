"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances and runtime budgets are asserted exactly as stated.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from doqr import (
    ContaminationSpec,
    Dataset,
    DepthConfig,
    SeedSpec,
    affine_transform,
    central_region,
    compare_identifiers,
    default_masking_grid,
    depth_2d_exact,
    hd_normal,
    masking_experiment,
    oh_cdf,
    oh_normal,
    oh_pdf,
    quantile_function,
    rank_function,
    sample_depths,
    sign_test,
    trimmed_mean,
)
from doqr.cli import main as cli_main
from oracles import depth_bruteforce, points_in_hull


@contextmanager
def criterion(num: int, desc: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {desc}", flush=True)
        raise
    else:
        print(f"PASS criterion {num:2d}: {desc} ({time.time() - t0:.1f}s)", flush=True)


def ks_distance(sorted_vals, cdf_fn) -> float:
    n = len(sorted_vals)
    theo = np.array([cdf_fn(float(v)) for v in sorted_vals])
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(theo - i / n)), np.max(np.abs(theo - (i - 1) / n))))


def symmetric_dataset(rng, k: int) -> Dataset:
    half = rng.standard_normal((k, 2))
    return Dataset(np.concatenate([half, -half]))


def test_criterion_01_oracle_equivalence():
    with criterion(1, "exact 2-D depth equals brute-force oracle on 100x10 cases"):
        t0 = time.time()
        rng = np.random.default_rng(1001)
        for _ in range(100):
            n = int(rng.integers(1, 16))
            pts = rng.standard_normal((n, 2)) * rng.uniform(0.5, 2.0)
            ds = Dataset(pts)
            for _ in range(10):
                kind = rng.integers(0, 3)
                if kind == 0:
                    x = pts[rng.integers(0, n)]
                elif kind == 1 and n >= 2:
                    i, j = rng.integers(0, n, 2)
                    x = 0.5 * (pts[i] + pts[j])
                else:
                    x = rng.standard_normal(2) * 2.0
                assert depth_2d_exact(ds, x) == depth_bruteforce(ds, x)
        assert time.time() - t0 < 10.0


def test_criterion_02_affine_invariance():
    with criterion(2, "exact depth invariant under 20 affine maps x 10 datasets"):
        t0 = time.time()
        rng = np.random.default_rng(1002)
        for _ in range(10):
            n = int(rng.integers(5, 16))
            pts = rng.standard_normal((n, 2))
            ds = Dataset(pts)
            queries = Dataset(
                np.stack([pts[0], pts[n // 2], rng.standard_normal(2), rng.standard_normal(2) * 2])
            )
            base = [depth_2d_exact(ds, q) for q in queries.data]
            maps_done = 0
            while maps_done < 20:
                A = rng.standard_normal((2, 2))
                if abs(np.linalg.det(A)) <= 1e-3:
                    continue
                maps_done += 1
                b = rng.standard_normal(2)
                ds2 = affine_transform(ds, A, b)
                q2 = affine_transform(queries, A, b)
                for q, want in zip(q2.data, base):
                    assert depth_2d_exact(ds2, q) == want
        assert time.time() - t0 < 10.0


def test_criterion_03_normal_depth_law(normal20k):
    with criterion(3, "empirical exact depth matches Phi(-||x||) within 0.02"):
        t0 = time.time()
        for x in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.5], [2.0, 0.0]):
            x = np.asarray(x)
            emp = depth_2d_exact(normal20k, x)
            assert abs(emp - hd_normal(float(np.linalg.norm(x)))) <= 0.02
        assert time.time() - t0 < 60.0


def test_criterion_04_d1_uniformity():
    with criterion(4, "d=1 outlyingness law is uniform (grid 1e-10, MC KS <= 0.02)"):
        for k in range(1, 100):
            lam = k / 100.0
            assert abs(oh_cdf(lam, 1) - lam) <= 1e-10
        rng = np.random.default_rng(1004)
        z = np.abs(rng.standard_normal(20000))
        vals = np.sort([oh_normal(float(v)) for v in z])
        assert ks_distance(vals, lambda v: v) <= 0.02


def test_criterion_05_oh_law_d235():
    with criterion(5, "MC KS <= 0.02 between oh_normal(||X||) and oh_cdf for d=2,3,5"):
        t0 = time.time()
        rng = np.random.default_rng(1005)
        for d in (2, 3, 5):
            x = rng.standard_normal((20000, d))
            norms = np.linalg.norm(x, axis=1)
            vals = np.sort([oh_normal(float(r)) for r in norms])
            assert ks_distance(vals, lambda v, d=d: oh_cdf(v, d)) <= 0.02
        assert time.time() - t0 < 30.0


def test_criterion_06_density_divergence():
    with criterion(6, "oh_pdf strictly increasing, ratio > 4 for d>=2; uniform at d=1"):
        for d in (2, 3, 4, 5):
            grid = [oh_pdf(k / 100.0, d) for k in range(1, 100)]
            assert all(a < b for a, b in zip(grid, grid[1:]))
            assert oh_pdf(0.999, d) / oh_pdf(0.5, d) > 4.0
        for k in range(1, 100):
            assert abs(oh_pdf(k / 100.0, 1) - 1.0) <= 1e-10


def test_criterion_07_cdf_pdf_consistency():
    with criterion(7, "central-difference d/d-lambda of oh_cdf matches oh_pdf to 1e-4"):
        h = 1e-6
        for d in range(1, 6):
            for k in range(1, 10):
                lam = k / 10.0
                num = (oh_cdf(lam + h, d) - oh_cdf(lam - h, d)) / (2.0 * h)
                pdf = oh_pdf(lam, d)
                assert abs(num - pdf) / pdf <= 1e-4


def test_criterion_08_doqr_round_trip():
    with criterion(8, "rank/quantile round trip within 2/n + 1e-3 on 500-point sample"):
        t0 = time.time()
        rng = np.random.default_rng(1008)
        ds = Dataset(rng.standard_normal((500, 2)))
        n = ds.n
        checked = 0
        while checked < 100:
            x = rng.standard_normal(2) * 0.9
            if depth_2d_exact(ds, x) < 5 / n:
                continue
            checked += 1
            u = rank_function(ds, x).u
            u2 = rank_function(ds, quantile_function(ds, u)).u
            assert float(np.max(np.abs(u2 - u))) <= 2 / n + 1e-3
        assert time.time() - t0 < 60.0


def test_criterion_09_sign_test_at_center():
    with criterion(9, "sign test statistic <= 2/n at the symmetry center, 20 samples"):
        rng = np.random.default_rng(1009)
        for _ in range(20):
            ds = symmetric_dataset(rng, int(rng.integers(4, 13)))
            _, stat = sign_test(ds, [0.0, 0.0])
            assert stat <= 2 / ds.n


def test_criterion_10_trimmed_mean_symmetry():
    with criterion(10, "trimmed mean at the symmetry center within 1e-9, all levels"):
        rng = np.random.default_rng(1010)
        for _ in range(20):
            ds = symmetric_dataset(rng, int(rng.integers(4, 13)))
            for lev in np.unique(sample_depths(ds)):
                tm = trimmed_mean(ds, lev)
                assert float(np.max(np.abs(tm))) <= 1e-9


def test_criterion_11_region_nesting():
    with criterion(11, "central regions nest across attained levels, 20 datasets"):
        rng = np.random.default_rng(1011)
        for _ in range(20):
            ds = Dataset(rng.standard_normal((int(rng.integers(8, 27)), 2)))
            levels = np.unique(sample_depths(ds))
            regions = [central_region(ds, lev) for lev in levels]
            for outer, inner in zip(regions, regions[1:]):
                assert points_in_hull(outer.vertices, inner.vertices).all()


def test_criterion_12_masking_reproduction():
    with criterion(12, "halfspace masking exceeds projection on the default grid"):
        t0 = time.time()
        cfg = DepthConfig(n_directions=1000, seed=SeedSpec(12345))
        seed = SeedSpec(2024)
        fpr = 0.01
        n_clean = 100
        cells = compare_identifiers(
            default_masking_grid(fpr), n_clean=n_clean, fpr=fpr, n_trials=200,
            cfg=cfg, seed=seed,
        )
        assert any(
            c.masking_rate_halfspace > c.masking_rate_projection for c in cells
        )
        calib = masking_experiment(
            ContaminationSpec(n_clean=n_clean, d=2, n_outliers=0, seed=seed),
            fpr=fpr, n_trials=200, cfg=cfg,
        )
        tol = 3.0 * np.sqrt(fpr / n_clean)
        for s in calib.summaries:
            assert s.masking_rate == 0.0
            assert abs(s.mean_fp_rate - fpr) <= tol
        assert time.time() - t0 < 300.0


def test_criterion_13_cli_golden(tmp_path, capsys):
    with criterion(13, "CLI examples reproduce byte-identically with --seed 0"):
        pts = tmp_path / "pts.csv"
        pts.write_text("1,0\n-1,0\n0,1\n0,-1\n")
        goldens = [
            (["depth", "--in", str(pts), "--query", "0,0", "--seed", "0"], "0.5\n"),
            (["oracle", "--pdf", "--d", "1", "--lambda", "0.3"], "1\n"),
            (["quantile", "--in", str(pts), "--u", "0,0"], "0,0\n"),
        ]
        for argv, want in goldens:
            outputs = []
            for _ in range(2):
                assert cli_main(list(argv)) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1] == want

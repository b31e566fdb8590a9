import hashlib
import json

import numpy as np
import pytest

from doqr import (
    ContaminationSpec,
    Dataset,
    DepthConfig,
    SeedSpec,
    compare_identifiers,
    comparison_to_csv,
    default_masking_grid,
    depth_approx,
    identify,
    masking_experiment,
    oh_threshold,
    projection_cutoff,
    sample_contaminated,
    sample_depths,
)
from doqr.projection import po_profile

CFG = DepthConfig(500, SeedSpec(12345))


def test_spec_validation():
    with pytest.raises(ValueError):
        ContaminationSpec(n_clean=0, d=2)
    with pytest.raises(ValueError):
        ContaminationSpec(n_clean=5, d=2, n_outliers=-1)
    with pytest.raises(ValueError):
        ContaminationSpec(n_clean=5, d=2, n_outliers=1, outlier_center=(1.0,))
    with pytest.raises(ValueError):
        ContaminationSpec(
            n_clean=5, d=2, n_outliers=1, outlier_center=(1.0, 0.0), outlier_spread=-1.0
        )


def test_sample_contaminated_examples():
    spec = ContaminationSpec(n_clean=30, d=3, n_outliers=0, seed=SeedSpec(4))
    ds, truth = sample_contaminated(spec)
    assert ds.n == 30 and ds.d == 3 and truth == ()
    spec = ContaminationSpec(
        n_clean=10, d=2, n_outliers=4, outlier_center=(6.0, -1.0), outlier_spread=0.0,
        seed=SeedSpec(4),
    )
    ds, truth = sample_contaminated(spec)
    assert truth == (10, 11, 12, 13)
    assert np.all(ds.data[10:] == [6.0, -1.0])
    ds2, _ = sample_contaminated(spec)
    assert ds2 == ds  # same seed, same trial index
    ds3, _ = sample_contaminated(spec, trial=1)
    assert ds3 != ds


def test_outlier_draws_nest_in_m():
    # the outliers follow the clean points in one stream: with m outliers a
    # sample is the first n_clean + m rows of the sample with m' > m outliers
    for d in (2, 3, 5):
        centre = tuple(float(c) for c in np.linspace(4.0, -2.0, d))
        for trial in range(3):
            def draw(m):
                spec = ContaminationSpec(n_clean=25, d=d, n_outliers=m, outlier_center=centre,
                                         outlier_spread=0.5, seed=SeedSpec(31))
                return sample_contaminated(spec, trial)[0].data

            full = draw(20)
            for m in range(20):
                assert np.array_equal(draw(m), full[: 25 + m]), (d, trial, m)


def test_identify_thresholds():
    rng = np.random.default_rng(0)
    ds, _ = sample_contaminated(
        ContaminationSpec(n_clean=40, d=2, n_outliers=0, seed=SeedSpec(1))
    )
    # threshold above every sample outlyingness: nothing flagged
    assert identify(ds, "halfspace", 1.0, CFG) == ()
    assert identify(ds, "projection", 1e9, CFG) == ()
    with pytest.raises(ValueError):
        identify(ds, "mahalanobis", 0.5, CFG)
    with pytest.raises(ValueError):
        identify(ds, "halfspace", float("nan"), CFG)


def test_identify_zero_threshold_flags_all_but_center():
    axes5 = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]], float)
    d5 = Dataset(axes5)
    # halfspace: depth < 1/2 flags everything except the deepest center point
    flagged = identify(d5, "halfspace", 0.0, CFG)
    assert flagged == (0, 1, 2, 3)
    # projection: positive outlyingness flags all points off the median
    flagged = identify(d5, "projection", 0.0, CFG)
    assert flagged == (0, 1, 2, 3)


def test_identify_halfspace_population_threshold_saturates():
    # a sample point's in-sample depth is at least 1/n, so its outlyingness
    # is at most 1 - 2/n; the population threshold at 1% exceeds that for
    # n = 201 and nothing can be flagged, planted outlier included
    lam = oh_threshold(0.01, 2)
    spec = ContaminationSpec(
        n_clean=200, d=2, n_outliers=1, outlier_center=(10.0, 0.0), outlier_spread=0.0,
        seed=SeedSpec(3),
    )
    ds, truth = sample_contaminated(spec)
    assert 1 - 2 / ds.n < lam
    assert identify(ds, "halfspace", lam, CFG) == ()
    # at n_clean = 1000 the saturation bound clears the threshold and the
    # distance-10 outlier (depth exactly 1/n) is flagged
    spec_big = ContaminationSpec(
        n_clean=1000, d=2, n_outliers=1, outlier_center=(10.0, 0.0), outlier_spread=0.0,
        seed=SeedSpec(3),
    )
    ds2, truth2 = sample_contaminated(spec_big)
    assert 1 - 2 / ds2.n > lam
    assert sample_depths(ds2)[truth2[0]] == 1 / ds2.n
    assert truth2[0] in identify(ds2, "halfspace", lam, CFG)
    # projection flags it even at n = 200
    cutoff = projection_cutoff(spec, 0.01, CFG)
    assert truth[0] in identify(ds, "projection", cutoff, CFG)
    # the sampled-direction depth used at d = 3 and d = 5 saturates the same way
    for d in (3, 5):
        spec_d = ContaminationSpec(
            n_clean=100, d=d, n_outliers=1, outlier_center=(10.0,) + (0.0,) * (d - 1),
            outlier_spread=0.0, seed=SeedSpec(3),
        )
        ds_d, _ = sample_contaminated(spec_d)
        lam_d = oh_threshold(0.01, d)
        assert 1 - 2 / ds_d.n < lam_d
        assert identify(ds_d, "halfspace", lam_d, CFG) == ()


def test_identify_halfspace_d2_matches_sample_depth_scores():
    # one level question answers it: the flags are the old self-depth scores' flags
    spec = ContaminationSpec(
        n_clean=1000, d=2, n_outliers=3, outlier_center=(4.0, 0.0), outlier_spread=0.1,
        seed=SeedSpec(6),
    )
    big, _ = sample_contaminated(spec)
    rng = np.random.default_rng(6)
    small = rng.standard_normal((150, 2))
    for ds in (big, Dataset(np.round(big.data, 1)), Dataset(small), Dataset(np.round(2 * small) / 2),
               Dataset([[0.0, 0.0], [1.0, 0.0], [-1.0, 5e-10]]), Dataset([[2.0, 1.0]])):
        scores = 1.0 - 2.0 * sample_depths(ds)
        for t in (oh_threshold(0.01, 2), 0.0, -1.5, 0.999):
            want = tuple(int(i) for i in np.nonzero(scores > t)[0])
            assert identify(ds, "halfspace", t, CFG) == want
    assert 0 < len(identify(big, "halfspace", oh_threshold(0.01, 2), CFG)) < big.n


def test_identify_d3_uses_approx_depth():
    spec = ContaminationSpec(
        n_clean=50, d=3, n_outliers=1, outlier_center=(8.0, 0.0, 0.0),
        outlier_spread=0.0, seed=SeedSpec(2),
    )
    ds, truth = sample_contaminated(spec)
    flagged = identify(ds, "halfspace", 1 - 2.5 / ds.n, CFG)
    assert truth[0] in flagged


def test_identify_halfspace_d3_matches_pointwise_depth_approx():
    # the one level question flags what the per-point depth_approx scores flag,
    # also at every level boundary 1 - 2c/n and at its float neighbours
    for d in (1, 3, 5):
        spec = ContaminationSpec(
            n_clean=100, d=d, n_outliers=3, outlier_center=(4.0,) + (0.0,) * (d - 1),
            outlier_spread=0.1, seed=SeedSpec(8),
        )
        ds, _ = sample_contaminated(spec)
        depths = np.array([depth_approx(ds, x, CFG) for x in ds.data])
        bounds = 1.0 - 2.0 * (np.arange(ds.n + 1) / ds.n)
        lam = oh_threshold(0.01, d)
        for threshold in (0.0, 0.5, 0.9, lam, *bounds, *np.nextafter(bounds, 2.0),
                          *np.nextafter(bounds, -2.0)):
            want = tuple(int(i) for i in np.nonzero(1 - 2 * depths > threshold)[0])
            assert identify(ds, "halfspace", threshold, CFG) == want
        if d == 3:
            assert identify(ds, "halfspace", lam, CFG) == ()  # saturated: 1 - 2/n < lam
            assert len(identify(ds, "halfspace", 0.9, CFG)) > 0


def test_identify_halfspace_out_of_reach_level_draws_no_directions(monkeypatch):
    # a saturated threshold asks for count < 1, which no sample point has, and a
    # threshold below -1 for count < n + 1, which every point has: no direction
    # is drawn for either
    def no_draw(self, d):
        raise AssertionError("directions drawn")

    monkeypatch.setattr(DepthConfig, "directions", no_draw)
    for d in (1, 3, 5):
        ds = Dataset(np.random.default_rng(d).standard_normal((103, d)))
        assert identify(ds, "halfspace", oh_threshold(0.01, d), CFG) == ()
        assert identify(ds, "halfspace", -1.5, CFG) == tuple(range(ds.n))


def test_masking_experiment_no_contamination():
    spec = ContaminationSpec(n_clean=100, d=2, n_outliers=0, seed=SeedSpec(2024))
    rep = masking_experiment(spec, fpr=0.01, n_trials=60, cfg=CFG)
    tol = 3 * np.sqrt(0.01 / spec.n_clean)
    for s in rep.summaries:
        assert s.masking_rate == 0.0
        assert abs(s.mean_fp_rate - 0.01) <= tol
    assert len(rep.trials) == 120


def test_masking_experiment_far_outlier_always_detected_by_projection():
    spec = ContaminationSpec(
        n_clean=60, d=2, n_outliers=1, outlier_center=(100.0, 0.0), outlier_spread=0.5,
        seed=SeedSpec(5),
    )
    rep = masking_experiment(spec, fpr=0.01, n_trials=40, cfg=CFG)
    assert rep.summary("projection").masking_rate == 0.0


def test_masking_experiment_deterministic():
    spec = ContaminationSpec(
        n_clean=40, d=2, n_outliers=2, outlier_center=(4.0, 0.0), outlier_spread=0.1,
        seed=SeedSpec(99),
    )
    a = masking_experiment(spec, fpr=0.05, n_trials=10, cfg=CFG)
    b = masking_experiment(spec, fpr=0.05, n_trials=10, cfg=CFG)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    doc = json.loads(a.to_json())
    assert set(doc) == {"config", "summaries", "trials"}
    assert doc["config"]["n_clean"] == 40
    assert len(doc["trials"]) == 20  # 10 trials x 2 methods
    assert a.to_csv().splitlines()[0] == (
        "trial,method,threshold,n_flagged,n_detected,n_masked,false_positives"
    )


def test_projection_cutoff_goldens():
    # pinned from the pairwise-comparison kernel: the projection layout and the
    # reuse of the sample's projection must not move a bit
    cfg = DepthConfig()
    for d, n_clean, want in (
        (2, 1000, "0x1.246713870aca5p+2"),
        (3, 100, "0x1.41fde6e53a41cp+2"),
        (5, 100, "0x1.66d7e5d137809p+2"),
    ):
        spec = ContaminationSpec(n_clean=n_clean, d=d, seed=SeedSpec(7))
        assert projection_cutoff(spec, 0.01, cfg).hex() == want


def test_masking_experiment_report_goldens():
    # unsaturated thresholds, so the d = 3 and d = 5 halfspace identifier
    # flags points; reports pinned from the pairwise-comparison kernel
    for d, fpr, want in (
        (3, 0.1, "6ebbf60f94d239f8cb725136ef915c6e2b3c6fe96f7b8f83218b5e5f27ae5707"),
        (5, 0.3, "068da5a96e7de450bd16758630c9add94f457c7a749e76d44e4503521b8f8d05"),
    ):
        spec = ContaminationSpec(
            n_clean=200, d=d, n_outliers=3, outlier_center=(4.0,) + (0.0,) * (d - 1),
            outlier_spread=0.1, seed=SeedSpec(31),
        )
        rep = masking_experiment(spec, fpr, 4, CFG)
        assert rep.summary("halfspace").mean_fp_rate > 0.0
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == want


def test_masking_experiment_report_goldens_d2():
    # unsaturated thresholds that flag the outer hull layers; reports pinned
    # from the all-self-depths identifier and the two-sort median_mad
    for fpr, want in (
        (0.1, "0268bec9cc53efb38141a46d64e1d7dec58d2902d4a3100d579b2d60c2f78439"),
        (0.3, "312dd19de10f7ab5f32d16474a289a9e68d29b2bf95d37e93b37ea8ccdbbe82b"),
    ):
        spec = ContaminationSpec(
            n_clean=200, d=2, n_outliers=3, outlier_center=(4.0, 0.0), outlier_spread=0.1,
            seed=SeedSpec(31),
        )
        rep = masking_experiment(spec, fpr, 4, CFG)
        assert rep.summary("halfspace").mean_fp_rate > 0.0
        assert rep.summary("projection").mean_fp_rate > 0.0
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == want


def test_masking_experiment_validation():
    spec = ContaminationSpec(n_clean=10, d=2, n_outliers=0, seed=SeedSpec(0))
    with pytest.raises(ValueError):
        masking_experiment(spec, fpr=0.0, n_trials=5, cfg=CFG)
    with pytest.raises(ValueError):
        masking_experiment(spec, fpr=0.01, n_trials=0, cfg=CFG)


def test_compare_identifiers_single_cell_consistency():
    seed = SeedSpec(7)
    cells = compare_identifiers(
        [(2, 2, 5.0)], n_clean=50, fpr=0.02, n_trials=12, cfg=CFG, seed=seed,
        outlier_spread=0.1,
    )
    assert len(cells) == 1
    spec = ContaminationSpec(
        n_clean=50, d=2, n_outliers=2, outlier_center=(5.0, 0.0), outlier_spread=0.1,
        seed=seed,
    )
    rep = masking_experiment(spec, fpr=0.02, n_trials=12, cfg=CFG)
    assert cells[0].masking_rate_halfspace == rep.summary("halfspace").masking_rate
    assert cells[0].masking_rate_projection == rep.summary("projection").masking_rate


def test_compare_identifiers_calibrates_once(monkeypatch):
    # the cutoff reads only (seed, n_clean, d, fpr, cfg), which the cells share
    import doqr.outliers as outliers

    sizes = []

    def counted(data, queries, cfg):
        sizes.append(data.shape[0])
        return po_profile(data, queries, cfg)

    grid, cfg = default_masking_grid(), DepthConfig(50)
    outliers._calibrated_cutoff.cache_clear()
    monkeypatch.setattr(outliers, "po_profile", counted)
    cells = compare_identifiers(grid, 20, 0.01, 1, cfg)
    assert sizes.count(200) == 1 and len(sizes) == 1 + len(grid)
    for cell, (d, n_out, dist) in zip(cells, grid):
        outliers._calibrated_cutoff.cache_clear()
        spec = ContaminationSpec(
            n_clean=20, d=d, n_outliers=n_out, outlier_center=(dist, 0.0), outlier_spread=0.1
        )
        rep = masking_experiment(spec, 0.01, 1, cfg)
        for method in ("halfspace", "projection"):
            s = rep.summary(method)
            fields = ("masking_rate", "fp_rate", "threshold")
            got = tuple(getattr(cell, f"{f}_{method}") for f in fields)
            assert got == (s.masking_rate, s.mean_fp_rate, s.threshold)
    assert sizes.count(200) == 1 + len(grid)


def test_compare_identifiers_zero_outlier_grid():
    cells = compare_identifiers(
        [(2, 0, 0.0), (3, 0, 0.0)], n_clean=40, fpr=0.05, n_trials=8, cfg=CFG,
        seed=SeedSpec(31),
    )
    assert all(c.masking_rate_halfspace == 0.0 for c in cells)
    assert all(c.masking_rate_projection == 0.0 for c in cells)


def test_compare_identifiers_projection_monotone_in_distance():
    cells = compare_identifiers(
        [(2, 3, 3.2), (2, 3, 4.5), (2, 3, 30.0)],
        n_clean=80, fpr=0.01, n_trials=60, cfg=CFG, seed=SeedSpec(11),
    )
    rates = [c.masking_rate_projection for c in cells]
    assert rates[0] >= rates[1] >= rates[2]


def test_comparison_csv_shape():
    cells = compare_identifiers(
        [(2, 1, 6.0)], n_clean=30, fpr=0.05, n_trials=5, cfg=CFG, seed=SeedSpec(1)
    )
    text = comparison_to_csv(cells)
    lines = text.strip().split("\n")
    assert lines[0].startswith("d,n_outliers,distance,masking_rate_halfspace")
    assert len(lines) == 2


def test_report_bytes_and_keys():
    # numpy-integer grid entries print as plain integers
    cells = compare_identifiers(
        [(np.int64(2), np.int64(1), 6.0)], n_clean=30, fpr=0.05, n_trials=5, cfg=CFG,
        seed=SeedSpec(1),
    )
    assert comparison_to_csv(cells) == (
        "d,n_outliers,distance,masking_rate_halfspace,masking_rate_projection,"
        "fp_rate_halfspace,fp_rate_projection,threshold_halfspace,threshold_projection\n"
        "2,1,6.0,1.0,0.0,0.0,0.15999999999999998,0.9856247375753562,3.936890976556887\n"
    )
    spec = ContaminationSpec(
        n_clean=20, d=2, n_outliers=1, outlier_center=(5.0, 0.0), outlier_spread=0.1,
        seed=SeedSpec(3),
    )
    doc = masking_experiment(spec, 0.05, 2, CFG).to_dict()
    assert list(doc["config"]) == [
        "n_clean", "d", "n_outliers", "outlier_center", "outlier_spread", "master_seed",
        "fpr", "n_trials", "n_directions", "direction_seed",
    ]
    assert list(doc["summaries"][0]) == ["method", "threshold", "masking_rate", "mean_fp_rate"]
    assert list(doc["trials"][0]) == [
        "trial", "method", "threshold", "n_flagged", "detected_outliers", "masked_outliers",
        "false_positives",
    ]



def test_report_from_numpy_integers_same_bytes():
    def report(integer):
        spec = ContaminationSpec(
            n_clean=integer(20), d=integer(2), n_outliers=integer(1), outlier_center=(5.0, 0.0),
            outlier_spread=0.1, seed=SeedSpec(3),
        )
        return masking_experiment(spec, 0.05, integer(2), DepthConfig(n_directions=integer(50)))

    plain, numpy_ints = report(int), report(np.int64)
    assert numpy_ints.spec == plain.spec and hash(numpy_ints.spec) == hash(plain.spec)
    assert numpy_ints.to_json() == plain.to_json()
    assert numpy_ints.to_csv() == plain.to_csv()
    cell, = compare_identifiers([(np.int64(2), np.int64(1), 6.0)], n_clean=20, fpr=0.05,
                                n_trials=1, cfg=DepthConfig(50))
    assert type(cell.d) is int and type(cell.n_outliers) is int

def test_default_masking_grid_shape():
    grid = default_masking_grid(0.01)
    assert {(d, k) for d, k, _ in grid} == {(2, 3), (2, 5)}
    r = np.sqrt(9.210340371976184)
    assert all(dist > r for _, _, dist in grid)

import math
import sys

import numpy as np
import pytest

from doqr import (
    chi2_cdf,
    chi2_quantile,
    hd_normal,
    oh_cdf,
    oh_normal,
    oh_pdf,
    oh_threshold,
    std_normal_cdf,
    std_normal_quantile,
)
from doqr.normal import chi2_pdf

# Reference values computed with mpmath at 40 decimal digits.
PHI_REFERENCE = {
    -1.96: 0.024997895148220434,
    0.5: 0.6914624612740131,
    1.0: 0.8413447460685429,
    1.2345: 0.8914916766373298,
    2.0: 0.9772498680518208,
    3.0349: 0.9987969227390282,
    5.0: 0.9999997133484281,
    8.0: 0.9999999999999994,
}
CHI2_CDF_REFERENCE = {
    (1.0, 1): 0.6826894921370859,
    (2.5, 3): 0.5247089166569794,
    (4.2, 5): 0.47900504656859504,
    (9.210340371976182, 2): 0.99,
}
CHI2_Q_REFERENCE = {
    (0.5, 1): 0.45493642311957275,
    (0.5, 2): 1.3862943611198906,
    (0.95, 3): 7.81472790325118,
    (0.99, 2): 9.210340371976183,
    (0.999, 5): 20.515005652432878,
}


def test_std_normal_cdf_reference_values():
    assert std_normal_cdf(0.0) == 0.5
    for z, want in PHI_REFERENCE.items():
        assert abs(std_normal_cdf(z) - want) <= 1e-12


def test_phi_minus_196_spec_value():
    assert abs(std_normal_cdf(-1.96) - 0.0250) <= 1e-4


def test_std_normal_quantile_round_trip():
    assert abs(std_normal_quantile(std_normal_cdf(1.2345)) - 1.2345) <= 1e-8
    for p in [1e-9, 1e-4, 0.0250, 0.25, 0.5, 0.75, 0.977, 0.9999, 1 - 1e-9]:
        z = std_normal_quantile(p)
        assert abs(std_normal_cdf(z) - p) <= 1e-12


def test_std_normal_quantile_matches_ndtri():
    # near 1/2 (where the quantile is tiny), on a central grid, and in both tails
    ndtri = pytest.importorskip("scipy.special").ndtri
    ps = [0.5 - 1e-9, 0.5 + 1e-9, 0.5 + 1e-15, *(i / 200 for i in range(1, 200))]
    ps += [1.0 - 10.0**-k for k in range(2, 13)] + [10.0**-k for k in range(2, 301)]
    for p in ps:
        assert abs(std_normal_quantile(p) - ndtri(p)) <= 2e-15 * abs(ndtri(p)), p


def test_std_normal_quantile_domain():
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


def test_chi2_cdf_reference_values():
    for (t, d), want in CHI2_CDF_REFERENCE.items():
        assert abs(chi2_cdf(t, d) - want) <= 1e-10


def test_chi2_cdf_trivial_cases():
    for d in range(1, 6):
        assert chi2_cdf(0.0, d) == 0.0
    # closed form at d = 2
    for t in [0.1, 0.7, 1.3863, 4.0, 11.5]:
        assert abs(chi2_cdf(t, 2) - (1.0 - math.exp(-t / 2))) <= 1e-12


def test_chi2_quantile_reference_and_round_trip():
    for (p, d), want in CHI2_Q_REFERENCE.items():
        assert abs(chi2_quantile(p, d) - want) <= 1e-8
    for d in (1, 2, 3, 5, 10):
        for p in (0.001, 0.1, 0.5, 0.9, 0.99, 0.9999):
            assert abs(chi2_cdf(chi2_quantile(p, d), d) - p) <= 1e-8


def test_chi2_domain_errors():
    with pytest.raises(ValueError):
        chi2_cdf(-0.1, 2)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, 0)
    for p in (0.0, 1.0):
        with pytest.raises(ValueError):
            chi2_quantile(p, 2)


def test_chi2_law_at_its_edges():
    # the limits at t = inf; a NaN is no argument (it ran 10 000 fraction terms)
    for d in (1, 2, 3, 10):
        assert chi2_cdf(math.inf, d) == 1.0 and chi2_pdf(math.inf, d) == 0.0
        for law in (chi2_cdf, chi2_pdf):
            with pytest.raises(ValueError, match="requires t >= 0, got nan"):
                law(math.nan, d)
    for law in (hd_normal, oh_normal):
        with pytest.raises(ValueError, match="x_norm must be >= 0"):
            law(math.nan)


def test_hd_oh_normal_basics():
    assert hd_normal(0.0) == 0.5
    assert abs(hd_normal(1.96) - 0.0250) <= 1e-4
    # monotone decreasing
    vals = [hd_normal(r) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert oh_normal(0.0) == 0.0
    assert oh_normal(8.0) < 1.0  # strictly below 1 wherever Phi(-r) is resolvable
    assert oh_normal(40.0) >= 1 - 1e-12  # approaches 1 in the limit
    for r in (0.0, 0.3, 1.0, 2.7):
        assert abs(oh_normal(r) - (1.0 - 2.0 * hd_normal(r))) <= 1e-15
    with pytest.raises(ValueError):
        hd_normal(-0.1)
    with pytest.raises(ValueError):
        oh_normal(-0.1)


def test_oh_cdf_values():
    assert oh_cdf(0.0, 3) == 0.0
    assert abs(oh_cdf(0.37, 1) - 0.37) <= 1e-10
    assert abs(oh_cdf(0.5, 2) - 0.20345225789468431) <= 1e-10
    with pytest.raises(ValueError):
        oh_cdf(1.0, 2)
    with pytest.raises(ValueError):
        oh_cdf(-0.01, 2)


def test_oh_cdf_d1_uniform_grid():
    for k in range(1, 100):
        lam = k / 100.0
        assert abs(oh_cdf(lam, 1) - lam) <= 1e-10


def test_oh_pdf_values():
    for lam in (0.01, 0.3, 0.5, 0.9, 0.999):
        assert abs(oh_pdf(lam, 1) - 1.0) <= 1e-10
    assert abs(oh_pdf(0.5, 2) - 0.8453475393951495) <= 1e-10
    assert abs(oh_pdf(0.25, 5) - 0.003436184316691242) <= 1e-12
    with pytest.raises(ValueError):
        oh_pdf(0.0, 2)
    with pytest.raises(ValueError):
        oh_pdf(1.0, 2)


def test_oh_pdf_monotone_divergent_for_d_ge_2():
    for d in (2, 3, 4, 5):
        grid = [oh_pdf(k / 100.0, d) for k in range(1, 100)]
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert oh_pdf(0.999, d) / oh_pdf(0.5, d) > 4.0
        # the divergence is reported, never clipped
        assert math.isfinite(oh_pdf(1 - 1e-12, d))


def test_oh_pdf_large_d_matches_log_space_reference():
    # 2**-(d/2) / gamma(d/2) * q**(d - 1) under- and overflows from d ~ 340 unless taken in logs
    special = pytest.importorskip("scipy.special")
    stats = pytest.importorskip("scipy.stats")
    for d in (1, 2, 3, 5, 50, 340, 344, 1000):
        for lam in (0.01, 0.5, 0.999999):
            q = -float(special.ndtri(0.5 * (1.0 - lam)))  # 1 - lam is exact from 0.5 on
            # the chi-square density at q**2 times d(q**2)/d(lambda) = sqrt(2 pi) q exp(q**2 / 2)
            log_ref = stats.chi2.logpdf(q * q, d) + math.log(q) + 0.5 * q * q
            ref = math.exp(log_ref + 0.5 * math.log(2.0 * math.pi))
            got = oh_pdf(lam, d)
            if ref >= sys.float_info.min:
                assert abs(got - ref) <= 1e-12 * ref, (d, lam, got, ref)
            else:
                assert 0.0 <= got < 2.0 * sys.float_info.min, (d, lam, got, ref)
    assert oh_pdf(0.999999, 340) > 0.0


def test_oh_laws_near_lambda_one_match_scipy():
    # q from the upper tail 0.5 * (1 - lam), exact in its argument: 0.5 * (1 + lam)
    # rounds to 1.0 above 1 - 2**-53, and costs q relative precision below that
    stats = pytest.importorskip("scipy.stats")
    for lam in (0.5, 0.9, 0.999999, 1 - 1e-12, 1 - 2**-52, 1 - 2**-53):
        q = float(stats.norm.isf(0.5 * (1.0 - lam)))
        for d in (1, 2, 3, 5, 344):
            assert abs(oh_cdf(lam, d) - stats.chi2.cdf(q * q, d)) <= 1e-15, (d, lam)
            log_ref = stats.chi2.logpdf(q * q, d) + math.log(q) + 0.5 * q * q
            ref = math.exp(log_ref + 0.5 * math.log(2.0 * math.pi))
            assert abs(oh_pdf(lam, d) - ref) <= 1e-12 * ref, (d, lam, oh_pdf(lam, d), ref)
    assert f"{oh_pdf(0.9999999999999999, 2):.12g}" == "10.392933368"


def test_oh_pdf_at_the_smallest_lambda():
    # 0.5 * (1 + lam) rounds to 0.5 below 2**-53, so q is 0: the limit there
    assert oh_pdf(1e-17, 1) == 1.0
    assert oh_pdf(1e-17, 2) == 0.0 and oh_pdf(5e-324, 3) == 0.0


def test_normal_laws_integer_dimension_rule():
    # the rule of DepthConfig: a bool is no dimension, a numpy integer is a plain one
    laws = ((chi2_cdf, 1.0), (chi2_pdf, 1.0), (chi2_quantile, 0.5), (oh_cdf, 0.5),
            (oh_pdf, 0.5), (oh_threshold, 0.01))
    for law, x in laws:
        for bad in (True, False, 2.0, "2"):
            with pytest.raises(TypeError, match="d must be an int"):
                law(x, bad)
        assert law(x, np.int64(3)) == law(x, 3)
        with pytest.raises(ValueError):
            law(x, np.int64(0))


def test_oh_cdf_pdf_derivative_consistency():
    h = 1e-6
    for d in range(1, 6):
        for k in range(1, 10):
            lam = k / 10.0
            num = (oh_cdf(lam + h, d) - oh_cdf(lam - h, d)) / (2 * h)
            pdf = oh_pdf(lam, d)
            assert abs(num - pdf) / pdf <= 1e-4


def test_oh_threshold():
    assert abs(oh_threshold(0.01, 1) - 0.99) <= 1e-10
    assert abs(oh_threshold(0.01, 2) - 0.9975934805411772) <= 1e-8
    for d in (1, 2, 3, 5):
        for f in (0.1, 0.01, 0.001):
            lam = oh_threshold(f, d)
            assert abs(oh_cdf(lam, d) - (1.0 - f)) <= 1e-8
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            oh_threshold(bad, 2)

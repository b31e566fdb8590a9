"""Closed-form laws for the standard d-variate normal model.

For a standard normal vector X in R^d, halfspace depth at a point x depends
only on the norm r = ||x||: depth = Phi(-r).  The matching outlyingness
O = 1 - 2*Phi(-r) lives in [0, 1), and its distribution under X has an
explicit c.d.f. and density in terms of the chi-square law.  These formulas
serve as population oracles for the empirical machinery and for threshold
calibration in the outlier experiments.

The normal quantile is the standard library's ``statistics.NormalDist``
(Wichura's AS241, within 1e-15 relative); the chi-square law is
implemented here (incomplete-gamma series/continued fraction, a safeguarded
Newton inverse).  The module depends on nothing outside the standard
library.
"""

from __future__ import annotations

import math
from numbers import Integral
from statistics import NormalDist

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = 1e-15
_FPMIN = 1e-300
_STD_NORMAL = NormalDist()


def std_normal_cdf(z: float) -> float:
    """Standard normal c.d.f., absolute error well below 1e-10 on |z| <= 8."""
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of ``std_normal_cdf``; requires 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal quantile requires 0 < p < 1, got {p}")
    return _STD_NORMAL.inv_cdf(p)


def _gamma_series(s: float, x: float) -> float:
    # lower regularized incomplete gamma by power series, for x < s + 1
    ap = s
    total = 1.0 / s
    delta = total
    for _ in range(10000):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _gamma_cf(s: float, x: float) -> float:
    # upper regularized incomplete gamma by continued fraction, for x >= s + 1
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _EPS:
            break
    return math.exp(-x + s * math.log(x) - math.lgamma(s)) * h


def _gammp(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x), for x >= 0 and s > 0."""
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return 1.0 - _gamma_cf(s, x)


def _check_dim(d) -> int:
    # the rule of doqr.data._as_int, which this module cannot import without numpy
    if isinstance(d, bool) or not isinstance(d, Integral):
        raise TypeError(f"d must be an int, got {type(d).__name__}")
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return d


def chi2_cdf(t: float, d: int) -> float:
    """Chi-square c.d.f. with d degrees of freedom at t >= 0 (1 at t = inf)."""
    d = _check_dim(d)
    if not t >= 0.0:
        raise ValueError(f"chi2_cdf requires t >= 0, got {t}")
    return 1.0 if t == math.inf else _gammp(0.5 * d, 0.5 * t)


def chi2_pdf(t: float, d: int) -> float:
    d = _check_dim(d)
    if not t >= 0.0:
        raise ValueError(f"chi2_pdf requires t >= 0, got {t}")
    if t == math.inf:
        return 0.0
    if t == 0.0:
        if d == 1:
            return math.inf
        return 0.5 if d == 2 else 0.0
    h = 0.5 * d
    return math.exp((h - 1.0) * math.log(t) - 0.5 * t - h * math.log(2.0) - math.lgamma(h))


def chi2_quantile(p: float, d: int) -> float:
    """Inverse chi-square c.d.f.; Newton with a bracketing safeguard."""
    d = _check_dim(d)
    if not 0.0 < p < 1.0:
        raise ValueError(f"chi2_quantile requires 0 < p < 1, got {p}")
    # Wilson-Hilferty starting point
    z = std_normal_quantile(p)
    c = 2.0 / (9.0 * d)
    t = d * (1.0 - c + z * math.sqrt(c)) ** 3
    if t <= 0.0:
        t = 0.5 * d * 1e-4
    lo, hi = 0.0, t
    while chi2_cdf(hi, d) < p:
        lo = hi
        hi *= 2.0
        if hi > 1e8:
            break
    for _ in range(100):
        f = chi2_cdf(t, d) - p
        if f > 0.0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
        df = chi2_pdf(t, d)
        if df > 0.0 and math.isfinite(df):
            step = f / df
            t_new = t - step
        else:
            t_new = 0.5 * (lo + hi)
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-13 * max(1.0, t):
            t = t_new
            break
        t = t_new
    return t


def hd_normal(x_norm: float) -> float:
    """Halfspace depth of a point at distance ``x_norm`` from the normal center."""
    if not x_norm >= 0.0:
        raise ValueError("x_norm must be >= 0")
    return std_normal_cdf(-x_norm)


def oh_normal(x_norm: float) -> float:
    """Halfspace outlyingness 1 - 2*depth at distance ``x_norm``; lives in [0, 1)."""
    if not x_norm >= 0.0:
        raise ValueError("x_norm must be >= 0")
    return 1.0 - 2.0 * std_normal_cdf(-x_norm)


def _check_lambda(lam: float, strict: bool) -> float:
    lam = float(lam)
    if strict:
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    else:
        if not 0.0 <= lam < 1.0:
            raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    return lam


def _radius(lam: float) -> float:
    """The distance r from the center with outlyingness 1 - 2 Phi(-r) = lam; from
    lam = 0.5 on, from the upper tail 0.5 * (1 - lam), exact where 0.5 * (1 + lam)
    would round (to 1.0 above 1 - 2**-53)."""
    if lam >= 0.5:
        return -std_normal_quantile(0.5 * (1.0 - lam))
    return std_normal_quantile(0.5 * (1.0 + lam))


def oh_cdf(lam: float, d: int) -> float:
    """C.d.f. of the halfspace outlyingness of a standard d-normal vector."""
    lam = _check_lambda(lam, strict=False)
    d = _check_dim(d)
    q = _radius(lam)
    return chi2_cdf(q * q, d)


def oh_pdf(lam: float, d: int) -> float:
    """Density of the halfspace outlyingness law; uniform for d = 1.

    For d >= 2 this density grows without bound as lambda -> 1; the value is
    always the plain evaluation of the formula, never clipped.
    """
    lam = _check_lambda(lam, strict=True)
    d = _check_dim(d)
    q = _radius(lam)
    if q == 0.0:  # lam below 2**-53: the limit at 0
        return 1.0 if d == 1 else 0.0
    # in logs, as chi2_pdf: gamma(d / 2) alone overflows from d = 344
    log_c = math.log(_SQRT_2PI) - 0.5 * d * math.log(2.0) - math.lgamma(0.5 * d)
    return math.exp(log_c + (d - 1) * math.log(q))


def oh_threshold(fpr: float, d: int) -> float:
    """Outlyingness level whose exceedance probability is ``fpr`` under normality."""
    fpr = float(fpr)
    if not 0.0 < fpr < 1.0:
        raise ValueError(f"fpr must lie in (0, 1), got {fpr}")
    d = _check_dim(d)
    q = math.sqrt(chi2_quantile(1.0 - fpr, d))
    return 2.0 * std_normal_cdf(q) - 1.0

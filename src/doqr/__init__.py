"""doqr: depth, outlyingness, quantile and rank functions for multivariate
data, built on halfspace (Tukey) depth and projection outlyingness, with
closed-form normal-model oracles and a masking-breakdown experiment harness.

Submodules load on first use: ``import doqr`` imports none of them (nor
numpy), and ``doqr.X`` or ``from doqr import X`` imports X's home module.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "data": ("CsvFormatError", "Dataset", "SeedSpec", "SingularMatrixError", "affine_transform",
             "load_csv", "write_csv"),
    "halfspace": ("DepthConfig", "convex_hull", "depth_1d", "depth_2d_exact", "depth_approx",
                  "max_depth", "sample_depths", "tukey_median", "unit_directions"),
    "induction": ("CentralRegion", "EmptyRegionError", "RankVector", "central_region",
                  "contour_polyline", "doqr_depth", "outlyingness", "quantile_function",
                  "rank_function", "sign_test", "trimmed_mean"),
    "normal": ("chi2_cdf", "chi2_pdf", "chi2_quantile", "hd_normal", "oh_cdf", "oh_normal",
               "oh_pdf", "oh_threshold", "std_normal_cdf", "std_normal_quantile"),
    "outliers": ("ContaminationSpec", "ExperimentReport", "GridCell", "MethodSummary",
                 "TrialResult", "compare_identifiers", "comparison_to_csv",
                 "default_masking_grid", "identify", "masking_experiment", "projection_cutoff",
                 "sample_contaminated"),
    "projection": ("DegenerateDirectionsError", "DegenerateScaleWarning", "median_mad", "po_1d",
                   "po_approx", "projection_depth"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))

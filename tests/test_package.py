"""The package namespace: every exported name, loaded on first use; and what
the test oracles may take from it."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import doqr

EXPORTED = [
    "CentralRegion", "ContaminationSpec", "CsvFormatError", "Dataset",
    "DegenerateDirectionsError", "DegenerateScaleWarning", "DepthConfig", "EmptyRegionError",
    "ExperimentReport", "GridCell", "MethodSummary", "RankVector", "SeedSpec",
    "SingularMatrixError", "TrialResult", "affine_transform", "central_region", "chi2_cdf",
    "chi2_pdf", "chi2_quantile", "compare_identifiers", "comparison_to_csv", "contour_polyline",
    "convex_hull", "default_masking_grid", "depth_1d", "depth_2d_exact", "depth_approx",
    "doqr_depth", "hd_normal", "identify", "load_csv", "masking_experiment", "max_depth",
    "median_mad", "oh_cdf", "oh_normal", "oh_pdf", "oh_threshold", "outlyingness", "po_1d",
    "po_approx", "projection_cutoff", "projection_depth", "quantile_function", "rank_function",
    "sample_contaminated", "sample_depths", "sign_test", "std_normal_cdf", "std_normal_quantile",
    "trimmed_mean", "tukey_median", "unit_directions", "write_csv",
]


def fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this doqr."""
    src = str(Path(doqr.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                       stdin=subprocess.DEVNULL, timeout=120, check=True)
    return r.stdout


def test_all_lists_every_export_in_order():
    assert doqr.__all__ == EXPORTED


def test_every_name_is_its_home_module_object():
    for name in EXPORTED:
        obj = getattr(doqr, name)
        assert obj.__module__.startswith("doqr."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_submodules_resolve_as_attributes():
    assert doqr.tukey_median is doqr.halfspace.tukey_median
    from doqr import halfspace

    assert halfspace is sys.modules["doqr.halfspace"]


def test_dir_star_import_and_unknown_name():
    assert set(doqr.__all__) <= set(dir(doqr))
    namespace = {}
    exec("from doqr import *", namespace)
    assert all(namespace[name] is getattr(doqr, name) for name in EXPORTED)
    with pytest.raises(AttributeError, match="no_such_name"):
        doqr.no_such_name
    with pytest.raises(ImportError):
        exec("from doqr import no_such_name", {})


def test_import_doqr_loads_no_submodule_and_no_numpy():
    out = fresh_python(
        "import sys, doqr\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('doqr.')))\n"
        "print(doqr.halfspace.__name__, doqr.normal.oh_cdf is doqr.oh_cdf)"
    )
    assert out == "[]\ndoqr.halfspace True\n"


def test_oracle_command_loads_no_numpy():
    out = fresh_python(
        "import sys, doqr.cli\n"
        "doqr.cli.main(['oracle', '--threshold', '--d', '2', '--fpr', '0.01'])\n"
        "print('numpy' in sys.modules)"
    )
    assert out == "0.997593480541\nFalse\n"


def test_oracles_take_only_mirror_constants_from_halfspace():
    # tests/oracles.py's truth oracles share nothing with the library: from
    # doqr.halfspace it imports the config and the constants its declared
    # mirrors share, and no code there names the kernel or its block size
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "doqr.halfspace" for a in node.names}
    assert imported == {"DepthConfig", "_BOUND_DIRS", "_BOUND_TOL", "_GAP_EPS"}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not named & {"_min_halfplane_counts", "_CHUNK_BUDGET"}

import json

import numpy as np
import pytest

from doqr import Dataset, DepthConfig, SeedSpec, depth_approx, load_csv, write_csv
from doqr.cli import main

AXES4_CSV = "1,0\n-1,0\n0,1\n0,-1\n"


@pytest.fixture()
def axes4_file(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text(AXES4_CSV)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_golden_depth(capsys, axes4_file):
    code, out, _ = run(capsys, "depth", "--in", axes4_file, "--query", "0,0")
    assert code == 0 and out == "0.5\n"
    code2, out2, _ = run(capsys, "depth", "--in", axes4_file, "--query", "0,0", "--seed", "0")
    assert code2 == 0 and out2 == out  # byte-identical across runs


def test_golden_oracle_pdf_d1(capsys):
    code, out, _ = run(capsys, "oracle", "--pdf", "--d", "1", "--lambda", "0.3")
    assert code == 0 and out == "1\n"
    code2, out2, _ = run(capsys, "oracle", "--pdf", "--d", "1", "--lambda", "0.3")
    assert out2 == out


def test_golden_quantile_median(capsys, axes4_file):
    code, out, _ = run(capsys, "quantile", "--in", axes4_file, "--u", "0,0")
    assert code == 0 and out == "0,0\n"
    code2, out2, _ = run(capsys, "quantile", "--in", axes4_file, "--u", "0,0")
    assert out2 == out


def test_depth_matches_library_formatting(capsys, tmp_path):
    rng = np.random.default_rng(50)
    ds = Dataset(rng.standard_normal((30, 4)))
    p = tmp_path / "d4.csv"
    write_csv(ds, p)
    code, out, _ = run(
        capsys, "depth", "--in", str(p), "--query", "0,0,0,0",
        "--directions", "200", "--seed", "3",
    )
    lib = depth_approx(ds, np.zeros(4), DepthConfig(200, SeedSpec(3)))
    assert code == 0 and out == f"{lib:.12g}\n"


def test_depth_1d_input(capsys, tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("1\n2\n3\n4\n5\n")
    code, out, _ = run(capsys, "depth", "--in", str(p), "--query", "3")
    assert code == 0 and out == "0.6\n"


def test_header_flag(capsys, tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("x,y\n" + AXES4_CSV)
    code, out, _ = run(capsys, "depth", "--in", str(p), "--header", "--query", "0,0")
    assert code == 0 and out == "0.5\n"


def test_median_and_trimmed_mean(capsys, axes4_file):
    code, out, _ = run(capsys, "median", "--in", axes4_file)
    assert code == 0 and out == "0,0\n"
    code, out, _ = run(capsys, "trimmed-mean", "--in", axes4_file, "--alpha", "0.25")
    assert code == 0 and out == "0,0\n"


def test_rank_outly_signtest(capsys, axes4_file):
    code, out, _ = run(capsys, "rank", "--in", axes4_file, "--query", "3,0")
    assert code == 0 and out == "0.999999999,0\n"
    code, out, _ = run(capsys, "outly", "--in", axes4_file, "--query", "3,0")
    assert code == 0 and out == "0.999999999\n"
    code, out, _ = run(capsys, "signtest", "--in", axes4_file, "--theta", "0,0")
    assert code == 0 and out == "u1,u2,statistic\n0,0,0\n"


def test_contour_csv(capsys, axes4_file, tmp_path):
    code, out, _ = run(capsys, "contour", "--in", axes4_file, "--alpha", "0.25")
    lines = out.strip().split("\n")
    assert code == 0 and lines[0] == "x,y" and len(lines) == 5
    dest = tmp_path / "poly.csv"
    code, out, _ = run(
        capsys, "contour", "--in", axes4_file, "--alpha", "0.25", "--out", str(dest)
    )
    assert code == 0 and out == ""
    ds = load_csv(dest, has_header=True)
    assert ds.n == 4 and ds.d == 2


def test_projout(capsys, axes4_file):
    code, out, _ = run(
        capsys, "projout", "--in", axes4_file, "--query", "0,0", "--directions", "100"
    )
    assert code == 0 and out == "0\n"


def test_oracle_modes(capsys):
    code, out, _ = run(capsys, "oracle", "--threshold", "--d", "2", "--fpr", "0.01")
    assert code == 0 and out == "0.997593480541\n"
    code, out, _ = run(capsys, "oracle", "--cdf", "--d", "1", "--lambda", "0.37")
    assert code == 0 and out == "0.37\n"
    code, out, _ = run(capsys, "oracle", "--cdf", "--d", "2")
    lines = out.strip().split("\n")
    assert code == 0 and lines[0] == "lambda,cdf" and len(lines) == 100


def test_masking_cli(capsys, tmp_path):
    cfg = {
        "n_clean": 30, "d": 2, "n_outliers": 1, "outlier_center": [6.0, 0.0],
        "outlier_spread": 0.1, "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(
        capsys, "masking", "--config", str(cfg_path), "--fpr", "0.05",
        "--trials", "4", "--directions", "150", "--seed", "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("trial,method,threshold")
    assert len(lines) == 9  # header + 4 trials x 2 methods
    code, out2, _ = run(
        capsys, "masking", "--config", str(cfg_path), "--fpr", "0.05",
        "--trials", "4", "--directions", "150", "--seed", "1", "--json",
    )
    doc = json.loads(out2)
    assert doc["config"]["master_seed"] == 5
    assert {s["method"] for s in doc["summaries"]} == {"halfspace", "projection"}


def test_masking_config_validation_exit_1(capsys, tmp_path):
    # the config must be an object with n_clean and d and no other keys than
    # ContaminationSpec's; the message names the file and every offending key
    cases = (
        ({"d": 2}, ["missing key 'n_clean'"]),
        ({}, ["missing key 'n_clean'", "missing key 'd'"]),
        ({"n_clean": 30, "d": 2, "n_outlier": 3}, ["unknown key 'n_outlier'"]),
        ({"n_clean": 30, "Seed": 1, "zz": 0},
         ["missing key 'd'", "unknown key 'Seed'", "unknown key 'zz'"]),
        ([{"n_clean": 30, "d": 2}], ["expected a JSON object, got list"]),
        ("n_clean", ["expected a JSON object, got str"]),
    )
    for doc, parts in cases:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "masking", "--config", str(cfg_path), "--trials", "1")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {cfg_path}: ") and all(p in err for p in parts), err


def test_usage_error_exit_2(axes4_file):
    with pytest.raises(SystemExit) as exc:
        main(["depth", "--in", axes4_file])  # missing --query
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_runtime_error_exit_1(capsys, axes4_file):
    code, _, err = run(capsys, "depth", "--in", "/nonexistent.csv", "--query", "0,0")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "depth", "--in", axes4_file, "--query", "0,0,0")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "contour", "--in", axes4_file, "--alpha", "0.9")
    assert code == 1 and "error:" in err

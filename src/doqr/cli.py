"""Command-line front end: depth, outlyingness, quantile and rank queries on
CSV data, oracle tabulation, contour polylines, and masking experiments.

Exit codes: 0 success, 2 usage error (argparse), 1 runtime error.  Numbers
are printed with 12 significant digits; vectors are comma-separated.  CSV
outputs start with a one-line header naming the columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .data import Dataset, SeedSpec, load_csv
from .halfspace import DepthConfig, depth_1d, depth_2d_exact, depth_approx, tukey_median
from .induction import (
    contour_polyline,
    outlyingness,
    quantile_function,
    rank_function,
    sign_test,
    trimmed_mean,
)
from .normal import oh_cdf, oh_pdf, oh_threshold
from .outliers import ContaminationSpec, masking_experiment
from .projection import po_approx


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_vec(v) -> str:
    return ",".join(_fmt(c) for c in np.asarray(v, dtype=float))


def _parse_vec(text: str) -> np.ndarray:
    try:
        return np.array([float(c) for c in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"cannot parse vector {text!r}; expected comma-separated numbers")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(args) -> Dataset:
    return load_csv(args.inp, has_header=args.header)


def _cfg(args) -> DepthConfig:
    return DepthConfig(n_directions=args.directions, seed=SeedSpec(args.seed))


def _cmd_depth(args) -> int:
    ds = _load(args)
    q = _parse_vec(args.query)
    if ds.d == 1:
        val = depth_1d(ds, q[0])
    elif ds.d == 2:
        val = depth_2d_exact(ds, q)
    else:
        val = depth_approx(ds, q, _cfg(args))
    print(_fmt(val))
    return 0


def _cmd_projout(args) -> int:
    ds = _load(args)
    print(_fmt(po_approx(ds, _parse_vec(args.query), _cfg(args))))
    return 0


def _cmd_median(args) -> int:
    point, _ = tukey_median(_load(args))
    print(_fmt_vec(point))
    return 0


def _cmd_rank(args) -> int:
    rv = rank_function(_load(args), _parse_vec(args.query))
    print(_fmt_vec(rv.u))
    return 0


def _cmd_quantile(args) -> int:
    print(_fmt_vec(quantile_function(_load(args), _parse_vec(args.u))))
    return 0


def _cmd_outly(args) -> int:
    print(_fmt(outlyingness(_load(args), _parse_vec(args.query))))
    return 0


def _cmd_contour(args) -> int:
    poly = contour_polyline(_load(args), args.alpha)
    lines = ["x,y"] + [f"{_fmt(p[0])},{_fmt(p[1])}" for p in poly]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_trimmed_mean(args) -> int:
    print(_fmt_vec(trimmed_mean(_load(args), args.alpha)))
    return 0


def _cmd_signtest(args) -> int:
    rv, stat = sign_test(_load(args), _parse_vec(args.theta))
    print("u1,u2,statistic")
    print(f"{_fmt(rv.u[0])},{_fmt(rv.u[1])},{_fmt(stat)}")
    return 0


def _cmd_oracle(args) -> int:
    if args.threshold:
        if args.fpr is None:
            raise ValueError("--threshold requires --fpr")
        print(_fmt(oh_threshold(args.fpr, args.d)))
        return 0
    fn = oh_pdf if args.pdf else oh_cdf
    if args.lam is not None:
        print(_fmt(fn(args.lam, args.d)))
        return 0
    name = "pdf" if args.pdf else "cdf"
    lines = [f"lambda,{name}"]
    for k in range(1, 100):
        lam = k / 100.0
        lines.append(f"{_fmt(lam)},{_fmt(fn(lam, args.d))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_masking(args) -> int:
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{args.config}: expected a JSON object, got {type(doc).__name__}")
    fields = {f.name for f in dataclasses.fields(ContaminationSpec)}
    bad = [f"missing key {k!r}" for k in ("n_clean", "d") if k not in doc]
    bad += [f"unknown key {k!r}" for k in sorted(set(doc) - fields)]
    if bad:
        raise ValueError(f"{args.config}: {', '.join(bad)}")
    spec = ContaminationSpec(**doc | {"seed": SeedSpec(doc.get("seed", 0))})
    report = masking_experiment(spec, args.fpr, args.trials, _cfg(args))
    if args.json:
        _emit(report.to_json() + "\n", args.out)
    else:
        _emit(report.to_csv(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doqr",
        description="Depth, outlyingness, quantile and rank functions on CSV data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, query_flag=None):
        p.add_argument("--in", dest="inp", required=True, help="input CSV path")
        p.add_argument("--header", action="store_true", help="skip one header row")
        if query_flag:
            p.add_argument(query_flag, required=True, dest=query_flag.lstrip("-"),
                           help="comma-separated coordinates")

    def add_sampling(p):
        p.add_argument("--directions", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("depth", help="halfspace depth of a query point")
    add_io(p, "--query")
    add_sampling(p)
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("projout", help="projection outlyingness of a query point")
    add_io(p, "--query")
    add_sampling(p)
    p.set_defaults(func=_cmd_projout)

    p = sub.add_parser("median", help="Tukey median of the sample")
    add_io(p)
    p.set_defaults(func=_cmd_median)

    p = sub.add_parser("rank", help="rank vector u of a query point (d=2)")
    add_io(p, "--query")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("quantile", help="quantile point for an index u (d=2)")
    add_io(p)
    p.add_argument("--u", required=True, help="comma-separated quantile index")
    p.set_defaults(func=_cmd_quantile)

    p = sub.add_parser("outly", help="DOQR outlyingness of a query point (d=2)")
    add_io(p, "--query")
    p.set_defaults(func=_cmd_outly)

    p = sub.add_parser("contour", help="depth contour polyline as CSV (d=2)")
    add_io(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("trimmed-mean", help="depth-trimmed mean (d=2)")
    add_io(p)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_trimmed_mean)

    p = sub.add_parser("signtest", help="rank-based sign test statistic (d=2)")
    add_io(p)
    p.add_argument("--theta", required=True, help="hypothesized center")
    p.set_defaults(func=_cmd_signtest)

    p = sub.add_parser("oracle", help="normal-model outlyingness law values")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cdf", action="store_true")
    group.add_argument("--pdf", action="store_true")
    group.add_argument("--threshold", action="store_true")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--fpr", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("masking", help="masking experiment from a JSON config")
    p.add_argument("--config", required=True, help="JSON file with spec fields")
    p.add_argument("--fpr", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--out", default=None)
    add_sampling(p)
    p.set_defaults(func=_cmd_masking)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

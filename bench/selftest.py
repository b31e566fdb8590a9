"""Self-test of the benchmark's checkers, at a tiny size.

    python3 bench/selftest.py

Each checker is first fed doqr's real answer, which it must accept, then a
planted wrong answer, which it must reject.  Exits 1 if any checker fails
either way.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from doqr import (  # noqa: E402
    Dataset,
    central_region,
    depth_2d_exact,
    identify,
    oh_threshold,
    quantile_function,
    sample_depths,
    tukey_median,
)

failures = []


def verdict(name: str, good: list[str], planted: list[str]) -> None:
    ok = not good and bool(planted)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: real answer {good or 'accepted'}, "
          f"planted answer {'rejected' if planted else 'accepted'}")
    if not ok:
        failures.append(name)


def main() -> int:
    rng = np.random.default_rng(7)
    n = 30
    x = rng.standard_normal((n, 2))
    ds = Dataset(x)
    counts = np.rint(sample_depths(ds) * n).astype(int)

    exact = oracles.depth_counts(x, x)
    verdict("depth count off by one",
            checks.counts(counts, exact, "point"),
            checks.counts(counts + np.eye(n, dtype=int)[2], exact, "point"))

    reg = checks.Regions(x, counts)
    k = int(np.sort(counts)[n // 4])
    r = central_region(ds, k / n)
    verdict("hull with one vertex missing",
            checks.region(reg, k, r.vertices, r.weight),
            checks.region(reg, k, r.vertices[1:], r.weight))

    m, dm = tukey_median(ds)
    top = int(round(dm * n))
    shallow = oracles.depth_count(x, x[np.argmin(counts)])
    verdict("median reported deeper than its point",
            checks.median(n, top, int(exact.max()), oracles.depth_count(x, m)),
            checks.median(n, top, int(exact.max()), shallow))
    u = np.array([0.3, -0.4])
    y = quantile_function(ds, u)
    radius = float(np.max(np.linalg.norm(x - m, axis=1)))
    count_at = lambda p: oracles.depth_count(x, p)  # noqa: E731
    off_ray = y + 0.01 * np.array([u[1], -u[0]]) / np.linalg.norm(u)
    verdict("quantile moved off its ray",
            checks.quantile(reg, m, u, y, radius, count_at),
            checks.quantile(reg, m, u, off_ray, radius, count_at))

    # d = 2 halfspace identifier in the unsaturated range: n in (2, 4] / (1 - lam)
    lam = oh_threshold(0.01, 2)
    big = rng.standard_normal((1003, 2))
    truth = range(1000, 1003)
    flagged = identify(Dataset(big), "halfspace", lam, workloads.CFG)
    hull = oracles.hull_vertex_indices(big)
    verdict("masking flagged set with one hull vertex dropped",
            checks.identification(checks.flagged_counts(flagged, truth), hull, (), truth, "d=2"),
            checks.identification(checks.flagged_counts(flagged[1:], truth), hull, (), truth, "d=2"))

    want = workloads.fmt(depth_2d_exact(ds, [0.1, 0.2])) + "\n"
    digits = want.rstrip("\n")
    last = digits[-1]
    changed = digits[:-1] + ("1" if last != "1" else "2") + "\n"
    verdict("CLI value changed in its last printed digit",
            checks.cli_output(0, want, want, "depth"),
            checks.cli_output(0, changed, want, "depth"))

    # the oracle shares no angular snap with the sweep: it sees the known over-count
    pair = [[1.0, 0.0], [-1.0, -5e-10]]
    snap = checks.counts([round(2 * depth_2d_exact(Dataset(pair), [0.0, 0.0]))],
                         [oracles.depth_count(pair, [0.0, 0.0])], "snap case")
    print(f"note exact oracle vs depth_2d_exact on the 5e-10 snap case: {snap or 'agree'}")

    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload units: the operations one round of a run performs, timed from
outside doqr through its public functions, then checked.

Every workload reports every end-to-end metric, so a workload is one focus
unit sized to stress its layers plus small side units that keep the other
metrics measured.  Each unit makes fresh inputs every round, because doqr
caches per-dataset results by content and a cold timing must not hit them.
Rounds are kept short, a few seconds, so that a run holds many of them and
every unit, the side units too, is timed all through the run: the machine's
speed drifts over stretches of seconds, and a metric timed at two or three
moments of a run follows that drift.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import oracles
from doqr import (
    ContaminationSpec,
    Dataset,
    DepthConfig,
    SeedSpec,
    central_region,
    contour_polyline,
    depth_2d_exact,
    depth_approx,
    load_csv,
    masking_experiment,
    oh_cdf,
    oh_threshold,
    po_approx,
    quantile_function,
    rank_function,
    sample_depths,
    trimmed_mean,
    tukey_median,
)
from doqr.cli import main as cli_main
from doqr.outliers import identify, projection_cutoff, sample_contaminated

FPR = 0.01
CFG = DepthConfig()  # README defaults: 1000 directions, direction seed 0
now = time.perf_counter


class Context:
    """Seed, tracer, scratch directory and the run's tallies."""

    def __init__(self, seed: int, tracer, workdir: Path, src: Path):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples = defaultdict(lambda: defaultdict(list))  # metric -> kind -> values
        self.items = 0

    def sample(self, metric: str, kind, value: float) -> None:
        """A timing of one kind of operation (a shape, a query, a command)."""
        self.samples[metric][kind].append(value)

    def typical(self, metric: str) -> float:
        """Mean over kinds of the median within each kind.

        Kinds differ in cost, so a median over all samples would fall
        between kinds and jump with the seed; the median within a kind
        drops stalls, and the mean over a fixed mix of kinds stays put.
        """
        return float(np.mean([np.median(v) for v in self.samples[metric].values()]))

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def check(self, problems: list[str]) -> None:
        """One operation whose output was checked."""
        self.attempted += 1
        self.problems.extend(problems)

    def expect(self, ok: bool) -> None:
        """One operation that counts as failed unless ``ok``."""
        self.attempted += 1
        self.failed += not ok


# --- bivariate session -----------------------------------------------------

SHAPES = ("normal", "heavy-tailed", "elongated", "two-clusters")


def bivariate_sample(rng: np.random.Generator, shape: str, n: int) -> np.ndarray:
    """Continuous data only: rounded coordinates hit a known over-count in
    the exact sweep (see CHANGES.md), which would mask everything else."""
    if shape == "normal":
        return rng.standard_normal((n, 2))
    if shape == "heavy-tailed":
        return rng.standard_t(3.0, (n, 2))
    if shape == "elongated":
        a = rng.uniform(0.0, np.pi)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        return (rng.standard_normal((n, 2)) * [4.0, 0.25]) @ rot.T
    half = n // 2
    return np.concatenate([rng.standard_normal((half, 2)),
                           rng.standard_normal((n - half, 2)) + [4.0, 1.5]])


class Session:
    """Cold session on one fresh sample a round, its shape cycling through
    ``shapes`` from round to round, then the same rank and quantile queries
    repeated warm.  Each warm repeat is a turn of its own, so that the
    repeats are timed at different moments of the round."""

    name = "session"
    LEVELS = (0.05, 0.15, 0.3)  # plus the largest sample depth
    TRIM = 0.1
    QUERIES = 12  # rank queries (inside, outside, sample points) and quantile indices

    def __init__(self, ctx: Context, n: int, shapes=SHAPES, warm: int = 3):
        self.ctx, self.n, self.shapes, self.warm = ctx, n, shapes, warm

    def prepare(self, rnd: int) -> dict:
        shape = self.shapes[rnd % len(self.shapes)]
        rng = self.ctx.rng(1, rnd, 0)
        x = bivariate_sample(rng, shape, self.n)
        center = np.median(x, axis=0)
        reach = 1.5 * float(np.max(np.linalg.norm(x - center, axis=1)))
        ang = rng.uniform(0, 2 * np.pi, self.QUERIES + self.QUERIES // 3)
        unit = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        third = self.QUERIES // 3
        rank_q = np.concatenate([
            center + 0.3 * x.std(axis=0) * rng.standard_normal((third, 2)),  # inside
            center + reach * unit[:third],  # outside the data
            x[rng.choice(self.n, third, replace=False)],  # sample points
        ])
        quant_u = rng.uniform(0.05, 0.95, (self.QUERIES, 1)) * unit[third:]
        return {"shape": shape, "x": x, "rank": rank_q, "quant": quant_u}

    def run(self, inp: dict):
        ctx, span = self.ctx, self.ctx.tracer.span
        x, n = inp["x"], self.n
        ctx.items += 1
        item = ctx.items
        with span("session"):
            t0 = now()
            ds = Dataset(x)
            with span("halfspace.tukey_median_s"):
                m, dm = tukey_median(ds)
            with span("halfspace.sample_depths_s"):
                depths = sample_depths(ds)
            top = int(round(depths.max() * n))
            levels = sorted({min(round(a * n), top) for a in self.LEVELS} | {top})
            regions = []
            for k in levels:
                with span("induction.central_region_s"):
                    regions.append(central_region(ds, k / n))
            with span("induction.trimmed_mean_s"):
                tm = trimmed_mean(ds, round(self.TRIM * n) / n)
            ranks = []
            for q in inp["rank"]:
                with span("induction.rank_function_s"):
                    ranks.append(rank_function(ds, q))
            quants = []
            for u in inp["quant"]:
                with span("induction.quantile_function_s"):
                    quants.append(quantile_function(ds, u))
            ctx.sample("session_s", inp["shape"], now() - t0)
        yield
        for _ in range(self.warm):
            for i, (q, cold) in enumerate(zip(inp["rank"], ranks)):
                with span("induction.rank_function_s"):
                    t0 = now()
                    rv = rank_function(ds, q)
                    ctx.sample("rank_s", (item, i), now() - t0)
                ctx.check([] if np.array_equal(rv.u, cold.u) else ["warm rank differs from cold"])
            for i, (u, cold) in enumerate(zip(inp["quant"], quants)):
                with span("induction.quantile_function_s"):
                    t0 = now()
                    y = quantile_function(ds, u)
                    ctx.sample("quantile_s", (item, i), now() - t0)
                ctx.check([] if np.array_equal(y, cold) else ["warm quantile differs from cold"])
            yield
        if ctx.tracer.enabled:
            with span("halfspace.depth_2d_exact_us_per_point", per=n):
                depth_2d_exact(ds, inp["rank"][0])
        self._check(inp, m, dm, depths, levels, regions, tm, ranks, quants)

    def _check(self, inp, m, dm, depths, levels, regions, tm, ranks, quants) -> None:
        ctx, x, n = self.ctx, inp["x"], self.n
        counts = oracles.depth_counts(x, x)
        depth_problems = checks.counts(np.rint(depths * n).astype(int), counts, "sample point")
        ctx.check(depth_problems + checks.median(
            n, int(round(dm * n)), int(counts.max()), oracles.depth_count_fast(x, m)))
        reg = checks.Regions(x, counts)
        for k, r in zip(levels, regions):
            ctx.check(checks.region(reg, k, r.vertices, r.weight))
        ctx.problems.extend(checks.nesting(levels, regions))
        ctx.check(checks.trimmed_mean(x, counts, round(self.TRIM * n), tm))
        for q, rv in zip(inp["rank"], ranks):
            ctx.check(checks.rank(reg, m, q, oracles.depth_count_fast(x, q), rv.u, rv.p, rv.v))
        radius = float(np.max(np.linalg.norm(x - m, axis=1)))
        for u, y in zip(inp["quant"], quants):
            ctx.check(checks.quantile(reg, m, u, y, radius,
                                      lambda p: oracles.depth_count_fast(x, p)))


# --- small-sample exact medians -------------------------------------------


def affine_map(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Rotation * scaling * shear with scales in [0.5, 2]: well conditioned."""
    a = rng.uniform(0.0, 2 * np.pi)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    scale = np.diag(rng.uniform(0.5, 2.0, 2))
    shear = np.array([[1.0, rng.uniform(-1.0, 1.0)], [0.0, 1.0]])
    return rot @ scale @ shear, rng.normal(0.0, 5.0, 2)


class Medians:
    """Exact tukey_median of one small sample of size n a round (the
    enumeration path), answered as drawn and under a seeded affine map;
    both medians are timed, each in a turn of its own."""

    name = "median"

    def __init__(self, ctx: Context, n: int):
        self.ctx, self.n = ctx, n

    def prepare(self, rnd: int) -> dict:
        rng = self.ctx.rng(3, rnd, 0, self.n)
        x = rng.standard_normal((self.n, 2))
        a, b = affine_map(rng)
        return {"x": x, "y": x @ a.T + b}

    def _median(self, pts: np.ndarray):
        with self.ctx.tracer.span("halfspace.tukey_median_s"):
            t0 = now()
            m, dm = tukey_median(Dataset(pts))
            dt = now() - t0
        n = pts.shape[0]
        self.ctx.sample("median_s", n, dt)
        exact = oracles.depth_counts(pts, pts)
        self.ctx.check(checks.median(n, int(round(dm * n)), int(exact.max()),
                                     oracles.depth_count_fast(pts, m)))
        return dm

    def run(self, inp: dict):
        dm = self._median(inp["x"])
        yield
        dm_y = self._median(inp["y"])
        if dm_y != dm:
            self.ctx.problems.append(
                f"n={self.n}: maximal depth {dm} becomes {dm_y} under an affine map")


# --- masking experiment -----------------------------------------------------


def saturated(d: int, n_total: int) -> bool:
    """Whether the halfspace threshold at FPR is at least 1 - 2 / n_total,
    so that no sample point (depth >= 1/n) can exceed it."""
    return n_total <= 2.0 / (1.0 - oracles.oh_threshold(FPR, d))


class Masking:
    """masking_experiment at several d, each entry (d, n_clean, trials).

    With a saturated threshold the halfspace identifications are the one
    counted failure (see README), whose inputs must not depend on --seed:
    such entries are seeded by round and position alone, so every run sees
    the same verified failing data, and the failed share is fixed."""

    name = "masking"
    N_OUT, DIST, SPREAD = 3, 4.0, 0.1

    def __init__(self, ctx: Context, entries):
        self.ctx, self.entries = ctx, entries

    def prepare(self, rnd: int) -> list[dict]:
        out = []
        for i, (d, n_clean, trials) in enumerate(self.entries):
            root = () if saturated(d, n_clean + self.N_OUT) else (self.ctx.seed,)
            seed = int(np.random.default_rng([*root, 4, rnd, i, d]).integers(2**62))
            spec = ContaminationSpec(n_clean=n_clean, d=d, n_outliers=self.N_OUT,
                                     outlier_center=(self.DIST,) + (0.0,) * (d - 1),
                                     outlier_spread=self.SPREAD, seed=SeedSpec(seed))
            out.append({"spec": spec, "trials": trials})
        return out

    def _traced(self, spec: ContaminationSpec, trials: int):
        """The experiment composed from its public parts, one span each."""
        span, d = self.ctx.tracer.span, spec.d
        with span(f"outliers.projection_cutoff_s.d{d}"):
            cutoff = projection_cutoff(spec, FPR, CFG)
        lam = oh_threshold(FPR, d)
        rows = []
        for t in range(trials):
            with span(f"outliers.sample_contaminated_s.d{d}"):
                ds, truth = sample_contaminated(spec, trial=t)
            with span(f"outliers.identify_halfspace_s.d{d}"):
                fh = identify(ds, "halfspace", lam, CFG)
            with span(f"outliers.identify_projection_s.d{d}"):
                fp = identify(ds, "projection", cutoff, CFG)
            rows.append((t, "halfspace", lam, checks.flagged_counts(fh, truth)))
            rows.append((t, "projection", cutoff, checks.flagged_counts(fp, truth)))
        return lam, cutoff, rows, ds

    def run(self, inputs: list[dict]):
        ctx = self.ctx
        for inp in inputs:
            spec, trials, d = inp["spec"], inp["trials"], inp["spec"].d
            t0 = now()
            if ctx.tracer.enabled:
                lam, cutoff, rows, last = self._traced(spec, trials)
            else:
                rep = masking_experiment(spec, FPR, trials, CFG)
                lam = rep.summary("halfspace").threshold
                cutoff = rep.summary("projection").threshold
                rows = [(r.trial, r.method, r.threshold,
                         (r.n_flagged, r.detected_outliers, r.masked_outliers, r.false_positives))
                        for r in rep.trials]
            ctx.sample(f"trial_s.d{d}", d, (now() - t0) / trials)
            if ctx.tracer.enabled and d >= 3:
                with ctx.tracer.span("halfspace.depth_approx_s"):
                    for p in last.data:
                        depth_approx(last, p, CFG)
            self._check(spec, lam, cutoff, rows)
            yield

    def _check(self, spec: ContaminationSpec, lam: float, cutoff: float, rows) -> None:
        ctx, d = self.ctx, spec.d
        seed = spec.seed.master_seed
        lam_ref = oracles.oh_threshold(FPR, d)
        dirs = oracles.directions(CFG.seed.master_seed, CFG.n_directions, d)
        cut_ref = oracles.projection_cutoff(seed, spec.n_clean, d, FPR, dirs)
        head = checks.close(lam, lam_ref, 1e-12, f"d={d} halfspace threshold")
        head += checks.close(cutoff, cut_ref, 1e-9, f"d={d} projection cutoff")
        ctx.problems.extend(head)
        n_total = spec.n_total
        full = saturated(d, n_total)
        if not full and (d != 2 or n_total > 4.0 / (1.0 - lam_ref)):
            raise ValueError("masking checks need a saturated threshold, "
                             "or d = 2 with n_total <= 4 / (1 - lambda)")
        truth = range(spec.n_clean, n_total)
        data = {}
        for t, method, threshold, got in rows:
            if t not in data:
                data[t] = oracles.contaminated_sample(seed, t, spec.n_clean, d, self.N_OUT,
                                                      spec.outlier_center, self.SPREAD)
            x = data[t]
            what = f"d={d} trial {t} {method}"
            if threshold != (lam if method == "halfspace" else cutoff):
                ctx.problems.append(f"{what}: threshold {threshold} differs from the run's")
            if method == "halfspace":
                if full:
                    # every sample point has depth >= 1/n: nothing can exceed lam
                    if d >= 3:
                        ctx.expect(got[0] == 0)
                        continue
                    expected = ()
                else:
                    # depth 1/n exactly at the hull vertices; 1 - 4/n <= lam
                    expected = oracles.hull_vertex_indices(x)
                ctx.check(checks.identification(got, expected, (), truth, what))
            else:
                o = oracles.projection_outlyingness(x, x, dirs)
                sure = np.nonzero(o > cutoff * (1 + 1e-9))[0]
                unsure = np.nonzero(np.abs(o - cutoff) <= 1e-9 * cutoff)[0]
                ctx.check(checks.identification(got, sure, unsure, truth, what))


# --- command line -------------------------------------------------------------


def import_seconds(ctx: Context) -> float:
    """Time of ``import doqr`` in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import doqr; print(time.perf_counter() - t)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       stdin=subprocess.DEVNULL, env=ctx.env, cwd=ctx.workdir,
                       timeout=120, check=True)
    return float(r.stdout)


def fmt(v) -> str:
    """The CLI's documented number format: 12 significant digits."""
    return ",".join(f"{float(c):.12g}" for c in np.atleast_1d(v))


def write_points(path: Path, pts: np.ndarray) -> None:
    path.write_text("".join(",".join(repr(float(c)) for c in row) + "\n" for row in pts))


class Cli:
    """``python -m doqr.cli`` subprocess calls of every command, one after
    another, on small CSV files written fresh each round."""

    name = "cli"
    N = 150
    COMMANDS = ("depth2", "depth3", "projout", "oracle-cdf", "oracle-threshold",
                "contour", "trimmed-mean")

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self, rnd: int) -> dict:
        rng = self.ctx.rng(5, rnd)
        p2 = self.ctx.workdir / f"r{rnd}-2d.csv"
        p3 = self.ctx.workdir / f"r{rnd}-3d.csv"
        write_points(p2, rng.standard_normal((self.N, 2)))
        write_points(p3, rng.standard_normal((self.N, 3)))
        printed = lambda v: np.array([float(c) for c in fmt(v).split(",")])  # noqa: E731
        return {"p2": p2, "p3": p3, "q2": printed(rng.normal(0, 1, 2)),
                "q3": printed(rng.normal(0, 1, 3)), "qout": printed(rng.normal(0, 3, 2)),
                "seed": int(rng.integers(1000)),
                "lam": round(float(rng.uniform(0.05, 0.95)), 6), "alpha": 0.2}

    def _call(self, inp: dict, cmd: str) -> tuple[list[str], str, list[str]]:
        """argv, expected stdout, problems with the reference values."""
        p2, p3 = str(inp["p2"]), str(inp["p3"])
        lam, probs = inp["lam"], []
        if cmd == "depth2":
            argv = ["depth", "--in", p2, f"--query={fmt(inp['q2'])}"]
            want = fmt(depth_2d_exact(load_csv(p2), inp["q2"]))
        elif cmd == "depth3":
            argv = ["depth", "--in", p3, f"--query={fmt(inp['q3'])}"]
            want = fmt(depth_approx(load_csv(p3), inp["q3"], CFG))
        elif cmd == "projout":
            argv = ["projout", "--in", p2, f"--query={fmt(inp['qout'])}", "--seed", str(inp["seed"])]
            want = fmt(po_approx(load_csv(p2), inp["qout"], DepthConfig(seed=SeedSpec(inp["seed"]))))
        elif cmd == "oracle-cdf":
            argv = ["oracle", "--cdf", "--d", "3", "--lambda", repr(lam)]
            want = fmt(oh_cdf(lam, 3))
            probs = checks.close(float(want), oracles.oh_cdf(lam, 3), 1e-11, "oracle --cdf")
        elif cmd == "oracle-threshold":
            argv = ["oracle", "--threshold", "--d", "2", "--fpr", repr(FPR)]
            want = fmt(oh_threshold(FPR, 2))
            probs = checks.close(float(want), oracles.oh_threshold(FPR, 2), 1e-11, "oracle --threshold")
        elif cmd == "contour":
            argv = ["contour", "--in", p2, "--alpha", repr(inp["alpha"])]
            poly = contour_polyline(load_csv(p2), inp["alpha"])
            want = "x,y\n" + "".join(fmt(v) + "\n" for v in poly)
            return argv, want, probs
        else:
            argv = ["trimmed-mean", "--in", p2, "--alpha", repr(inp["alpha"])]
            want = fmt(trimmed_mean(load_csv(p2), inp["alpha"]))
        return argv, want + "\n", probs

    def run(self, inp: dict):
        ctx = self.ctx
        for cmd in self.COMMANDS:
            argv, want, probs = self._call(inp, cmd)
            t0 = now()
            r = subprocess.run([sys.executable, "-m", "doqr.cli", *argv], capture_output=True,
                               text=True, stdin=subprocess.DEVNULL, env=ctx.env,
                               cwd=ctx.workdir, timeout=120)
            ctx.sample("cli_call_s", cmd, now() - t0)
            ctx.check(probs + checks.cli_output(r.returncode, r.stdout, want, f"doqr {cmd}"))
            yield
        if ctx.tracer.enabled:
            self._layers(inp)

    def _layers(self, inp: dict) -> None:
        """In-process calls behind a CLI query, each in its own span."""
        span = self.ctx.tracer.span
        self.ctx.tracer.add("cli.import_s", import_seconds(self.ctx))
        with span("data.load_csv_s"):
            ds = load_csv(inp["p2"])
        with span("cli.main_s"), contextlib.redirect_stdout(io.StringIO()):
            cli_main(["depth", "--in", str(inp["p2"]), f"--query={fmt(inp['q2'])}"])
        with span("projection.po_approx_s"):
            po_approx(ds, inp["qout"], CFG)
        with span("normal.oh_cdf_s"):
            oh_cdf(inp["lam"], 3)


# --- workloads ----------------------------------------------------------------


def units(workload: str, ctx: Context) -> list:
    """Focus unit first; its spans win when a layer name repeats.

    A round is one portion of the focus unit and one item of each side unit
    (one sample, one median pair, one masking entry per d, every CLI
    command), 4-7 s in all.  Side units take one kind each (normal data, n =
    24), the same in every round, so that each of their metrics is the
    median of every sample of the run.  The masking entries keep d = 3 and
    d = 5 in every round, so that every round has the same operations and
    the same counted failures."""
    if workload == "bivariate-session":
        masking_side = Masking(ctx, [(2, 100, 2), (3, 100, 2), (5, 100, 2)])
        return [Session(ctx, 1000), Medians(ctx, 24), Cli(ctx), masking_side]
    if workload == "masking":
        # d = 2: n_total 1003 lies in (2, 4] / (1 - lambda) ~ (831, 1662]
        focus = Masking(ctx, [(2, 1000, 2), (3, 100, 6), (5, 100, 6)])
        # medians before the session: here the traced tukey_median is the
        # enumeration path, in bivariate-session the n > 60 search
        return [focus, Medians(ctx, 24), Session(ctx, 200, shapes=("normal",)), Cli(ctx)]
    raise ValueError(f"unknown workload {workload!r}")


def end_to_end(ctx: Context) -> dict[str, tuple[float, str]]:
    """Metrics from this run's timings, except set-up time and memory.
    Rates are the reciprocal of the typical time of one item."""
    rate = lambda k: 1.0 / ctx.typical(k)  # noqa: E731
    return {
        "session_s": (ctx.typical("session_s"), "s"),
        "rank_s": (ctx.typical("rank_s"), "s"),
        "quantile_s": (ctx.typical("quantile_s"), "s"),
        "medians_per_s": (rate("median_s"), "1/s"),
        "trials_per_s.d2": (rate("trial_s.d2"), "1/s"),
        "trials_per_s.d3": (rate("trial_s.d3"), "1/s"),
        "trials_per_s.d5": (rate("trial_s.d5"), "1/s"),
        "cli_call_s": (ctx.typical("cli_call_s"), "s"),
    }

"""Contaminated-normal data generation, threshold outlier identification, and
masking-breakdown experiments.

Two identifiers are compared.  The halfspace identifier flags a point when
its sample halfspace outlyingness 1 - 2*depth exceeds a threshold lambda
calibrated from the closed-form population law (``oh_threshold``).  The
projection identifier flags a point when its projection outlyingness exceeds
a cutoff calibrated empirically as the (1 - fpr) quantile of the in-sample
outlyingness of a separate clean calibration sample of size 10 * n_clean.
Points are always scored against the full sample including themselves (no
leave-one-out), so a sample point's depth is at least 1/n.

Substream layout on the spec's seed: trial t regenerates its data from
substream (0, t); the clean calibration sample uses substream (1, 0).
Direction sampling for the projection identifier is governed solely by the
DepthConfig's own seed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, SeedSpec
from .halfspace import DepthConfig, _approx_members_at_least, _members_at_least
from .normal import chi2_quantile, oh_threshold
from .projection import po_profile

METHODS = ("halfspace", "projection")


@dataclass(frozen=True)
class ContaminationSpec:
    """Clean standard-normal majority plus a planted cluster of outliers."""

    n_clean: int
    d: int
    n_outliers: int = 0
    outlier_center: tuple[float, ...] = ()
    outlier_spread: float = 0.0
    seed: SeedSpec = SeedSpec(0)

    def __post_init__(self):
        if self.n_clean < 1:
            raise ValueError("n_clean must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.n_outliers < 0:
            raise ValueError("n_outliers must be >= 0")
        if self.outlier_spread < 0.0:
            raise ValueError("outlier_spread must be >= 0")
        center = tuple(float(c) for c in self.outlier_center)
        if self.n_outliers > 0:
            if len(center) != self.d:
                raise ValueError("outlier_center must have length d")
            if not all(math.isfinite(c) for c in center):
                raise ValueError("outlier_center must be finite")
        object.__setattr__(self, "outlier_center", center)
        if not isinstance(self.seed, SeedSpec):
            raise TypeError("seed must be a SeedSpec")

    @property
    def n_total(self) -> int:
        return self.n_clean + self.n_outliers


def sample_contaminated(
    spec: ContaminationSpec, trial: int = 0
) -> tuple[Dataset, tuple[int, ...]]:
    """Draw one contaminated sample; clean points first, then outliers.

    The ground-truth outlier indices are returned alongside.  ``trial``
    selects substream (0, trial) of the spec's seed, so each trial index is
    reproducible independently of execution order.
    """
    rng = spec.seed.generator(0, trial)
    clean = rng.standard_normal((spec.n_clean, spec.d))
    if spec.n_outliers > 0:
        out = np.asarray(spec.outlier_center) + spec.outlier_spread * rng.standard_normal(
            (spec.n_outliers, spec.d)
        )
        data = np.concatenate([clean, out], axis=0)
    else:
        data = clean
    truth = tuple(range(spec.n_clean, spec.n_total))
    return Dataset(data), truth


def identify(
    ds: Dataset, method: str, threshold: float, cfg: DepthConfig
) -> tuple[int, ...]:
    """Flag sample indices whose outlyingness exceeds the threshold.

    halfspace: flags i when 1 - 2*depth(x_i) > threshold, with exact depth
    for d = 2 and sampled-direction depth otherwise.  Either way that is one
    level question: x_i is flagged when its count is below the smallest count
    k whose score is not above the threshold, and when k <= 1 (a saturated
    threshold) nothing is computed.  projection: flags i when the projection
    outlyingness of x_i exceeds the threshold.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if method == "projection":
        flagged = po_profile(ds.data, ds.data, cfg) > threshold
    else:
        # the score falls as the count rises, so the counts above the threshold are 0..k-1
        k = int(np.count_nonzero(1.0 - 2.0 * (np.arange(ds.n + 1) / ds.n) > threshold))
        if ds.d == 2:
            flagged = ~_members_at_least(ds.data, k)
        else:
            flagged = ~_approx_members_at_least(ds.data, k, cfg)
    return tuple(int(i) for i in np.flatnonzero(flagged))


@dataclass(frozen=True)
class TrialResult:
    trial: int
    method: str
    threshold: float
    n_flagged: int
    detected_outliers: tuple[int, ...]
    masked_outliers: tuple[int, ...]
    false_positives: int


@dataclass(frozen=True)
class MethodSummary:
    method: str
    threshold: float
    masking_rate: float  # fraction of trials with >= 1 undetected outlier
    mean_fp_rate: float  # mean over trials of false positives / n_clean


@dataclass(frozen=True)
class ExperimentReport:
    spec: ContaminationSpec
    fpr: float
    n_trials: int
    n_directions: int
    direction_seed: int
    trials: tuple[TrialResult, ...]
    summaries: tuple[MethodSummary, ...]

    def summary(self, method: str) -> MethodSummary:
        for s in self.summaries:
            if s.method == method:
                return s
        raise KeyError(method)

    def to_dict(self) -> dict:
        return {
            "config": {
                "n_clean": self.spec.n_clean,
                "d": self.spec.d,
                "n_outliers": self.spec.n_outliers,
                "outlier_center": list(self.spec.outlier_center),
                "outlier_spread": self.spec.outlier_spread,
                "master_seed": self.spec.seed.master_seed,
                "fpr": self.fpr,
                "n_trials": self.n_trials,
                "n_directions": self.n_directions,
                "direction_seed": self.direction_seed,
            },
            "summaries": [
                {
                    "method": s.method,
                    "threshold": s.threshold,
                    "masking_rate": s.masking_rate,
                    "mean_fp_rate": s.mean_fp_rate,
                }
                for s in self.summaries
            ],
            "trials": [
                {
                    "trial": t.trial,
                    "method": t.method,
                    "threshold": t.threshold,
                    "n_flagged": t.n_flagged,
                    "detected_outliers": list(t.detected_outliers),
                    "masked_outliers": list(t.masked_outliers),
                    "false_positives": t.false_positives,
                }
                for t in self.trials
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    CSV_HEADER = "trial,method,threshold,n_flagged,n_detected,n_masked,false_positives"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for t in self.trials:
            lines.append(
                f"{t.trial},{t.method},{t.threshold!r},{t.n_flagged},"
                f"{len(t.detected_outliers)},{len(t.masked_outliers)},{t.false_positives}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


def projection_cutoff(spec: ContaminationSpec, fpr: float, cfg: DepthConfig) -> float:
    """Empirical (1 - fpr) quantile of clean-sample projection outlyingness.

    Calibrated in-sample on a clean standard-normal sample of size
    10 * n_clean drawn from substream (1, 0) of the spec's seed; the upper
    order statistic at rank ceil((1 - fpr) * m) is returned.
    """
    return _calibrated_cutoff(spec.seed, spec.n_clean, spec.d, fpr, cfg)


@functools.lru_cache(maxsize=32)
def _calibrated_cutoff(seed: SeedSpec, n_clean: int, d: int, fpr: float, cfg: DepthConfig) -> float:
    """``projection_cutoff`` on the only inputs it reads: grid cells calibrate once."""
    m = 10 * n_clean
    cal = seed.generator(1, 0).standard_normal((m, d))
    k = max(1, math.ceil((1.0 - fpr) * m))
    return float(np.partition(po_profile(cal, cal, cfg), k - 1)[k - 1])


def masking_experiment(
    spec: ContaminationSpec, fpr: float, n_trials: int, cfg: DepthConfig
) -> ExperimentReport:
    """Run both identifiers over freshly generated trials and aggregate.

    Per trial the data are regenerated from substream (0, trial).  The
    halfspace threshold is the population lambda at the requested false
    positive rate; the projection cutoff is calibrated empirically once on a
    clean sample.  The masking rate of a method is the fraction of trials in
    which at least one planted outlier went undetected (zero by definition
    when nothing is planted).
    """
    if not 0.0 < fpr < 1.0:
        raise ValueError(f"fpr must lie in (0, 1), got {fpr}")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    lam = oh_threshold(fpr, spec.d)
    cutoff = projection_cutoff(spec, fpr, cfg)
    thresholds = {"halfspace": lam, "projection": cutoff}
    trials = []
    masked_trials = {m: 0 for m in METHODS}
    fp_total = {m: 0.0 for m in METHODS}
    for t in range(n_trials):
        ds, truth = sample_contaminated(spec, trial=t)
        truth_set = set(truth)
        for method in METHODS:
            flagged = identify(ds, method, thresholds[method], cfg)
            fset = set(flagged)
            detected = tuple(sorted(truth_set & fset))
            masked = tuple(sorted(truth_set - fset))
            fp = len(fset - truth_set)
            trials.append(
                TrialResult(
                    trial=t,
                    method=method,
                    threshold=thresholds[method],
                    n_flagged=len(flagged),
                    detected_outliers=detected,
                    masked_outliers=masked,
                    false_positives=fp,
                )
            )
            if masked:
                masked_trials[method] += 1
            fp_total[method] += fp / spec.n_clean
    summaries = tuple(
        MethodSummary(
            method=m,
            threshold=thresholds[m],
            masking_rate=masked_trials[m] / n_trials,
            mean_fp_rate=fp_total[m] / n_trials,
        )
        for m in METHODS
    )
    return ExperimentReport(
        spec=spec,
        fpr=fpr,
        n_trials=n_trials,
        n_directions=cfg.n_directions,
        direction_seed=cfg.seed.master_seed,
        trials=tuple(trials),
        summaries=summaries,
    )


@dataclass(frozen=True)
class GridCell:
    d: int
    n_outliers: int
    distance: float
    masking_rate_halfspace: float
    masking_rate_projection: float
    fp_rate_halfspace: float
    fp_rate_projection: float
    threshold_halfspace: float
    threshold_projection: float


def default_masking_grid(fpr: float = 0.01) -> tuple[tuple[int, int, float], ...]:
    """Default (d, n_outliers, distance) grid: 3 or 5 outliers clustered just
    beyond the population threshold radius for the given false positive rate.

    The paper-level finding gives no sample sizes or geometry, so this grid
    is this package's own choice; reports label the grid parameters.
    """
    r = math.sqrt(chi2_quantile(1.0 - fpr, 2))
    return (
        (2, 3, r + 0.5),
        (2, 5, r + 0.5),
        (2, 3, r + 1.0),
        (2, 5, r + 1.0),
    )


def compare_identifiers(
    grid,
    n_clean: int,
    fpr: float,
    n_trials: int,
    cfg: DepthConfig,
    seed: SeedSpec = SeedSpec(0),
    outlier_spread: float = 0.1,
) -> tuple[GridCell, ...]:
    """Masking rates of both identifiers over a (d, n_outliers, distance) grid.

    Outliers are clustered around distance * e_1.  No winner is assumed; the
    table itself is the artifact.
    """
    cells = []
    for d, n_out, dist in grid:
        center = tuple([float(dist)] + [0.0] * (d - 1)) if n_out > 0 else ()
        spec = ContaminationSpec(
            n_clean=n_clean,
            d=d,
            n_outliers=n_out,
            outlier_center=center,
            outlier_spread=outlier_spread if n_out > 0 else 0.0,
            seed=seed,
        )
        rep = masking_experiment(spec, fpr, n_trials, cfg)
        hs = rep.summary("halfspace")
        pr = rep.summary("projection")
        cells.append(
            GridCell(
                d=d,
                n_outliers=n_out,
                distance=float(dist),
                masking_rate_halfspace=hs.masking_rate,
                masking_rate_projection=pr.masking_rate,
                fp_rate_halfspace=hs.mean_fp_rate,
                fp_rate_projection=pr.mean_fp_rate,
                threshold_halfspace=hs.threshold,
                threshold_projection=pr.threshold,
            )
        )
    return tuple(cells)


COMPARISON_CSV_HEADER = (
    "d,n_outliers,distance,masking_rate_halfspace,masking_rate_projection,"
    "fp_rate_halfspace,fp_rate_projection,threshold_halfspace,threshold_projection"
)


def comparison_to_csv(cells) -> str:
    lines = [COMPARISON_CSV_HEADER]
    for c in cells:
        lines.append(
            f"{c.d},{c.n_outliers},{c.distance!r},{c.masking_rate_halfspace!r},"
            f"{c.masking_rate_projection!r},{c.fp_rate_halfspace!r},"
            f"{c.fp_rate_projection!r},{c.threshold_halfspace!r},{c.threshold_projection!r}"
        )
    return "\n".join(lines) + "\n"

"""Dataset container, CSV ingestion, the projection kernel, affine helpers and
seeded randomness.

A :class:`Dataset` is an ordered, immutable collection of n points in R^d.
All downstream depth/outlyingness machinery treats it as the empirical
distribution of the sample, so row order is preserved everywhere and the
underlying array is frozen after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np


class CsvFormatError(ValueError):
    """Malformed CSV input (ragged rows, non-numeric or non-finite cells, empty file)."""


class SingularMatrixError(ValueError):
    """Affine transform matrix is singular or numerically near-singular."""


_U64 = 1 << 64


def _as_int(value, name: str) -> int:
    """``value`` as a Python int: a JSON true is no count, a numpy integer no JSON number."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return int(value)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a deterministic substream derivation rule.

    Substream ``i`` (or, more generally, an index path ``(i, j, ...)``) is the
    PCG64 generator seeded with ``SeedSequence(entropy=master_seed,
    spawn_key=(i, j, ...))``.  The stream obtained for a given index path is a
    pure function of (master_seed, path): it does not depend on how many other
    substreams were created, in what order, or on which thread.
    """

    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _as_int(self.master_seed, "master_seed"))
        if not 0 <= self.master_seed < _U64:
            raise ValueError("master_seed must fit in 64 bits (0 <= seed < 2**64)")

    def generator(self, *path: int) -> np.random.Generator:
        """Return the generator for substream ``path`` (empty path = root)."""
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(path))
        return np.random.Generator(np.random.PCG64(seq))


def as_point(x, d: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a finite float vector, optionally of length d."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("a point must be a 1-D vector with at least one coordinate")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    if d is not None and p.size != d:
        raise ValueError(f"expected a point of dimension {d}, got {p.size}")
    return p


class Dataset:
    """Ordered sample of n points in R^d backed by a read-only, C-ordered float array.

    Instances are immutable, hashable by content, and safe to share across
    concurrent readers.  Per-dataset caches elsewhere in the package key on
    this hash/equality.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, points):
        arr = np.array(points, dtype=float, copy=True, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("a Dataset needs an (n, d) array with n >= 1, d >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("all coordinates must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "_data", arr)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def data(self) -> np.ndarray:
        """The (n, d) coordinate array (read-only view)."""
        return self._data

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def d(self) -> int:
        return self._data.shape[1]

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self._data)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        a, b = self._data, other._data
        return a.shape == b.shape and a.tobytes() == b.tobytes()  # as hashed: -0.0 != +0.0

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self._data.shape, self._data.tobytes()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d})"


def load_csv(path, has_header: bool = False) -> Dataset:
    """Read a comma-separated numeric file into a Dataset.

    Strict format: comma delimiter, '.' decimal point, no quoting, equal
    column counts.  ``has_header`` skips exactly one leading row.  Errors
    carry 1-based row/column locations.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    start = 0
    if has_header:
        if not lines:
            raise CsvFormatError(f"{path}: empty file, no header row to skip")
        start = 1
    rows = []
    width = None
    for lineno in range(start, len(lines)):
        line = lines[lineno]
        if line == "" and lineno == len(lines) - 1:
            break  # trailing newline artifact
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CsvFormatError(
                f"{path}: ragged row at row {lineno + 1}: "
                f"expected {width} columns, got {len(cells)}"
            )
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(np.nan)
            if not np.isfinite(parsed[-1]):
                raise CsvFormatError(
                    f"{path}: non-numeric or non-finite cell at row {lineno + 1}, "
                    f"column {col}: {cell!r}"
                )
        rows.append(parsed)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(rows)


def write_csv(ds: Dataset, path, header: list[str] | None = None) -> None:
    """Write a Dataset in the same strict CSV format.

    Values are rendered with ``repr`` (shortest decimal string that parses
    back to the identical float), so ``load_csv(write_csv(ds))`` reproduces
    the Dataset bit-exactly.
    """
    lines = []
    if header is not None:
        if len(header) != ds.d:
            raise ValueError("header length must match dataset dimension")
        lines.append(",".join(header))
    for row in ds.data:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def project(points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(m, k) projections of m points on k directions: the view of a direction-major
    (k, m) buffer, summed coordinate by coordinate rather than by matmul, so that a
    row's rounding does not depend on the other rows: a point projects
    bit-identically alone and in a sample."""
    return _project_into(np.ascontiguousarray(points.T), u, np.empty((u.shape[0], points.shape[0]))).T


def _project_into(cols: np.ndarray, u: np.ndarray, out: np.ndarray, tmp=None) -> np.ndarray:
    """``project``'s (k, m) buffer of the (d, m) rows ``cols`` in ``out``, products in ``tmp`` (or new)."""
    np.multiply(u[:, :1], cols[0], out=out)
    for j in range(1, len(cols)):
        out += np.multiply(u[:, j : j + 1], cols[j], out=tmp)
    return out


def affine_transform(ds: Dataset, A, b) -> Dataset:
    """Apply ``x -> A x + b`` to every point, preserving order.

    ``A`` must be a nonsingular d x d matrix (|det A| > 1e-12).
    """
    A = np.asarray(A, dtype=float)
    b = as_point(b, ds.d)
    if A.shape != (ds.d, ds.d):
        raise ValueError(f"A must be {ds.d}x{ds.d}, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must have finite entries")
    if abs(np.linalg.det(A)) <= 1e-12:
        raise SingularMatrixError("affine map requires |det A| > 1e-12")
    # the projection kernel, not matmul: the rounding of each output row does
    # not depend on n, so transforming a 1-point dataset agrees bitwise with
    # transforming the same point inside a larger one
    return Dataset(project(ds.data, A) + b)

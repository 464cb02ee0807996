"""Shared domain types and validity/maximality predicates.

A data matrix is a dense n x m grid of finite reals.  A bicluster is a pair
(rows, cols) of strictly increasing index tuples selecting a submatrix.  The
predicates here define what it means for that submatrix to be homogeneous
under each supported bicluster type:

``ctv-binary``
    every selected cell equals 1 (a formal concept of ones),
``cvc-p`` / ``cvc``
    each selected column has value range <= epsilon over the selected rows
    (epsilon = 0 for the perfect variant),
``cvr-p`` / ``cvr``
    the same, with rows and columns swapped,
``chv-p`` / ``chv``
    for every pair of selected columns (j, l), the per-row differences
    a_ij - a_il have range <= epsilon over the selected rows (additive
    coherence; multiplicative coherence is served by mining the elementwise
    log under ``model="scale"``).

Indices are 0-based everywhere, including file formats.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

PERFECT_TYPES = frozenset({"ctv-binary", "cvc-p", "cvr-p", "chv-p"})
PERTURBED_TYPES = frozenset({"cvc", "cvr", "chv"})
BIC_TYPES = PERFECT_TYPES | PERTURBED_TYPES
MODELS = ("shift", "scale")


def _checked(arr: np.ndarray) -> np.ndarray:
    """arr, once it is known to be a non-empty 2-D array of finite values."""
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries (NaN or Inf)")
    return arr


class NumericMatrix:
    """Dense n x m matrix of finite 64-bit floats, immutable after construction.

    Parameters
    ----------
    values : array-like
        Two-dimensional numeric data; every element must be finite.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        arr = _checked(np.array(values, dtype=np.float64, copy=True))
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("NumericMatrix is immutable")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.shape, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"NumericMatrix({self.n_rows}x{self.n_cols})"


def as_matrix(obj) -> NumericMatrix:
    """Coerce an array-like or NumericMatrix into a NumericMatrix."""
    if isinstance(obj, NumericMatrix):
        return obj
    return NumericMatrix(obj)


class Bicluster(namedtuple("Bicluster", ("rows", "cols"))):
    """A submatrix selection: sorted row ids and sorted column ids.

    Both index tuples are normalized to strictly increasing order of Python
    ints; an index that is not an integer (``operator.index``) raises
    TypeError, and empty selections are rejected.  A named tuple, it compares, hashes and sorts
    as its plain (rows, cols) pair; ``_make`` takes a normalized pair as is.
    """

    __slots__ = ()

    def __new__(cls, rows: Iterable[int], cols: Iterable[int]) -> "Bicluster":
        r = tuple(sorted(set(map(operator.index, rows))))
        c = tuple(sorted(set(map(operator.index, cols))))
        if not r or not c:
            raise ValueError("bicluster rows and cols must be nonempty")
        return super().__new__(cls, r, c)

    @property
    def volume(self) -> int:
        return len(self.rows) * len(self.cols)

    def to_dict(self) -> dict[str, list[int]]:
        return {"rows": list(self.rows), "cols": list(self.cols)}


@dataclass(frozen=True)
class EnumParams:
    """Enumeration parameters: residue bound, size filters, type and model."""

    epsilon: float = 0.0
    min_row: int = 1
    min_col: int = 1
    bic_type: str = "cvc-p"
    model: str = "shift"

    def __post_init__(self) -> None:
        if self.bic_type not in BIC_TYPES:
            raise ValueError(
                f"unknown bic_type {self.bic_type!r}; expected one of {sorted(BIC_TYPES)}"
            )
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.bic_type == "ctv-binary" and self.model != "shift":
            raise ValueError("bic_type 'ctv-binary' mines 0/1 cells as given; use model 'shift'")
        if not (isinstance(self.epsilon, numbers.Real) and 0.0 <= self.epsilon < math.inf):
            raise ValueError(f"epsilon must be a finite nonnegative real, got {self.epsilon!r}")
        for size in (self.min_row, self.min_col):
            try:
                operator.index(size)
            except TypeError:
                raise ValueError(f"min_row and min_col must be integers, got {size!r}") from None
        if self.min_row < 1 or self.min_col < 1:
            raise ValueError("min_row and min_col must be >= 1")
        if self.bic_type in PERFECT_TYPES and self.epsilon != 0.0:
            raise ValueError(
                f"bic_type {self.bic_type!r} is a perfect type and requires epsilon = 0; "
                f"use {self.bic_type.removesuffix('-p')!r} for epsilon > 0"
            )
        if self.bic_type in PERTURBED_TYPES and self.epsilon == 0.0:
            raise ValueError(
                f"bic_type {self.bic_type!r} requires epsilon > 0; "
                f"use {self.bic_type + '-p'!r} for epsilon = 0"
            )
        if self.bic_type in ("chv", "chv-p") and self.min_col < 2:
            raise ValueError(
                "chv mining requires min_col >= 2 (coherence is vacuous on one column)"
            )


@dataclass(frozen=True)
class SolutionStats:
    """Counters attached to a solution: size, work done, wall time."""

    num_biclusters: int
    nodes_expanded: int = 0
    elapsed_s: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class BiclusterSolution:
    """An enumeration result: the biclusters found plus run statistics."""

    biclusters: tuple[Bicluster, ...]
    params: EnumParams | None = None
    stats: SolutionStats | None = None

    def __post_init__(self) -> None:
        bics = tuple(self.biclusters)
        object.__setattr__(self, "biclusters", bics)
        if self.stats is None:
            object.__setattr__(self, "stats", SolutionStats(num_biclusters=len(bics)))

    def __len__(self) -> int:
        return len(self.biclusters)

    def __iter__(self):
        return iter(self.biclusters)

    def as_set(self) -> frozenset[Bicluster]:
        return frozenset(self.biclusters)


def sort_biclusters(bics: Iterable[Bicluster]) -> tuple[Bicluster, ...]:
    """Canonical solution order: lexicographic by (rows, cols)."""
    return tuple(sorted(bics))


def transform_for_model(matrix, model: str) -> NumericMatrix:
    """Map the matrix into the space where additive coherence is mined.

    ``shift`` returns the matrix unchanged; ``scale`` returns the elementwise
    natural log, so multiplicative patterns become additive ones.  Under
    ``scale`` every entry must be strictly positive.
    """
    mat = as_matrix(matrix)
    if model == "shift":
        return mat
    if model == "scale":
        bad = np.argwhere(mat.values <= 0.0)
        if len(bad):
            i, j = (int(x) for x in bad[0])
            raise ValueError(
                f"scale model requires strictly positive entries; "
                f"cell ({i},{j}) = {mat.values[i, j]}"
            )
        return NumericMatrix(np.log(mat.values))
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def _model_values(matrix, model: str) -> np.ndarray:
    """``transform_for_model(matrix, model).values``; a plain array under shift is not copied."""
    if model == "shift" and not isinstance(matrix, NumericMatrix):
        return _checked(np.asarray(matrix, dtype=np.float64))
    return transform_for_model(matrix, model).values


def transpose(matrix) -> NumericMatrix:
    """The transposed matrix; (i, j) maps to (j, i)."""
    return NumericMatrix(as_matrix(matrix).values.T)


def _check_indices(values: np.ndarray, bic: Bicluster) -> None:
    n, m = values.shape
    if bic.rows[-1] >= n or bic.rows[0] < 0:
        raise IndexError(f"row index out of range for {n}x{m} matrix")
    if bic.cols[-1] >= m or bic.cols[0] < 0:
        raise IndexError(f"column index out of range for {n}x{m} matrix")


@np.errstate(over="ignore")  # an overflowed range is +inf, above every epsilon
def _homogeneous(values: np.ndarray, rows, cols, params: EnumParams) -> bool:
    """``is_valid``'s residue test on model-space values, for any row and column ids."""
    t = params.bic_type
    sub = values[np.ix_(rows, cols)]
    if t == "ctv-binary":
        return bool((sub == 1.0).all())
    if t in ("cvc", "cvc-p", "cvr", "cvr-p"):
        axis = 1 if t.startswith("cvr") else 0
        rng = sub.max(axis=axis) - sub.min(axis=axis)
        return bool((rng <= params.epsilon).all())
    # chv / chv-p: range of a_ij - a_il over the rows, for every column pair
    diffs = sub[:, :, None] - sub[:, None, :]
    rng = diffs.max(axis=0) - diffs.min(axis=0)
    return bool((rng <= params.epsilon).all())


def is_valid(matrix, bic: Bicluster, params: EnumParams) -> bool:
    """Does the selected submatrix satisfy the residue bound of params.bic_type?

    The check runs in the model space (``scale`` takes logs first).  ``cvr``
    variants take the range of each selected row, which is the
    column-constancy predicate on the transpose.
    """
    values = _model_values(matrix, params.model)
    _check_indices(values, bic)
    return _homogeneous(values, bic.rows, bic.cols, params)


def is_maximal(matrix, bic: Bicluster, params: EnumParams) -> bool:
    """Can no single row and no single column be added while staying valid?

    Precondition: ``bic`` itself must be valid.  The matrix is mapped into
    model space once, and every probe is tested there.
    """
    values = _model_values(matrix, params.model)
    _check_indices(values, bic)
    if not _homogeneous(values, bic.rows, bic.cols, params):
        raise ValueError("is_maximal requires a valid bicluster")
    row_set, col_set = set(bic.rows), set(bic.cols)
    probes = [((*bic.rows, x), bic.cols) for x in range(len(values)) if x not in row_set]
    probes += [(bic.rows, (*bic.cols, y)) for y in range(values.shape[1]) if y not in col_set]
    return not any(_homogeneous(values, r, c, params) for r, c in probes)

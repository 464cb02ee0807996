"""Solution-level metrics: overlap, coverage, and evaluation against a reference.

All cell-counting metrics go through an exact boolean occupancy grid over the
n x m matrix — no sampling, no approximation.  Conventions for empty
solutions (coverage 0, global overlap 0, precision 0 with a warning) are
ours; the formulas otherwise follow the usual span/coverage definitions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Bicluster


def overlap(b1: Bicluster, b2: Bicluster) -> float:
    """Shared cells normalized by the smaller volume; in [0, 1]."""
    shared = len(set(b1.rows) & set(b2.rows)) * len(set(b1.cols) & set(b2.cols))
    return shared / min(b1.volume, b2.volume)


def span_grid(bics: Iterable[Bicluster], n: int, m: int) -> np.ndarray:
    """Boolean n x m grid marking every cell covered by some bicluster.

    Raises if any index falls outside the grid.
    """
    grid = np.zeros((n, m), dtype=bool)
    for b in bics:
        rows = np.asarray(b.rows, dtype=np.intp)
        cols = np.asarray(b.cols, dtype=np.intp)
        if rows[0] < 0 or rows[-1] >= n or cols[0] < 0 or cols[-1] >= m:
            raise ValueError(f"bicluster {b} does not fit a {n}x{m} matrix")
        grid[np.ix_(rows, cols)] = True
    return grid


@dataclass(frozen=True)
class SolutionReport:
    """Coverage and redundancy summary of one solution over an n x m matrix."""

    num_biclusters: int
    coverage_cells: int
    coverage_fraction: float
    global_overlap: float

    def to_dict(self) -> dict:
        return {
            "num_biclusters": self.num_biclusters,
            "coverage_cells": self.coverage_cells,
            "coverage_fraction": self.coverage_fraction,
            "global_overlap": self.global_overlap,
        }


def solution_report(solution, n: int, m: int) -> SolutionReport:
    """Coverage = |cell union|; global overlap = (sum of volumes - coverage) / coverage.

    An empty solution reports coverage 0 and global overlap 0.
    """
    bics = list(solution)
    grid = span_grid(bics, n, m)
    cov = int(grid.sum())
    total = sum(b.volume for b in bics)
    oveg = (total - cov) / cov if cov else 0.0
    return SolutionReport(
        num_biclusters=len(bics),
        coverage_cells=cov,
        coverage_fraction=cov / (n * m),
        global_overlap=oveg,
    )


def precision_recall(found, reference, n: int, m: int) -> tuple[float, float]:
    """Span-based precision and recall of ``found`` against ``reference``.

    precision = |span(found) & span(reference)| / |span(found)|; recall is the
    same with the roles swapped.  A side with empty span scores 0 on its own
    metric, with a warning.
    """
    fg = span_grid(list(found), n, m)
    rg = span_grid(list(reference), n, m)
    inter = int((fg & rg).sum())
    fcov = int(fg.sum())
    rcov = int(rg.sum())
    if fcov == 0:
        warnings.warn("precision of an empty solution is defined as 0", stacklevel=2)
        prec = 0.0
    else:
        prec = inter / fcov
    if rcov == 0:
        warnings.warn("recall against an empty reference is defined as 0", stacklevel=2)
        rec = 0.0
    else:
        rec = inter / rcov
    return prec, rec

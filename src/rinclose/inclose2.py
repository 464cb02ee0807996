"""Enumeration of all formal concepts of a binary matrix (In-Close2 scheme).

A formal concept is a pair (A, B) with A = all rows having ones in every
column of B and B = all columns having ones in every row of A; equivalently,
a maximal all-ones submatrix.  The enumeration walks concepts depth-first in
lexicographic attribute order.  At each node attributes are scanned from the
node's start attribute: an attribute covering the whole extent is absorbed
into the intent; otherwise the reduced extent becomes a child, kept only if
it passes the canonicity test (no earlier non-intent attribute covers it —
that child belongs to an earlier subtree).  Children inherit the parent's
fully closed intent without recomputation.

Extents are manipulated as row bitmasks.
"""

from __future__ import annotations

import time

import numpy as np

from .cliques import _bits
from .core import (
    Bicluster,
    BiclusterSolution,
    EnumParams,
    SolutionStats,
    as_matrix,
    sort_biclusters,
)


class BinaryContext:
    """A 0/1 matrix with per-column row bitmasks (rows = objects, cols = attributes)."""

    __slots__ = ("matrix", "n", "m", "col_masks")

    def __init__(self, matrix) -> None:
        mat = as_matrix(matrix)
        values = mat.values
        if not np.isin(values, (0.0, 1.0)).all():
            raise ValueError("binary context requires every entry to be 0 or 1")
        self.matrix = mat
        self.n, self.m = values.shape
        self.col_masks = [
            int.from_bytes(np.packbits(values[:, c] == 1.0, bitorder="little").tobytes(), "little")
            for c in range(self.m)
        ]


def enumerate_ctv_binary(matrix, params: EnumParams) -> BiclusterSolution:
    """All formal concepts (A, B) with |A| >= min_row and |B| >= min_col.

    A node is abandoned (no emission, attribute scan stopped) as soon as its
    intent cannot reach min_col even if every remaining attribute were added;
    children created before that point are still explored, since they keep
    their own chances from their earlier branch attributes.
    """
    if params.bic_type != "ctv-binary":
        raise ValueError(
            f"enumerate_ctv_binary expects bic_type ctv-binary, got {params.bic_type!r}"
        )
    t0 = time.perf_counter()
    context = BinaryContext(matrix)
    m, col_masks = context.m, context.col_masks
    min_row, min_col = params.min_row, params.min_col
    full = (1 << context.n) - 1
    out: list[Bicluster] = []
    nodes = 0
    # stack entries: (extent mask, inherited intent (sorted tuple), start attribute)
    stack: list[tuple[int, tuple[int, ...], int]] = [(full, (), 0)]
    while stack:
        a_mask, b_in, y = stack.pop()
        nodes += 1
        intent = list(b_in)
        bset = set(b_in)
        children: list[tuple[int, int]] = []
        pruned = False
        for j in range(y, m):
            if j in bset:
                continue
            if len(intent) + (m - j) < min_col:
                pruned = True
                break
            rw = a_mask & col_masks[j]
            if rw == a_mask:
                intent.append(j)
                bset.add(j)
            elif rw.bit_count() >= min_row:
                # canonicity: an earlier non-intent attribute covering rw means
                # this extent was (or will be) produced in an earlier subtree
                if not any(
                    rw & col_masks[k] == rw for k in range(j) if k not in bset
                ):
                    children.append((rw, j))
        if not pruned and a_mask.bit_count() >= min_row and len(intent) >= min_col:
            out.append(Bicluster(tuple(_bits(a_mask)), intent))
        for rw, j in reversed(children):
            stack.append((rw, tuple(sorted(intent + [j])), j + 1))
    return BiclusterSolution(
        biclusters=sort_biclusters(out),
        params=params,
        stats=SolutionStats(len(out), nodes, time.perf_counter() - t0),
    )

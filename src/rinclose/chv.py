"""Enumeration of all maximal additive-coherent (shifting) biclusters.

A submatrix is additively coherent when, for every pair of its columns, the
per-row column difference is (within epsilon) the same in every selected
row.  Multiplicative coherence reduces to this by mining the elementwise log
(``model="scale"``).

Perfect case (epsilon = 0): coherence with a single pivot column transfers
exactly to all column pairs, so the search makes one call of the bitmask
walk of ``inclose2`` per pivot column atr, on the differences
values[:, atr] - values with the root's intent seeded by atr.  The walk
branches on equal-difference row groups and tests canonicity against all
earlier columns.  The transfer is exact when those differences are exactly
representable (integers, dyadic values); see the README.

Perturbed case (epsilon > 0): a pivot column is not enough (pairwise error
could reach 2*epsilon), so the problem is lifted to the augmented matrix
holding every pairwise column difference.  There a coherent column set shows
up as constant-column structure; the pipeline is

1. build the augmented matrix,
2. mine it for maximal constant-column biclusters with the same epsilon
   (min_col mapped to the pair count c*(c-1)/2, a sound prune), and
3. for each of those, map its intent back to original columns, connect the
   pairs it certifies into a graph, and read candidate intents off the
   maximal cliques; a candidate survives if it uses the whole vertex set or
   no further row fits its extent, and a registry drops repeats arising from
   different step-2 biclusters.

The miners ``_chv_perfect`` and ``_chv`` take the value array in model space
and return (rows, cols) pairs and the node count; ``enumerate_biclusters``
owns the model transform, the timing, the sort and the stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliques import UndirectedGraph, maximal_cliques
from .core import Bicluster, EnumParams
from .cvc import _mine_cvc
from .inclose2 import _mine_groups


@dataclass(frozen=True)
class AugmentedMatrix:
    """All pairwise column differences of a matrix, one column per ordered pair.

    Column k of ``values`` holds d_ij - d_il for the pair (j, l) = ``pairs[k]``,
    j < l, pairs in lexicographic order (0,1), (0,2), ..., (0,m-1), (1,2), ...
    """

    values: np.ndarray
    pairs: tuple[tuple[int, int], ...]


def build_augmented(values: np.ndarray) -> AugmentedMatrix:
    """The n x m(m-1)/2 matrix of all pairwise column differences (read-only)."""
    n, m = values.shape
    if m < 2:
        raise ValueError("augmented matrix requires at least 2 columns")
    out = np.empty((n, m * (m - 1) // 2))
    k = 0
    for j in range(m - 1):  # one pivot block: pairs (j, j+1), ..., (j, m-1)
        np.subtract(values[:, [j]], values[:, j + 1 :], out=out[:, k : k + m - 1 - j])
        k += m - 1 - j
    if not np.isfinite(out).all():
        raise ValueError("pairwise column differences overflow to non-finite values")
    out.setflags(write=False)
    pairs = tuple((j, l) for j in range(m) for l in range(j + 1, m))
    return AugmentedMatrix(values=out, pairs=pairs)


def _chv_perfect(values: np.ndarray, params: EnumParams):
    """Miner for ``chv-p``: one bitmask walk per pivot column.

    The pivot is the smallest column of every intent found under it, and only
    later columns are scanned.  A pivot whose difference with some earlier
    column is constant over all rows is skipped outright — every bicluster
    under it would repeat an earlier pivot's subtree.
    """
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    nodes = 0
    for atr in range(values.shape[1] - 1):
        z = values[:, [atr]] - values  # differences vs the pivot column
        if (np.ptp(z[:, :atr], axis=0) == 0.0).any():
            continue
        pairs, k = _mine_groups(z, params.min_row, params.min_col, root=(atr,))
        out += pairs
        nodes += k
    return out, nodes


def clique_candidates(
    cvc_bic: Bicluster, aug: AugmentedMatrix, min_col: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Candidate (extent, intent) pairs read off one augmented-matrix bicluster.

    The bicluster's intent names pairs of original columns whose difference
    is near-constant over its extent; the maximal cliques of the graph on
    those pairs are exactly the maximal mutually-coherent column sets.
    Returns (C, D) for every maximal clique D with |D| >= min_col, before any
    row-maximality filtering.
    """
    pair_set = [aug.pairs[k] for k in cvc_bic.cols]
    b2 = sorted({c for pr in pair_set for c in pr})
    index = {c: i for i, c in enumerate(b2)}
    graph = UndirectedGraph(len(b2), [(index[j], index[l]) for j, l in pair_set])
    cands = []
    for clique in maximal_cliques(graph):
        d = tuple(b2[v] for v in clique)
        if len(d) >= min_col:
            cands.append((cvc_bic.rows, d))
    return cands


def _row_maximal_full(
    values: np.ndarray, extent: tuple[int, ...], d: tuple[int, ...], eps: float
) -> bool:
    """No row outside the extent keeps every pairwise difference of d within eps."""
    n = values.shape[0]
    rows = np.asarray(extent, dtype=np.intp)
    others = np.setdiff1d(np.arange(n, dtype=np.intp), rows)
    if not len(others):
        return True
    cols = np.asarray(d, dtype=np.intp)
    sub = values[np.ix_(rows, cols)]
    pair = sub[:, :, None] - sub[:, None, :]  # (|extent|, c, c)
    pmin = pair.min(axis=0)
    pmax = pair.max(axis=0)
    ov = values[np.ix_(others, cols)]
    q = ov[:, :, None] - ov[:, None, :]  # (|others|, c, c)
    joinable = ((q - pmin) <= eps).all(axis=(1, 2)) & ((pmax - q) <= eps).all(axis=(1, 2))
    return not joinable.any()


def extract_chv_from_cvc(
    cvc_bic: Bicluster,
    aug: AugmentedMatrix,
    values: np.ndarray,
    epsilon: float,
    min_col: int,
    emitted: set[tuple[tuple[int, ...], tuple[int, ...]]],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Shifting biclusters contributed by one augmented-matrix bicluster.

    Each clique candidate (C, D) is kept iff D covers the whole vertex set B2
    or no row outside C fits every column pair of D; ``emitted`` deduplicates
    identical results arising from different source biclusters.
    """
    b2 = tuple(sorted({c for k in cvc_bic.cols for c in aug.pairs[k]}))
    kept = []
    for c_rows, d in clique_candidates(cvc_bic, aug, min_col):
        if d != b2 and not _row_maximal_full(values, c_rows, d, epsilon):
            continue
        key = (c_rows, d)
        if key in emitted:
            continue
        emitted.add(key)
        kept.append(key)
    return kept


def _chv(values: np.ndarray, params: EnumParams):
    """Miner for ``chv``: walk the augmented matrix, then extract from each result."""
    if values.shape[1] < 2:
        return [], 0
    aug = build_augmented(values)
    min_pairs = params.min_col * (params.min_col - 1) // 2
    pairs, nodes = _mine_cvc(aug.values, params.epsilon, params.min_row, min_pairs)
    emitted: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for rows, cols in pairs:
        out += extract_chv_from_cvc(
            Bicluster(rows, cols), aug, values, params.epsilon, params.min_col, emitted
        )
    return out, nodes

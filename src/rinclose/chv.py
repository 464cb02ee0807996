"""Enumeration of all maximal additive-coherent (shifting) biclusters.

A submatrix is additively coherent when, for every pair of its columns, the
per-row column difference is (within epsilon) the same in every selected
row.  Multiplicative coherence reduces to this by mining the elementwise log
(``model="scale"``).

Perfect case (epsilon = 0): coherence with a single pivot column transfers
exactly to all column pairs, so the search makes one call of the bitmask
walk of ``inclose2`` per pivot column atr, on the differences
values[:, atr] - values with the scan starting at atr.  The pivot's own
difference column is all zeros, so the root absorbs it.  The walk
branches on equal-difference row groups and tests canonicity against all
earlier columns.  The transfer is exact when those differences are exactly
representable (integers, dyadic values); see the README.

Perturbed case (epsilon > 0): a pivot column is not enough (pairwise error
could reach 2*epsilon), so the problem is lifted to the augmented matrix
holding every pairwise column difference.  There a coherent column set shows
up as constant-column structure; the pipeline is

1. screen the pair columns (``cvc._screen`` on ``_pair_blocks``), keeping
   every one that holds an epsilon-window of min_row rows over all rows,
   and index only those (``AugmentedMatrix``): a read subtracts only the
   cells it returns, so the n x m(m-1)/2 matrix is never stored.  Walking
   only the kept pairs is exact, as walking only the kept columns is for
   ``cvc`` (see the ``cvc`` module docstring),
2. mine it for maximal constant-column biclusters with the same epsilon
   (min_col mapped to the pair count c*(c-1)/2, a sound prune), and
3. for each of those, map its intent back to original columns, connect the
   pairs it certifies into a graph, and read candidate intents off the
   maximal cliques; a candidate survives if it uses the whole vertex set or
   no further row fits its extent (``cvc._completable``, the kernel's own
   row-maximality test, on the augmented columns of the candidate's pairs).
   No candidate repeats, so none needs dropping as a duplicate.  Every
   extent of step 2 is the root's or a child's that entered the walk's
   extent registry, and no child holds all of its parent's rows (a window
   that covers the whole extent is absorbed, not cut), so the extents are
   distinct and candidates from different step-2 biclusters differ in
   their rows; those of one step-2 bicluster are distinct maximal cliques.

The clique search of step 3 is ``maximal_cliques`` here, Bron-Kerbosch over
neighbour bitmasks, and step 3 takes the kernel's (rows, cols) index tuples
as they come: only ``enumerate_biclusters`` builds ``Bicluster`` objects.

Both miners first check that no pairwise column difference overflows,
before anything subtracts.  The miners ``_chv_perfect`` and ``_chv`` take
the value array in model space and return (rows, cols) pairs and the node
count; ``enumerate_biclusters`` owns the model transform, the timing, the
sort and the stats.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import EnumParams
from .cvc import _BLOCK, _completable, _mine_cvc, _screen
from .inclose2 import _bits, _mine_groups


def _check_differences(values: np.ndarray) -> None:
    """Reject a matrix whose pairwise column differences overflow.

    Rounding is monotone, so a row's max - min is finite exactly when every
    difference of two of its cells is.
    """
    with np.errstate(over="ignore"):
        spread = values.max(axis=1) - values.min(axis=1)
    if not np.isfinite(spread).all():
        raise ValueError("pairwise column differences overflow to non-finite values")


class AugmentedMatrix:
    """Differences of chosen column pairs of a matrix, computed cell by cell on read.

    Column k is d_ij - d_il for the pair (j, l) = ``pairs[k]`` = (left[k],
    right[k]), j < l; ``_chv`` passes the pairs its screen keeps, in
    lexicographic order, once their differences are known to be finite.
    It serves the four reads of the kernel and ``_completable``: [:, lo:hi],
    [rows, lo:hi], [:, k] and [rows, k].
    """

    def __init__(self, values: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
        self.values, self.left, self.right = values, left, right
        self.pairs = tuple(zip(left.tolist(), right.tolist()))
        self.shape = (len(values), len(self.pairs))

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        if isinstance(cols, slice) and isinstance(rows, np.ndarray):
            rows = rows[:, None]
        return self.values[rows, self.left[cols]] - self.values[rows, self.right[cols]]


def _chv_perfect(values: np.ndarray, params: EnumParams):
    """Miner for ``chv-p``: one bitmask walk per pivot column.

    The pivot is the smallest column of every intent found under it, and the
    scan starts at it.  A pivot whose difference with some earlier
    column is constant over all rows is skipped outright — every bicluster
    under it would repeat an earlier pivot's subtree.
    """
    _check_differences(values)
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    nodes = 0
    for atr in range(values.shape[1] - 1):
        z = values[:, [atr]] - values  # differences vs the pivot column
        if (np.ptp(z[:, :atr], axis=0) == 0.0).any():
            continue
        pairs, k = _mine_groups(z, params.min_row, params.min_col, start=atr)
        out += pairs
        nodes += k
    return out, nodes


def maximal_cliques(adj: list[int]) -> list[tuple[int, ...]]:
    """All maximal cliques of the graph whose vertex v has neighbour bitmask adj[v].

    Bron-Kerbosch with pivoting: the pivot u of P | X has the most neighbours
    in P, and only vertices of P outside N(u) are branched on.  Each clique
    comes out once, isolated vertices as singletons, sorted by vertex tuple.
    """
    out: list[tuple[int, ...]] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p | x:
            out.append(tuple(_bits(r)))
            return
        u = max(_bits(p | x), key=lambda v: (p & adj[v]).bit_count())
        for v in _bits(p & ~adj[u]):
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p ^= bit
            x |= bit

    if adj:
        expand(0, (1 << len(adj)) - 1, 0)
    return sorted(out)


def clique_candidates(
    bic: tuple[tuple[int, ...], tuple[int, ...]], aug: AugmentedMatrix, min_col: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Candidate (extent, intent) pairs read off one augmented-matrix bicluster.

    ``bic`` is the kernel's (rows, cols) pair.  Its intent names pairs of
    original columns whose difference is near-constant over its extent; the
    maximal cliques of the graph on those pairs are exactly the maximal
    mutually-coherent column sets.  Returns (C, D) for every maximal clique D
    with |D| >= min_col, before any row-maximality filtering.
    """
    rows, cols = bic
    pair_set = [aug.pairs[k] for k in cols]
    b2 = sorted({c for pr in pair_set for c in pr})
    index = {c: i for i, c in enumerate(b2)}
    adj = [0] * len(b2)
    for j, l in pair_set:
        adj[index[j]] |= 1 << index[l]
        adj[index[l]] |= 1 << index[j]
    intents = (tuple(b2[v] for v in clique) for clique in maximal_cliques(adj))
    return [(rows, d) for d in intents if len(d) >= min_col]


def extract_chv_from_cvc(
    bic: tuple[tuple[int, ...], tuple[int, ...]],
    aug: AugmentedMatrix,
    epsilon: float,
    min_col: int,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Shifting biclusters contributed by one augmented-matrix bicluster (rows, cols).

    Each clique candidate (C, D) is kept iff D covers the whole vertex set B2
    or no row outside C fits every column pair of D, tested on D's columns
    of the augmented matrix (step 3 of the module docstring says why no
    kept pair repeats).  A clique D is all of B2 exactly when its
    |D|(|D|-1)/2 pairs are all of the intent's pairs.
    """
    rows = np.asarray(bic[0], dtype=np.intp)  # every candidate's C
    column = {aug.pairs[k]: k for k in bic[1]}  # D's pairs are among these
    kept = []
    for key in clique_candidates(bic, aug, min_col):
        d = key[1]
        if len(d) * (len(d) - 1) // 2 < len(column):
            cols = [column[pair] for pair in combinations(d, 2)]
            if _completable(aug, rows, cols, epsilon):
                continue
        kept.append(key)
    return kept


def _pair_blocks(t: np.ndarray):
    """The pair columns t[j] - t[l], j < l, as rows in lexicographic order, up
    to _BLOCK pairs of one j at a time: ``cvc._screen``'s blocks for ``chv``,
    t its copy of values.T."""
    m = len(t)
    for j in range(m - 1):
        for lo in range(j + 1, m, _BLOCK):
            yield t[j] - t[lo : lo + _BLOCK]


def _chv(values: np.ndarray, params: EnumParams):
    """Miner for ``chv``: screen and walk the augmented matrix, then extract from each result."""
    _check_differences(values)  # before the screen subtracts
    left, right = np.triu_indices(values.shape[1], 1)
    keep = _screen(values, params.epsilon, params.min_row, _pair_blocks)
    aug = AugmentedMatrix(values, left[keep], right[keep])
    min_pairs = params.min_col * (params.min_col - 1) // 2
    pairs, nodes = _mine_cvc(aug, params.epsilon, params.min_row, min_pairs)
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for bic in pairs:
        out += extract_chv_from_cvc(bic, aug, params.epsilon, params.min_col)
    return out, nodes

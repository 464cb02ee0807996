"""Enumeration of all maximal constant-column biclusters (perfect and perturbed).

The search is the same lexicographic closure walk as the binary case, lifted
to numeric data: an attribute whose value range over the current extent is
within epsilon is absorbed into the intent; otherwise the extent is split
into its maximal epsilon-windows (contiguous runs of the value-sorted rows
that cannot be extended on either side), each a potential child.

Three guards keep the perturbed output exact, complete and duplicate-free:

* canonicity — a child is dropped if some earlier non-intent attribute
  already has range <= epsilon over it (that extent belongs to an earlier
  subtree, where it closes to the same bicluster);
* an extent registry — unlike the perfect case, overlapping windows can
  recreate an extent along several paths; since a maximal constant-column
  bicluster is determined by its extent, a repeated extent is always a
  duplicate and is dropped on sight;
* row maximality — a window that a sibling row (tracked in the inherited
  check-set RM) could join on the child's intent closes to a non-maximal
  bicluster and is dropped.  RM accumulates, at every branch, the rows left
  outside the window whose values sit within epsilon of the window's pivot
  band; only those can ever rejoin a descendant.

With epsilon = 0 the windows are the equal-value groups, which are disjoint,
so none of the three guards beyond canonicity is needed: the kernel runs the
registry and RM only when epsilon > 0, and at epsilon = 0 it is the perfect
variant.  Their off-switches are private to the kernel, for the tests that
show each guard is needed.

This walk is the one numeric kernel: ``cvr`` reaches it through the
transpose, ``chv-p`` through one pivot-difference matrix per pivot column
(see ``chv``), and ``chv`` through the augmented matrix.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .core import (
    Bicluster,
    BiclusterSolution,
    EnumParams,
    SolutionStats,
    sort_biclusters,
    transform_for_model,
    transpose,
)


def _window_ends(sv: np.ndarray, eps: float) -> np.ndarray:
    """ends[p] = one past the last index q with sv[q] - sv[p] <= eps.

    sv must be sorted ascending.  searchsorted gives a first guess; the exact
    boundary is then settled with the same subtraction the validity predicate
    uses, so windows and is_valid can never disagree on a tie.
    """
    n = len(sv)
    ends = np.searchsorted(sv, sv + eps, side="right").astype(np.int64)
    over = sv[ends - 1] - sv > eps
    under = (ends < n) & (sv[np.minimum(ends, n - 1)] - sv <= eps)
    for p in np.flatnonzero(over | under):
        e = int(ends[p])
        while e < n and sv[e] - sv[p] <= eps:
            e += 1
        while e - 1 > p and sv[e - 1] - sv[p] > eps:
            e -= 1
        ends[p] = e
    return ends


def _window_starts(ends: np.ndarray) -> np.ndarray:
    """Starts of maximal windows: those reaching strictly beyond their predecessor.

    Relies on ends being non-decreasing, which holds for sorted values.
    """
    return np.flatnonzero(np.diff(ends, prepend=-1) > 0)


def _joinable_mask(
    values: np.ndarray,
    extent: np.ndarray,
    cols: Sequence[int],
    cand_rows: np.ndarray,
    eps: float,
) -> np.ndarray:
    """For each candidate row: can it join the extent keeping every column's range <= eps?"""
    cols = np.asarray(cols, dtype=np.intp)
    sub = values[np.ix_(extent, cols)]
    cmin = sub.min(axis=0)
    cmax = sub.max(axis=0)
    cv = values[np.ix_(cand_rows, cols)]
    return ((cv - cmin) <= eps).all(axis=1) & ((cmax - cv) <= eps).all(axis=1)


class ExtentRegistry:
    """Membership set over canonical extent encodings with insert-if-absent.

    Only extents of children that were actually created may be inserted: an
    extent killed by a row-maximality check must stay out, because the same
    row set can reappear later under a stronger intent that no tracked row
    can join, and that later child is the one that emits the bicluster.
    """

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: set[bytes] = set()

    @staticmethod
    def key(extent: Sequence[int]) -> bytes:
        arr = np.asarray(sorted(extent), dtype=np.int64)
        return arr.tobytes()

    def contains(self, extent: Sequence[int]) -> bool:
        return self.key(extent) in self._seen

    __contains__ = contains

    def insert(self, extent: Sequence[int]) -> bool:
        """Insert the extent; True if it was new, False if already present."""
        k = self.key(extent)
        if k in self._seen:
            return False
        self._seen.add(k)
        return True

    def __len__(self) -> int:
        return len(self._seen)


def _canonical_fast(values: np.ndarray, rw: np.ndarray, bset: set[int], j: int, eps: float) -> bool:
    """Vectorized canonicity scan over attributes < j outside the intent."""
    ks = [k for k in range(j) if k not in bset]
    if not ks:
        return True
    # ascending chunks so an early hit skips the rest
    for lo in range(0, len(ks), 64):
        chunk = np.asarray(ks[lo : lo + 64], dtype=np.intp)
        sub = values[np.ix_(rw, chunk)]
        if (sub.max(axis=0) - sub.min(axis=0) <= eps).any():
            return False
    return True


def _mine_cvc(
    values: np.ndarray,
    eps: float,
    min_row: int,
    min_col: int,
    *,
    root: tuple[int, ...] = (),
    use_registry: bool = True,
    use_rm: bool = True,
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """Core walk shared by every numeric bicluster type.

    Returns (list of (rows, cols) pairs, node count).  The registry and RM
    guards run only when eps > 0; the two toggles can switch them off there.
    ``root`` seeds the root's intent, and the scan then starts past its last
    attribute.
    """
    n, m = values.shape
    registry = ExtentRegistry() if (use_registry and eps > 0) else None
    track_rm = use_rm and eps > 0
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    nodes = 0
    empty = np.empty(0, dtype=np.intp)
    # stack entries: (extent row ids sorted, inherited intent, start attr, check-set RM)
    stack: list[tuple[np.ndarray, tuple[int, ...], int, np.ndarray]] = [
        (np.arange(n, dtype=np.intp), root, root[-1] + 1 if root else 0, empty)
    ]
    while stack:
        a, b_in, y, rm = stack.pop()
        nodes += 1
        sub = values[a]
        rng_all = sub.max(axis=0) - sub.min(axis=0)
        intent = list(b_in)
        bset = set(b_in)
        children: list[tuple[np.ndarray, int, np.ndarray]] = []
        pruned = False
        for j in range(y, m):
            if j in bset:
                continue
            if len(intent) + (m - j) < min_col:
                pruned = True
                break
            if rng_all[j] <= eps:
                intent.append(j)
                bset.add(j)
                continue
            vals = sub[:, j]
            order = np.lexsort((a, vals))
            sv = vals[order]
            sids = a[order]
            ends = _window_ends(sv, eps)
            for p in _window_starts(ends):
                e = int(ends[p])
                if e - p < min_row:
                    continue
                rw = np.sort(sids[p:e])
                if not _canonical_fast(values, rw, bset, j, eps):
                    continue
                if registry is not None and registry.contains(rw):
                    continue
                child_rm = rm
                if track_rm:
                    # pivot band in the same subtraction form as the validity
                    # predicate, so no joinable row can slip past on a tie
                    v_lo = sv[p + min_row - 1]
                    v_hi = sv[e - min_row]
                    below = np.flatnonzero((v_lo - sv[:p]) <= eps)
                    above = e + np.flatnonzero((sv[e:] - v_hi) <= eps)
                    rm_window = np.concatenate((sids[below], sids[above]))
                    child_rm = np.union1d(rm, rm_window)
                    if len(child_rm) and _joinable_mask(
                        values, rw, intent + [j], child_rm, eps
                    ).any():
                        continue  # some tracked row completes it: not row-maximal
                if registry is not None:
                    registry.insert(rw)
                children.append((rw, j, child_rm))
        if not pruned and len(a) >= min_row and len(intent) >= min_col:
            out.append((tuple(int(r) for r in a), tuple(sorted(intent))))
        for rw, j, child_rm in reversed(children):
            stack.append((rw, tuple(sorted(intent + [j])), j + 1, child_rm))
    return out, nodes


def enumerate_cvc(matrix, params: EnumParams) -> BiclusterSolution:
    """All maximal constant-column biclusters meeting the size filters, each once.

    params.bic_type selects the variant: "cvc-p" (epsilon = 0) or "cvc".
    """
    if params.bic_type not in ("cvc", "cvc-p"):
        raise ValueError(f"enumerate_cvc expects bic_type cvc or cvc-p, got {params.bic_type!r}")
    t0 = time.perf_counter()
    mat = transform_for_model(matrix, params.model)
    pairs, nodes = _mine_cvc(mat.values, params.epsilon, params.min_row, params.min_col)
    return BiclusterSolution(
        biclusters=sort_biclusters(Bicluster(r, c) for r, c in pairs),
        params=params,
        stats=SolutionStats(len(pairs), nodes, time.perf_counter() - t0),
    )


def enumerate_cvr(matrix, params: EnumParams) -> BiclusterSolution:
    """Constant-row mining: transpose, mine constant columns, swap back."""
    if params.bic_type not in ("cvr", "cvr-p"):
        raise ValueError(f"enumerate_cvr expects bic_type cvr or cvr-p, got {params.bic_type!r}")
    inner = EnumParams(
        params.epsilon,
        params.min_col,
        params.min_row,
        "cvc" if params.bic_type == "cvr" else "cvc-p",
    )
    # transform first (under the caller's model), then mine the transpose in shift space
    sol = enumerate_cvc(transpose(transform_for_model(matrix, params.model)), inner)
    return BiclusterSolution(
        biclusters=sort_biclusters(b.swapped() for b in sol.biclusters),
        params=params,
        stats=SolutionStats(len(sol.biclusters), sol.stats.nodes_expanded, sol.stats.elapsed_s),
    )

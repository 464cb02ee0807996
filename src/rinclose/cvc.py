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

The registry and RM are needed only because epsilon-windows overlap.  At
epsilon = 0 the windows are the disjoint equal-value groups and canonicity
alone suffices, so the perfect types run the bitmask walk of ``inclose2``
on precomputed groups instead, and this kernel serves epsilon > 0 only.
Called with epsilon = 0 it walks the same tree as that walk, without
registry or RM; the tests use this to cross-check the two.  The guards'
off-switches are private to the kernel, for the tests that show each guard
is needed.  The registry is a plain set of extent bytes.

Each node first sorts its extent's values column by column (values only, a
block of columns at a time) and marks the columns holding an epsilon-window
of at least min_row rows; the attribute loop then visits only those and the
columns the intent absorbs.  The skip is exact: the window test uses
the same subtraction as ``_window_ends``, and floating-point subtraction is
monotone in its first operand, so a window of min_row rows starts at sorted
position p iff s[p + min_row - 1] - s[p] <= epsilon.  A skipped column would
have created no child, so the registry, RM and canonicity never see it, and
children, node counts and output stay the same.  On the augmented matrix of
``chv`` most of the m(m-1)/2 columns of most nodes are skipped this way.

This walk is the one kernel of the perturbed types: ``cvc`` runs it on the
matrix, ``cvr`` on the transpose (the dispatch table's transpose rule) and
``chv`` on the augmented matrix.  The miner here (``_cvc``) maps params onto
the kernel's arguments and returns its (rows, cols) pairs and node count;
``enumerate_biclusters`` owns the model transform, the timing, the sort and
the stats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import EnumParams

_BLOCK = 256  # columns per sort in _fits


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


def _window_starts(ends: np.ndarray) -> list[int]:
    """Starts of maximal windows: those reaching strictly beyond their predecessor.

    Relies on ends being non-decreasing, which holds for sorted values.
    """
    starts = np.flatnonzero(ends[1:] > ends[:-1])
    starts += 1
    return [0, *starts.tolist()]


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


def _canonical_fast(values: np.ndarray, rw: np.ndarray, bset: set[int], j: int, eps: float) -> bool:
    """Vectorized canonicity scan over attributes < j outside the intent."""
    if j == 0:
        return True
    sub = values[rw, :j]
    fit = sub.max(axis=0) - sub.min(axis=0) <= eps
    fit[[k for k in bset if k < j]] = False
    return not fit.any()


def _fits(sub: np.ndarray, eps: float, min_row: int) -> np.ndarray:
    """Per column of sub: does some eps-window hold at least min_row rows?

    Tests s[p + min_row - 1] - s[p] <= eps on the sorted column, the
    subtraction ``_window_ends`` cuts with (see the module docstring for why
    that is exact).  Columns are sorted _BLOCK at a time to bound the scratch
    memory.
    """
    k, m = sub.shape
    fits = np.zeros(m, dtype=bool)
    if k < min_row:
        return fits
    for lo in range(0, m, _BLOCK):
        s = np.sort(sub[:, lo : lo + _BLOCK], axis=0)
        fits[lo : lo + _BLOCK] = ((s[min_row - 1 :] - s[: k - min_row + 1]) <= eps).any(axis=0)
    return fits


def _mine_cvc(
    values: np.ndarray,
    eps: float,
    min_row: int,
    min_col: int,
    *,
    use_registry: bool = True,
    use_rm: bool = True,
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """Core walk shared by the perturbed bicluster types.

    Returns (list of (rows, cols) pairs, node count).  The registry and RM
    guards run only when eps > 0; the two toggles can switch them off there.
    """
    n, m = values.shape
    # extents of the children created so far; an extent killed by the RM
    # check must stay out, because the same rows can reappear later under a
    # stronger intent that no tracked row can join, and that later child is
    # the one that emits the bicluster
    seen: set[bytes] | None = set() if use_registry and eps > 0 else None
    track_rm = use_rm and eps > 0
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    nodes = 0
    empty = np.empty(0, dtype=np.intp)
    # stack entries: (extent row ids sorted, inherited intent, start attr, check-set RM)
    stack: list[tuple[np.ndarray, tuple[int, ...], int, np.ndarray]] = [
        (np.arange(n, dtype=np.intp), (), 0, empty)
    ]
    while stack:
        a, b_in, y, rm = stack.pop()
        nodes += 1
        sub = values[a] if len(a) < n else values  # only the root holds every row
        absorb = sub.max(axis=0) - sub.min(axis=0) <= eps
        # a column that neither joins the intent nor holds a window of
        # min_row rows creates no child, so the scan passes over it; the
        # min_col prune could fire on such a column only when the intent is
        # already too short to emit, and then fires on the next one scanned
        scan = np.flatnonzero(absorb[y:] | _fits(sub[:, y:], eps, min_row)) + y
        intent = list(b_in)
        bset = set(b_in)
        children: list[tuple[np.ndarray, int, np.ndarray]] = []
        pruned = False
        for j in scan.tolist():
            if j in bset:
                continue
            if len(intent) + (m - j) < min_col:
                pruned = True
                break
            if absorb[j]:
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
                if seen is not None and rw.tobytes() in seen:
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
                if seen is not None:
                    seen.add(rw.tobytes())
                children.append((rw, j, child_rm))
        if not pruned and len(a) >= min_row and len(intent) >= min_col:
            out.append((tuple(int(r) for r in a), tuple(sorted(intent))))
        for rw, j, child_rm in reversed(children):
            stack.append((rw, tuple(sorted(intent + [j])), j + 1, child_rm))
    return out, nodes


def _cvc(values: np.ndarray, params: EnumParams):
    """Miner for ``cvc``: the kernel under the caller's filters."""
    return _mine_cvc(values, params.epsilon, params.min_row, params.min_col)


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
* row maximality — a child that some row outside it can join on its intent
  closes to a non-maximal bicluster and is dropped (``_completable`` tests
  that definition).  No row of the node's extent can join, as the child's
  window is maximal on the cut column; so a joining row left the extent at
  an ancestor's cut on an intent column, and lies in that window's band (within
  epsilon of its min_row-th lowest value from below, or of its min_row-th
  highest from above), since the child keeps min_row of its rows.

The registry and the row-maximality test are needed only because
epsilon-windows overlap.  At epsilon = 0 neither fires and canonicity
alone suffices, so the perfect types run the bitmask walk of ``inclose2``
on precomputed groups instead, and this kernel serves epsilon > 0 only.
Called with epsilon = 0 it walks the same tree as that walk; the tests use
this to cross-check the two.  The registry is a plain set of extent bytes,
and the walk's one duplicate guard: an emitted extent is the root's or a
registered child's, and no child holds every row of its parent (a window
over the whole extent is absorbed, not cut), so none is emitted twice.  A
node's intent is one column bitmask, and the emitted ones are decoded
into column tuples once, when the walk ends (``inclose2._decode``).

Each node sorts its extent's values once, column by column from its start
attribute (values only, _BLOCK columns at a time), and reads every test
and every window off that one sort (``_fits``): a column whose range s[-1]
- s[0] is within epsilon is absorbed, a column holding an epsilon-window
of at least min_row rows fits, and a column that fits and is not absorbed
is cut; the attribute loop visits only absorbed and fitting columns.
Floating-point subtraction is monotone in each operand, so a window of
min_row rows starts at sorted position p iff s[p + min_row - 1] - s[p] <=
epsilon: the fits test, and the only starts the cut visits.  A skipped
column would have created no child, so the guards never see it, and
children, node counts and output stay the same.

A window's rows are the extent's rows whose value, as read, lies in
[s[p], s[e-1]]: one range mask over the column, ascending with the
extent.  That is exact because no maximal window splits a run of tied
values (if s[p-1] == s[p], both starts end alike, so p is not maximal; if
s[e] == s[e-1], row e fits too; -0.0 and 0.0 compare equal and give the
same differences), so the sort need not be stable and no row order is
kept.  The cut can share the fits pass, before the scan, because the set
of cut columns does not depend on the intent the scan grows: a column of
the inherited intent has range <= epsilon over a superset of the extent,
hence over the extent, so it is absorbed and never cut.  The min_col
prune only ends the scan early, and the windows of the columns past it go
unused.  A node holds one block of at most _BLOCK columns at a time, dead
ones included (``_read``).  The scan takes each cut column's windows in
order.  A window whose extent the node has cut before (``cut``) or the
registry holds is dropped before canonicity reads anything: the former
was cut at an earlier column e, live, outside the intent and of range <=
epsilon over it, so canonicity rejects it; the registry drops the latter
anyway.

The skip is inherited down the tree.  A column that holds no window of
min_row rows over an extent holds none over any subset of it: where a
window of min_row rows of the subset starts, at value v, one starts in the
extent's sorted order too, since the min_row-th value from v can only be
lower there and subtraction is monotone.  So each stack entry carries its
live columns, the ascending ids of the columns that may still hold a
window: those its parent inherited below the parent's start attribute,
and those from there that hold one over the parent's extent (the root
starts with every column).  A node sorts only its live columns, and a
child's canonicity test reads only the live columns below its cut column:
a column with range <= epsilon over the child holds a window of the
child's min_row or more rows, so it was live at every ancestor.  A dead
column passes neither test, so a read may slice dead columns in with the
live ones where those are dense, and the verdicts do not change
(``_read``).  On the augmented matrix of ``chv`` most pair columns die
below the root.

This walk is the one kernel of the perturbed types: ``cvc`` runs it on the
matrix, ``cvr`` on the transpose (the dispatch table's transpose rule) and
``chv`` on the augmented matrix, which computes the pair columns each read
asks for (``chv.AugmentedMatrix``): a node holds one block of them at a
time.  The miner here (``_cvc``) maps params onto the kernel's arguments
and returns its (rows, cols) pairs and node count; ``enumerate_biclusters``
owns the model transform, the timing, the sort and the stats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import EnumParams
from .inclose2 import _bits, _decode

_BLOCK = 256  # columns per read and sort in _fits
_GATHER = 5  # see _read


def _completable(values: np.ndarray, rows: np.ndarray, cols: Sequence[int], eps: float) -> bool:
    """Can some row outside rows join (rows, cols) and keep every column's range <= eps?

    The first column is scanned over all rows, then the rows that fit are
    narrowed column by column until none is left.  A value v fits when
    (v - min) <= eps and (max - v) <= eps, the validity predicate's test.
    """
    first, *rest = cols
    v = values[:, first]
    sub = v[rows]
    fit = ((v - sub.min()) <= eps) & ((sub.max() - v) <= eps)
    fit[rows] = False
    cand = np.flatnonzero(fit)
    for c in rest:
        if not len(cand):
            break
        sub, v = values[rows, c], values[cand, c]
        cand = cand[((v - sub.min()) <= eps) & ((sub.max() - v) <= eps)]
    return len(cand) > 0


def _read(
    values: np.ndarray, rows: np.ndarray | slice, cols: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """values[rows] on the live columns cols (ascending ids in lo..hi-1), and the ids read.

    A gather costs several times what a slice does per cell, so the plain
    slice lo:hi is read unless cols are fewer than 1 in _GATHER of its
    columns or it is wider than _BLOCK.  The slice's other columns are dead,
    and no test is passed by a dead column (see the module docstring), so
    both reads give one verdict.  rows is slice(None) only at the root,
    whose columns are all live and read _BLOCK at a time, so the root reads
    plain slices and gathers nothing.
    """
    if _GATHER * len(cols) >= hi - lo and hi - lo <= _BLOCK:
        return values[rows, lo:hi], np.arange(lo, hi)
    return values[rows[:, None], cols], cols


def _canonical_fast(values: np.ndarray, rw: np.ndarray, b: int, live: np.ndarray, eps: float) -> bool:
    """Canonicity of the child rw cut at column j: no column < j outside the intent b fits rw.

    live holds the ascending ids of the node's live columns < j; no other
    column < j can fit rw (see the module docstring), so only those are read.
    """
    if not len(live):
        return True
    sub, ids = _read(values, rw, live, 0, int(live[-1]) + 1)
    return all(b >> c & 1 for c in ids[sub.max(axis=0) - sub.min(axis=0) <= eps].tolist())


def _fits(
    values: np.ndarray, a: np.ndarray, live: np.ndarray, eps: float, min_row: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, list[np.ndarray]]]:
    """The ids read for the live columns over the extent a (ascending), per id
    whether its range is <= eps and whether a window fits, and the windows
    of each cut column by id.

    All are read off one sort of the column over a, _BLOCK live ids at a
    time: the range is s[-1] - s[0], and a window of min_row rows starts at
    p iff s[p + min_row - 1] - s[p] <= eps.  A column that fits and is not
    absorbed is cut into its maximal eps-windows of min_row rows or more,
    in the order of their starts; it holds at least one.  Only the starts
    that pass the fits test are visited.  The window at p ends one
    past the last q with s[q] - s[p] <= eps: searchsorted guesses, and the
    exact end is settled with the subtraction the validity predicate uses,
    so windows and is_valid never disagree on a tie.  Start 0 is maximal,
    and p > 0 iff it reaches past its predecessor: s[e - 1] - s[p - 1] >
    eps.  A window's rows are those of a whose value lies in [s[p], s[e -
    1]] (see the module docstring for why that is exact).
    """
    n = len(a)
    rows = a if n < values.shape[0] else slice(None)  # the root reads values itself
    w = max(n - min_row + 1, 0)  # window starts; none if too few rows
    ids, absorb, fits = [live[:0]], [np.zeros(0, dtype=bool)], [np.zeros(0, dtype=bool)]
    windows: dict[int, list[np.ndarray]] = {}
    for lo in range(0, len(live), _BLOCK):
        chunk = live[lo : lo + _BLOCK]
        sub, read = _read(values, rows, chunk, int(chunk[0]), int(chunk[-1]) + 1)
        s = np.sort(sub, axis=0)  # unstable: no maximal window splits a tie
        starts = s[n - w :] - s[:w] <= eps  # start x column: a window of min_row rows at p
        full, fit = s[-1] - s[0] <= eps, starts.any(axis=0)
        ids.append(read)
        absorb.append(full)
        fits.append(fit)
        cols = np.flatnonzero(fit & ~full)  # the block's cut columns
        if not len(cols):
            continue
        c, p = np.nonzero(starts[:, cols].T)  # the cut columns' starts, by column
        c = cols[c]
        sp = s[p, c]
        bounds = [*np.searchsorted(c, cols).tolist(), len(c)]
        e = np.empty_like(p)
        for k, i, f in zip(cols.tolist(), bounds, bounds[1:]):
            e[i:f] = np.searchsorted(s[:, k], sp[i:f] + eps, side="right")
        over = s[e - 1, c] - sp > eps
        under = (e < n) & (s[np.minimum(e, n - 1), c] - sp <= eps)
        for i in np.flatnonzero(over | under).tolist():
            k, q, f = int(c[i]), int(p[i]), int(e[i])
            while f < n and s[f, k] - s[q, k] <= eps:
                f += 1
            while f - 1 > q and s[f - 1, k] - s[q, k] > eps:
                f -= 1
            e[i] = f
        keep = (p == 0) | (s[e - 1, c] - s[p - 1, c] > eps)
        for k, q, f in zip(c[keep].tolist(), p[keep].tolist(), e[keep].tolist()):
            rw = a[(sub[:, k] >= s[q, k]) & (sub[:, k] <= s[f - 1, k])]
            windows.setdefault(int(read[k]), []).append(rw)
    return np.concatenate(ids), np.concatenate(absorb), np.concatenate(fits), windows


def _mine_cvc(
    values: np.ndarray, eps: float, min_row: int, min_col: int
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """Core walk shared by the perturbed bicluster types.

    Returns (list of (rows, cols) pairs, node count), no extent twice.  A
    node cuts its cut columns in the pass that sorts them (``_fits``),
    before its scan, and the scan takes their windows column by column.  A
    child is dropped by the three guards of the module docstring; a window
    already cut at the node or in the registry is dropped before any read.
    A stack entry is (extent, intent mask, start attribute, live columns); a
    node's children share one live array: its own live columns below its
    start attribute, plus those from there that hold a window over its
    extent.
    """
    n, m = values.shape
    # extents of the children created so far; an extent that fails the
    # row-maximality test must stay out, because the same rows can reappear
    # later under a stronger intent that no outside row can join, and that
    # later child is the one that emits the bicluster
    seen: set[bytes] = set()
    extents: list[tuple[int, ...]] = []
    intents: list[int] = []  # emitted intent masks, decoded when the walk ends
    nodes = 0
    # stack entries: (extent row ids sorted, inherited intent mask, start
    # attr, live column ids sorted); the root starts with every column live
    stack: list[tuple[np.ndarray, int, int, np.ndarray]] = [
        (np.arange(n, dtype=np.intp), 0, 0, np.arange(m, dtype=np.intp))
    ]
    while stack:
        a, b, y, live = stack.pop()
        nodes += 1
        iy = int(np.searchsorted(live, y))
        # the cut columns' windows are listed before the scan: an intent
        # column has range <= eps over a superset of the extent, so it is
        # absorbed, never cut
        cols, absorb, fits, windows = _fits(values, a, live[iy:], eps, min_row)
        # the node's live columns: the inherited ones < y and those from y
        # that hold a window.  A column that neither joins the intent nor
        # holds a window of min_row rows creates no child, so the scan
        # passes over it; the min_col prune could fire on such a column only
        # when the intent is already too short to emit, and then fires on
        # the next one scanned
        live = np.concatenate((live[:iy], cols[fits]))
        children: list[tuple[np.ndarray, int]] = []
        cut: set[bytes] = set()  # extents of the windows this node has cut
        pruned = False
        for p in np.flatnonzero(absorb | fits).tolist():
            j = int(cols[p])
            if b >> j & 1:
                continue
            if b.bit_count() + (m - j) < min_col:
                pruned = True
                break
            if absorb[p]:
                b |= 1 << j
                continue
            earlier = live[: np.searchsorted(live, j)]
            for rw in windows[j]:
                key = rw.tobytes()
                if key in cut or key in seen:
                    continue
                cut.add(key)
                if not _canonical_fast(values, rw, b, earlier, eps):
                    continue
                if _completable(values, rw, (j, *_bits(b)), eps):
                    continue
                seen.add(key)
                children.append((rw, j))
        if not pruned and len(a) >= min_row and b.bit_count() >= min_col:
            extents.append(tuple(a.tolist()))
            intents.append(b)
        for rw, j in reversed(children):
            stack.append((rw, b | 1 << j, j + 1, live))
    return list(zip(extents, _decode(intents, m))), nodes


def _cvc(values: np.ndarray, params: EnumParams):
    """Miner for ``cvc``: the kernel under the caller's filters."""
    return _mine_cvc(values, params.epsilon, params.min_row, params.min_col)


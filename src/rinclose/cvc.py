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
Both expand the nodes of one traversal, ``inclose2._walk``; at epsilon = 0
this one walks the same tree, which the tests use to cross-check the two.
The registry is a plain set of extent bytes, and the walk's one duplicate
guard: an emitted extent is the root's or a registered child's, and no
child holds every row of its parent (a window over the whole extent is
absorbed, not cut), so none is emitted twice.  The emitted intent masks
are decoded into column tuples when the walk ends (``inclose2._decode``).

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
unused.  A node holds one block of at most _BLOCK columns at a time, and so
does a canonicity test.  The scan takes each cut column's windows in
order.  A window whose extent the node has cut before (``cut``) or the
registry holds is dropped before canonicity reads anything: the former
was cut at an earlier column e, outside the intent and of range <=
epsilon over it, so canonicity rejects it; the registry drops the latter
anyway.

Every miner screens its columns once, before the walk (``_screen``), and
hands the kernel a matrix of only those that hold a window of min_row rows
over all rows.  A column that holds none over the full row set holds none
over any subset of it: where a window of min_row rows of the subset
starts, at value v, one starts in the full sorted order too, since the
min_row-th value from v can only be lower there and subtraction is
monotone.  Every node has min_row rows or more (a root with fewer emits
nothing, and the screen keeps no column for it), so no node would absorb
a dropped column, cut it, or find it fitting a child in a canonicity test,
and the walk over the kept columns is the walk over all of them with the
dropped ones passed over.  Only the min_col prune, which counts the
columns after the one scanned, can fire sooner, and only where the intent
can no longer reach min_col, so a node count never grows.

This walk is the one kernel of the perturbed types: ``cvc`` runs it on the
kept columns of the matrix, ``cvr`` on those of the transpose (the dispatch
table's transpose rule) and ``chv`` on the augmented matrix of its kept
pair columns, which computes the pair columns each read asks for
(``chv.AugmentedMatrix``): a node holds one block of them at a time.  The
miner here (``_cvc``) screens the columns, maps params onto the kernel's
arguments, maps the kept column ids back, and returns the (rows, cols)
pairs and node count; ``enumerate_biclusters`` owns the model transform,
the timing, the sort and the stats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import EnumParams
from .inclose2 import _bits, _decode, _walk

_BLOCK = 256  # columns per read and sort in _fits and _canonical_fast


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


def _screen(values: np.ndarray, eps: float, min_row: int, blocks=lambda t: (t,)) -> np.ndarray:
    """Which columns hold an eps-window of min_row rows over all rows, as a
    mask in the order blocks yields them: a superset of the columns the
    kernel's float64 root absorbs or finds a window in (``_fits``).

    blocks(t) yields the screened columns as the rows of arrays it may sort
    in place, computed from t, a copy of values.T: by default the columns of
    values (``cvc``), for ``chv`` their pair differences.  Each row is sorted
    and kept if s[p + min_row - 1] - s[p] <= thr for some p.  Where float32
    can hold the values and the bound below, t is float32, and no column
    the root needs is lost:

    * Let A = max|values|.  The kernel reads x = v or x = fl64(v_j - v_l),
      the screen y = fl32(v) or fl32(v_j) - fl32(v_l) in float32.  The
      casts and the subtractions err by at most 2^-24 (2^-53 in float64) of
      their operands, plus 2^-150 for a subnormal, so a cell's y is within
      e = 2^-21 A + 2^-140 of its x.
    * If the float64 test passes on rows P, |P| = min_row, the x of P span
      at most eps(1 + 2^-52), so their y span at most eps(1 + 2^-52) + 2e,
      and so does the run of min_row sorted y from the least of them.
    * thr is the float32 above eps(1 + 2^-20) + 4e, whose slack covers its
      own float64 rounding; rounding is monotone, so that run passes.
    * An absorbed column is a window of all n >= min_row rows.  With
      n < min_row no column is kept, and the root would emit nothing.

    If A or the bound exceeds a float32 max / 8, t is float64 and thr = eps:
    the root's own subtraction and test, so with n >= min_row the screen
    keeps exactly the columns the root absorbs or finds a window in.
    """
    n = values.shape[0]
    w = max(n - min_row + 1, 0)
    big = float(np.finfo(np.float32).max) / 8
    top = max(float(values.max()), -float(values.min()))
    bound = eps * (1 + 2.0**-20) + 4 * (2.0**-21 * top + 2.0**-140)
    if top > big or bound > big:
        dtype, thr = np.float64, eps
    else:
        dtype, thr = np.float32, np.nextafter(np.float32(bound), np.float32(np.inf))
    t = np.array(values.T, dtype=dtype, order="C")  # a copy: the caller's array is never sorted
    keep = [np.zeros(0, dtype=bool)]
    for s in blocks(t):
        s.sort(axis=1)
        keep.append((s[:, n - w :] - s[:, :w] <= thr).any(axis=1))
    return np.concatenate(keep)


def _canonical_fast(values: np.ndarray, rw: np.ndarray, b: int, j: int, eps: float) -> bool:
    """Canonicity of the child rw cut at column j: no column < j outside the intent b fits rw.

    The columns < j are read _BLOCK at a time.
    """
    for lo in range(0, j, _BLOCK):
        sub = values[rw, lo : min(lo + _BLOCK, j)]
        fit = np.flatnonzero(sub.max(axis=0) - sub.min(axis=0) <= eps)
        if not all(b >> (lo + c) & 1 for c in fit.tolist()):
            return False
    return True


def _fits(
    values: np.ndarray, a: np.ndarray, y: int, eps: float, min_row: int
) -> tuple[np.ndarray, np.ndarray, dict[int, list[np.ndarray]]]:
    """Per column y + p over the extent a, whether its range is <= eps and
    whether a window fits, and the windows of each cut column by id.

    All are read off one sort of the column over a, _BLOCK columns at a
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
    absorb, fits = [np.zeros(0, dtype=bool)], [np.zeros(0, dtype=bool)]
    windows: dict[int, list[np.ndarray]] = {}
    for lo in range(y, values.shape[1], _BLOCK):
        sub = values[rows, lo : lo + _BLOCK]
        s = np.sort(sub, axis=0)  # unstable: no maximal window splits a tie
        starts = s[n - w :] - s[:w] <= eps  # start x column: a window of min_row rows at p
        full, fit = s[-1] - s[0] <= eps, starts.any(axis=0)
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
            windows.setdefault(lo + k, []).append(rw)
    return np.concatenate(absorb), np.concatenate(fits), windows


def _mine_cvc(
    values: np.ndarray, eps: float, min_row: int, min_col: int
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """The walk of the perturbed types: ``inclose2._walk`` with this node expansion.

    Returns (list of (rows, cols) pairs, node count), no extent twice; a
    matrix of no columns has neither.  A node cuts its cut columns in the
    pass that sorts them (``_fits``), before its scan, and the scan takes
    their windows column by column.  A child is dropped by the three guards
    of the module docstring; a window already cut at the node or in the
    registry is dropped before any read.
    """
    n, m = values.shape
    if not m:  # the screen kept no column
        return [], 0
    # extents of the children created so far; an extent that fails the
    # row-maximality test must stay out, because the same rows can reappear
    # later under a stronger intent that no outside row can join, and that
    # later child is the one that emits the bicluster
    seen: set[bytes] = set()

    def expand(a: np.ndarray, b: int, y: int):
        # the cut columns' windows are listed before the scan, which passes
        # over every column neither absorbed nor cut (exact: module docstring)
        absorb, fits, windows = _fits(values, a, y, eps, min_row)
        children: list[tuple[np.ndarray, int]] = []
        cut: set[bytes] = set()  # extents of the windows this node has cut
        for j in (y + np.flatnonzero(absorb | fits)).tolist():
            if b >> j & 1:
                continue
            if b.bit_count() + (m - j) < min_col:
                return b, children, False
            if absorb[j - y]:
                b |= 1 << j
                continue
            for rw in windows[j]:
                key = rw.tobytes()
                if key in cut or key in seen:
                    continue
                cut.add(key)
                if not _canonical_fast(values, rw, b, j, eps):
                    continue
                if _completable(values, rw, (j, *_bits(b)), eps):
                    continue
                seen.add(key)
                children.append((rw, j))
        return b, children, len(a) >= min_row and b.bit_count() >= min_col

    extents, intents, nodes = _walk(np.arange(n, dtype=np.intp), 0, expand)
    return [(tuple(a.tolist()), c) for a, c in zip(extents, _decode(intents, m))], nodes


def _cvc(values: np.ndarray, params: EnumParams):
    """Miner for ``cvc``: the kernel on the columns the screen keeps, under the caller's filters."""
    kept = np.flatnonzero(_screen(values, params.epsilon, params.min_row))
    if len(kept) < values.shape[1]:  # a copy of the kept columns only where some are dropped
        values = values[:, kept]
    pairs, nodes = _mine_cvc(values, params.epsilon, params.min_row, params.min_col)
    ids = kept.tolist()
    return [(rows, tuple(ids[c] for c in cols)) for rows, cols in pairs], nodes

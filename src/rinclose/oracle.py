"""Brute-force reference enumerators, used as ground truth in tests.

Deliberately simple and exponential: for every column subset J, find every
maximal valid row set I, then keep the pairs to which no further column can
be added (with per-J row maximality already guaranteed, single-column
addability is exactly pair domination, by anti-monotonicity of validity).
Size filters are applied last, so maximality is absolute, not relative to
the filtered family.

Shares nothing with the real enumerators beyond the core validity
definitions it re-implements directly.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from .core import (
    Bicluster,
    BiclusterSolution,
    EnumParams,
    SolutionStats,
    as_matrix,
    sort_biclusters,
    transform_for_model,
    transpose,
)

MAX_ROWS = 16
MAX_COLS = 10
MAX_COLS_BINARY = 12  # the cheap bitwise closure search affords a little more


def _mask_to_rows(mask: int) -> tuple[int, ...]:
    out = []
    r = 0
    while mask:
        if mask & 1:
            out.append(r)
        mask >>= 1
        r += 1
    return tuple(out)


def _max_elements(masks) -> list[int]:
    """Keep only masks not strictly contained in another mask."""
    ms = sorted(set(masks), key=lambda s: -bin(s).count("1"))
    kept: list[int] = []
    for s in ms:
        if not any(s & k == s for k in kept):
            kept.append(s)
    return kept


def _value_windows(col: np.ndarray, eps: float) -> list[int]:
    """Maximal row-bitmask windows of width <= eps in one column, over all rows."""
    n = len(col)
    order = sorted(range(n), key=lambda i: (col[i], i))
    sv = [col[i] for i in order]
    masks = []
    q = 0
    prev_q = -1
    for p in range(n):
        if q < p:
            q = p
        while q + 1 < n and sv[q + 1] - sv[p] <= eps:
            q += 1
        if q > prev_q:  # window reaches strictly further than the previous start's
            mask = 0
            for idx in order[p : q + 1]:
                mask |= 1 << idx
            masks.append(mask)
            prev_q = q
    return masks


def _cvc_candidates(values: np.ndarray, eps: float):
    """(row-mask, J) pairs: every maximal valid row set for every column subset.

    Any valid row set is contained in an intersection of per-column maximal
    value windows, so refining window intersections column by column (and
    keeping only set-maximal elements) yields exactly the maximal row sets.
    """
    n, m = values.shape
    windows = [_value_windows(values[:, c], eps) for c in range(m)]
    out = []

    def extend(c_min: int, cols: tuple[int, ...], family: list[int]) -> None:
        for c in range(c_min, m):
            inter = {s & w for s in family for w in windows[c]}
            inter.discard(0)
            if not inter:
                continue
            fam2 = _max_elements(inter)
            cols2 = cols + (c,)
            for s in fam2:
                out.append((s, cols2))
            extend(c + 1, cols2, fam2)

    extend(0, (), [(1 << n) - 1])
    return out


def _chv_candidates(values: np.ndarray, eps: float):
    """Exhaustive row-subset search per column subset (|J| >= 2)."""
    n, m = values.shape
    all_masks = np.arange(1, 1 << n, dtype=np.uint32)
    sel = (all_masks[:, None] >> np.arange(n)[None, :] & 1).astype(bool)  # (S, n)
    out = []
    for size in range(2, m + 1):
        for cols in combinations(range(m), size):
            pairs = list(combinations(cols, 2))
            diff = np.stack([values[:, j] - values[:, l] for j, l in pairs], axis=1)
            valid: set[int] = set()
            for lo in range(0, len(all_masks), 4096):
                chunk = sel[lo : lo + 4096]
                picked = np.where(chunk[:, :, None], diff[None, :, :], np.nan)
                rng = np.nanmax(picked, axis=1) - np.nanmin(picked, axis=1)
                ok = (rng <= eps).all(axis=1)
                valid.update(int(s) for s in all_masks[lo : lo + 4096][ok])
            for s in valid:
                if not any(
                    s | (1 << r) in valid for r in range(n) if not s >> r & 1
                ):
                    out.append((s, cols))
    return out


def _binary_candidates(values: np.ndarray):
    """(AND-of-columns, J) for every nonempty column subset of a 0/1 matrix."""
    n, m = values.shape
    colmask = []
    for c in range(m):
        mask = 0
        for i in range(n):
            if values[i, c] == 1.0:
                mask |= 1 << i
        colmask.append(mask)
    out = []

    def extend(c_min: int, cols: tuple[int, ...], acc: int) -> None:
        for c in range(c_min, m):
            acc2 = acc & colmask[c]
            if not acc2:
                continue
            cols2 = cols + (c,)
            out.append((acc2, cols2))
            extend(c + 1, cols2, acc2)

    extend(0, (), (1 << n) - 1)
    return out, colmask


def _col_addable(values: np.ndarray, rows, cols, c: int, eps: float, bic_type: str) -> bool:
    """Can column c be appended to (rows, cols) without breaking validity?"""
    v = values[np.ix_(rows, [c])][:, 0]
    if bic_type == "ctv-binary":
        return bool((v == 1.0).all())
    if v.max() - v.min() > eps and bic_type != "chv":
        return False
    if bic_type != "chv":
        return True
    for j in cols:
        d = v - values[np.ix_(rows, [j])][:, 0]
        if d.max() - d.min() > eps:
            return False
    return True


@np.errstate(over="ignore")  # an overflowed range is +inf, above every epsilon
def oracle_enumerate(matrix, params: EnumParams) -> BiclusterSolution:
    """Exact maximal-bicluster set by exhaustive search; small inputs only."""
    t0 = time.perf_counter()
    mat = transform_for_model(matrix, params.model)
    t = params.bic_type
    if t in ("cvr", "cvr-p"):
        inner = EnumParams(params.epsilon, params.min_col, params.min_row,
                           "cvc" if t == "cvr" else "cvc-p")
        sol = oracle_enumerate(transpose(mat), inner)
        return BiclusterSolution(
            biclusters=sort_biclusters(Bicluster(b.cols, b.rows) for b in sol.biclusters),
            params=params,
            stats=SolutionStats(len(sol.biclusters), 0, time.perf_counter() - t0),
        )
    values = mat.values
    n, m = values.shape
    max_cols = MAX_COLS_BINARY if t == "ctv-binary" else MAX_COLS
    if n > MAX_ROWS or m > max_cols:
        raise ValueError(
            f"oracle guard: {n}x{m} exceeds the {MAX_ROWS}x{max_cols} brute-force limit"
        )

    if t == "ctv-binary":
        if not np.isin(values, (0.0, 1.0)).all():
            raise ValueError("ctv-binary requires a 0/1 matrix")
        cands, _ = _binary_candidates(values)
        check = "ctv-binary"
    elif t in ("cvc", "cvc-p"):
        cands = _cvc_candidates(values, params.epsilon)
        check = "cvc"
    else:  # chv / chv-p
        cands = _chv_candidates(values, params.epsilon)
        check = "chv"

    kept = []
    for mask, cols in cands:
        rows = _mask_to_rows(mask)
        if len(rows) < params.min_row or len(cols) < params.min_col:
            continue
        if any(
            _col_addable(values, rows, cols, c, params.epsilon, check)
            for c in range(m)
            if c not in cols
        ):
            continue  # dominated: some column extends it
        kept.append(Bicluster(rows, cols))

    return BiclusterSolution(
        biclusters=sort_biclusters(set(kept)),
        params=params,
        stats=SolutionStats(len(set(kept)), 0, time.perf_counter() - t0),
    )

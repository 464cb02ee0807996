"""The In-Close2 bitmask walk over equal-value row groups (every perfect type).

At epsilon = 0 a window of a column is just a group of rows holding the same
value there, so the perfect types need no sorting per node: each column is
cut once, up front, into its equal-value row groups (exact float equality,
which on sorted finite floats is what ``sv[q] - sv[p] <= 0`` tests), and a
group is kept as a row bitmask only if it has at least min_row rows.  A
smaller group can neither become a child nor cover one in the canonicity
test, since every child has min_row rows or more.

The walk is ``_walk``, the one traversal, which ``cvc``'s kernel shares;
this module supplies its node expansion.  A node scans attributes from its
start attribute: an attribute is absorbed into the intent when one of its
groups holds the whole extent; otherwise each group the extent meets in at
least min_row rows becomes a child, kept only if it passes the canonicity
test (no earlier non-intent attribute has a group covering it -- that
child belongs to an earlier subtree).  A child's covering group, if any,
is the group of its lowest row, so that test is one lookup per earlier
attribute.  When a column has more groups than the extent has rows, only
the groups the extent's rows hit are visited: the rows are tallied by
group, and only a group holding min_row of them is intersected with the
extent; this keeps columns of many small groups (near-continuous data at a
small min_row) linear in the extent, not in the number of groups or in the
bit length of the masks.  The group scan of a column also stops once fewer
than min_row rows of the extent are left unplaced.  Groups are disjoint,
so no extent is reached twice and no registry or row-maximality test is
needed.  A node's extent is a row bitmask and its intent a column bitmask;
the emitted masks are decoded into index tuples once, when the walk ends
(``_decode``).

Every perfect type runs this walk: ``cvc-p`` on the matrix, ``cvr-p`` on its
transpose (the dispatch table's transpose rule), ``chv-p`` once per pivot
column on the differences to that column (see ``chv``), and ``ctv-binary``
on the matrix with each 0 cell set to NaN, which joins no group, so only
the 1-valued group of each column counts.  The miners take the value array
in model space and return (rows, cols) pairs and the node count;
``enumerate_biclusters`` owns the timing, the sort and the stats.
"""

from __future__ import annotations

import numpy as np

from .core import EnumParams

_HOT_CELLS = 1 << 22  # bytes of the 0/1 scratch block _masks packs at a time
_DECODE_BYTES = 1 << 16  # bytes of packed extent masks _decode unpacks at a time


def _bits(mask: int):
    """The set bits of mask, lowest first (a node's rows here, cliques in ``chv``)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _decode(masks: list[int], n: int) -> list[tuple[int, ...]]:
    """``[tuple(_bits(a)) for a in masks]``, the n-bit masks decoded by numpy.

    A slice of masks at a time (under _DECODE_BYTES packed) is written into
    one byte buffer; its non-zero bytes are unpacked to bits, and the set
    bits, listed in one pass, are cut into tuples by the masks' bit counts.
    """
    width = (n + 7) // 8
    step = max(1, _DECODE_BYTES // width)
    out: list[tuple[int, ...]] = []
    for lo in range(0, len(masks), step):
        chunk = masks[lo : lo + step]
        buf = np.frombuffer(b"".join([a.to_bytes(width, "little") for a in chunk]), np.uint8)
        nz = np.flatnonzero(buf != 0)
        hit = np.flatnonzero(np.unpackbits(buf[nz], bitorder="little").view(bool))
        rows = (((nz % width) << 3)[hit >> 3] | (hit & 7)).tolist()
        ends = np.cumsum([a.bit_count() for a in chunk]).tolist()
        out += [tuple(rows[s:e]) for s, e in zip([0, *ends], ends)]
    return out


def _masks(g: np.ndarray, rows: np.ndarray, count: int, n: int) -> list[int]:
    """Row bitmask of each group 0..count-1 from its cells (group g, row rows).

    g must be non-decreasing.  A group of one row has the same mask in every
    column, so those share one int per row; a column of lone rows
    (near-continuous data at min_row 1) would otherwise hold n masks of up
    to n bits each.  The other groups are set in a 0/1 block of groups x
    rows and packed to bytes, a slice of groups at a time so the block stays
    under _HOT_CELLS bytes.
    """
    first = np.searchsorted(g, np.arange(count))
    lone = np.diff(first, append=len(g)) == 1
    out = np.zeros(count, dtype=object)
    alone, which = np.unique(rows[first[lone]], return_inverse=True)
    shared = np.empty(len(alone), dtype=object)
    shared[:] = [1 << r for r in alone.tolist()]
    out[lone] = shared[which]
    big = np.flatnonzero(~lone)
    keep = ~lone[g]
    g, rows = g[keep], rows[keep]
    step = max(1, _HOT_CELLS // n)
    for lo in range(0, len(big), step):
        sel = big[lo : lo + step]
        a, b = np.searchsorted(g, (sel[0], sel[-1] + 1))
        hot = np.zeros((len(sel), n), dtype=bool)
        hot[np.searchsorted(sel, g[a:b]), rows[a:b]] = True
        for k, row in zip(sel.tolist(), np.packbits(hot, axis=1, bitorder="little")):
            out[k] = int.from_bytes(row, "little")
    return out.tolist()


def _value_groups(values: np.ndarray, min_row: int) -> tuple[np.ndarray, list[list[int]]]:
    """Equal-value groups of min_row rows or more, numbered column by column.

    Returns the table gid (n x m: the number of each cell's group, -1 where
    that group is smaller) and each column's group bitmasks in that order,
    which within a column is value order.  A NaN cell belongs to no group,
    since NaN equals nothing.
    """
    n, m = values.shape
    order = np.argsort(values, axis=0, kind="stable").T  # row j: column j's rows by value
    sv = np.take_along_axis(values.T, order, axis=1)
    new = np.ones((m, n), dtype=bool)  # where a group starts (every NaN starts one)
    new[:, 1:] = sv[:, 1:] != sv[:, :-1]
    starts = np.flatnonzero(new)
    keep = (np.diff(starts, append=n * m) >= min_row) & ~np.isnan(sv.ravel()[starts])
    number = np.where(keep, np.cumsum(keep) - 1, -1)[np.cumsum(new) - 1]  # per sorted cell
    gid = np.empty((m, n), dtype=np.int64)
    np.put_along_axis(gid, order, number.reshape(m, n), axis=1)
    kept = number >= 0
    masks = _masks(number[kept], order.ravel()[kept], int(keep.sum()), n)
    ends = np.cumsum(np.bincount(starts[keep] // n, minlength=m)).tolist()
    return gid.T, [masks[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _walk(root, start: int, expand) -> tuple[list, list[int], int]:
    """The closure walk from (root, no intent, start), depth-first in lexicographic
    attribute order; returns the emitted extents and intent masks and the node count.

    expand(a, b, y) scans the node's attributes from y on and returns its
    closed intent, its children in scan order as (extent, j), and whether it
    is emitted: if it has min_row rows and min_col intent attributes, and
    was not abandoned (scan stopped) because its intent could not reach
    min_col even with every remaining attribute.  The children created
    before that point are still explored, since they keep their own chances
    from their earlier branch attributes.  A child inherits the closed
    intent plus attribute j and starts at j + 1.
    """
    extents, intents, nodes = [], [], 0
    stack = [(root, 0, start)]
    while stack:
        a, b, y = stack.pop()
        nodes += 1
        b, children, emit = expand(a, b, y)
        if emit:
            extents.append(a)
            intents.append(b)
        for g, j in reversed(children):
            stack.append((g, b | 1 << j, j + 1))
    return extents, intents, nodes


def _mine_groups(
    values: np.ndarray, min_row: int, min_col: int, start: int = 0
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """Maximal constant-column biclusters at epsilon = 0; returns (pairs, node count).

    ``_walk`` over the value groups of ``_value_groups``, from attribute ``start``.
    """
    gid, groups = _value_groups(values, min_row)
    # cover[r][j]: the bitmask of row r's group in column j, 0 if it has none
    lut = np.empty(sum(map(len, groups)) + 1, dtype=object)
    lut[:-1] = [g for col in groups for g in col]
    lut[-1] = 0  # gid -1 reads the empty mask
    cover = lut[gid].tolist()
    n, m = values.shape

    def expand(a: int, b: int, y: int):
        size = a.bit_count()
        rows = None  # the extent's rows, listed when a column needs them
        children: list[tuple[int, int]] = []
        for j in range(y, m):
            if b >> j & 1:
                continue
            if b.bit_count() + (m - j) < min_col:
                return b, children, False
            gs = groups[j]
            if len(gs) > size:
                # more groups than rows: tally the groups the rows hit (a
                # group is one shared int, so by identity) and keep those
                # that hold min_row of them
                if rows is None:
                    rows = list(_bits(a))
                tally: dict[int, list] = {}
                for r in rows:
                    g = cover[r][j]
                    if g:
                        t = tally.get(id(g))
                        if t is None:
                            tally[id(g)] = [g, 1]
                        else:
                            t[1] += 1
                gs = [g for g, k in tally.values() if k >= min_row]
            left = size  # rows of the extent not yet placed in a group
            for g in gs:
                g &= a
                k = g.bit_count()
                if k >= min_row:
                    if k == size:  # the extent fits inside one group: absorb
                        b |= 1 << j
                        break
                    # canonicity: an earlier non-intent attribute covering g
                    # means this extent was (or will be) produced in an
                    # earlier subtree
                    c = cover[(g & -g).bit_length() - 1]
                    if not any(g & c[e] == g for e in range(j) if not b >> e & 1):
                        children.append((g, j))
                left -= k
                if left < min_row:
                    break
        return b, children, size >= min_row and b.bit_count() >= min_col

    extents, intents, nodes = _walk((1 << n) - 1, start, expand)
    return list(zip(_decode(extents, n), _decode(intents, m))), nodes


def _cvc_perfect(values: np.ndarray, params: EnumParams):
    """Miner for ``cvc-p``."""
    return _mine_groups(values, params.min_row, params.min_col)


def _ctv_binary(values: np.ndarray, params: EnumParams):
    """Miner for ``ctv-binary``: all formal concepts (A, B) with |A| >= min_row, |B| >= min_col.

    A column's one group is its 1-valued rows: each 0 cell becomes NaN,
    which joins no group.
    """
    if not np.isin(values, (0.0, 1.0)).all():
        raise ValueError("binary context requires every entry to be 0 or 1")
    return _mine_groups(np.where(values == 1.0, 1.0, np.nan), params.min_row, params.min_col)

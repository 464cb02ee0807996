import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rinclose import EnumParams, enumerate_biclusters, inclose2, oracle_enumerate
from rinclose.cvc import _mine_cvc
from rinclose.inclose2 import (
    _BLOCK_BYTES,
    _DECODE_BYTES,
    _bits,
    _decode,
    _mine_groups,
    _value_groups,
)

MAT3 = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)


def ctv(min_row=1, min_col=1):
    return EnumParams(0.0, min_row, min_col, "ctv-binary")


def test_context_rejects_non_binary():
    with pytest.raises(ValueError, match="0 or 1"):
        enumerate_biclusters(np.array([[0, 2], [1, 0]]), ctv())
    with pytest.raises(ValueError, match="0 or 1"):
        enumerate_biclusters(np.array([[0.5]]), ctv())
    # floats that happen to be 0/1 are fine
    assert enumerate_biclusters(np.array([[0.0, 1.0]]), ctv()).as_set() == {((0,), (1,))}


def test_all_concepts_of_small_matrix():
    sol = enumerate_biclusters(MAT3, ctv())
    assert sol.as_set() == {
        ((0, 1), (0, 1)),
        ((1,), (0, 1, 2)),
        ((0, 1, 2), (1,)),
        ((1, 2), (1, 2)),
    }


def test_all_ones_matrix_single_concept():
    sol = enumerate_biclusters(np.ones((2, 2)), ctv())
    assert sol.as_set() == {((0, 1), (0, 1))}


def test_size_filters():
    sol = enumerate_biclusters(MAT3, ctv(2, 2))
    assert sol.as_set() == {((0, 1), (0, 1)), ((1, 2), (1, 2))}
    with pytest.raises(ValueError):
        enumerate_biclusters(MAT3, ctv(min_row=0))


def test_zero_matrix_has_no_concepts():
    sol = enumerate_biclusters(np.zeros((3, 3)), ctv())
    assert len(sol) == 0


def _closure_holds(values, rows, cols):
    """A' = B and B' = A, the defining property of a formal concept."""
    sub_rows = {i for i in range(values.shape[0]) if all(values[i, j] == 1 for j in cols)}
    sub_cols = {j for j in range(values.shape[1]) if all(values[i, j] == 1 for i in rows)}
    return sub_rows == set(rows) and sub_cols == set(cols)


binary_matrices = arrays(
    dtype=np.int8,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.integers(0, 1),
)


@settings(max_examples=150, deadline=None)
@given(binary_matrices)
def test_concepts_are_closed_and_unique(mat):
    sol = enumerate_biclusters(mat, ctv())
    pairs = [(b.rows, b.cols) for b in sol.biclusters]
    assert len(set(pairs)) == len(pairs)
    for rows, cols in pairs:
        assert _closure_holds(mat, rows, cols)


@settings(max_examples=100, deadline=None)
@given(binary_matrices, st.integers(1, 3), st.integers(1, 3))
def test_matches_oracle(mat, min_row, min_col):
    params = ctv(min_row, min_col)
    found = enumerate_biclusters(mat, params)
    expected = oracle_enumerate(mat, params)
    assert found.as_set() == expected.as_set()


def test_node_count_stays_polynomial():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = rng.integers(4, 13, size=2)
        mat = (rng.random((n, m)) < 0.5).astype(float)
        sol = enumerate_biclusters(mat, ctv())
        k = max(1, len(sol))
        assert sol.stats.nodes_expanded <= k * m * m + 1


def test_stats_are_populated():
    sol = enumerate_biclusters(MAT3, ctv())
    assert sol.stats.num_biclusters == len(sol) == 4
    assert sol.stats.nodes_expanded >= 1
    assert sol.params.bic_type == "ctv-binary"


# ------------------------------------------- the bitmask walk at epsilon = 0
#
# The perfect types run the group walk; the numeric kernel called at
# epsilon = 0 walks the same tree over equal-value windows.  The two must
# agree on the pairs and on the node count.


def _kinds(rng, n, m):
    """Seeded matrices whose equal-value groups the two walks must cut alike."""
    yield rng.integers(0, 4, size=(n, m)).astype(float)  # integers
    yield rng.integers(0, 6, size=(n, m)) / 10  # decimal: k/10 is inexact
    yield rng.integers(0, 6, size=(n, m)) / 4  # dyadic
    yield np.log(rng.integers(1, 5, size=(n, m)).astype(float))  # log-scale
    # tie-heavy: every column is a shuffle of pairs, so many 2-row groups
    yield np.stack([rng.permutation(np.arange(n) // 2) for _ in range(m)], axis=1) / 3


def _assert_walks_agree(values, min_row, min_col):
    new = _mine_groups(values, min_row, min_col)
    old = _mine_cvc(values, 0.0, min_row, min_col)
    assert new[0] == sorted(old[0])  # and the group walk hands its pairs over in order
    assert new[1] == old[1]
    return new


def test_group_walk_matches_the_kernel_on_cvc_p_and_cvr_p():
    rng = np.random.default_rng(61)
    for _ in range(12):
        n, m = (int(k) for k in rng.integers(4, 13, size=2))
        for values in _kinds(rng, n, m):
            for min_row in range(1, 5):
                min_col = int(rng.integers(1, 3))
                _assert_walks_agree(values, min_row, min_col)  # cvc-p
                _assert_walks_agree(values.T, min_col, min_row)  # cvr-p


def test_group_walk_matches_the_kernel_on_chv_p_pivots():
    # each pivot's difference matrix, walked from an empty root by both walks;
    # chv-p's walk, started at the pivot, then finds exactly the biclusters of that
    # matrix whose first column is the pivot, and none under a skipped pivot
    rng = np.random.default_rng(67)
    for _ in range(10):
        n, m = (int(k) for k in rng.integers(4, 11, size=2))
        for values in _kinds(rng, n, m):
            for min_row in range(1, 5):
                min_col = int(rng.integers(2, 4))
                for atr in range(m - 1):
                    z = values[:, [atr]] - values
                    pairs, _ = _assert_walks_agree(z, min_row, min_col)
                    first = {(r, c) for r, c in pairs if c[0] == atr}
                    if (np.ptp(z[:, :atr], axis=0) == 0.0).any():
                        assert not first
                        continue
                    seeded, _ = _mine_groups(z, min_row, min_col, start=atr)
                    assert sorted(seeded) == sorted(first)


def test_canonicity_prefilter_at_its_edges():
    # a child is tested for canonicity only on the earlier columns where its
    # lowest and highest rows share a group, found from each row's live
    # columns and the bit planes of its groups' ranks; the walks must still
    # agree where that is stretched: columns of 9 or more groups (4 or more
    # rank planes), NaN cells (no live bit), one-row children (lowest row =
    # highest row) and chv-p pivots started past column 0
    rng = np.random.default_rng(83)
    for t in range(8):
        n, m = int(rng.integers(40, 57)), int(rng.integers(4, 8))
        values = rng.integers(0, 12, size=(n, m)).astype(float)
        if t % 2:
            values[rng.random((n, m)) < 0.2] = np.nan
        for min_row in (1, 2, 3):
            if min_row < 3:
                assert max(map(len, _value_groups(values, min_row)[1])) >= 9
            pairs, _ = _assert_walks_agree(values, min_row, 1)
            if min_row == 1:
                assert any(len(rows) == 1 for rows, _ in pairs)
            _assert_walks_agree(values.T, 1, min_row)
            for atr in range(1, m - 1):
                z = values[:, [atr]] - values
                pairs, _ = _assert_walks_agree(z, min_row, 2)
                if not (np.ptp(z[:, :atr], axis=0) == 0.0).any():
                    seeded, _ = _mine_groups(z, min_row, 2, start=atr)
                    assert sorted(seeded) == sorted(p for p in pairs if p[1][0] == atr)


def test_group_walk_visits_only_hit_groups():
    # column 1 has seven groups at min_row 1, more than the four rows of the
    # extent {0, 1, 2, 3} that column 0 splits off; the peel visits only the
    # three groups those rows hit.  At min_row 2 one group is left
    values = np.array([[0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 1, 2, 3, 4, 5, 6]], dtype=float).T
    pairs, nodes = _assert_walks_agree(values, 1, 1)
    assert set(pairs) == {
        ((0, 1, 2, 3), (0,)),
        ((4, 5, 6, 7), (0,)),
        ((0, 1), (0, 1)),
        ((2,), (0, 1)),
        ((3,), (0, 1)),
        ((4,), (0, 1)),
        ((5,), (0, 1)),
        ((6,), (0, 1)),
        ((7,), (0, 1)),
    }
    pairs, _ = _assert_walks_agree(values, 2, 1)
    assert set(pairs) == {((0, 1, 2, 3), (0,)), ((4, 5, 6, 7), (0,)), ((0, 1), (0, 1))}


def test_group_table_across_packing_blocks():
    # lone rows and more groups of 2+ rows than one packed 0/1 block holds,
    # so the block seam is crossed; each column's masks are its equal-value
    # groups in value order
    n = 3000
    values = np.random.default_rng(5).integers(0, 2500, size=(n, 2)).astype(float)
    gid, groups = _value_groups(values, 1)
    sizes = [g.bit_count() for col in groups for g in col]
    assert 1 in sizes and sum(k > 1 for k in sizes) > _BLOCK_BYTES // n
    flat = [g for col in groups for g in col]
    for j in range(2):
        by_value = {}
        for r in range(n):
            by_value[values[r, j]] = by_value.get(values[r, j], 0) | 1 << r
        assert groups[j] == [by_value[v] for v in sorted(by_value)]
        assert all(flat[gid[r, j]] >> r & 1 for r in range(n))
    gid, groups = _value_groups(values, 2)  # lone rows belong to no group
    assert all((gid[r, j] < 0) == (np.sum(values[:, j] == values[r, j]) < 2)
               for r in range(0, n, 7) for j in range(2))


def test_nan_cells_belong_to_no_group():
    # NaN equals nothing, not even another NaN, so even at min_row 1 a NaN
    # cell gets no group id and no mask
    nan = np.nan
    values = np.array([[nan, 1.0], [2.0, nan], [2.0, 1.0], [nan, nan]])
    gid, groups = _value_groups(values, 1)
    assert gid.tolist() == [[-1, 1], [0, -1], [0, 1], [-1, -1]]
    assert groups == [[0b0110], [0b0101]]
    gid, groups = _value_groups(np.full((3, 2), nan), 1)
    assert (gid == -1).all() and groups == [[], []]


def test_group_walk_root_shorter_than_min_row():
    # no group can reach min_row rows: one node, nothing emitted
    for values in (np.ones((2, 3)), np.arange(6.0).reshape(2, 3)):
        assert _assert_walks_agree(values, 3, 1) == ([], 1)
    sol = enumerate_biclusters(np.ones((2, 3)), ctv(3, 1))
    assert (len(sol), sol.stats.nodes_expanded) == (0, 1)


def test_binary_walk_is_the_group_walk_with_zeros_apart():
    # ctv-binary keeps only each column's 1-group; giving every 0 cell a
    # value of its own makes it a lone row, which min_row >= 2 drops too, so
    # the numeric kernel on that matrix walks the same tree
    rng = np.random.default_rng(71)
    cases = [rng.random((int(n), int(m))) < 0.5 for n, m in rng.integers(3, 12, size=(40, 2))]
    cases.append(np.array([[1, 0, 1], [1, 0, 1], [0, 0, 1], [1, 0, 0]], dtype=bool))  # no 1s
    for mat in cases:
        mat = mat.astype(float)
        apart = np.where(mat == 1.0, 1.0, -1.0 - np.arange(mat.size).reshape(mat.shape))
        for min_row in (2, 3, 4):
            for min_col in (1, 2):
                found = enumerate_biclusters(mat, ctv(min_row, min_col))
                pairs, nodes = _mine_cvc(apart, 0.0, min_row, min_col)
                assert found.as_set() == set(pairs)
                assert found.stats.nodes_expanded == nodes


def test_binary_column_without_ones():
    mat = np.array([[1, 0, 1], [1, 0, 1], [0, 0, 1], [1, 0, 0]], dtype=float)
    for min_row, min_col in ((1, 1), (2, 1), (2, 2), (1, 2)):
        params = ctv(min_row, min_col)
        assert enumerate_biclusters(mat, params).as_set() == oracle_enumerate(mat, params).as_set()
    assert enumerate_biclusters(mat, ctv()).as_set() == {
        ((0, 1, 3), (0,)),
        ((0, 1, 2), (2,)),
        ((0, 1), (0, 2)),
    }


def test_group_peel_at_its_edges():
    # a column's groups are peeled off the extent's rows that are in one,
    # the lowest row left first, until fewer than min_row rows are left;
    # the walks must agree where a column has many more groups than the
    # extent has rows, where an extent has fewer than 2 * min_row rows (one
    # group at most), and where rows are in no group of a column (lone rows
    # at min_row >= 2, NaN cells)
    rng = np.random.default_rng(97)
    for t in range(4):
        n, m = int(rng.integers(200, 301)), int(rng.integers(4, 7))
        values = rng.integers(0, n * 2 // 3, size=(n, m)).astype(float)  # near-continuous
        if t % 2:
            values[rng.random((n, m)) < 0.1] = np.nan
        for min_row in (1, 2, 3):
            gid, groups = _value_groups(values, min_row)
            pairs, _ = _assert_walks_agree(values, min_row, 1)
            assert min(map(len, groups)) > 3 * max(len(rows) for rows, _ in pairs)
            if min_row > 1:
                assert ((gid < 0) & ~np.isnan(values)).any()  # lone rows
            _assert_walks_agree(values.T, 1, min_row)
    for t in range(6):
        n, m = int(rng.integers(12, 25)), int(rng.integers(4, 8))
        values = rng.integers(0, 3, size=(n, m)).astype(float)
        if t % 2:
            values[rng.random((n, m)) < 0.15] = np.nan
        for min_row in (3, 4, 5):
            pairs, _ = _assert_walks_agree(values, min_row, 1)
            assert any(len(rows) < 2 * min_row for rows, _ in pairs)


def test_many_small_groups_pinned():
    # near-continuous integers: a column has about 870 groups of 2+ rows,
    # and almost every extent below the root has 2 rows
    values = np.random.default_rng(0).integers(0, 1000, size=(2000, 20)).astype(float)
    sol = enumerate_biclusters(values, EnumParams(0.0, 2, 1, "cvc-p"))
    assert (len(sol), sol.stats.nodes_expanded) == (12197, 12198)


def test_group_walk_hands_over_its_pairs_in_tuple_order():
    # one walk's pairs come sorted when the key block holds every row of
    # every extent, as on these small matrices; _assert_walks_agree checks
    # it for cvc-p and cvr-p, this for ctv-binary and the walk of each
    # chv-p pivot
    rng = np.random.default_rng(89)
    for _ in range(6):
        n, m = (int(k) for k in rng.integers(4, 13, size=2))
        for values in _kinds(rng, n, m):
            for min_row in (1, 2, 3):
                ones = np.where(values > np.median(values), 1.0, np.nan)  # ctv-binary's matrix
                walks = [_mine_groups(ones, min_row, 1)]
                for atr in range(m - 1):
                    walks.append(_mine_groups(values[:, [atr]] - values, min_row, 2, start=atr))
                for pairs, _ in walks:
                    assert pairs == sorted(pairs)


def test_output_order_does_not_rest_on_the_key_width(monkeypatch):
    # with a key of one row per extent, runs tie on their first row and
    # the final sort alone orders them; the output must not change
    rng = np.random.default_rng(101)
    cases = [(rng.integers(0, 3, size=(40, 8)).astype(float), t) for t in ("cvc-p", "cvr-p")]
    cases.append((rng.integers(0, 3, size=(30, 7)).astype(float), "chv-p"))
    cases.append(((rng.random((60, 10)) < 0.4).astype(float), "ctv-binary"))
    for values, t in cases:
        params = EnumParams(0.0, 2, 2, t)
        want = enumerate_biclusters(values, params)
        monkeypatch.setattr(inclose2, "_KEY_BYTES", 1)
        pairs, _ = _mine_groups(values, 2, 2)
        assert [rows[0] for rows, _ in pairs] == sorted(rows[0] for rows, _ in pairs)
        got = enumerate_biclusters(values, params)
        monkeypatch.undo()
        assert got.biclusters == want.biclusters
        assert got.stats.nodes_expanded == want.stats.nodes_expanded


def test_tuple_order_past_65535_rows():
    # n >= 65,535 rows take 4-byte keys: index + 1 of row 65,536 is 65,537,
    # which 2 bytes would read as 1, before row 5's key of 6
    mat = np.zeros((70000, 3))
    mat[[5, 65536], 0] = mat[[65536, 65537], 1] = mat[[5, 65537, 69999], 2] = 1.0
    pairs, nodes = _mine_groups(np.where(mat == 1.0, 1.0, np.nan), 1, 1)
    assert pairs == [
        ((5,), (0, 2)),
        ((5, 65536), (0,)),
        ((5, 65537, 69999), (2,)),
        ((65536,), (0, 1)),
        ((65536, 65537), (1,)),
        ((65537,), (1, 2)),
    ]
    sol = enumerate_biclusters(mat, ctv())
    assert sol.as_set() == set(pairs) and sol.stats.nodes_expanded == nodes


# ------------------------------------------- decoding the emitted extent masks


def _decoded_like_bits(masks, n):
    assert _decode(masks, n) == [tuple(_bits(a)) for a in masks]


def test_decode_edge_cases():
    assert _decode([], 5) == []
    _decoded_like_bits([1, 0, 1], 1)  # n = 1
    for n in (9, 13, 15, 63, 65):  # n not a multiple of 8, top bit n - 1 set
        top = 1 << (n - 1)
        _decoded_like_bits([top, top | 1, (1 << n) - 1, 0b1011 << (n - 4), top >> 3], n)
    rows = _decode([(1 << 1000) - 1, 1 << 999 | 1 << 256], 1000)
    assert rows[0] == tuple(range(1000)) and rows[1] == (256, 999)
    assert all(type(r) is int for r in rows[0])


def test_decode_across_chunk_seams(monkeypatch):
    rng = np.random.default_rng(8)
    for n in (1, 7, 8, 20, 130):
        masks = [int.from_bytes(rng.bytes(n), "little") % (1 << n) for _ in range(40)]
        masks[-1] |= 1 << (n - 1)  # the last mask of the run holds the top row
        for budget in (1, 2, 3, 5, 16, 17 * ((n + 7) // 8)):  # chunks of 1, 2, ... masks
            monkeypatch.setattr(inclose2, "_DECODE_BYTES", budget)
            _decoded_like_bits(masks, n)
    monkeypatch.undo()
    # at the real budget: one mask more than a chunk holds, the last one in a
    # chunk of its own
    n = 20
    step = _DECODE_BYTES // ((n + 7) // 8)
    masks = [(k * 2654435761) % (1 << n) | 1 for k in range(step + 1)]
    _decoded_like_bits(masks, n)


def test_pairs_order_by_the_first_w_rows_across_chunk_seams(monkeypatch):
    # each extent's key is its first w rows, written chunk by chunk at the
    # chunk's offset; the pairs come out stably sorted by that prefix
    rng = np.random.default_rng(9)
    for n in (1, 7, 20, 130):
        width = (n + 7) // 8
        extents = list(dict.fromkeys(
            int.from_bytes(rng.bytes(width), "little") % (1 << n) | 1 << int(rng.integers(n))
            for _ in range(40)))
        intents = [int(k) for k in rng.integers(1, 32, size=len(extents))]
        emitted = [(tuple(_bits(a)), tuple(_bits(b))) for a, b in zip(extents, intents)]
        for budget in (1, 3, 17 * width, _DECODE_BYTES):
            monkeypatch.setattr(inclose2, "_DECODE_BYTES", budget)
            assert inclose2._pairs(extents, intents, n, 5) == sorted(emitted)
            for w in (1, 2, 3):
                monkeypatch.setattr(inclose2, "_KEY_BYTES", 2 * w * len(extents))
                want = sorted(emitted, key=lambda p: p[0][:w])
                assert inclose2._pairs(extents, intents, n, 5) == want
            monkeypatch.undo()


def test_decode_shares_equal_masks_and_indices(monkeypatch):
    # equal masks (distinct int objects) decode to one tuple, and each index
    # is one int object wherever it occurs; above 256, where CPython keeps no
    # shared small ints, and across chunk seams
    n = 600
    rng = np.random.default_rng(13)
    kinds = [int.from_bytes(rng.bytes(75), "little") | 1 << 599 | 1 << 300 for _ in range(6)]
    masks = [int.from_bytes(kinds[k].to_bytes(75, "little"), "little")
             for k in rng.integers(0, 6, size=30)]
    assert len(set(map(id, masks))) == len(masks)  # equal masks, but no shared object
    for budget in (_DECODE_BYTES, 75, 160):  # one chunk, one mask a chunk, two a chunk
        monkeypatch.setattr(inclose2, "_DECODE_BYTES", budget)
        rows = _decode(masks, n)
        _decoded_like_bits(masks, n)
        first = {}
        for a, t in zip(masks, rows):
            assert first.setdefault(a, t) is t
        assert len(first) == 6
        index = {}
        for t in rows:
            assert all(index.setdefault(r, r) is r for r in t)
        assert max(index) == 599 and 300 in index


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 80).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=20))))
def test_decode_matches_bits(case):
    n, masks = case
    _decoded_like_bits(masks, n)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rinclose import EnumParams, enumerate_biclusters, oracle_enumerate
from rinclose.cvc import _mine_cvc
from rinclose.inclose2 import _HOT_CELLS, _mine_groups, _value_groups

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
    assert sorted(new[0]) == sorted(old[0])
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
    # the seeded root of chv-p then finds exactly the biclusters of that
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
                    seeded, _ = _mine_groups(z, min_row, min_col, root=(atr,))
                    assert sorted(seeded) == sorted(first)


def test_group_walk_visits_only_hit_groups():
    # column 1 has seven groups at min_row 1, more than the four rows of the
    # extent {0, 1, 2, 3} that column 0 splits off, so only the groups those
    # rows hit are visited; at min_row 2 one group is left and all are
    # visited
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
    assert 1 in sizes and sum(k > 1 for k in sizes) > _HOT_CELLS // n
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rinclose import BinaryContext, EnumParams, enumerate_biclusters, oracle_enumerate
from rinclose.cliques import _bits

MAT3 = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)


def ctv(min_row=1, min_col=1):
    return EnumParams(0.0, min_row, min_col, "ctv-binary")


def test_context_rejects_non_binary():
    with pytest.raises(ValueError):
        BinaryContext(np.array([[0, 2], [1, 0]]))
    with pytest.raises(ValueError):
        BinaryContext(np.array([[0.5]]))
    BinaryContext(np.array([[0.0, 1.0]]))  # floats that happen to be 0/1 are fine


def test_derive_attr():
    # a column's derivation (the rows with a 1 in it) is its row bitmask
    def derive(mat, col):
        return set(_bits(BinaryContext(mat).col_masks[col]))

    assert derive(np.eye(3), 1) == {1}
    assert derive(np.ones((4, 2)), 0) == {0, 1, 2, 3}
    assert derive(MAT3, 0) == {0, 1}


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

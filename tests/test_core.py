import hashlib

import numpy as np
import pytest

from rinclose import (
    Bicluster,
    EnumParams,
    NumericMatrix,
    as_matrix,
    enumerate_biclusters,
    is_maximal,
    is_valid,
    transform_for_model,
    transpose,
)
from rinclose.core import BIC_TYPES
from rinclose.io import solution_to_json


def test_matrix_basic_shape():
    mat = NumericMatrix([[1, 2, 3], [4, 5, 6]])
    assert mat.shape == (2, 3)
    assert mat.n_rows == 2
    assert mat.n_cols == 3
    assert mat.values.dtype == np.float64


def test_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        NumericMatrix([1, 2, 3])  # 1-d
    with pytest.raises(ValueError):
        NumericMatrix([[]])  # zero columns
    with pytest.raises(ValueError):
        NumericMatrix([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        NumericMatrix([[1.0, float("inf")]])


def test_matrix_is_immutable():
    mat = NumericMatrix([[1.0, 2.0]])
    with pytest.raises(AttributeError):
        mat.values = np.zeros((1, 2))
    with pytest.raises(ValueError):
        mat.values[0, 0] = 9.0  # numpy write flag


def test_matrix_copies_its_input():
    src = np.ones((2, 2))
    mat = NumericMatrix(src)
    src[0, 0] = 5.0
    assert mat.values[0, 0] == 1.0


def test_matrix_eq_and_hash():
    a = NumericMatrix([[1, 2], [3, 4]])
    b = NumericMatrix([[1, 2], [3, 4]])
    c = NumericMatrix([[1, 2], [3, 5]])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_as_matrix_passthrough():
    mat = NumericMatrix([[1.0]])
    assert as_matrix(mat) is mat
    assert as_matrix([[1.0, 2.0]]).shape == (1, 2)


def test_bicluster_normalizes_indices():
    b = Bicluster([3, 1, 1, 2], (5, 0))
    assert b.rows == (1, 2, 3)
    assert b.cols == (0, 5)
    assert b.volume == 6
    assert b.swapped() == Bicluster((0, 5), (1, 2, 3))
    assert b.to_dict() == {"rows": [1, 2, 3], "cols": [0, 5]}


def test_bicluster_rejects_empty():
    with pytest.raises(ValueError):
        Bicluster([], [0])
    with pytest.raises(ValueError):
        Bicluster([0], [])


def test_params_defaults_and_errors():
    p = EnumParams()
    assert (p.epsilon, p.min_row, p.min_col, p.bic_type, p.model) == (
        0.0, 1, 1, "cvc-p", "shift")
    with pytest.raises(ValueError):
        EnumParams(bic_type="nope")
    with pytest.raises(ValueError):
        EnumParams(epsilon=1.0, model="affine")
    with pytest.raises(ValueError):
        EnumParams(epsilon=-0.5)
    with pytest.raises(ValueError):
        EnumParams(epsilon=float("inf"))
    with pytest.raises(ValueError):
        EnumParams(epsilon=1.0, min_row=0)
    with pytest.raises(ValueError):
        EnumParams(epsilon=1.0, min_col=0)


def test_params_perfect_types_pin_epsilon_to_zero():
    EnumParams(0.0, 1, 1, "cvc-p")  # fine
    with pytest.raises(ValueError, match="'cvc'"):
        EnumParams(0.5, 1, 1, "cvc-p")
    with pytest.raises(ValueError, match="'chv'"):
        EnumParams(0.5, 1, 2, "chv-p")


def test_params_perturbed_types_need_positive_epsilon():
    EnumParams(0.5, 1, 1, "cvc")  # fine
    with pytest.raises(ValueError, match="'cvc-p'"):
        EnumParams(0.0, 1, 1, "cvc")
    with pytest.raises(ValueError, match="'cvr-p'"):
        EnumParams(0.0, 1, 1, "cvr")


def test_params_ctv_binary_takes_no_scale_model():
    # the binary walk reads 0/1 cells as given, while is_valid and the oracle
    # would take logs first, so the two could never agree under "scale"
    EnumParams(0.0, 1, 1, "ctv-binary", "shift")  # fine
    with pytest.raises(ValueError, match="ctv-binary"):
        EnumParams(0.0, 1, 1, "ctv-binary", "scale")


def test_params_chv_needs_two_columns():
    with pytest.raises(ValueError, match="min_col >= 2"):
        EnumParams(0.0, 1, 1, "chv-p")
    with pytest.raises(ValueError, match="min_col >= 2"):
        EnumParams(1.0, 1, 1, "chv")


def test_transform_shift_is_identity():
    mat = NumericMatrix([[1.0, -3.0]])
    assert transform_for_model(mat, "shift") is mat


def test_transform_scale_takes_logs():
    mat = NumericMatrix([[1.0, np.e], [np.e**2, 1.0]])
    logged = transform_for_model(mat, "scale")
    assert np.allclose(logged.values, [[0.0, 1.0], [2.0, 0.0]])


def test_transform_scale_names_offending_cell():
    with pytest.raises(ValueError, match=r"\(1,0\)"):
        transform_for_model([[2.0, 3.0], [-1.0, 4.0]], "scale")
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        transform_for_model([[2.0, 0.0]], "scale")


def test_transpose():
    t = transpose([[1, 2, 3], [4, 5, 6]])
    assert t.shape == (3, 2)
    assert t.values[2, 1] == 6.0


def test_is_valid_ctv_binary():
    mat = [[1, 1, 0], [1, 1, 1]]
    p = EnumParams(0.0, 1, 1, "ctv-binary")
    assert is_valid(mat, Bicluster([0, 1], [0, 1]), p)
    assert not is_valid(mat, Bicluster([0, 1], [0, 2]), p)


def test_is_valid_cvc_checks_each_column_range():
    mat = [[1.0, 10.0], [2.0, 11.0], [4.0, 12.0]]
    assert is_valid(mat, Bicluster([0, 1], [0, 1]), EnumParams(1.0, 1, 1, "cvc"))
    assert not is_valid(mat, Bicluster([0, 2], [0]), EnumParams(1.0, 1, 1, "cvc"))
    assert is_valid(mat, Bicluster([0, 2], [0]), EnumParams(3.0, 1, 1, "cvc"))


def test_is_valid_cvr_is_cvc_on_the_transpose():
    mat = np.array([[1.0, 1.2, 5.0], [7.0, 7.1, 2.0]])
    p = EnumParams(0.5, 1, 1, "cvr")
    pt = EnumParams(0.5, 1, 1, "cvc")
    b = Bicluster([0, 1], [0, 1])
    assert is_valid(mat, b, p) == is_valid(mat.T, b.swapped(), pt)
    assert is_valid(mat, b, p)


def test_is_valid_chv_pairwise_differences():
    # rows shifted copies of each other -> perfectly coherent
    mat = [[1.0, 4.0, 2.0], [11.0, 14.0, 12.0]]
    assert is_valid(mat, Bicluster([0, 1], [0, 1, 2]), EnumParams(0.0, 1, 2, "chv-p"))
    mat2 = [[1.0, 4.0], [11.0, 15.0]]
    assert not is_valid(mat2, Bicluster([0, 1], [0, 1]), EnumParams(0.0, 1, 2, "chv-p"))
    assert is_valid(mat2, Bicluster([0, 1], [0, 1]), EnumParams(1.0, 1, 2, "chv"))


def test_is_valid_scale_model():
    # rows are multiples of each other -> coherent on the log scale (up to
    # rounding of the logs themselves, hence the tiny epsilon)
    mat = [[1.0, 2.0, 4.0], [3.0, 6.0, 12.0]]
    b = Bicluster([0, 1], [0, 1, 2])
    assert is_valid(mat, b, EnumParams(1e-9, 1, 2, "chv", model="scale"))
    assert not is_valid(mat, b, EnumParams(1e-9, 1, 2, "chv"))


def test_is_valid_index_out_of_range():
    with pytest.raises(IndexError):
        is_valid([[1.0]], Bicluster([0], [1]), EnumParams(0.0, 1, 1, "cvc-p"))
    with pytest.raises(IndexError):
        is_valid([[1.0]], Bicluster([2], [0]), EnumParams(0.0, 1, 1, "cvc-p"))


def test_is_maximal_requires_validity():
    mat = [[0.0, 9.0], [1.0, 9.0]]  # column 0 not constant
    with pytest.raises(ValueError):
        is_maximal(mat, Bicluster([0, 1], [0, 1]), EnumParams(0.0, 1, 1, "cvc-p"))


def test_is_maximal_examples():
    mat = [[1.0, 1.0, 9.0], [1.0, 1.0, 9.0], [1.0, 5.0, 9.0]]
    p = EnumParams(0.0, 1, 1, "cvc-p")
    # column 2 is constant over all rows, so stopping at rows {0,1} is not maximal
    assert not is_maximal(mat, Bicluster([0, 1], [2]), p)
    assert is_maximal(mat, Bicluster([0, 1, 2], [0, 2]), p)
    assert is_maximal(mat, Bicluster([0, 1], [0, 1, 2]), p)


def test_is_valid_on_running_example(table1):
    # column m5 is constant on g1..g3
    assert is_valid(table1, Bicluster([0, 1, 2], [4]), EnumParams(0.0, 1, 1, "cvc-p"))
    assert is_valid(table1, Bicluster([0, 2], [0, 1, 4]), EnumParams(1.0, 1, 2, "chv"))
    # a single cell has zero range under every type
    for t in ("cvc-p", "cvr-p"):
        assert is_valid(table1, Bicluster([3], [2]), EnumParams(0.0, 1, 1, t))


def test_is_maximal_on_running_example(table1):
    p = EnumParams(0.0, 1, 1, "cvc-p")
    assert is_maximal(table1, Bicluster([1, 2], [0, 2, 4]), p)
    assert not is_maximal(table1, Bicluster([1, 2], [0, 2]), p)  # m5 still fits


def test_transpose_running_example(table1):
    t = transpose(table1)
    assert t.shape == (5, 4)
    assert list(t.values[:, 0]) == [1, 2, 2, 1, 6]
    assert transpose(t) == as_matrix(table1)


def test_full_matrix_maximal_with_huge_epsilon():
    mat = [[3.0, 0.0], [5.0, 9.0]]
    p = EnumParams(100.0, 1, 1, "cvc")
    assert is_maximal(mat, Bicluster([0, 1], [0, 1]), p)


def _ints(seed, hi, shape):
    return np.random.default_rng(seed).integers(0, hi, size=shape).astype(float)


# bic type -> (matrix, params, (nodes expanded, biclusters, SHA-256 of the JSON))
PINNED_RUNS = {
    "ctv-binary": (
        _ints(1, 2, (30, 12)), EnumParams(0.0, 2, 2, "ctv-binary"),
        (399, 387, "1017b7123c8972a6e85b43eab19bc2e9945e12c2f387c2f5b3b6a23c6382cc37"),
    ),
    "cvc-p": (
        _ints(2, 4, (30, 10)), EnumParams(0.0, 3, 2, "cvc-p"),
        (226, 189, "3601d01a300ae2549a3ef286a2a247288d3d3ad70f9ea3d0b75e7fe65fd3985d"),
    ),
    "cvc": (
        _ints(3, 7, (30, 8)), EnumParams(1.0, 3, 2, "cvc"),
        (458, 415, "c836c5f8a718b9a5cd1aa121d666152d97030227d7a2b105cdb08feef5875117"),
    ),
    "cvr-p": (
        _ints(4, 4, (10, 30)), EnumParams(0.0, 2, 3, "cvr-p"),
        (279, 242, "53c1c164988f1a121fcd01c203bed40f8ee604f340ae043175cca423dcccce1d"),
    ),
    "cvr": (
        1.0 + _ints(5, 8, (8, 30)), EnumParams(0.5, 2, 3, "cvr", "scale"),
        (499, 467, "7e83f15d9b7d30d132bea17a80a653c4eb48b0bfe5f1776cd073d875488631f7"),
    ),
    "chv-p": (
        _ints(7, 3, (40, 8)), EnumParams(0.0, 3, 3, "chv-p"),
        (476, 378, "2a4f7e67f14da61af9e4f8a27ce6d8a0adb79cc820c93248e0360d53dd626c44"),
    ),
    "chv": (
        _ints(6, 5, (16, 6)), EnumParams(1.0, 3, 3, "chv"),
        (343, 84, "15384fea3ca5910d6023ec3d8d15b5d433b985abd306ae74430d7c87c56d5efc"),
    ),
}


def test_every_type_pins_output_and_node_count():
    # pins each walk and its output bytes: a change that visits other nodes
    # or emits other JSON shows up here
    assert set(PINNED_RUNS) == BIC_TYPES
    for bic_type, (mat, params, pinned) in PINNED_RUNS.items():
        sol = enumerate_biclusters(mat, params)
        digest = hashlib.sha256(solution_to_json(sol).encode()).hexdigest()
        assert (sol.stats.nodes_expanded, len(sol), digest) == pinned, bic_type

import copy
import hashlib
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rinclose import (
    Bicluster,
    EnumParams,
    GenConfig,
    NumericMatrix,
    as_matrix,
    enumerate_biclusters,
    generate,
    is_maximal,
    is_valid,
    oracle_enumerate,
    sort_biclusters,
    transform_for_model,
    transpose,
)
from rinclose.core import BIC_TYPES, _model_values
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
    assert b.to_dict() == {"rows": [1, 2, 3], "cols": [0, 5]}


def test_bicluster_rejects_empty():
    with pytest.raises(ValueError):
        Bicluster([], [0])
    with pytest.raises(ValueError):
        Bicluster([0], [])


def test_bicluster_rejects_non_integer_indices():
    # a float index is refused, not truncated; numpy ints become Python ints
    for rows, cols in (([1.7, 2], [0]), ([1], [0.2]), ([1.0], [0])):
        with pytest.raises(TypeError):
            Bicluster(rows, cols)
    b = Bicluster(np.array([3, 1], dtype=np.int32), np.arange(2))
    assert b == ((1, 3), (0, 1)) and {type(x) for x in b.rows + b.cols} == {int}


def test_bicluster_pickle_and_deepcopy_keep_normalization():
    b = Bicluster([3, 1, 1, 2], (5, 0))
    for twin in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
        assert type(twin) is Bicluster and twin == b
        assert (twin.rows, twin.cols) == ((1, 2, 3), (0, 5))


def test_bicluster_keyword_construction():
    b = Bicluster(rows=[2, 0, 2], cols=(1,))
    assert b == Bicluster([0, 2], [1]) and b.rows == (0, 2)
    with pytest.raises(ValueError):
        Bicluster(rows=[], cols=[0])


def test_bicluster_equals_its_plain_pair():
    b = Bicluster([2, 0], [1])
    assert b == ((0, 2), (1,)) and hash(b) == hash(((0, 2), (1,)))
    rows, cols = b
    assert (rows, cols) == (b.rows, b.cols)


def test_sort_biclusters_orders_by_rows_then_cols():
    # index sets of 1..3 out of few ids, so shared rows and prefixes are common
    rng = np.random.default_rng(5)
    bics = [Bicluster(rng.choice(5, size=rng.integers(1, 4), replace=False),
                      rng.choice(4, size=rng.integers(1, 4), replace=False))
            for _ in range(300)]
    rng.shuffle(bics)
    assert sort_biclusters(bics) == tuple(sorted(bics, key=lambda b: (b.rows, b.cols)))


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


def test_params_reject_non_integer_size_filters():
    # a fractional filter would crash the cvc kernel's slicing or act as its
    # ceiling in the bitmask walk; numpy ints stay accepted
    for bic_type in ("cvc", "cvc-p", "chv"):
        eps = 0.0 if bic_type.endswith("-p") else 0.5
        with pytest.raises(ValueError, match="integers"):
            EnumParams(eps, 2.5, 2, bic_type)
        with pytest.raises(ValueError, match="integers"):
            EnumParams(eps, 2, 2.0, bic_type)
    with pytest.raises(ValueError, match="integers"):
        EnumParams(0.5, "3", 2, "cvc")
    p = EnumParams(0.5, np.int64(2), np.int32(2), "cvc")
    assert len(enumerate_biclusters(np.zeros((3, 3)), p)) == 1


def test_params_reject_an_epsilon_that_is_no_real_number():
    # a Decimal would get through and stop mining inside the cvc screen with
    # a TypeError, and a str would raise TypeError here; numpy floats and
    # Fractions are numbers.Real and stay accepted, and mine as the oracle does
    for eps in (Decimal("0.1"), "0.1", None, 1j):
        with pytest.raises(ValueError, match="epsilon must be a finite nonnegative real"):
            EnumParams(eps, 2, 1, "cvc")
    vals = np.array([[0.0, 1.0], [0.1, 1.0], [0.5, 2.0], [0.55, 2.0]])
    for eps in (Fraction(1, 10), np.float64(0.1), np.float32(0.1)):
        p = EnumParams(eps, 2, 1, "cvc")
        assert enumerate_biclusters(vals, p).biclusters == oracle_enumerate(vals, p).biclusters


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


def test_predicates_check_a_plain_array_as_numeric_matrix_does():
    # is_valid and is_maximal read a plain array in place, but still reject
    # what NumericMatrix rejects, with the same message
    bic, params = Bicluster([0], [0]), EnumParams(0.0, 1, 1, "cvc-p")
    for bad, message in (
        ([[1.0, float("nan")]], "non-finite"),
        ([[1.0, float("inf")]], "non-finite"),
        ([1.0, 2.0], "2-dimensional"),
        (np.zeros((0, 2)), "at least 1x1"),
    ):
        for predicate in (is_valid, is_maximal):
            with pytest.raises(ValueError, match=message):
                predicate(np.array(bad), bic, params)


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
    assert is_valid(mat, b, p) == is_valid(mat.T, Bicluster(b.cols, b.rows), pt)
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


def test_is_maximal_scale_equals_shift_on_the_logs(monkeypatch):
    # is_maximal maps the matrix into model space once and probes there, so
    # under scale its answers on exp(M) are the shift answers on log(exp(M))
    rng = np.random.default_rng(17)
    calls = []
    real = _model_values
    monkeypatch.setattr(
        "rinclose.core._model_values", lambda m, model: calls.append(model) or real(m, model)
    )
    for _ in range(20):
        mat = np.exp(rng.integers(0, 3, size=(6, 5)) / 2)
        logs = np.log(mat)
        for t, eps in (("cvc", 0.6), ("cvr", 0.6), ("chv", 0.6), ("chv-p", 0.0)):
            shift = EnumParams(eps, 1, 2 if t.startswith("chv") else 1, t)
            scale = EnumParams(eps, shift.min_row, shift.min_col, t, "scale")
            for b in enumerate_biclusters(logs, shift).biclusters[:6]:
                for probe in (b, Bicluster(b.rows[:1], b.cols), Bicluster(b.rows, b.cols[:2])):
                    if not is_valid(logs, probe, shift):
                        continue
                    calls.clear()
                    assert is_maximal(mat, probe, scale) == is_maximal(logs, probe, shift)
                    assert calls == ["scale", "shift"]  # one transform per call


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


def test_overflowing_ranges_exceed_every_epsilon():
    # a range that overflows is +inf, above every finite epsilon: the miners,
    # the predicates and the oracle agree on it without a RuntimeWarning,
    # which pytest turns into an error
    ranges = np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]])
    pairs = np.array([[1e308, 0.0, 5.0], [-1e308, 0.0, 5.0]])  # finite differences, range not
    runs = [(mat, EnumParams(0.5, 1, 1, t)) for mat in (ranges, pairs) for t in ("cvc", "cvr")]
    runs += [(pairs, EnumParams(1.0, 1, 2, "chv")), (pairs, EnumParams(0.0, 1, 2, "chv-p"))]
    for mat, params in runs:
        sol = enumerate_biclusters(mat, params)
        assert len(sol) > 1 and sol.biclusters == oracle_enumerate(mat, params).biclusters, params
        assert all(is_valid(mat, b, params) and is_maximal(mat, b, params) for b in sol), params
    # on the first matrix the differences themselves overflow, which chv rejects
    for params in (EnumParams(1.0, 1, 2, "chv"), EnumParams(0.0, 1, 2, "chv-p")):
        with pytest.raises(ValueError, match="non-finite"):
            enumerate_biclusters(ranges, params)


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


def test_chv_pins_a_walk_where_most_columns_hold_no_window(monkeypatch):
    # planted shift blocks in a uniform [0, 100] background: about 7 in 8
    # column scans of this walk find no eps-window of min_row rows, so the
    # kernel's per-node prefilter skips most columns; and most windows repeat
    # rows that an earlier column of the same node has cut, so they are
    # dropped before canonicity reads them; and the root's float32 screen
    # keeps only 45 of the 120 pair columns; nodes and bytes must not move
    import rinclose.chv
    import rinclose.cvc

    calls = {"windows": 0, "reads": 0, "screened": []}
    fits, canonical = rinclose.cvc._fits, rinclose.cvc._canonical_fast
    screen = rinclose.chv._screen

    def counted_screen(*args):
        out = screen(*args)
        calls["screened"].append((int(out.sum()), len(out)))
        return out

    def counted_fits(*args):
        out = fits(*args)
        calls["windows"] += sum(map(len, out[2].values()))
        return out

    def counted_canonical(*args):
        calls["reads"] += 1
        return canonical(*args)

    monkeypatch.setattr(rinclose.cvc, "_fits", counted_fits)
    monkeypatch.setattr(rinclose.cvc, "_canonical_fast", counted_canonical)
    monkeypatch.setattr(rinclose.chv, "_screen", counted_screen)
    mat, _ = generate(GenConfig(n=120, m=16, num_bics=3, bic_rows=20, bic_cols=6,
                                overlap=0.2, noise_sigma=0.01, seed=0))
    sol = enumerate_biclusters(mat, EnumParams(0.1, 12, 4, "chv"))
    digest = hashlib.sha256(solution_to_json(sol).encode()).hexdigest()
    assert (sol.stats.nodes_expanded, len(sol), digest) == (
        13, 3, "777c08aadd5912d885e0954d2f695f8e3e7babed458b5dbe91ebaee6671a179d")
    assert 0 < calls["reads"] < calls["windows"], calls
    assert calls["screened"] == [(45, 120)], calls


def test_cvc_pins_a_walk_on_sparse_live_columns(monkeypatch):
    # two planted constant-column blocks in a uniform [0, 100] background:
    # only the block columns hold an eps-window of min_row rows, so the
    # screen keeps 7 of the 60 columns and the walk sees only those; the
    # bytes must not move (pinned from the walk that read every column), and
    # the min_col prune, which counts kept columns only, fires sooner, so
    # the walk takes 105 nodes where that one took 108
    import rinclose.cvc

    screened = []
    screen = rinclose.cvc._screen

    def recording(*args):
        out = screen(*args)
        screened.append((int(out.sum()), len(out)))
        return out

    monkeypatch.setattr(rinclose.cvc, "_screen", recording)
    mat, _ = generate(GenConfig(n=120, m=60, num_bics=2, bic_rows=20, bic_cols=4, overlap=0.25,
                                noise_sigma=0.05, seed=0, pattern="cvc"))
    sol = enumerate_biclusters(mat, EnumParams(0.1, 12, 2, "cvc"))
    digest = hashlib.sha256(solution_to_json(sol).encode()).hexdigest()
    assert (sol.stats.nodes_expanded, len(sol), digest) == (
        105, 75, "71a10218daccd2f7fe89c07c8a8cc604f811b55f30dc8049da004466f446a4d7")
    assert screened == [(7, 60)]


def test_emitted_biclusters_equal_normalized_ones():
    # enumerate_biclusters builds each Bicluster without normalizing it
    # again; it must be indistinguishable from the public constructor's
    for bic_type, (mat, params, _) in PINNED_RUNS.items():
        sol = enumerate_biclusters(mat, params)
        rebuilt = [Bicluster(b.rows, b.cols) for b in sol.biclusters]
        assert list(sol.biclusters) == rebuilt, bic_type
        assert [hash(b) for b in sol.biclusters] == [hash(b) for b in rebuilt], bic_type
        assert sol.biclusters == sort_biclusters(rebuilt), bic_type
        assert all(a < b for a, b in zip(sol.biclusters, rebuilt[1:])), bic_type
        assert all(type(i) is int for b in sol.biclusters for i in b.rows + b.cols), bic_type

import numpy as np
import pytest

from rinclose import (
    Bicluster,
    EnumParams,
    build_augmented,
    enumerate_biclusters,
    is_maximal,
    is_valid,
    oracle_enumerate,
    transpose,
)
from rinclose.chv import clique_candidates, extract_chv_from_cvc

# ------------------------------------------------------------ augmented matrix


def test_augmented_matrix_of_running_example(table1, table2):
    aug = build_augmented(table1)
    assert aug.values.shape == (4, 10)
    assert np.array_equal(aug.values, table2)
    assert list(aug.values[0]) == [-1, -1, 0, -5, 0, 1, -4, 1, -4, -5]


def test_pair_bijection():
    aug = build_augmented(np.zeros((1, 5)))
    assert aug.pairs == (
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 2), (1, 3), (1, 4),
        (2, 3), (2, 4),
        (3, 4),
    )


def test_augmented_needs_two_columns():
    with pytest.raises(ValueError):
        build_augmented(np.array([[1.0], [2.0]]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_augmented_rejects_overflowing_differences():
    with pytest.raises(ValueError, match="non-finite"):
        build_augmented(np.array([[1e308, -1e308]]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_both_chv_types_reject_overflowing_differences():
    # every difference to the pivot column overflows alike, so without the
    # check chv-p would cut one equal-difference group of inf values
    mat = np.array([[1e308, -1e308], [1.5e308, -1e308]])
    for params in (EnumParams(0.0, 1, 2, "chv-p"), EnumParams(0.5, 1, 2, "chv")):
        with pytest.raises(ValueError, match="non-finite"):
            enumerate_biclusters(mat, params)


def test_constant_rows_give_zero_augmented():
    mat = np.array([[3.0, 3.0, 3.0], [7.0, 7.0, 7.0]])
    assert not build_augmented(mat).values.any()


# ------------------------------------------------------------ perfect variant


def test_perfect_solution_of_running_example(table1):
    sol = enumerate_biclusters(table1, EnumParams(0.0, 2, 3, "chv-p"))
    assert sol.as_set() == {((0, 1), (1, 2, 3)), ((1, 2), (0, 2, 4))}


def test_identical_rows_form_one_bicluster():
    mat = np.array([[1.0, 5.0, 2.0]] * 4)
    sol = enumerate_biclusters(mat, EnumParams(0.0, 1, 2, "chv-p"))
    assert sol.as_set() == {((0, 1, 2, 3), (0, 1, 2))}


def test_perfect_needs_two_columns_minimum(table1):
    with pytest.raises(ValueError):
        enumerate_biclusters(table1, EnumParams(0.0, 1, 1, "chv-p"))


def test_perfect_transpose_symmetry():
    # size filters must be symmetric too (min_row = min_col), else the two
    # runs filter mirror-image biclusters differently
    rng = np.random.default_rng(31)
    params = EnumParams(0.0, 2, 2, "chv-p")
    for _ in range(10):
        n, m = rng.integers(2, 7, size=2)
        mat = rng.integers(0, 4, size=(n, m)).astype(float)
        direct = enumerate_biclusters(mat, params).as_set()
        swapped = {
            (c, r) for r, c in enumerate_biclusters(mat.T, params).as_set()
        }
        assert direct == swapped


def test_perfect_matches_oracle():
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 6))
        mat = rng.integers(0, 4, size=(n, m)).astype(float)
        min_row = int(rng.integers(1, 3))
        params = EnumParams(0.0, min_row, 2, "chv-p")
        found = enumerate_biclusters(mat, params)
        assert found.as_set() == oracle_enumerate(mat, params).as_set()


@pytest.mark.xfail(
    strict=True,
    reason="a constant difference to the pivot column does not make every pairwise "
    "difference constant in floating point",
)
def test_perfect_matches_oracle_on_decimal_values():
    # both differences to column 0 are equal in the two rows, but the
    # difference between columns 1 and 2 is not (-0.10000000000000003 vs -0.1)
    mat = np.array([[7, 2, 3], [5, 0, 1]]) * 0.1
    params = EnumParams(0.0, 1, 2, "chv-p")
    found = enumerate_biclusters(mat, params)
    assert found.as_set() == oracle_enumerate(mat, params).as_set()


# ----------------------------------------------------- clique-based extraction


def test_clique_candidates_of_worked_cvc_bicluster(table1):
    aug = build_augmented(table1)
    # over the pairwise-difference matrix: extent {g1,g3}, intent columns
    # {1,4,5,7,9} in 1-based labels
    e = Bicluster((0, 2), (0, 3, 4, 6, 8))
    cands = clique_candidates(e, aug, min_col=3)
    assert sorted(cands) == [
        ((0, 2), (0, 1, 4)),
        ((0, 2), (1, 2, 4)),
    ]


def test_extraction_drops_the_completable_candidate(table1):
    aug = build_augmented(table1)
    e = Bicluster((0, 2), (0, 3, 4, 6, 8))
    kept = extract_chv_from_cvc(e, aug, 1.0, 3, set())
    # ({g1,g3},{m2,m3,m5}) also admits g2, so only the row-maximal one stays
    assert kept == [((0, 2), (0, 1, 4))]


def test_single_clique_intent_kept_unconditionally():
    mat = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [9.0, 0.0, 5.0]])
    aug = build_augmented(mat)
    cvc_bic = Bicluster((0, 1), (0, 1, 2))  # all three pairs -> one triangle
    assert clique_candidates(cvc_bic, aug, min_col=2) == [((0, 1), (0, 1, 2))]


def test_small_cliques_filtered_by_min_col(table1):
    aug = build_augmented(table1)
    e = Bicluster((0, 2), (0, 3, 4, 6, 8))
    assert all(len(d) >= 4 for _, d in clique_candidates(e, aug, min_col=4))


# ------------------------------------------------------------ perturbed variant


def test_perturbed_solution_of_running_example(table1):
    sol = enumerate_biclusters(table1, EnumParams(1.0, 2, 3, "chv"))
    assert sol.as_set() == {
        ((0, 1), (1, 2, 3, 4)),
        ((0, 1, 2), (1, 2, 4)),
        ((0, 2), (0, 1, 4)),
        ((1, 2), (0, 1, 2, 4)),
    }
    # the quoted pair on rows {g1,g3} is present; its sibling candidate
    # ({g1,g3},{m2,m3,m5}) grew into the {g1,g2,g3} bicluster above
    assert ((0, 2), (0, 1, 4)) in sol.as_set()
    assert ((0, 2), (1, 2, 4)) not in sol.as_set()


def test_zero_epsilon_directed_to_perfect_variant():
    with pytest.raises(ValueError, match="chv-p"):
        EnumParams(0.0, 2, 3, "chv")


def test_one_column_matrix_has_no_chv_biclusters():
    sol = enumerate_biclusters(np.ones((3, 1)), EnumParams(1.0, 1, 2, "chv"))
    assert len(sol) == 0


def test_perturbed_matches_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 6))
        mat = rng.integers(0, 4, size=(n, m)).astype(float)
        eps = float(rng.choice([0.5, 1.0]))
        min_row = int(rng.integers(1, 3))
        params = EnumParams(eps, min_row, 2, "chv")
        found = enumerate_biclusters(mat, params)
        assert found.as_set() == oracle_enumerate(mat, params).as_set()


def test_no_duplicates_across_cvc_parents():
    rng = np.random.default_rng(43)
    for _ in range(10):
        mat = rng.integers(0, 3, size=(8, 5)).astype(float)
        sol = enumerate_biclusters(mat, EnumParams(1.0, 2, 2, "chv"))
        pairs = [(b.rows, b.cols) for b in sol.biclusters]
        assert len(set(pairs)) == len(pairs)


def test_outputs_are_valid_and_maximal():
    rng = np.random.default_rng(47)
    mat = rng.integers(0, 5, size=(9, 5)).astype(float)
    params = EnumParams(1.0, 2, 2, "chv")
    sol = enumerate_biclusters(mat, params)
    assert len(sol) > 0
    for b in sol.biclusters:
        assert is_valid(mat, b, params)
        assert is_maximal(mat, b, params)


def test_transpose_symmetry():
    rng = np.random.default_rng(53)
    for _ in range(8):
        n, m = rng.integers(2, 7, size=2)
        mat = rng.integers(0, 4, size=(n, m)).astype(float)
        params = EnumParams(1.0, 2, 2, "chv")
        direct = enumerate_biclusters(mat, params).as_set()
        swapped = {(c, r) for r, c in enumerate_biclusters(mat.T, params).as_set()}
        assert direct == swapped


def test_scale_model_equals_shift_on_logs():
    rng = np.random.default_rng(59)
    for _ in range(8):
        mat = np.exp(rng.integers(0, 3, size=(7, 4)).astype(float))
        scale = enumerate_biclusters(mat, EnumParams(1.0, 2, 2, "chv", model="scale"))
        shift = enumerate_biclusters(np.log(mat), EnumParams(1.0, 2, 2, "chv"))
        assert scale.as_set() == shift.as_set()
        scale_p = enumerate_biclusters(mat, EnumParams(0.0, 2, 2, "chv-p", model="scale"))
        shift_p = enumerate_biclusters(np.log(mat), EnumParams(0.0, 2, 2, "chv-p"))
        assert scale_p.as_set() == shift_p.as_set()


def test_half_epsilon_on_integers_equals_perfect():
    # integer entries make every residue an integer, so the 0.5 band only
    # admits exact matches
    rng = np.random.default_rng(61)
    for _ in range(10):
        mat = rng.integers(0, 5, size=(8, 5)).astype(float)
        half = enumerate_biclusters(mat, EnumParams(0.5, 2, 2, "chv"))
        perfect = enumerate_biclusters(mat, EnumParams(0.0, 2, 2, "chv-p"))
        assert half.as_set() == perfect.as_set()

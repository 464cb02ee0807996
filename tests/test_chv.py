import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rinclose import (
    ALGORITHMS,
    EnumParams,
    GenConfig,
    enumerate_biclusters,
    generate,
    is_maximal,
    is_valid,
    oracle_enumerate,
    transpose,
)
from rinclose.chv import (
    AugmentedMatrix,
    _chv,
    _pair_blocks,
    clique_candidates,
    extract_chv_from_cvc,
)
from rinclose.cvc import _cvc, _fits, _mine_cvc, _screen
from expansions import _forced
from ties import _tie_epsilons

# ------------------------------------------------------------ augmented matrix


def _all_pairs(values):
    """The augmented matrix over every pair of columns, unscreened."""
    return AugmentedMatrix(values, *np.triu_indices(values.shape[1], 1))


def _dense(aug):
    return aug[:, 0 : aug.shape[1]]


def test_augmented_matrix_of_running_example(table1, table2):
    aug = _all_pairs(table1)
    assert aug.shape == (4, 10)
    assert np.array_equal(_dense(aug), table2)
    assert list(_dense(aug)[0]) == [-1, -1, 0, -5, 0, 1, -4, 1, -4, -5]


def test_every_index_form_computes_the_pair_differences():
    # decimal values, so the differences are inexact: each form the kernel
    # and _completable read must give the bytes of values[:, j] - values[:, l]
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 30, size=(9, 6)) / 10
    aug = _all_pairs(vals)
    full = np.stack([vals[:, j] - vals[:, l] for j, l in aug.pairs], axis=1)
    rows = np.array([0, 3, 4, 8], dtype=np.intp)
    ids = np.array([1, 6, 7, 14], dtype=np.intp)
    reads = [
        (aug[:, 2:11], full[:, 2:11]),
        (aug[rows, 2:11], full[rows, 2:11]),
        (aug[rows[:, None], ids], full[rows[:, None], ids]),
        (aug[:, 9], full[:, 9]),
        (aug[rows, 9], full[rows, 9]),
    ]
    for got, want in reads:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_chv_never_holds_the_whole_augmented_matrix():
    # 300 x 100 has 4,950 pair columns, an 11.3 MiB augmented matrix; the
    # walk computes each node's pair columns a block at a time instead
    mat, _ = generate(GenConfig(n=300, m=100, num_bics=3, bic_rows=30, bic_cols=5, seed=1))
    buffer_bytes = 300 * (100 * 99 // 2) * 8
    tracemalloc.start()
    try:
        sol = enumerate_biclusters(mat, EnumParams(0.1, 30, 5, "chv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sol) > 0
    assert peak < buffer_bytes / 2, peak


def test_pair_bijection():
    aug = _all_pairs(np.zeros((1, 5)))
    assert aug.pairs == (
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 2), (1, 3), (1, 4),
        (2, 3), (2, 4),
        (3, 4),
    )


def test_augmented_rejects_overflowing_differences(monkeypatch):
    # the miner checks the differences before its screen subtracts any
    import rinclose.chv

    screened = []
    monkeypatch.setattr(rinclose.chv, "_screen", lambda *args: screened.append(args))
    with pytest.raises(ValueError, match="non-finite"):
        _chv(np.array([[1e308, -1e308]]), EnumParams(0.5, 1, 2, "chv"))
    assert screened == []


def test_both_chv_types_reject_overflowing_differences():
    # every difference to the pivot column overflows alike, so without the
    # check chv-p would cut one equal-difference group of inf values
    mat = np.array([[1e308, -1e308], [1.5e308, -1e308]])
    for params in (EnumParams(0.0, 1, 2, "chv-p"), EnumParams(0.5, 1, 2, "chv")):
        with pytest.raises(ValueError, match="non-finite"):
            enumerate_biclusters(mat, params)


def test_constant_rows_give_zero_augmented():
    mat = np.array([[3.0, 3.0, 3.0], [7.0, 7.0, 7.0]])
    assert not _dense(_all_pairs(mat)).any()


# ------------------------------------------------------------ root screen


def _kernel_matrix(bic_type, vals):
    """The matrix the walk of bic_type would run on without the screen."""
    return {"cvc": vals, "cvr": np.ascontiguousarray(vals.T), "chv": _all_pairs(vals)}[bic_type]


def _screened(bic_type, vals, eps, min_row):
    """The mask the miner's screen computes over its kernel matrix's columns."""
    if bic_type == "chv":
        return _screen(vals, eps, min_row, _pair_blocks)
    return _screen(_kernel_matrix(bic_type, vals), eps, min_row)


@st.composite
def screens(draw, bic_type):
    """A matrix, its kernel matrix for bic_type, epsilon and min_row for the
    root screen: k/10 decimals, offset by up to 1e7 or scaled from subnormal
    up to just under the float32 guard, with epsilon on an exact window
    range of a kernel column or a float neighbour of it (a range of 0 gives
    a fixed epsilon instead)."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    vals = draw(arrays(np.int64, (n, m), elements=st.integers(0, 40))) / 10
    kind = draw(st.sampled_from(["decimal", "offset", "scaled"]))
    if kind == "offset":
        vals = vals + draw(st.floats(-1e7, 1e7))
    elif kind == "scaled":
        # float32's subnormals, where its rounding error is absolute, drawn more often
        vals = vals * 10.0 ** draw(st.integers(-315, 36) | st.integers(-46, -37))
    mat = _kernel_matrix(bic_type, vals)
    col = mat[:, draw(st.integers(0, mat.shape[1] - 1))]
    if col.min() < col.max():
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        eps = draw(st.sampled_from(_tie_epsilons(col, rng)))
    else:
        eps = 0.25
    return vals, mat, eps, draw(st.integers(1, mat.shape[0]))


PERTURBED = ["cvc", "cvr", "chv"]


@pytest.mark.parametrize("bic_type", PERTURBED)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_screen_keeps_every_column_the_root_needs(bic_type, data):
    # the float64 root is every row over every column of the kernel matrix;
    # each column it absorbs or finds a window in must survive the screen
    vals, mat, eps, min_row = data.draw(screens(bic_type))
    absorb, fits, _ = _fits(mat, np.arange(mat.shape[0]), 0, eps, min_row)
    keep = _screened(bic_type, vals, eps, min_row)
    assert keep.shape == (mat.shape[1],)
    assert not (absorb | fits)[~keep].any()


def test_the_screen_keeps_the_same_columns_in_blocks_of_every_size(monkeypatch):
    # a left column's pairs are screened _BLOCK_BYTES at a time, here block
    # pairs of 30 float32 rows; ids must run on across every seam, and the
    # screen must drop columns here
    import rinclose.inclose2

    rng = np.random.default_rng(73)
    vals = 1e5 + rng.integers(0, 400, size=(30, 12)) / 10
    kept = _screen(vals, 0.3, 4, _pair_blocks)
    assert 0 < kept.sum() < len(kept) == 12 * 11 // 2
    for block in (1, 2, 5):
        monkeypatch.setattr(rinclose.inclose2, "_BLOCK_BYTES", block * 4 * 30)
        assert np.array_equal(_screen(vals, 0.3, 4, _pair_blocks), kept), block


def test_the_screen_runs_in_float64_where_float32_cannot_hold_the_values():
    # values near 1e300 overflow float32, yet their pair differences are
    # finite, and an epsilon above the guard overflows the float32
    # threshold: the screen then runs the root's own float64 test, so it
    # keeps exactly the columns the root absorbs or finds a window in, casts
    # nothing and warns nothing, and every type still finds the oracle's
    # biclusters
    rng = np.random.default_rng(71)
    big = 1e300 * (1 + rng.integers(0, 30, size=(8, 5)) / 10)
    small = rng.integers(0, 30, size=(8, 5)) / 10
    cases = [(big, eps) for eps in _tie_epsilons(big, rng)] + [(small, 1e38)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for vals, eps in cases:
            for bic_type in PERTURBED:
                mat = _kernel_matrix(bic_type, vals)
                for min_row in range(1, mat.shape[0] + 1):
                    absorb, fits, _ = _fits(mat, np.arange(mat.shape[0]), 0, eps, min_row)
                    assert np.array_equal(_screened(bic_type, vals, eps, min_row), absorb | fits)
                params = EnumParams(eps, 2, 2, bic_type)
                found = enumerate_biclusters(vals, params)
                assert len(found) > 0
                assert found.biclusters == oracle_enumerate(vals, params).biclusters


def test_the_screen_bound_holds_its_subnormal_term():
    # cells near 1e-44 are float32 subnormals, whose casts err by up to
    # 2^-150 each, far above 2^-21 of their magnitude: without the 2^-140
    # term of the bound the screen drops the one pair that holds the
    # bicluster, and the engine finds nothing where the oracle finds it
    vals = np.array([
        [1.5960205733236243e-44, 2.2068453483104528e-44],
        [9.547331682959049e-45, 2.881528080415492e-44],
        [9.123080709563933e-45, 4.851104156952118e-45],
    ])
    params = EnumParams(1.03802243024801e-44, 2, 2, "chv")
    assert _screen(vals, params.epsilon, 2, _pair_blocks).tolist() == [True]
    found = enumerate_biclusters(vals, params)
    assert [(b.rows, b.cols) for b in found.biclusters] == [((0, 2), (0, 1))]
    assert found.biclusters == oracle_enumerate(vals, params).biclusters


def test_the_screen_leaves_the_callers_array_as_it_was():
    # the screen sorts its own copy: an F-ordered input's transpose is
    # C-contiguous, so a copy only where one is needed would sort the
    # caller's cells in place; both routes, float32 and float64
    rng = np.random.default_rng(83)
    for scale in (1.0, 1e300):
        vals = np.asfortranarray(scale * rng.integers(0, 30, size=(9, 6)) / 10)
        before = vals.copy()
        for bic_type in PERTURBED:
            enumerate_biclusters(vals, EnumParams(0.25 * scale, 2, 2, bic_type))
        _screen(vals, 0.25 * scale, 2)
        assert vals.flags.f_contiguous and np.array_equal(vals, before)


@pytest.mark.parametrize("bic_type", PERTURBED)
@settings(max_examples=300, deadline=None)
@given(data=st.data(), min_col=st.integers(2, 4))
def test_walking_only_the_screened_pairs_keeps_the_output_and_adds_no_node(bic_type, data, min_col):
    # the unscreened pipeline walks every column of the kernel matrix; a
    # column the screen drops holds no window of min_row rows, so dropping
    # it may only let the min_col prune fire sooner: the same biclusters,
    # and never more nodes
    vals, mat, eps, min_row = data.draw(screens(bic_type))
    if bic_type == "chv":
        pairs, nodes = _chv(vals, EnumParams(eps, min_row, min_col, "chv"))
        full, full_nodes = _mine_cvc(mat, eps, min_row, min_col * (min_col - 1) // 2)
        want = [key for bic in full for key in extract_chv_from_cvc(bic, mat, eps, min_col)]
    elif bic_type == "cvc":
        pairs, nodes = _cvc(vals, EnumParams(eps, min_row, min_col, "cvc"))
        want, full_nodes = _mine_cvc(mat, eps, min_row, min_col)
    else:  # the transpose rule swaps the size filters and each pair
        pairs, nodes = ALGORITHMS["cvr"](vals, EnumParams(eps, min_col, min_row, "cvr"))
        full, full_nodes = _mine_cvc(mat, eps, min_row, min_col)
        want = [(cols, rows) for rows, cols in full]
    assert sorted(pairs) == sorted(want)
    assert nodes <= full_nodes


def test_chv_with_fewer_rows_than_min_row_matches_the_oracle():
    # no pair can hold a window of min_row rows, so the screen keeps none
    rng = np.random.default_rng(79)
    mat = rng.integers(0, 30, size=(3, 5)) / 10
    params = EnumParams(0.5, 4, 2, "chv")
    assert not _screen(mat, params.epsilon, params.min_row, _pair_blocks).any()
    found = enumerate_biclusters(mat, params)
    assert found.biclusters == oracle_enumerate(mat, params).biclusters == ()


def test_chv_where_no_pair_holds_a_window_matches_the_oracle():
    # row i is (3i + 1)^2, (3i + 2)^2, (3i + 3)^2: each pair difference moves
    # by 6 or more from row to row, so no two rows are within epsilon on a pair
    mat = (np.arange(18.0).reshape(6, 3) + 1) ** 2
    for eps in (1.0, 5.5):
        params = EnumParams(eps, 2, 2, "chv")
        assert not _screen(mat, eps, 2, _pair_blocks).any()
        found = enumerate_biclusters(mat, params)
        assert found.biclusters == oracle_enumerate(mat, params).biclusters == ()


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
    aug = _all_pairs(table1)
    # over the pairwise-difference matrix: extent {g1,g3}, intent columns
    # {1,4,5,7,9} in 1-based labels
    e = ((0, 2), (0, 3, 4, 6, 8))
    cands = clique_candidates(e, aug, min_col=3)
    assert sorted(cands) == [
        ((0, 2), (0, 1, 4)),
        ((0, 2), (1, 2, 4)),
    ]


def test_extraction_drops_the_completable_candidate(table1):
    aug = _all_pairs(table1)
    e = ((0, 2), (0, 3, 4, 6, 8))
    kept = extract_chv_from_cvc(e, aug, 1.0, 3)
    # ({g1,g3},{m2,m3,m5}) also admits g2, so only the row-maximal one stays
    assert kept == [((0, 2), (0, 1, 4))]


def test_single_clique_intent_kept_unconditionally():
    mat = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [9.0, 0.0, 5.0]])
    aug = _all_pairs(mat)
    cvc_bic = ((0, 1), (0, 1, 2))  # all three pairs -> one triangle
    assert clique_candidates(cvc_bic, aug, min_col=2) == [((0, 1), (0, 1, 2))]


def test_small_cliques_filtered_by_min_col(table1):
    aug = _all_pairs(table1)
    e = ((0, 2), (0, 3, 4, 6, 8))
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
    # extraction keeps every candidate that is row-maximal and drops no
    # repeat, so the output is duplicate-free only because the walk's
    # extents are distinct: check both, in either expansion of the walk, on
    # integers and on k/10 decimals at epsilons that sit on their inexact
    # differences
    import rinclose.chv

    rng = np.random.default_rng(43)
    cases = [(rng.integers(0, 3, size=(8, 5)).astype(float), 1.0) for _ in range(10)]
    for _ in range(6):
        mat = rng.integers(0, 30, size=(8, 5)) / 10
        cases += [(mat, eps) for eps in _tie_epsilons(mat, rng)]
    for expansion in ("sort", "mask"):
        walks = []
        with pytest.MonkeyPatch.context() as mp, _forced(mp, expansion):
            walk = rinclose.chv._mine_cvc

            def recording(*args):
                pairs, nodes = walk(*args)
                walks.append([rows for rows, _ in pairs])
                return pairs, nodes

            mp.setattr(rinclose.chv, "_mine_cvc", recording)
            for mat, eps in cases:
                sol = enumerate_biclusters(mat, EnumParams(eps, 2, 2, "chv"))
                pairs = [(b.rows, b.cols) for b in sol.biclusters]
                assert len(set(pairs)) == len(pairs)
        assert len(walks) == len(cases), expansion
        assert all(len(set(extents)) == len(extents) for extents in walks), expansion


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

"""Metamorphic properties of the perfect types, at sizes the oracle cannot check.

The oracle is limited to 16x10 inputs; on 60x12 integer matrices these
properties tie the output of one run to the output of another instead.
Integer entries keep every shift exact.
"""

import numpy as np

from rinclose import EnumParams, enumerate_biclusters

SHAPE = (60, 12)
# bic type -> (min_row, min_col)
PERFECT = {"cvc-p": (3, 2), "cvr-p": (2, 3), "chv-p": (3, 3)}


def _ints(seed):
    return np.random.default_rng(seed).integers(0, 3, size=SHAPE).astype(float)


def _solve(values, bic_type, min_row=None, min_col=None):
    dr, dc = PERFECT[bic_type]
    params = EnumParams(0.0, min_row or dr, min_col or dc, bic_type)
    found = enumerate_biclusters(values, params).as_set()
    assert found  # a property of an empty solution would show nothing
    return found


def test_permuting_rows_and_columns_permutes_the_solution():
    for seed in range(3):
        values = _ints(seed)
        rng = np.random.default_rng(100 + seed)
        rp, cp = rng.permutation(SHAPE[0]), rng.permutation(SHAPE[1])
        for bic_type in PERFECT:
            moved = _solve(values[np.ix_(rp, cp)], bic_type)
            # row i of the permuted matrix is row rp[i] of the original
            back = {
                (tuple(sorted(rp[list(rows)].tolist())), tuple(sorted(cp[list(cols)].tolist())))
                for rows, cols in moved
            }
            assert back == _solve(values, bic_type), (seed, bic_type)


def test_cvr_p_is_cvc_p_of_the_transpose_swapped():
    for seed in range(3):
        values = _ints(seed)
        min_row, min_col = PERFECT["cvr-p"]
        by_transpose = _solve(values.T, "cvc-p", min_col, min_row)
        assert _solve(values, "cvr-p") == {(cols, rows) for rows, cols in by_transpose}


def test_adding_an_integer_to_a_column_leaves_cvc_p_unchanged():
    for seed in range(3):
        values = _ints(seed)
        shift = np.random.default_rng(200 + seed).integers(-50, 50, size=SHAPE[1])
        assert _solve(values + shift[None, :], "cvc-p") == _solve(values, "cvc-p")


def test_adding_an_integer_to_a_row_leaves_chv_p_unchanged():
    for seed in range(3):
        values = _ints(seed)
        shift = np.random.default_rng(300 + seed).integers(-50, 50, size=SHAPE[0])
        assert _solve(values + shift[:, None], "chv-p") == _solve(values, "chv-p")

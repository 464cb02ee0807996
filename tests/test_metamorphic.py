"""Metamorphic properties of the numeric types, at sizes the oracle cannot check.

The oracle is limited to 16x10 inputs; on 60x12 matrices these properties
tie the output of one run to the output of another instead.  The perfect
types run on integer matrices and the perturbed types on dyadic ones (k/4)
with epsilon one quarter, an actual difference of two entries, so ties at
exactly epsilon occur.  Integer and dyadic shifts keep every difference
exact, and scaling by a power of two scales every difference exactly.
"""

import numpy as np

from rinclose import EnumParams, enumerate_biclusters

SHAPE = (60, 12)
EPS = 0.25
# bic type -> (min_row, min_col)
PERFECT = {"cvc-p": (3, 2), "cvr-p": (2, 3), "chv-p": (3, 3)}
PERTURBED = {"cvc": (4, 3), "cvr": (2, 3), "chv": (5, 3)}


def _ints(seed):
    return np.random.default_rng(seed).integers(0, 3, size=SHAPE).astype(float)


def _dyadic(seed):
    return np.random.default_rng(seed).integers(0, 12, size=SHAPE) / 4


def _cases():
    """(seed, values, bic type) for every numeric type, on its matrices."""
    for seed in range(3):
        for bic_type in PERFECT:
            yield seed, _ints(seed), bic_type
        if seed < 2:
            for bic_type in PERTURBED:
                yield seed, _dyadic(seed), bic_type


def _solve(values, bic_type, min_row=None, min_col=None, eps_scale=1.0):
    dr, dc = {**PERFECT, **PERTURBED}[bic_type]
    eps = EPS * eps_scale if bic_type in PERTURBED else 0.0
    params = EnumParams(eps, min_row or dr, min_col or dc, bic_type)
    found = enumerate_biclusters(values, params).as_set()
    assert found  # a property of an empty solution would show nothing
    return found


def test_permuting_rows_and_columns_permutes_the_solution():
    for seed, values, bic_type in _cases():
        rng = np.random.default_rng(100 + seed)
        rp, cp = rng.permutation(SHAPE[0]), rng.permutation(SHAPE[1])
        moved = _solve(values[np.ix_(rp, cp)], bic_type)
        # row i of the permuted matrix is row rp[i] of the original
        back = {
            (tuple(sorted(rp[list(rows)].tolist())), tuple(sorted(cp[list(cols)].tolist())))
            for rows, cols in moved
        }
        assert back == _solve(values, bic_type), (seed, bic_type)


def test_scaling_by_a_power_of_two_with_epsilon_leaves_every_type_unchanged():
    for seed, values, bic_type in _cases():
        found = _solve(values, bic_type)
        for e in (-3, 5):
            scaled = _solve(values * 2.0**e, bic_type, eps_scale=2.0**e)
            assert scaled == found, (seed, bic_type, e)


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


def test_adding_a_dyadic_constant_to_a_column_leaves_cvc_unchanged():
    for seed in range(2):
        values = _dyadic(seed)
        shift = np.random.default_rng(400 + seed).integers(-200, 200, size=SHAPE[1]) / 4
        assert _solve(values + shift[None, :], "cvc") == _solve(values, "cvc")


def test_adding_a_dyadic_constant_to_a_row_leaves_chv_unchanged():
    for seed in range(2):
        values = _dyadic(seed)
        shift = np.random.default_rng(500 + seed).integers(-200, 200, size=SHAPE[0]) / 4
        assert _solve(values + shift[:, None], "chv") == _solve(values, "chv")

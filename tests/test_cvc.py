import numpy as np
import pytest

from rinclose import (
    Bicluster,
    EnumParams,
    enumerate_biclusters,
    is_maximal,
    is_valid,
    oracle_enumerate,
)
from rinclose.cvc import (
    _canonical_fast,
    _joinable_mask,
    _mine_cvc,
    _window_ends,
    _window_starts,
)

# ---------------------------------------------------------------- windows


def _windows(rows, eps):
    """Maximal eps-windows of (row-id, value) pairs, cut the way the kernel cuts them."""
    pairs = sorted(rows, key=lambda rv: (rv[1], rv[0]))
    ids = [r for r, _ in pairs]
    ends = _window_ends(np.array([v for _, v in pairs], dtype=np.float64), eps)
    return [sorted(ids[p : ends[p]]) for p in _window_starts(ends)]


def test_windows_all_equal_values():
    rows = [(0, 3.0), (1, 3.0), (2, 3.0)]
    assert _windows(rows, 0.0) == [[0, 1, 2]]


def test_windows_spread_values_become_singletons():
    rows = [(0, 0.0), (1, 2.0), (2, 4.0)]
    assert _windows(rows, 1.0) == [[0], [1], [2]]


def test_windows_on_pairwise_difference_column():
    # first pairwise-difference column of the running example: -1, 1, 0, -1
    rows = [(0, -1.0), (1, 1.0), (2, 0.0), (3, -1.0)]
    assert _windows(rows, 1.0) == [[0, 2, 3], [1, 2]]


def test_windows_zero_epsilon_groups_equal_values():
    rows = [(0, 1.0), (1, 2.0), (2, 1.0), (3, 2.0), (4, 9.0)]
    assert _windows(rows, 0.0) == [[0, 2], [1, 3], [4]]


def test_windows_are_never_duplicated():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        vals = rng.integers(0, 5, size=n).astype(float)
        eps = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        wins = _windows(list(enumerate(vals)), eps)
        keys = [tuple(w) for w in wins]
        assert len(set(keys)) == len(keys)
        # each window is valid and cannot be grown to another returned window
        for w in wins:
            assert vals[w].max() - vals[w].min() <= eps
        for a in keys:
            assert not any(set(a) < set(b) for b in keys)


# ---------------------------------------------------------------- canonicity


def _canonical(values, rw, b, j, eps):
    return _canonical_fast(np.asarray(values, dtype=float), np.asarray(rw, dtype=np.intp),
                           set(b), j, eps)


def test_canonical_no_earlier_attributes():
    assert _canonical([[5.0]], [0], [], 0, 0.0)


def test_canonical_on_running_example(table1):
    # no column before m5 is constant on g1,g2,g3
    assert _canonical(table1, [0, 1, 2], [], 4, 0.0)
    # but m1 is constant on g2,g3, so that extent belongs to an earlier subtree
    assert not _canonical(table1, [1, 2], [2], 4, 0.0)


def test_canonical_ignores_intent_columns(table1):
    assert _canonical(table1, [1, 2], [0, 1, 2, 3], 4, 1.0)


# ---------------------------------------------------------------- check set


@pytest.fixture
def rm_checks(monkeypatch):
    """Record (child extent, check set RM) at every row-maximality test of the kernel."""
    import rinclose.cvc

    calls = []

    def recording(values, extent, cols, cand_rows, eps):
        calls.append((extent.tolist(), cand_rows.tolist()))
        return _joinable_mask(values, extent, cols, cand_rows, eps)

    monkeypatch.setattr(rinclose.cvc, "_joinable_mask", recording)
    return calls


def test_rm_band_keeps_reachable_rows_only(rm_checks):
    # ten rows a..j by value; the window d..i has pivots 3 and 5 at min_row 2,
    # so RM holds a, b, c (>= 0) and j (<= 8), nothing else
    col = np.array([[0.0], [1.0], [1.0], [2.0], [3.0], [4.0], [5.0], [5.0], [5.0], [8.0]])
    _mine_cvc(col, 3.0, 2, 1)
    assert ([3, 4, 5, 6, 7, 8], [0, 1, 2, 9]) in rm_checks


def test_rm_whole_window_is_empty(rm_checks):
    # a window covering the whole extent is absorbed, never branched on
    pairs, _ = _mine_cvc(np.array([[1.0], [2.0], [3.0]]), 10.0, 1, 1)
    assert pairs == [((0, 1, 2), (0,))]
    assert rm_checks == []


def test_rm_distinct_values_zero_epsilon(rm_checks):
    # at epsilon 0 the windows are disjoint value groups: no row is ever checked
    pairs, _ = _mine_cvc(np.array([[5.0], [5.0], [1.0], [9.0]]), 0.0, 1, 1)
    assert sorted(pairs) == [((0, 1), (0,)), ((2,), (0,)), ((3,), (0,))]
    assert rm_checks == []


def test_rm_window_shorter_than_min_row(rm_checks):
    # windows shorter than min_row are dropped before any RM is built
    pairs, _ = _mine_cvc(np.array([[1.0], [2.0], [3.0]]), 0.5, 2, 1)
    assert pairs == []
    assert rm_checks == []


def test_row_maximal_empty_check_set(table1):
    none = np.empty(0, dtype=np.intp)
    assert not _joinable_mask(table1, np.array([0]), [0], none, 0.0).any()


def test_row_maximal_on_running_example(table1):
    g1g2, g3 = np.array([0, 1]), np.array([2])
    # g3 also has 6 in column m5, so {g1,g2} is completable
    assert _joinable_mask(table1, g1g2, [4], g3, 0.0).any()
    # g3's m4 entry (7) is out of reach of values {0,1} at epsilon 1
    assert not _joinable_mask(table1, g1g2, [3], g3, 1.0).any()


# ---------------------------------------------------------------- enumeration


def test_perfect_solution_of_running_example(table1):
    sol = enumerate_biclusters(table1, EnumParams(0.0, 2, 1, "cvc-p"))
    assert sol.as_set() == {
        ((0, 1, 2), (4,)),
        ((0, 2), (1, 4)),
        ((0, 3), (2,)),
        ((1, 2), (0, 2, 4)),
    }


def test_huge_epsilon_returns_whole_matrix(table1):
    n, m = table1.shape
    sol = enumerate_biclusters(table1, EnumParams(100.0, n, m, "cvc"))
    assert sol.as_set() == {(tuple(range(n)), tuple(range(m)))}


def test_pairwise_difference_matrix_mining(table2):
    sol = enumerate_biclusters(table2, EnumParams(1.0, 2, 1, "cvc"))
    match = [b for b in sol.biclusters if b.rows == (0, 2) and 8 in b.cols]
    assert match, "expected a bicluster on rows {g1,g3} whose intent includes column 9"


def test_cvr_is_cvc_of_the_transpose(table1):
    p_cvr = EnumParams(1.0, 2, 2, "cvr")
    p_cvc = EnumParams(1.0, 2, 2, "cvc")
    by_transpose = {
        (b.cols, b.rows) for b in enumerate_biclusters(table1.T, p_cvc).biclusters
    }
    assert enumerate_biclusters(table1, p_cvr).as_set() == by_transpose


def test_single_column_matrix():
    mat = np.array([[1.0], [1.5], [4.0], [1.2]])
    sol = enumerate_biclusters(mat, EnumParams(0.5, 1, 1, "cvc"))
    assert sol.as_set() == {((0, 1, 3), (0,)), ((2,), (0,))}


def test_perfect_equals_perturbed_at_zero_epsilon():
    # on integers an epsilon of 0.5 admits only equal values, so the walk
    # with registry and RM switched on must find what the epsilon-0 walk finds
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, m = rng.integers(2, 9, size=2)
        vals = rng.integers(0, 4, size=(n, m)).astype(float)
        a, _ = _mine_cvc(vals, 0.0, 1, 1)
        b, _ = _mine_cvc(vals, 0.5, 1, 1)
        assert set(a) == set(b)


def test_matches_oracle_small_matrices():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 7))
        vals = rng.integers(0, 5, size=(n, m)).astype(float)
        eps = float(rng.choice([0.0, 0.5, 1.0]))
        min_row = int(rng.integers(1, 4))
        bt = "cvc-p" if eps == 0.0 else "cvc"
        params = EnumParams(eps, min_row, 1, bt)
        found = enumerate_biclusters(vals, params)
        expected = oracle_enumerate(vals, params)
        assert found.as_set() == expected.as_set(), f"trial {trial}"


def test_cvr_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 8))
        vals = rng.integers(0, 4, size=(n, m)).astype(float)
        params = EnumParams(1.0, 1, 1, "cvr")
        found = enumerate_biclusters(vals, params)
        expected = oracle_enumerate(vals, params)
        assert found.as_set() == expected.as_set()


def test_outputs_are_valid_and_maximal():
    rng = np.random.default_rng(29)
    vals = rng.integers(0, 6, size=(12, 6)).astype(float)
    params = EnumParams(1.0, 2, 1, "cvc")
    sol = enumerate_biclusters(vals, params)
    assert len(sol) > 0
    for b in sol.biclusters:
        assert is_valid(vals, b, params)
        assert is_maximal(vals, b, params)


# Both duplicate suppression and the row-maximality check earn their keep:
# switching either one off must only ever add junk (repeats or dominated
# pairs), never remove a genuine bicluster.


def test_registry_off_yields_only_duplicates():
    vals = np.random.default_rng(0).integers(0, 6, size=(10, 5)).astype(float)
    base, _ = _mine_cvc(vals, 1.0, 1, 1)
    raw, _ = _mine_cvc(vals, 1.0, 1, 1, use_registry=False)
    assert len(set(base)) == len(base)
    assert len(set(raw)) < len(raw)  # there really were repeats to suppress
    assert set(raw) == set(base)


def test_rm_off_leaks_only_dominated_pairs():
    vals = np.random.default_rng(0).integers(0, 6, size=(10, 5)).astype(float)
    params = EnumParams(1.0, 1, 1, "cvc")
    base, _ = _mine_cvc(vals, 1.0, 1, 1)
    leaky, _ = _mine_cvc(vals, 1.0, 1, 1, use_rm=False)
    extras = set(leaky) - set(base)
    assert set(base) <= set(leaky)
    assert extras  # the check set really pruned something
    for rows, cols in extras:
        b = Bicluster(rows, cols)
        assert is_valid(vals, b, params)
        assert not is_maximal(vals, b, params)


def test_node_counter_counts_closures(table1):
    sol = enumerate_biclusters(table1, EnumParams(0.0, 2, 1, "cvc-p"))
    assert sol.stats.nodes_expanded >= len(sol)
    assert sol.stats.elapsed_s >= 0.0

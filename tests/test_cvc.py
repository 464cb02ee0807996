import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rinclose import (
    Bicluster,
    EnumParams,
    enumerate_biclusters,
    is_maximal,
    is_valid,
    oracle_enumerate,
)
from rinclose.chv import AugmentedMatrix
from rinclose.cvc import (
    _canonical_fast,
    _completable,
    _cvc,
    _fits,
    _mine_cvc,
    _screen,
)
from rinclose.io import solution_to_json
from expansions import _expansions, _forced
from ties import _tie_epsilons


def _augmented(values):
    """The whole augmented matrix of chv, read densely."""
    aug = AugmentedMatrix(values, *np.triu_indices(values.shape[1], 1))
    return aug[:, 0 : aug.shape[1]]


# ---------------------------------------------------------------- windows


def _listed(a, absorb, fits, windows):
    """_fits' verdicts from column 0 as each column's maximal eps-windows over the
    extent a: an absorbed column holds one, the whole extent (if it has min_row
    rows), a cut column those _fits lists, and a column that does not fit none."""
    # only cut columns list windows
    assert set(windows) <= set(np.flatnonzero(fits & ~absorb).tolist())
    out = {}
    for j, (full, fit) in enumerate(zip(absorb.tolist(), fits.tolist())):
        out[j] = [a] if full and fit else windows.get(j, [])
        assert out[j] or not fit, j  # a cut column holds a window
    return out


def _cut_windows(values, a, eps, min_row):
    """Per column, its windows over a as one _fits call lists them."""
    out = _listed(a, *_fits(values, a, 0, eps, min_row))
    return [out[j] for j in range(values.shape[1])]


def _window_rows(rows, eps):
    """Maximal eps-windows of (row-id, value) pairs, cut the way the kernel cuts them."""
    ids = np.array([r for r, _ in rows], dtype=np.intp)
    values = np.zeros((ids.max() + 1, 1))
    values[ids, 0] = [v for _, v in rows]
    return [w.tolist() for w in _cut_windows(values, ids, eps, 1)[0]]


def test_windows_all_equal_values():
    rows = [(0, 3.0), (1, 3.0), (2, 3.0)]
    assert _window_rows(rows, 0.0) == [[0, 1, 2]]


def test_windows_spread_values_become_singletons():
    rows = [(0, 0.0), (1, 2.0), (2, 4.0)]
    assert _window_rows(rows, 1.0) == [[0], [1], [2]]


def test_windows_on_pairwise_difference_column():
    # first pairwise-difference column of the running example: -1, 1, 0, -1
    rows = [(0, -1.0), (1, 1.0), (2, 0.0), (3, -1.0)]
    assert _window_rows(rows, 1.0) == [[0, 2, 3], [1, 2]]


def test_windows_zero_epsilon_groups_equal_values():
    rows = [(0, 1.0), (1, 2.0), (2, 1.0), (3, 2.0), (4, 9.0)]
    assert _window_rows(rows, 0.0) == [[0, 2], [1, 3], [4]]


def test_windows_are_never_duplicated():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        vals = rng.integers(0, 5, size=n).astype(float)
        eps = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        wins = _window_rows(list(enumerate(vals)), eps)
        keys = [tuple(w) for w in wins]
        assert len(set(keys)) == len(keys)
        # each window is valid and cannot be grown to another returned window
        for w in wins:
            assert vals[w].max() - vals[w].min() <= eps
        for a in keys:
            assert not any(set(a) < set(b) for b in keys)


def _scanned_windows(sv, eps):
    """Maximal eps-windows of sorted sv, listed by brute force: each start's
    end found by scanning, kept when it reaches past its predecessor's."""
    out, last = [], 0
    for p in range(len(sv)):
        e = p
        while e < len(sv) and sv[e] - sv[p] <= eps:
            e += 1
        if e > last:
            out.append((p, e))
        last = e
    return out


def _brute_windows(values, rows, j, eps, min_row):
    """Row sets of the maximal eps-windows of column j over rows, of min_row rows or more,
    by the brute-force scan of the column sorted by (value, row)."""
    vals = np.asarray(values[rows, j], dtype=float)
    order = np.lexsort((rows, vals))
    return [sorted(rows[order[p:e]].tolist()) for p, e in _scanned_windows(vals[order], eps)
            if e - p >= min_row]


def test_fits_agrees_with_the_windows_at_ties():
    # decimal columns, so differences are inexact and epsilon sits on them;
    # more columns than one sort block, so the block seams are crossed too
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        cols = np.sort(rng.integers(0, 30, size=(n, 300)) / 10, axis=0)
        a = np.arange(n)
        for eps in _tie_epsilons(cols[:, 0], rng) if n > 1 else (0.1,):
            scanned = [_scanned_windows(cols[:, j], eps) for j in range(cols.shape[1])]
            for min_row in range(1, n + 1):
                wide = [[(p, e) for p, e in w if e - p >= min_row] for w in scanned]
                # the rows are read in random order: row r of block is row
                # perm[r] of the sorted columns, where window p:e holds rows p..e-1
                perm = rng.permutation(n)
                block = cols[perm]
                absorb, fits, windows = _fits(block, a, 0, eps, min_row)
                assert len(absorb) == len(fits) == 300
                assert (absorb == (block.max(axis=0) - block.min(axis=0) <= eps)).all()
                assert (fits == np.array([bool(w) for w in wide])).all(), (eps, min_row)
                listed = _listed(a, absorb, fits, windows)
                for j, got in listed.items():
                    assert [sorted(perm[w].tolist()) for w in got] == [
                        list(range(p, e)) for p, e in wide[j]], (eps, min_row, j)
            # fewer rows than min_row: no column holds a window
            absorb, fits, windows = _fits(cols, a, 0, eps, n + 1)
            assert not fits.any()
            assert windows == {}


def test_windows_do_not_depend_on_the_order_of_tied_rows():
    # no maximal window splits a run of tied values (signed zeros included),
    # so whatever order the unstable sort leaves tied rows in, and it
    # depends on the order the rows are read in, every window's row set is
    # the one the row-ordered sort of _window_rows cuts
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 15))
        vals = rng.integers(-3, 4, size=n).astype(float)
        vals[vals == 0] *= rng.choice([-1.0, 1.0], size=int((vals == 0).sum()))
        if vals.min() == vals.max():
            continue
        for eps in _tie_epsilons(vals, rng):
            wide = _window_rows(list(enumerate(vals)), eps)
            for min_row in (1, 2, 3):
                rows = rng.permutation(n)  # ties read in random order
                got = _cut_windows(vals[rows, None], np.arange(n), eps, min_row)[0]
                assert [sorted(rows[w].tolist()) for w in got] == [w for w in wide if len(w) >= min_row], (
                    vals, eps, min_row)


@pytest.mark.parametrize("block", [1, 3, 256])
def test_cut_equals_the_brute_force_windows_of_every_column(monkeypatch, block):
    # columns that hold no window, one, or several, sorted in blocks of
    # every size (a budget of block columns over all rows, so more over a
    # subset), read from a row subset, from the root and from an augmented
    # matrix; each column read is judged by its verdict against the
    # brute-force scan
    import rinclose.inclose2

    rng = np.random.default_rng(67)
    counts = set()
    for _ in range(30):
        n = int(rng.integers(3, 14))
        monkeypatch.setattr(rinclose.inclose2, "_BLOCK_BYTES", 8 * n * block)
        narrow = rng.integers(0, 6, size=(n, 4)) / 10  # many windows
        wide = rng.integers(0, 300, size=(n, 3)) / 10  # few or none
        flat = np.full((n, 1), 0.7)  # one window, the whole extent
        values = np.hstack((narrow, wide, flat))[:, rng.permutation(8)]
        sources = [values, AugmentedMatrix(values, *np.triu_indices(8, 1))]
        for eps in _tie_epsilons(narrow, rng):
            for min_row in (1, 2, 3):
                for mat in sources:
                    y = int(rng.integers(mat.shape[1]))  # the first column read
                    subset = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
                    for a in (np.arange(n), subset):
                        # an extent of every row is the root's: it reads slice(None)
                        absorb, fits, windows = _fits(mat, a, y, eps, min_row)
                        assert len(absorb) == len(fits) == mat.shape[1] - y
                        read = y + np.arange(len(absorb))  # the ids read, from y on
                        assert set(windows) == set(read[fits & ~absorb].tolist())
                        for j, full, fit in zip(read.tolist(), absorb, fits):
                            got = windows.get(j, [])
                            brute = _brute_windows(mat, a, j, eps, min_row)
                            if full:  # absorbed: the one window is the whole extent
                                assert got == [] and fit == (len(a) >= min_row)
                                assert brute == ([a.tolist()] if fit else [])
                            elif fit:  # cut: the listed windows are the brute-force ones
                                assert all(w.dtype == np.intp for w in got)
                                assert [w.tolist() for w in got] == brute
                            else:  # neither: no window of min_row rows
                                assert got == [] and brute == []
                            counts.add(min(len(brute), 2))
    assert counts == {0, 1, 2}, counts


def test_the_cut_holds_one_block_and_its_size_changes_nothing(monkeypatch):
    # every blocked loop reads at most _BLOCK_BYTES at a time, or one column
    # where one column is more: a node's _fits sorts and cuts its columns in
    # such blocks, the sort expansion's canonicity test reads its columns
    # < j in them, and chv's screen computes its pair columns in them.  On
    # chv the root of this 20x26 matrix reads the 261 of its 325 pair
    # columns that the screen keeps, so every budget below but the default
    # leaves a seam there.  No read may hold more than one block, and node
    # counts and output bytes must depend neither on the budget nor on the
    # expansion: the mask walk's root reads in the same blocks
    import rinclose.chv
    import rinclose.cvc
    import rinclose.inclose2

    reads, fitted, inside, screened = [], [], [], []
    mine, fits, canonical = rinclose.cvc._mine_cvc, rinclose.cvc._fits, rinclose.cvc._canonical_fast
    pair_blocks = rinclose.chv._pair_blocks

    class Recorded:
        """The kernel's matrix, recording the reader, width and bytes of every
        read _fits and _canonical_fast make."""

        def __init__(self, inner):
            self.inner, self.shape = inner, inner.shape

        def __getitem__(self, key):
            out = self.inner[key]
            if inside:
                reads.append((inside[-1], out.shape[1], out.nbytes))
            return out

    def recorded_mine(values, *args):
        return mine(Recorded(values), *args)

    def reader(name, f):
        def read(*args):
            inside.append(name)
            try:
                return f(*args)
            finally:
                inside.pop()

        return read

    def counted_fits(values, a, y, eps, min_row):
        fitted.append(values.shape[1] - y)
        return reader("fits", fits)(values, a, y, eps, min_row)

    def recorded_blocks(t):
        for s in pair_blocks(t):
            screened.append((len(s), s.nbytes))
            yield s

    for module in (rinclose.cvc, rinclose.chv):
        monkeypatch.setattr(module, "_mine_cvc", recorded_mine)
    monkeypatch.setattr(rinclose.cvc, "_fits", counted_fits)
    monkeypatch.setattr(rinclose.cvc, "_canonical_fast", reader("canonical", canonical))
    monkeypatch.setattr(rinclose.chv, "_pair_blocks", recorded_blocks)
    rng = np.random.default_rng(0)
    cases = [(rng.integers(0, 30, size=(60, 20)) / 10, EnumParams(0.4, 5, 2, "cvc")),
             (rng.integers(0, 6, size=(20, 26)).astype(float), EnumParams(1.0, 7, 3, "chv"))]
    for values, params in cases:
        runs = set()
        n = len(values)
        for budget in (1, 8 * n * 7, 1 << 22, 24 * n):
            for expansion in ("sort", "mask"):
                with pytest.MonkeyPatch.context() as mp, _forced(mp, expansion):
                    mp.setattr(rinclose.inclose2, "_BLOCK_BYTES", budget)
                    reads.clear()
                    fitted.clear()
                    screened.clear()
                    sol = enumerate_biclusters(values, params)
                runs.add((sol.stats.nodes_expanded, solution_to_json(sol)))
                assert reads and all(w == 1 or size <= budget for _, w, size in reads), (params.bic_type, budget)
                assert all(k == 1 or size <= budget for k, size in screened), (params.bic_type, budget)
                assert bool(screened) == (params.bic_type == "chv")
                assert sum(w for name, w, _ in reads if name == "fits") >= sum(fitted)
                assert (len(fitted) > 1) == (expansion == "sort")  # the mask walk sorts at its root only
                if expansion == "sort":
                    assert any(name == "canonical" for name, _, _ in reads), params.bic_type
        assert len(runs) == 1, params.bic_type
        assert len(sol) > 0
    assert max(fitted) > 256, max(fitted)


# ---------------------------------------------------------------- canonicity


def _canonical(values, rw, b, j, eps):
    return _canonical_fast(np.asarray(values, dtype=float), np.asarray(rw, dtype=np.intp),
                           sum(1 << k for k in b), j, eps)


def test_canonical_no_earlier_attributes():
    assert _canonical([[5.0]], [0], [], 0, 0.0)


def test_canonical_on_running_example(table1):
    # no column before m5 is constant on g1,g2,g3
    assert _canonical(table1, [0, 1, 2], [], 4, 0.0)
    # but m1 is constant on g2,g3, so that extent belongs to an earlier subtree
    assert not _canonical(table1, [1, 2], [2], 4, 0.0)


def test_canonical_ignores_intent_columns(table1):
    assert _canonical(table1, [1, 2], [0, 1, 2, 3], 4, 1.0)


def test_canonical_on_live_columns_equals_the_full_scan(monkeypatch):
    # the kernel's matrix holds only the live columns, those the screen
    # keeps, and a child's canonicity test in the sort expansion reads its
    # columns < j _BLOCK_BYTES at a time; on every call, the full scan over
    # all columns < j (the rule: no column outside the intent has range <=
    # eps over the child) must give the same verdict.  Decimal values with
    # epsilon on a difference and its float neighbours, through cvc, cvr
    # (the transpose) and chv (the augmented matrix), read in blocks of 3
    # columns over all n rows (so 3 or more over a child) and of 4 MiB
    import rinclose.cvc
    import rinclose.inclose2

    scan = rinclose.cvc._canonical_fast
    seams = []  # whether a test read more than one block

    def checked(values, rw, b, j, eps):
        full = all(b >> c & 1 or values[rw, c].max() - values[rw, c].min() > eps for c in range(j))
        verdict = scan(values, rw, b, j, eps)
        assert verdict == full, (values, rw.tolist(), b, j, eps)
        seams.append(8 * len(rw) * j > rinclose.inclose2._BLOCK_BYTES)
        return verdict

    monkeypatch.setattr(rinclose.cvc, "_canonical_fast", checked)
    monkeypatch.setattr(rinclose.cvc, "_WINDOWS", -1)  # the sort expansion, the one that reads values
    rng = np.random.default_rng(59)
    for i in range(16):
        n, m = int(rng.integers(6, 11)), int(rng.integers(6, 15))
        monkeypatch.setattr(rinclose.inclose2, "_BLOCK_BYTES", (8 * 3 * n, 1 << 22)[i % 2])
        # a few narrow columns among wide ones: windows form in the narrow
        # columns only, and epsilon is a difference there, so the screen
        # keeps few columns of each kernel matrix
        narrow = rng.random(m) < 0.2
        narrow[int(rng.integers(m))] = True
        vals = rng.integers(0, np.where(narrow, 30, 1000), size=(n, m)) / 10
        for bt in ("cvc", "cvr", "chv"):
            ties = vals[:, narrow]
            if bt == "chv" and narrow.sum() > 1:
                ties = _augmented(ties)
            for eps in _tie_epsilons(ties, rng):
                for min_row in (2, 3, 5):
                    params = (EnumParams(eps, 1, min_row, bt) if bt == "cvr"
                              else EnumParams(eps, min_row, 1 + 2 * (bt == "chv"), bt))
                    enumerate_biclusters(vals, params)
    assert any(seams) and not all(seams)


# ---------------------------------------------------------------- row maximality


@pytest.fixture
def rm_checks(monkeypatch):
    """Record (child extent, intent columns, verdict) at every row-maximality test of the kernel."""
    import rinclose.cvc

    calls = []

    def recording(values, rows, cols, eps):
        cols = list(cols)
        hit = _completable(values, rows, cols, eps)
        calls.append((rows.tolist(), cols, hit))
        return hit

    monkeypatch.setattr(rinclose.cvc, "_completable", recording)
    with _forced(monkeypatch, "sort"):  # the expansion that calls it
        yield calls


def test_rm_whole_window_is_empty(rm_checks):
    # a window covering the whole extent is absorbed, never branched on
    pairs, _ = _mine_cvc(np.array([[1.0], [2.0], [3.0]]), 10.0, 1, 1)
    assert pairs == [((0, 1, 2), (0,))]
    assert rm_checks == []


def test_rm_distinct_values_zero_epsilon(rm_checks):
    # at epsilon 0 the windows are disjoint value groups: the test runs on
    # every child, and no outside row ever joins one
    pairs, _ = _mine_cvc(np.array([[5.0], [5.0], [1.0], [9.0]]), 0.0, 1, 1)
    assert sorted(pairs) == [((0, 1), (0,)), ((2,), (0,)), ((3,), (0,))]
    assert sorted(rm_checks) == [([0, 1], [0], False), ([2], [0], False), ([3], [0], False)]
    rng = np.random.default_rng(5)
    for _ in range(20):
        vals = rng.integers(0, 3, size=tuple(rng.integers(2, 9, size=2))).astype(float)
        _mine_cvc(vals, 0.0, 1, 1)
    assert len(rm_checks) > 3 and not any(hit for *_, hit in rm_checks)


def test_rm_window_shorter_than_min_row(rm_checks):
    # windows shorter than min_row are dropped before the test runs
    pairs, _ = _mine_cvc(np.array([[1.0], [2.0], [3.0]]), 0.5, 2, 1)
    assert pairs == []
    assert rm_checks == []


def test_row_maximal_empty_check_set(table1):
    # an extent of every row leaves no row outside it to join
    assert not _completable(table1, np.arange(len(table1)), [0], 0.0)


def test_row_maximal_on_running_example(table1):
    g1g2 = np.array([0, 1])
    # g3 also has 6 in column m5, so {g1,g2} is completable
    assert _completable(table1, g1g2, [4], 0.0)
    # g3's and g4's m4 entries (7, 6) are out of reach of values {0,1} at epsilon 1
    assert not _completable(table1, g1g2, [3], 1.0)
    # g3 fits m5 but not m4, so on both it stays out, in either order
    assert not _completable(table1, g1g2, [4, 3], 0.0)
    assert not _completable(table1, g1g2, [3, 4], 0.0)


def test_row_maximal_is_the_row_probe_of_is_valid():
    # the test against its definition: some outside row, added, keeps every
    # column within epsilon; decimal values with epsilon on a difference
    rng = np.random.default_rng(53)
    for _ in range(200):
        n, m = (int(k) for k in rng.integers(2, 9, size=2))
        vals = rng.integers(0, 20, size=(n, m)) / 10
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        cols = [int(c) for c in rng.permutation(m)[: int(rng.integers(1, m + 1))]]
        for eps in _tie_epsilons(vals[:, cols], rng):
            params = EnumParams(eps, 1, 1, "cvc")
            if not is_valid(vals, Bicluster(rows.tolist(), sorted(cols)), params):
                continue
            probes = [
                is_valid(vals, Bicluster(sorted([*rows.tolist(), x]), sorted(cols)), params)
                for x in range(n)
                if x not in rows
            ]
            assert _completable(vals, rows, cols, eps) == any(probes), (vals, rows, cols, eps)


def test_row_maximality_kill_by_a_row_left_at_an_ancestor_cut(rm_checks):
    # a root's child has every row in its parent, so no row can join it;
    # below that, a row can join only if it left at an ancestor's cut on an
    # intent column, and on this input such a row drops a child
    vals = np.random.default_rng(2).integers(0, 6, size=(8, 3)).astype(float)
    params = EnumParams(1.0, 2, 1, "cvc")
    pairs, nodes = _mine_cvc(vals, 1.0, 2, 1)
    assert (len(pairs), nodes) == (15, 16)
    assert any(hit for *_, hit in rm_checks)
    assert set(pairs) == oracle_enumerate(vals, params).as_set()
    assert all(is_maximal(vals, Bicluster(*pair), params) for pair in pairs)


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
    # at epsilon 0.5 must find what the epsilon-0 walk finds
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


def test_matches_oracle_at_exact_ties():
    # epsilon equal to an actual difference of decimal entries, and its two
    # float neighbours; min_row >= 3 makes most columns of most nodes hold no
    # window, so the kernel's prefilter skips them.  Each cvc trial also runs
    # cvr on the same matrix, with the size filters swapped and epsilon on a
    # difference within a row (from its own generator, so the other trials
    # keep their matrices)
    rng = np.random.default_rng(43)
    rng_cvr = np.random.default_rng(47)
    for trial in range(60):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(2, 7))
        vals = rng.integers(0, 30, size=(n, m)) / 10
        bt = "cvc" if trial % 2 else "chv"
        ties = vals if bt == "cvc" else _augmented(vals)
        min_row = int(rng.integers(3, 5))
        min_col = int(rng.integers(1, 3)) + (bt == "chv")
        for eps in _tie_epsilons(ties[:, [int(rng.integers(ties.shape[1]))]], rng):
            params = EnumParams(eps, min_row, min_col, bt)
            found = enumerate_biclusters(vals, params)
            assert found.as_set() == oracle_enumerate(vals, params).as_set(), (trial, eps)
        if bt == "cvc":
            spread = vals[np.ptp(vals, axis=1) > 0]
            for eps in _tie_epsilons(spread[int(rng_cvr.integers(len(spread)))], rng_cvr):
                params = EnumParams(eps, min_col, min_row, "cvr")
                found = enumerate_biclusters(vals, params)
                assert all(is_valid(vals, b, params) for b in found), (trial, eps)
                assert found.as_set() == oracle_enumerate(vals, params).as_set(), (trial, eps)


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


# ---------------------------------------------------------------- two expansions


def _each_expansion(values, params):
    """The expansion the selection takes; the run's JSON and node count must
    not change when either expansion is forced."""
    with _expansions() as taken:
        sol = enumerate_biclusters(values, params)
    runs = [(solution_to_json(sol), sol.stats.nodes_expanded)]
    for expansion in ("sort", "mask"):
        with pytest.MonkeyPatch.context() as mp, _forced(mp, expansion):
            sol = enumerate_biclusters(values, params)
        runs.append((solution_to_json(sol), sol.stats.nodes_expanded))
    assert runs[0] == runs[1] == runs[2], (params, taken)
    return taken[0] if taken else None


@st.composite
def walks(draw):
    """A matrix of integers, k/10 decimals or normals, a perturbed type, and
    epsilon on an actual difference of its kernel matrix's values or on a
    float neighbour of it."""
    bic_type = draw(st.sampled_from(["cvc", "cvr", "chv"]))
    n, m = draw(st.integers(2, 14)), draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["integers", "decimals", "normals"]))
    if kind == "normals":
        vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, m))
    else:
        vals = draw(arrays(np.int64, (n, m), elements=st.integers(0, 30 if kind == "decimals" else 6)))
        vals = vals / 10 if kind == "decimals" else vals.astype(float)
    ties = _augmented(vals) if bic_type == "chv" else vals
    if np.ptp(ties) > 0:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        eps = draw(st.sampled_from(_tie_epsilons(ties, rng)))
    else:
        eps = 0.5
    min_row = draw(st.integers(1, 4))
    min_col = draw(st.integers(1, 3)) + (bic_type == "chv")
    return vals, EnumParams(eps, min_row, min_col, bic_type)


@settings(max_examples=300, deadline=None)
@given(walks())
def test_mask_walk_equals_sort_walk(case):
    # the mask walk expands every node by set algebra on the root windows,
    # the sort walk by sorting the node's extent: the same children in the
    # same order, so the same bytes and the same node count
    _each_expansion(*case)


def test_mask_walk_equals_sort_walk_above_the_selection():
    # inputs whose root selects the sort expansion: many windows per column
    # (distinct decimals at a small min_row), or few but more than _TALL rows
    # per min_row (three tied groups on 30 of 200 rows, the rest distinct);
    # forced, the mask walk still walks the same tree
    import rinclose.cvc

    rng = np.random.default_rng(71)
    many = [
        (rng.integers(0, 400, size=(60, 4)) / 10, EnumParams(0.3, 1, 2, "cvc")),
        (rng.integers(0, 400, size=(4, 60)) / 10, EnumParams(0.3, 2, 1, "cvr")),
    ]
    tall = 10.0 + 7 * rng.permutation(200 * 4).reshape(200, 4)
    tall[rng.choice(200, 30, replace=False)] = rng.integers(0, 3, size=(30, 4))
    tall = [
        (tall, EnumParams(0.5, 3, 1, "cvc")),
        (tall.T.copy(), EnumParams(0.5, 1, 3, "cvr")),
        (tall, EnumParams(0.5, 3, 3, "chv")),
    ]
    for values, params in many + tall:
        assert _each_expansion(values, params) == "sort", params.bic_type
    for values, params in tall:  # and the height is what sends them there
        with pytest.MonkeyPatch.context() as mp, _expansions() as taken:
            mp.setattr(rinclose.cvc, "_TALL", 1 << 62)
            enumerate_biclusters(values, params)
        assert taken == ["mask"], params.bic_type


def test_the_many_windows_probe_takes_the_sort_expansion(monkeypatch):
    # uniform [0, 100) 2000 x 20, cvc at epsilon 1.0 and min 5 x 3: 19,946
    # root windows, about 1,000 per column, where the sort walk takes 18,093
    # nodes in about a second and the mask walk nearly 50 s.  Only the
    # selection is run here
    import rinclose.cvc

    values = np.random.default_rng(0).random((2000, 20)) * 100
    monkeypatch.setattr(rinclose.cvc, "_walk", lambda *args: ([], [], 0))
    with _expansions() as taken:
        enumerate_biclusters(values, EnumParams(1.0, 5, 3, "cvc"))
    assert taken == ["sort"]


def test_cvc_reads_its_kept_columns_without_a_copy(monkeypatch):
    # 40 columns, each zero on its first 600 rows and distinct elsewhere, and
    # one column of distinct values that the screen drops.  The miner's walk
    # reads the 40 kept columns through a view, at its root only and a few
    # at a time (here 2, as _BLOCK_BYTES allows on a matrix 20 times taller),
    # and never holds a copy of them.  The screen runs before tracing
    import rinclose.cvc

    rng = np.random.default_rng(73)
    n = 4000
    values = np.where((np.arange(n) < 600)[:, None], 0.0, rng.random((n, 41)) * 1e6 + 1)
    values[:, 17] = rng.permutation(n) * 2.0
    params = EnumParams(0.5, 500, 3, "cvc")
    keep = _screen(values, params.epsilon, params.min_row)
    assert keep.sum() == 40
    monkeypatch.setattr(rinclose.cvc, "_screen", lambda *args: keep)
    monkeypatch.setattr(rinclose.inclose2, "_BLOCK_BYTES", 8 * n * 2)
    tracemalloc.start()
    try:
        with _expansions() as taken:
            pairs, nodes = _cvc(values, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["mask"]
    assert pairs == [(tuple(range(600)), tuple(c for c in range(41) if c != 17))]
    assert peak < n * 40 * 8 / 2, peak


# Both duplicate suppression and the row-maximality check earn their keep:
# the same extent really reaches the registry along several paths, and
# switching the row-maximality test off only adds dominated pairs, never
# removes a genuine bicluster.


def test_registry_drops_extents_that_pass_canonicity_again(monkeypatch):
    # overlapping windows bring extents back along a second path: on this
    # input four registered extents come back where canonicity would pass
    # them.  The registry is asked first, so no registered extent is read
    # again; an extent that failed row-maximality was not registered, so it
    # is read and passes canonicity again
    import rinclose.cvc

    passes: dict[bytes, int] = {}
    registered: set[bytes] = set()

    def counting(values, rw, b, j, eps):
        assert rw.tobytes() not in registered
        ok = _canonical_fast(values, rw, b, j, eps)
        if ok:
            passes[rw.tobytes()] = passes.get(rw.tobytes(), 0) + 1
        return ok

    def registering(values, rw, cols, eps):
        joinable = _completable(values, rw, cols, eps)
        if not joinable:
            registered.add(rw.tobytes())
        return joinable

    monkeypatch.setattr(rinclose.cvc, "_canonical_fast", counting)
    monkeypatch.setattr(rinclose.cvc, "_completable", registering)
    vals = np.random.default_rng(0).integers(0, 6, size=(10, 5)).astype(float)
    with _forced(monkeypatch, "sort"):  # the expansion that calls both
        pairs, _ = _mine_cvc(vals, 1.0, 1, 1)
    assert max(passes.values()) > 1
    extents = [rows for rows, _ in pairs]
    assert len(set(extents)) == len(extents)


def test_rm_off_leaks_only_dominated_pairs(monkeypatch):
    import rinclose.cvc

    vals = np.random.default_rng(0).integers(0, 6, size=(10, 5)).astype(float)
    params = EnumParams(1.0, 1, 1, "cvc")
    base, _ = _mine_cvc(vals, 1.0, 1, 1)
    monkeypatch.setattr(rinclose.cvc, "_completable", lambda *args: False)
    with _forced(monkeypatch, "sort"):  # the expansion that calls it
        leaky, _ = _mine_cvc(vals, 1.0, 1, 1)
    extras = set(leaky) - set(base)
    assert set(base) <= set(leaky)
    assert extras  # the row-maximality test really pruned something
    for rows, cols in extras:
        b = Bicluster(rows, cols)
        assert is_valid(vals, b, params)
        assert not is_maximal(vals, b, params)


def test_node_counter_counts_closures(table1):
    sol = enumerate_biclusters(table1, EnumParams(0.0, 2, 1, "cvc-p"))
    assert sol.stats.nodes_expanded >= len(sol)
    assert sol.stats.elapsed_s >= 0.0

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinclose import Bicluster, overlap, precision_recall, solution_report
from rinclose.metrics import span_grid


def test_volume():
    assert Bicluster([0, 1], [0, 1, 2]).volume == 6


def test_overlap_identical_is_one():
    b = Bicluster([0, 1], [2, 3])
    assert overlap(b, b) == 1.0


def test_overlap_disjoint_is_zero():
    assert overlap(Bicluster([0], [0]), Bicluster([1], [0])) == 0.0
    assert overlap(Bicluster([0], [0]), Bicluster([0], [1])) == 0.0


def test_overlap_quarter():
    b1 = Bicluster([0, 1], [0, 1])
    b2 = Bicluster([1, 2], [1, 2])
    assert overlap(b1, b2) == 0.25


def test_overlap_normalizes_by_smaller_volume():
    big = Bicluster([0, 1, 2, 3], [0, 1, 2])
    small = Bicluster([0, 1], [0, 1])
    assert overlap(big, small) == 1.0  # small is fully inside big


def test_span_grid():
    grid = span_grid([Bicluster([0], [0, 1]), Bicluster([1], [1])], 3, 3)
    assert grid.sum() == 3
    assert grid[0, 0] and grid[0, 1] and grid[1, 1]
    with pytest.raises(ValueError):
        span_grid([Bicluster([3], [0])], 3, 3)


def test_report_single_bicluster():
    rep = solution_report([Bicluster([0, 1], [0, 1, 2])], 4, 5)
    assert rep.num_biclusters == 1
    assert rep.coverage_cells == 6
    assert rep.coverage_fraction == 0.3
    assert rep.global_overlap == 0.0


def test_report_one_shared_cell():
    sol = [Bicluster([0, 1], [0, 1]), Bicluster([1, 2], [1, 2])]
    rep = solution_report(sol, 3, 3)
    assert rep.coverage_cells == 7
    assert rep.global_overlap == pytest.approx(1 / 7)


def test_report_duplicate_bicluster():
    b = Bicluster([0, 1], [0, 1])
    rep = solution_report([b, b], 2, 2)
    assert rep.coverage_cells == 4
    assert rep.global_overlap == 1.0


def test_report_empty_solution():
    rep = solution_report([], 3, 3)
    assert rep.coverage_cells == 0
    assert rep.coverage_fraction == 0.0
    assert rep.global_overlap == 0.0


def test_report_to_dict_roundtrips_through_json():
    import json

    rep = solution_report([Bicluster([0], [0])], 2, 2)
    assert json.loads(json.dumps(rep.to_dict()))["coverage_cells"] == 1


def test_perfect_match():
    sol = [Bicluster([0, 1], [0, 1])]
    assert precision_recall(sol, list(sol), 3, 3) == (1.0, 1.0)


def test_half_covered_reference():
    found = [Bicluster([0], [0, 1])]
    reference = [Bicluster([0, 1], [0, 1])]
    assert precision_recall(found, reference, 3, 3) == (1.0, 0.5)


def test_empty_sides_warn_and_score_zero():
    ref = [Bicluster([0], [0])]
    with pytest.warns(UserWarning):
        assert precision_recall([], ref, 2, 2) == (0.0, 0.0)
    with pytest.warns(UserWarning):
        p, r = precision_recall(ref, [], 2, 2)
    assert (p, r) == (0.0, 0.0)


small_solutions = st.lists(
    st.tuples(
        st.sets(st.integers(0, 4), min_size=1),
        st.sets(st.integers(0, 4), min_size=1),
    ).map(lambda rc: Bicluster(*rc)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(small_solutions, small_solutions)
def test_precision_recall_symmetry(a, b):
    pa, ra = precision_recall(a, b, 5, 5)
    pb, rb = precision_recall(b, a, 5, 5)
    assert pa == rb and ra == pb
    assert 0.0 <= pa <= 1.0 and 0.0 <= ra <= 1.0


@settings(max_examples=150, deadline=None)
@given(small_solutions, st.tuples(st.sets(st.integers(0, 4), min_size=1), st.sets(st.integers(0, 4), min_size=1)))
def test_adding_a_bicluster_never_shrinks_coverage(sol, extra):
    before = solution_report(sol, 5, 5)
    after = solution_report(sol + [Bicluster(*extra)], 5, 5)
    assert after.coverage_cells >= before.coverage_cells
    assert after.global_overlap >= 0.0

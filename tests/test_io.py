import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinclose import (
    Bicluster,
    BiclusterSolution,
    load_matrix,
    load_solution,
    save_matrix,
    save_solution,
)
from rinclose.io import solution_to_json


def test_matrix_roundtrip_csv(tmp_path):
    path = tmp_path / "m.csv"
    vals = np.array([[1.5, -2.25, 3.0], [0.1, 100.0, -7.0]])
    save_matrix(vals, path)
    mat = load_matrix(path)
    assert np.array_equal(mat.values, vals)


def test_matrix_roundtrip_preserves_every_bit(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1e6, 1e6, size=(20, 7))
    path = tmp_path / "m.csv"
    save_matrix(vals, path)
    # %.17g is enough digits to round-trip any float64 exactly
    assert np.array_equal(load_matrix(path).values, vals)


def test_load_matrix_sniffs_delimiters(tmp_path):
    for name, sep in (("a.csv", ","), ("b.tsv", "\t"), ("c.txt", ";")):
        path = tmp_path / name
        path.write_text(f"1{sep}2\n3{sep}4\n")
        assert np.array_equal(load_matrix(path).values, [[1, 2], [3, 4]])
    ws = tmp_path / "d.txt"
    ws.write_text("1 2\n3 4\n")
    assert np.array_equal(load_matrix(ws).values, [[1, 2], [3, 4]])


def test_load_matrix_sniffs_the_first_line_loadtxt_reads(tmp_path):
    # blank, whitespace-only and # lines and a byte order mark are passed
    # over, so the delimiter is sniffed from the first line with data
    path = tmp_path / "m.csv"
    for text in (
        "\n1,2\n3,4\n",
        "# note\n1,2\n3,4\n",
        "\n# a b c\n\n1,2\n3,4\n",
        "  \n1,2\n3,4\n",
        "1,2\n   \n3,4\n",
        "1\t2\n\t\n3\t4\n",
        "\ufeff1,2\n3,4\n",
        "\ufeff1 2\n3 4\n",
    ):
        path.write_bytes(text.encode("utf-8"))
        assert np.array_equal(load_matrix(path).values, [[1, 2], [3, 4]]), repr(text)


def test_load_matrix_single_row_is_still_2d(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("5,6,7\n")
    assert load_matrix(path).shape == (1, 3)


def test_load_matrix_bad_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nx,y\n")
    with pytest.raises(ValueError, match="bad.csv"):
        load_matrix(path)
    with pytest.raises(OSError):
        load_matrix(tmp_path / "missing.csv")


def test_load_matrix_reports_a_ragged_row(tmp_path):
    # the row counts data rows only, so blank and comment lines do not shift it
    path = tmp_path / "ragged.csv"
    for text, row, now, was in (
        ("1,2\n3\n", 2, 1, 2),
        ("# c\n\n1 2 3\n4 5 6\n\n7 8\n", 3, 2, 3),
        ("1\t2\n3\t4\t5\n", 2, 3, 2),
    ):
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_matrix(path)
        assert str(info.value) == (
            f"could not parse numeric matrix from {path}: "
            f"data row {row} has {now} cells where the rows before it have {was}"
        ), repr(text)


def test_solution_roundtrip(tmp_path):
    bics = [Bicluster([2, 0], [1]), Bicluster([1], [0, 3])]
    path = tmp_path / "sol.json"
    save_solution(bics, path)
    sol = load_solution(path)
    assert sol.as_set() == {((0, 2), (1,)), ((1,), (0, 3))}
    # loader sorts into the canonical order
    assert sol.biclusters[0] == Bicluster([0, 2], [1])


def test_solution_json_is_deterministic_and_compact():
    bics = (Bicluster([0, 1], [2]),)
    text = solution_to_json(bics)
    assert text == '[{"rows":[0,1],"cols":[2]}]\n'
    assert solution_to_json(list(bics)) == text


def _dumps(bics):
    return json.dumps([b.to_dict() for b in bics], separators=(",", ":")) + "\n"


def test_solution_json_equals_json_dumps_on_edge_cases():
    cases = [
        [],
        [Bicluster([4], [0, 1, 2])],  # one row
        [Bicluster([0, 1, 2], [7])],  # one column
        [Bicluster([0], [0])],
        [Bicluster([999_999, 1_000_000, 1_000_001], [3]), Bicluster([2], [10**6, 2**40])],
        [Bicluster([0, 65_535, 65_536], [1]), Bicluster([1, 2], [0])],  # around the table cap
        [Bicluster(range(65_536), [0])],  # the largest table, every index inside it
        [Bicluster(range(65_537), [0])],  # one index past the table
        [Bicluster([-3, 2], [-1, 0])],  # the public constructor admits negative ids
    ]
    for bics in cases:
        expected = _dumps(bics)
        assert solution_to_json(bics) == expected  # a plain list
        assert solution_to_json(tuple(bics)) == expected
        assert solution_to_json(BiclusterSolution(biclusters=tuple(bics))) == expected
    assert solution_to_json([]) == "[]\n"


def test_solution_json_table_is_sized_by_the_data():
    # one bicluster with an index of 10^12 must not build a table up to it
    bics = [Bicluster([0, 10**12], [1]), Bicluster([5], [6, 7])]
    tracemalloc.start()
    try:
        text = solution_to_json(bics)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _dumps(bics)
    assert peak < 16 << 20


index_sets = st.sets(
    st.one_of(st.integers(-3, 40), st.integers(0, 2**70)), min_size=1, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(index_sets, index_sets), max_size=8))
def test_solution_json_equals_json_dumps(drawn):
    bics = [Bicluster(rows, cols) for rows, cols in drawn]
    assert solution_to_json(bics) == _dumps(bics)
    assert json.loads(solution_to_json(bics)) == [b.to_dict() for b in bics]


def test_load_solution_schema_errors(tmp_path):
    p1 = tmp_path / "notarray.json"
    p1.write_text('{"rows": [0], "cols": [0]}')
    with pytest.raises(ValueError, match="expected a JSON array"):
        load_solution(p1)
    p2 = tmp_path / "badentry.json"
    p2.write_text('[{"rows": [0]}]')
    with pytest.raises(ValueError, match="index 0"):
        load_solution(p2)
    p3 = tmp_path / "empty_bic.json"
    p3.write_text('[{"rows": [], "cols": [1]}]')
    with pytest.raises(ValueError):
        load_solution(p3)


def test_load_solution_rejects_indices_that_are_not_non_negative_integers(tmp_path):
    path = tmp_path / "bad.json"
    for entry in (
        '{"rows":[0.7,true],"cols":["2"]}',
        '{"rows":[-1],"cols":[0]}',
        '{"rows":[0],"cols":[1.0]}',
        '{"rows":[false],"cols":[0]}',
        '{"rows":"01","cols":[0]}',
        '{"rows":5,"cols":[0]}',
    ):
        path.write_text(f'[{{"rows":[1],"cols":[1]}},{entry}]')
        with pytest.raises(ValueError, match="bad bicluster at index 1"):
            load_solution(path)


def test_load_solution_names_the_file_of_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    for text in ("", '[{"rows":[0]'):
        path.write_text(text)
        with pytest.raises(ValueError, match=r"broken\.json: Expecting"):
            load_solution(path)


def test_load_solution_accepts_empty_array(tmp_path):
    path = tmp_path / "none.json"
    path.write_text("[]")
    assert len(load_solution(path)) == 0


def test_saved_solution_is_valid_json(tmp_path):
    path = tmp_path / "sol.json"
    save_solution([Bicluster([3], [4, 5])], path)
    obj = json.loads(path.read_text())
    assert obj == [{"rows": [3], "cols": [4, 5]}]

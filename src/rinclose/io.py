"""Reading and writing matrices (CSV/TSV) and bicluster solutions (JSON).

The JSON schema for a solution is a plain array of objects
``{"rows": [...], "cols": [...]}`` with 0-based, ascending indices — the
same schema for mined output, ground truth and evaluation input.
"""

from __future__ import annotations

import json
import re
from itertools import chain

import numpy as np

from .core import Bicluster, BiclusterSolution, NumericMatrix, as_matrix, sort_biclusters


_RAGGED = re.compile(r"number of columns changed from (\d+) to (\d+) at row (\d+)")


def load_matrix(path) -> NumericMatrix:
    """Load a dense numeric matrix from a CSV/TSV/whitespace text file.

    Blank, whitespace-only and ``#`` comment lines and a UTF-8 byte order
    mark are passed over.  The cell separator is sniffed from the first data
    line: a comma, tab or semicolon, else any whitespace.  A ragged data row
    is reported by its number among the data rows and both cell counts.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = (line for line in fh if line.split("#", 1)[0].strip())
            first = next(lines, None)
            if first is None:
                raise ValueError("no data lines")
            data = first.split("#", 1)[0]
            delimiter = next((c for c in (",", "\t", ";") if c in data), None)
            arr = np.loadtxt(chain((first,), lines), delimiter=delimiter, ndmin=2)
    except ValueError as exc:
        if ragged := _RAGGED.search(str(exc)):  # numpy's wording adds advice on usecols
            was, now, row = ragged.groups()
            exc = f"data row {row} has {now} cells where the rows before it have {was}"
        raise ValueError(f"could not parse numeric matrix from {path}: {exc}") from None
    return NumericMatrix(arr)


def save_matrix(matrix, path) -> None:
    """Write a matrix as comma-separated text with full float round-trip precision."""
    mat = as_matrix(matrix)
    np.savetxt(path, mat.values, delimiter=",", fmt="%.17g")


_NAMED = 1 << 16  # at most this many decimal strings in solution_to_json's table


def solution_to_json(solution) -> str:
    """Serialize a solution (or plain list of biclusters) deterministically.

    Writes what ``json.dumps([b.to_dict() for b in bics], separators=(",",
    ":")) + "\\n"`` writes, straight from the index tuples: indices come from
    a table of decimal strings up to the largest index, no longer than
    _NAMED or the count of indices written; a bicluster beyond it uses str.
    """
    bics = solution.biclusters if isinstance(solution, BiclusterSolution) else tuple(solution)
    tops = [max(b.rows[-1], b.cols[-1]) for b in bics]
    size = min(max(tops, default=-1) + 1, _NAMED)
    if size > 2 * len(bics):  # else no fewer indices are written: two or more a bicluster
        size = min(size, sum(len(b.rows) + len(b.cols) for b in bics))
    names = [str(i) for i in range(size)]
    parts = []
    for b, top in zip(bics, tops):
        inside = top < size and b.rows[0] >= 0 and b.cols[0] >= 0
        name = names.__getitem__ if inside else str
        rows, cols = ",".join(map(name, b.rows)), ",".join(map(name, b.cols))
        parts.append(f'{{"rows":[{rows}],"cols":[{cols}]}}')
    return f"[{','.join(parts)}]\n"


def save_solution(solution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(solution_to_json(solution))


def load_solution(path) -> BiclusterSolution:
    """Read a JSON bicluster array back into a BiclusterSolution."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, list):
        raise ValueError(f"{path}: expected a JSON array of biclusters")
    bics = []
    for k, entry in enumerate(obj):
        try:
            rows, cols = entry["rows"], entry["cols"]
            if not all(type(x) is int and x >= 0 for x in (*rows, *cols)):
                raise ValueError("indices must be non-negative integers")
            bics.append(Bicluster(rows, cols))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad bicluster at index {k}: {exc}") from None
    return BiclusterSolution(biclusters=sort_biclusters(bics))

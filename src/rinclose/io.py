"""Reading and writing matrices (CSV/TSV) and bicluster solutions (JSON).

The JSON schema for a solution is a plain array of objects
``{"rows": [...], "cols": [...]}`` with 0-based, ascending indices — the
same schema for mined output, ground truth and evaluation input.
"""

from __future__ import annotations

import json

import numpy as np

from .core import Bicluster, BiclusterSolution, NumericMatrix, as_matrix, sort_biclusters


def _sniff_delimiter(sample: str) -> str | None:
    """Pick the most plausible cell separator; None means any whitespace."""
    first = sample.splitlines()[0] if sample.splitlines() else ""
    for cand in (",", "\t", ";"):
        if cand in first:
            return cand
    return None


def load_matrix(path) -> NumericMatrix:
    """Load a dense numeric matrix from a CSV/TSV/whitespace text file.

    The cell separator is sniffed from the first line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        sample = fh.read(4096)
    try:
        arr = np.loadtxt(path, delimiter=_sniff_delimiter(sample), ndmin=2)
    except ValueError as exc:
        raise ValueError(f"could not parse numeric matrix from {path}: {exc}") from None
    return NumericMatrix(arr)


def save_matrix(matrix, path) -> None:
    """Write a matrix as comma-separated text with full float round-trip precision."""
    mat = as_matrix(matrix)
    np.savetxt(path, mat.values, delimiter=",", fmt="%.17g")


def solution_to_json(solution) -> str:
    """Serialize a solution (or plain list of biclusters) deterministically."""
    bics = solution.biclusters if isinstance(solution, BiclusterSolution) else tuple(solution)
    return json.dumps([b.to_dict() for b in bics], separators=(",", ":")) + "\n"


def save_solution(solution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(solution_to_json(solution))


def load_solution(path) -> BiclusterSolution:
    """Read a JSON bicluster array back into a BiclusterSolution."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
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

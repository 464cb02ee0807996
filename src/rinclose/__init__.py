"""Complete enumeration of maximal biclusters in dense numeric matrices.

Supported homogeneity types: constant ones on binary data (``ctv-binary``),
constant columns/rows with residue epsilon (``cvc``/``cvr``, perfect variants
``cvc-p``/``cvr-p``), and additive or multiplicative coherence
(``chv``/``chv-p`` with ``model="shift"``/``"scale"``).

``enumerate_biclusters(matrix, params)`` is the one mining entry point: it
returns the exact set of maximal biclusters meeting the size filters, each
one exactly once, in canonical order.  ``ALGORITHMS`` is its dispatch table
from bic type to a private miner working on the plain value array; every
miner runs the one closure walk ``inclose2._walk``, its nodes expanded over
bitmask groups (perfect types) or numeric windows (``cvc``, perturbed
types), and the row types are the column types through one transpose rule.
"""

import dataclasses
import time

import numpy as np

from .chv import _chv, _chv_perfect
from .core import (
    Bicluster,
    BiclusterSolution,
    EnumParams,
    NumericMatrix,
    SolutionStats,
    as_matrix,
    is_maximal,
    is_valid,
    sort_biclusters,
    transform_for_model,
    transpose,
)
from .cvc import _cvc
from .datagen import GenConfig, generate
from .inclose2 import _ctv_binary, _cvc_perfect
from .io import load_matrix, load_solution, save_matrix, save_solution
from .metrics import SolutionReport, overlap, precision_recall, solution_report
from .oracle import oracle_enumerate

__version__ = "0.1.0"


def _transposed(miner):
    """The miner's row type: run it on the transpose with the size filters swapped."""

    def mine(values, params: EnumParams):
        swapped = dataclasses.replace(params, min_row=params.min_col, min_col=params.min_row)
        pairs, nodes = miner(np.ascontiguousarray(values.T), swapped)
        return [(cols, rows) for rows, cols in pairs], nodes

    return mine


# bic type -> private miner: (values in model space, params) -> ((rows, cols) pairs, nodes)
# with rows and cols nonempty, strictly increasing tuples of Python ints
ALGORITHMS = {
    "ctv-binary": _ctv_binary,
    "cvc-p": _cvc_perfect,
    "cvc": _cvc,
    "cvr-p": _transposed(_cvc_perfect),
    "cvr": _transposed(_cvc),
    "chv-p": _chv_perfect,
    "chv": _chv,
}


def enumerate_biclusters(matrix, params: EnumParams) -> BiclusterSolution:
    """All maximal biclusters of type ``params.bic_type`` meeting the size filters.

    Each bicluster appears exactly once, in the canonical order of
    ``sort_biclusters``.  The matrix is mapped into model space first
    (``scale`` takes logs), and the stats carry the node count and the wall
    time of the whole call.  The miner's (rows, cols) tuples are sorted as
    they are (tuple order is the canonical order) and become ``Bicluster``
    named tuples through ``_make``, without being normalized again, since
    every miner emits sorted, unique Python ints.
    """
    t0 = time.perf_counter()
    values = transform_for_model(matrix, params.model).values
    with np.errstate(over="ignore"):  # an overflowed range is +inf, above every epsilon
        pairs, nodes = ALGORITHMS[params.bic_type](values, params)
    bics = tuple(map(Bicluster._make, sorted(pairs)))
    return BiclusterSolution(
        biclusters=bics,
        params=params,
        stats=SolutionStats(len(bics), nodes, time.perf_counter() - t0),
    )


__all__ = [
    "ALGORITHMS",
    "Bicluster",
    "BiclusterSolution",
    "EnumParams",
    "GenConfig",
    "NumericMatrix",
    "SolutionReport",
    "SolutionStats",
    "as_matrix",
    "enumerate_biclusters",
    "generate",
    "is_maximal",
    "is_valid",
    "load_matrix",
    "load_solution",
    "oracle_enumerate",
    "overlap",
    "precision_recall",
    "save_matrix",
    "save_solution",
    "solution_report",
    "sort_biclusters",
    "transform_for_model",
    "transpose",
    "__version__",
]

"""Complete enumeration of maximal biclusters in dense numeric matrices.

Supported homogeneity types: constant ones on binary data (``ctv-binary``),
constant columns/rows with residue epsilon (``cvc``/``cvr``, perfect variants
``cvc-p``/``cvr-p``), and additive or multiplicative coherence
(``chv``/``chv-p`` with ``model="shift"``/``"scale"``).  Every enumerator
returns the exact set of maximal biclusters meeting the size filters, each
one exactly once.
"""

from .chv import (
    AugmentedMatrix,
    build_augmented,
    enumerate_chv,
    enumerate_chv_perfect,
)
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
from .cvc import ExtentRegistry, enumerate_cvc, enumerate_cvr
from .datagen import GenConfig, generate
from .inclose2 import BinaryContext, enumerate_ctv_binary
from .io import load_matrix, load_solution, save_matrix, save_solution
from .metrics import SolutionReport, overlap, precision_recall, solution_report
from .oracle import oracle_enumerate

__version__ = "0.1.0"


# bic type -> enumerator; every enumerator is (matrix, params) -> BiclusterSolution
ALGORITHMS = {
    "ctv-binary": enumerate_ctv_binary,
    "cvc-p": enumerate_cvc,
    "cvc": enumerate_cvc,
    "cvr-p": enumerate_cvr,
    "cvr": enumerate_cvr,
    "chv-p": enumerate_chv_perfect,
    "chv": enumerate_chv,
}


def enumerate_biclusters(matrix, params: EnumParams) -> BiclusterSolution:
    """Run the enumerator for ``params.bic_type``."""
    return ALGORITHMS[params.bic_type](matrix, params)


__all__ = [
    "ALGORITHMS",
    "AugmentedMatrix",
    "Bicluster",
    "BiclusterSolution",
    "BinaryContext",
    "EnumParams",
    "ExtentRegistry",
    "GenConfig",
    "NumericMatrix",
    "SolutionReport",
    "SolutionStats",
    "as_matrix",
    "build_augmented",
    "enumerate_biclusters",
    "enumerate_chv",
    "enumerate_chv_perfect",
    "enumerate_ctv_binary",
    "enumerate_cvc",
    "enumerate_cvr",
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

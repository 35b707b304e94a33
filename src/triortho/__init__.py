"""Tri-orthogonal qudit CSS codes from punctured Reed-Solomon codes over F_p.

Construction, exact verification of the orthogonality and transversal-gate
claims, sparse state-vector cross-checks, and distillation-overhead search.
"""

from .fplinalg import (
    BudgetExceeded,
    FpMatrix,
    FpVector,
    MatrixFormatError,
    PrimeModulus,
    in_rowspan,
    kernel_basis,
    min_weight,
    rref,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "FpMatrix",
    "FpVector",
    "MatrixFormatError",
    "PrimeModulus",
    "in_rowspan",
    "kernel_basis",
    "min_weight",
    "rref",
    "__version__",
]

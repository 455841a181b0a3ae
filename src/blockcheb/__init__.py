"""Exact arithmetic for a block-count generalization of the Chebyshev
polynomials, with combinatorial oracles, orthogonality tables, and a CLI.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, GroundSetTooLargeError, InvalidConfigError
from .exact import PiRational, binomial
from .polyfamily import (Family, IntPolynomial, P_FAMILY, T_FAMILY, U_FAMILY,
                         build_definitional, coefficient, triangle)

__all__ = [
    "__version__",
    "ConvergenceError", "GroundSetTooLargeError", "InvalidConfigError",
    "PiRational", "binomial",
    "Family", "IntPolynomial", "P_FAMILY", "T_FAMILY", "U_FAMILY",
    "build_definitional", "coefficient", "triangle",
]

"""Numerical toolkit for the C_lambda-extended oscillator.

Subpackages cover the banded truncated algebra, both coherent-state
families, the moment-problem weight functions with their unity
resolutions, Bargmann-space operator realizations, and photon-statistics
and squeezing observables, plus a CSV-emitting command line front end.
"""

from .algebra import (
    AlgebraParams,
    TruncatedOperator,
    build_operator,
    energy_eigenvalue,
    params_from_beta_bar,
    sga_structure_poly,
    structure_function,
    validate_params,
)
from .errors import ClextError

__all__ = [
    "AlgebraParams",
    "TruncatedOperator",
    "ClextError",
    "build_operator",
    "energy_eigenvalue",
    "params_from_beta_bar",
    "sga_structure_poly",
    "structure_function",
    "validate_params",
]

__version__ = "0.1.0"

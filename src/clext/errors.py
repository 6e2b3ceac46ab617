"""Exception hierarchy shared by all clext modules."""


class ClextError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(ClextError, ValueError):
    """A vector argument has the wrong length."""


class NonFiniteParameter(ClextError, ValueError):
    """An algebra parameter is NaN or infinite."""


class ZeroSumViolation(ClextError, ValueError):
    """The algebra parameters do not sum to zero."""


class PositivityViolation(ClextError, ValueError):
    """Some partial sum beta_mu violates beta_mu > -mu."""

    def __init__(self, mu, beta_mu):
        self.mu = mu
        self.beta_mu = beta_mu
        super().__init__(
            f"beta_{mu} = {beta_mu} <= -{mu}; Fock space is not well defined"
        )


class TruncationTooSmall(ClextError, ValueError):
    """The requested matrix / state truncation cannot hold the object."""


class SectorError(ClextError, ValueError):
    """No nontrivial coherent state exists in the requested sector."""


class DomainError(ClextError, ValueError):
    """Argument outside the mathematical domain of the function."""


class NoConvergence(ClextError, ArithmeticError):
    """Iteration/term cap reached before the tolerance was met."""


class QuadratureFailure(ClextError, ArithmeticError):
    """Numerical integration failed to reach the requested accuracy."""


class PositivityUnavailable(ClextError, ValueError):
    """No positivity certificate exists for the requested weight."""


class UnsupportedOp(ClextError, ValueError):
    """Operator not available in the chosen Bargmann basis."""


class NonPolynomialResult(ClextError, ArithmeticError):
    """A 1/z atom failed to cancel; the sector routing is inconsistent."""

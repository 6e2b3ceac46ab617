"""Parameter validation and truncated-matrix realization of the algebra.

The C_lambda-extended oscillator is fixed by lambda >= 2 and real
parameters alpha_0..alpha_{lambda-1} with sum zero and partial sums
beta_mu = sum_{nu<mu} alpha_nu > -mu.  All operators act on the number
basis |0>..|K-1> as dense complex matrices; band formulas use exact
structure-function values so only the last lambda rows/columns of any
identity are corrupted by truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteParameter,
    PositivityViolation,
    ShapeError,
    TruncationTooSmall,
    ZeroSumViolation,
)

ZERO_SUM_TOL = 1e-12

OPERATOR_KINDS = ("a", "adag", "N", "P", "H0", "Jplus", "Jminus", "J0")


@dataclass(frozen=True)
class AlgebraParams:
    """Validated algebra parameters with the derived beta vectors.

    beta_bar[mu] = (beta[mu] + mu) / lam is strictly positive for
    mu >= 1.  Index accessors implement the cyclic convention once for
    everyone: alpha and beta are lambda-periodic, while beta_bar gains
    +1 per full cycle (beta_bar(lam) = 1).
    """

    lam: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    beta_bar: tuple[float, ...]

    def alpha_at(self, i: int) -> float:
        return self.alpha[i % self.lam]

    def beta_at(self, i: int) -> float:
        return self.beta[i % self.lam]

    def beta_bar_at(self, i: int) -> float:
        return self.beta_bar[i % self.lam] + (i // self.lam)

    def gamma(self, mu: int) -> float:
        """gamma_mu = (beta_mu + beta_{mu+1}) / 2 (cyclic)."""
        return 0.5 * (self.beta_at(mu) + self.beta_at(mu + 1))


@dataclass(frozen=True)
class FockIndex:
    """Number level n split as n = k*lam + mu with 0 <= mu < lam."""

    n: int
    k: int
    mu: int

    @classmethod
    def from_level(cls, n: int, lam: int) -> "FockIndex":
        if n < 0:
            raise ShapeError("level must be non-negative")
        return cls(n=n, k=n // lam, mu=n % lam)


def validate_params(lam: int, alpha) -> AlgebraParams:
    """Check the defining constraints and derive beta, beta_bar.

    Raises ShapeError, NonFiniteParameter, ZeroSumViolation or
    PositivityViolation; inputs are never silently renormalized.
    """
    lam = int(lam)
    if lam < 2:
        raise ShapeError(f"lambda must be >= 2, got {lam}")
    alpha = tuple(float(v) for v in alpha)
    if len(alpha) != lam:
        raise ShapeError(f"alpha must have exactly {lam} entries, got {len(alpha)}")
    if not all(math.isfinite(v) for v in alpha):
        raise NonFiniteParameter(f"alpha must be finite, got {alpha}")
    s = math.fsum(alpha)
    if abs(s) > ZERO_SUM_TOL:
        raise ZeroSumViolation(f"sum(alpha) = {s:.3e} exceeds tolerance {ZERO_SUM_TOL}")
    beta = tuple(math.fsum(alpha[:mu]) for mu in range(lam))
    for mu in range(1, lam):
        if beta[mu] <= -mu:
            raise PositivityViolation(mu, beta[mu])
    beta_bar = tuple((beta[mu] + mu) / lam for mu in range(lam))
    return AlgebraParams(lam=lam, alpha=alpha, beta=beta, beta_bar=beta_bar)


def params_from_beta_bar(lam: int, beta_bar_tail) -> AlgebraParams:
    """Build params from (beta_bar_1, .., beta_bar_{lam-1}) as figures quote them."""
    tail = [float(v) for v in beta_bar_tail]
    if len(tail) != lam - 1:
        raise ShapeError(f"need {lam - 1} beta_bar values, got {len(tail)}")
    beta = [0.0] + [lam * bb - mu for mu, bb in enumerate(tail, start=1)]
    alpha = [beta[mu + 1] - beta[mu] for mu in range(lam - 1)] + [-beta[lam - 1]]
    return validate_params(lam, alpha)


def structure_function(params: AlgebraParams, n):
    """F(n) = n + beta_{n mod lambda}; F(0) = 0, F(mu) = lam*beta_bar_mu and
    F(n < 0) = 0.  n is one level or an integer array of levels."""
    if isinstance(n, np.ndarray):
        return np.where(n < 0, 0.0, n + np.asarray(params.beta)[n % params.lam])
    if n < 0:
        return 0.0
    return n + params.beta_at(n)


def energy_eigenvalue(params: AlgebraParams, n: int) -> float:
    """E_n = n + gamma_{n mod lambda} + 1/2."""
    return n + params.gamma(n % params.lam) + 0.5


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense complex matrix on |0>..|K-1| with frozen entries."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entries.setflags(write=False)

    def commutator(self, other: "TruncatedOperator") -> "TruncatedOperator":
        e = self.entries @ other.entries - other.entries @ self.entries
        return TruncatedOperator(self.dim, e)

    def interior(self, margin: int) -> np.ndarray:
        """Leading (dim-margin) x (dim-margin) block, where band formulas are exact."""
        k = self.dim - margin
        return self.entries[:k, :k]


def build_operator(
    params: AlgebraParams, kind: str, dim: int, mu: int | None = None
) -> TruncatedOperator:
    """Realize one generator as a K x K matrix on the number basis.

    a and adag carry sqrt(F) on the off-diagonal bands; H0, J0 use the
    exact eigenvalues; Jplus/Jminus use the exact lambda-band products
    of F values instead of powers of the truncated ladder matrices.
    """
    lam = params.lam
    if dim < lam:
        raise TruncationTooSmall(f"need dim >= lambda = {lam}, got {dim}")
    if kind not in OPERATOR_KINDS:
        raise ShapeError(f"unknown operator kind {kind!r}")
    m = np.zeros((dim, dim), dtype=complex)
    if kind == "a":
        for n in range(1, dim):
            m[n - 1, n] = math.sqrt(structure_function(params, n))
    elif kind == "adag":
        for n in range(dim - 1):
            m[n + 1, n] = math.sqrt(structure_function(params, n + 1))
    elif kind == "N":
        np.fill_diagonal(m, np.arange(dim))
    elif kind == "P":
        if mu is None:
            raise ShapeError("P requires a sector index mu")
        for n in range(dim):
            if n % lam == mu % lam:
                m[n, n] = 1.0
    elif kind == "H0":
        for n in range(dim):
            m[n, n] = energy_eigenvalue(params, n)
    elif kind == "J0":
        for n in range(dim):
            m[n, n] = energy_eigenvalue(params, n) / lam
    elif kind in ("Jplus", "Jminus"):
        for n in range(dim - lam):
            prod = 1.0
            for j in range(1, lam + 1):
                prod *= structure_function(params, n + j)
            v = math.sqrt(prod) / lam
            if kind == "Jplus":
                m[n + lam, n] = v
            else:
                m[n, n + lam] = v
    return TruncatedOperator(dim, m)


def sga_structure_poly(params: AlgebraParams, j0: float, mu: int) -> float:
    """[J+, J-] eigenvalue polynomial f(J0, P_mu) on sector mu at J0 = j0.

    Degree lambda-1 in j0; alpha indices wrap cyclically.
    """
    lam = params.lam
    if not 0 <= mu < lam:
        raise IndexError(f"mu must lie in [0, {lam}), got {mu}")

    def w(l: int) -> float:
        # 1/2 (2l + 1 + alpha_mu + 2 sum_{m=1..l} alpha_{mu+m})
        s = 2 * l + 1 + params.alpha_at(mu)
        for mm in range(1, l + 1):
            s += 2.0 * params.alpha_at(mu + mm)
        return 0.5 * s

    def v(j: int) -> float:
        # 1/2 (-2j - 1 + alpha_mu + 2 sum_{k=1..lam-j-1} alpha_{mu+k})
        s = -2 * j - 1 + params.alpha_at(mu)
        for kk in range(1, lam - j):
            s += 2.0 * params.alpha_at(mu + kk)
        return 0.5 * s

    x = lam * j0

    def t(count: int) -> float:
        prod = 1.0
        for l in range(count):
            prod *= x + w(l)
        return prod

    total = t(lam - 1)
    head = x - 0.5 * (1.0 + params.alpha_at(mu))
    for i in range(1, lam):
        prod = head
        for j in range(1, i):
            prod *= x + v(j)
        prod *= t(lam - i - 1)
        total += prod
    return -total / lam


def log_fock_norms(params: AlgebraParams, n_max: int) -> np.ndarray:
    """L(n) = log prod_{j=1..n} F(j) for n = 0..n_max, as a cumulative sum of log F(j).

    |n> = (adag)^n |0> / exp(L(n)/2); the coherent-state coefficients,
    Bargmann basis weights and resolution diagonals all derive from L.
    """
    log_f = np.log(structure_function(params, np.arange(1, n_max + 1)))
    return np.concatenate(([0.0], np.cumsum(log_f)))

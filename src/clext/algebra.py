"""Parameter validation and banded truncated realization of the algebra.

The C_lambda-extended oscillator is fixed by lambda >= 2 and real
parameters alpha_0..alpha_{lambda-1} with sum zero and partial sums
beta_mu = sum_{nu<mu} alpha_nu > -mu.  Every generator shifts the Fock
level by a fixed amount (a, adag by one, J+- by lambda, the rest not at
all), so on the number basis |0>..|K-1> each is one real band, and
products and matvecs cost O(K).  Bands use exact structure-function
values, so only the last lambda levels of any identity are corrupted by
truncation.
"""

from __future__ import annotations

import itertools
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
    F(n < 0) = 0.  n is one level (an np.float64 for one algebra) or an
    integer array of levels; for a stack of algebras of one lambda (a
    sequence of AlgebraParams) the result gains a leading stack axis."""
    n = np.asarray(n)
    beta = np.array(params.beta if isinstance(params, AlgebraParams) else [p.beta for p in params])
    return np.where(n < 0, 0.0, n + beta[..., n % beta.shape[-1]])[()]


def energy_eigenvalue(params: AlgebraParams, n):
    """E_n = n + gamma_{n mod lambda} + 1/2; n is one level or an integer array of levels."""
    gamma = np.array([params.gamma(mu) for mu in range(params.lam)])
    return n + gamma[n % params.lam] + 0.5


def _shifted(v: np.ndarray, s: int) -> np.ndarray:
    """w[..., n] = v[..., n + s], zero where n + s falls outside v's last axis."""
    w = np.zeros_like(v)
    k = v.shape[-1] - abs(s)
    if k > 0:
        w[..., max(0, -s):max(0, -s) + k] = v[..., max(0, s):max(0, s) + k]
    return w


@dataclass(frozen=True)
class TruncatedOperator:
    """One band on |0>..|K-1>: op[n, n + offset] = band[n].

    band is real, of length dim, and zero where n + offset falls outside
    the truncation.  A @ B is the band product (offsets add), A @ c the
    O(K) matvec of c, or of every row of a stack c (.., K), and A - B needs
    equal offsets.
    """

    dim: int
    offset: int
    band: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.band.setflags(write=False)

    def __matmul__(self, other):
        if isinstance(other, TruncatedOperator):
            if other.dim != self.dim:
                raise ShapeError(f"dims differ: {self.dim} and {other.dim}")
            return TruncatedOperator(
                self.dim, self.offset + other.offset, self.band * _shifted(other.band, self.offset)
            )
        c = np.asarray(other)
        if c.shape[-1:] != (self.dim,):
            raise ShapeError(f"need vectors of length {self.dim}, got shape {c.shape}")
        return self.band * _shifted(c, self.offset)

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        if (other.dim, other.offset) != (self.dim, self.offset):
            raise ShapeError(
                f"cannot subtract offset {other.offset} (dim {other.dim}) "
                f"from offset {self.offset} (dim {self.dim})"
            )
        return TruncatedOperator(self.dim, self.offset, self.band - other.band)


def build_operator(
    params: AlgebraParams, kind: str, dim: int, mu: int | None = None
) -> TruncatedOperator:
    """Realize one generator as its band on the number basis |0>..|dim-1>.

    a and adag carry sqrt(F) one level off the diagonal; H0, J0 use the
    exact eigenvalues; Jplus/Jminus use the exact products of lambda
    consecutive F values instead of powers of the truncated ladders.
    """
    lam = params.lam
    if dim < lam:
        raise TruncationTooSmall(f"need dim >= lambda = {lam}, got {dim}")
    if kind not in OPERATOR_KINDS:
        raise ShapeError(f"unknown operator kind {kind!r}")
    n = np.arange(dim)
    if kind == "a":
        return TruncatedOperator(dim, 1, _shifted(np.sqrt(structure_function(params, n)), 1))
    if kind == "adag":
        # F(0) = 0 leaves band[0] zero
        return TruncatedOperator(dim, -1, np.sqrt(structure_function(params, n)))
    if kind in ("Jplus", "Jminus"):
        # v[n] = sqrt(F(n+1) .. F(n+lam)) / lam links n and n + lam
        v = np.sqrt(np.prod(structure_function(params, n[:, None] + np.arange(1, lam + 1)),
                            axis=1)) / lam
        v[dim - lam:] = 0.0
        if kind == "Jminus":
            return TruncatedOperator(dim, lam, v)
        return TruncatedOperator(dim, -lam, _shifted(v, -lam))
    if kind == "N":
        diag = n.astype(float)
    elif kind == "P":
        if mu is None:
            raise ShapeError("P requires a sector index mu")
        diag = (n % lam == mu % lam).astype(float)
    elif kind == "H0":
        diag = energy_eigenvalue(params, n)
    else:
        diag = energy_eigenvalue(params, n) / lam
    return TruncatedOperator(dim, 0, diag)


def sga_structure_poly(params: AlgebraParams, j0, mu: int):
    """[J+, J-] eigenvalue polynomial f(J0, P_mu) on sector mu at J0 = j0.

    Degree lambda-1 in j0; alpha indices wrap cyclically.  j0 is one
    value or an array of them.
    """
    lam = params.lam
    if not 0 <= mu < lam:
        raise IndexError(f"mu must lie in [0, {lam}), got {mu}")
    alpha = [params.alpha_at(mu + i) for i in range(lam)]
    # sums[l] = sum_{m=1..l} alpha_{mu+m}, so that
    # w(l) = 1/2 (2l + 1 + alpha_mu + 2 sums[l]) and
    # v(j) = 1/2 (-2j - 1 + alpha_mu + 2 sums[lam-j-1])
    sums = list(itertools.accumulate(alpha[1:], initial=0.0))
    x = lam * j0
    # t[c] = prod_{l<c} (x + w(l))
    t = [1.0]
    for l in range(lam - 1):
        t.append(t[-1] * (x + 0.5 * (2 * l + 1 + alpha[0] + 2.0 * sums[l])))
    total = t[lam - 1]
    # term i: (x - (1 + alpha_mu)/2) prod_{j=1..i-1} (x + v(j)) t[lam-i-1]
    prod = x - 0.5 * (1.0 + alpha[0])
    for i in range(1, lam):
        total = total + prod * t[lam - i - 1]
        prod = prod * (x + 0.5 * (-2 * i - 1 + alpha[0] + 2.0 * sums[lam - i - 1]))
    return -total / lam


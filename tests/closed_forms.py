"""Closed forms kept as test references for the library's own routes.

* the generalized hypergeometric series pFq by direct summation, with its
  SeriesValue result and the errors only it raises;
* the modified Bessel I_nu of real order, behind the lambda = 2 (paraboson)
  eigenstate norm and Mandel Q;
* the explicit Mandel Q branches of the sector states (mu = 0, mu = 1,
  mu >= 2), written with ratios Phi of parameter-shifted normalization series;
* the pFq forms of the state norms and overlaps, N^(alpha)_mu(y) =
  pFq(num; den; y) over the lists states.sector_lists gives, and the sector
  components |z_mu> = P_mu |z> of the eigenstate;
* the uniqueness tests of the moment problems: the Hankel-Hadamard
  eigenvalues of the moment targets and Carleman's criterion;
* the orthonormal sector basis monomials of the Bargmann space.

The library computes these quantities from its Fock weights and weight
functions; these forms are independent derivations that the tests compare
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from clext.errors import ClextError, DomainError, NoConvergence, SectorError
from clext.measures import MomentProblem, moment_target
from clext.states import StateVector, eigenstate, log_weights, sector_lists

_EPS = 2.220446049250313e-16


# --------------------------------------------------------------------------
# generalized hypergeometric series
# --------------------------------------------------------------------------

class PoleInDenominator(ClextError, ValueError):
    """A lower hypergeometric parameter is a non-positive integer."""


class DivergentSeries(ClextError, ValueError):
    """The requested series diverges for the given argument."""


@dataclass
class SeriesValue:
    """Numeric result with an absolute-error estimate.

    converged=True means abs_error is believed to be at or below the
    requested tolerance (scaled by the magnitude of the value).
    """

    value: complex | float
    abs_error: float
    terms: int
    converged: bool

    def __float__(self) -> float:
        return float(self.value.real if isinstance(self.value, complex) else self.value)


def is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) < tol


def pfq(
    a: Sequence[float],
    b: Sequence[float],
    z: complex | float,
    tol: float = 1e-12,
    max_terms: int = 100_000,
) -> SeriesValue:
    """pFq(a; b; z) by direct summation with multiplicative term recursion.

    Stops once the geometric bound on the discarded tail, |term| r / (1 - r)
    with r a bound on the later term ratios, plus the rounding of the sum is
    at most tol * |partial sum|; that sum is the abs_error it reports.  With
    p = q+1 the ratios tend to |z|, so r = max(ratio, |z|); with p <= q they
    tend to 0, and only a falling ratio is taken as r.  Raises for
    denominator poles, for p > q+1 with z != 0, and for p = q+1 with |z| >= 1.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    terminates_at = None
    for ai in a:
        if is_nonpositive_integer(ai):
            k_stop = int(round(-ai))
            terminates_at = k_stop if terminates_at is None else min(terminates_at, k_stop)
    for bi in b:
        if is_nonpositive_integer(bi):
            if terminates_at is None or terminates_at > -round(bi):
                raise PoleInDenominator(f"lower parameter {bi} is a non-positive integer")
    p, q = len(a), len(b)
    if z == 0:
        return SeriesValue(1.0 if not isinstance(z, complex) else 1.0 + 0j, 0.0, 1, True)
    if p > q + 1:
        raise DivergentSeries(f"{p}F{q} diverges for z != 0")
    if p == q + 1 and abs(z) >= 1.0:
        raise DivergentSeries(f"{p}F{q} requires |z| < 1, got |z| = {abs(z)}")

    total = 1.0 + 0j if isinstance(z, complex) else 1.0
    term = total
    ratio = 0.0
    for k in range(max_terms):
        if terminates_at is not None and k >= terminates_at:
            return SeriesValue(total, 0.0, k + 1, True)
        num = 1.0
        for ai in a:
            num *= ai + k
        den = k + 1.0
        for bi in b:
            den *= bi + k
        term = term * (num / den) * z
        total += term
        if abs(total) > 1e290:
            raise NoConvergence("pFq partial sums overflow")
        last, ratio = ratio, abs(num / den * z)
        r = max(ratio, abs(z)) if p == q + 1 else (ratio if ratio <= last else 1.0)
        if r < 1.0:
            err = abs(term) * r / (1.0 - r) + 4.0 * _EPS * abs(total)
            if err <= tol * max(abs(total), 1e-300):
                return SeriesValue(total, err, k + 2, True)
    raise NoConvergence(f"pFq did not converge within {max_terms} terms")


# --------------------------------------------------------------------------
# modified Bessel I
# --------------------------------------------------------------------------

def _gamma_sign(x: float) -> int:
    """Sign of Gamma(x) for non-pole x: negative on (-1, 0), (-3, -2), ..."""
    return 1 if x > 0 or math.floor(x) % 2 == 0 else -1


def _bessel_i_series(nu: float, x: float, tol: float) -> tuple[float, int]:
    # (x/2)^nu / Gamma(nu+1) * 0F1(nu+1; x^2/4); all terms positive, so the
    # sum is cancellation-free at any x (only cost grows with x).
    q = 0.25 * x * x
    lead = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    sg = _gamma_sign(nu + 1.0)
    term = 1.0
    total = 1.0
    for k in range(1, 3000):
        term *= q / (k * (nu + k))
        total += term
        if abs(term) < tol * abs(total):
            return sg * math.exp(lead) * total, k
    raise NoConvergence("Bessel I series did not converge")


def _asym_coeffs(nu: float, x: float, tol: float) -> tuple[float, int]:
    # sum_k a_k(nu) (-1/x)^k with a_k = prod (4nu^2-(2j-1)^2)/(k! 8^k), the
    # large-x series of I_nu; truncated at the smallest term.
    mu4 = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    prev = 1.0
    for k in range(1, 60):
        term *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k) * (-1.0 / x)
        if abs(term) > abs(prev):
            break
        total += term
        prev = term
        if abs(term) < tol * abs(total):
            break
    return total, k


def bessel_i(nu: float, x: float, tol: float = 1e-14) -> SeriesValue:
    """Modified Bessel I_nu(x) for real order, x >= 0."""
    if x < 0:
        raise DomainError("bessel_i requires x >= 0")
    if x == 0.0:
        if nu == 0.0:
            return SeriesValue(1.0, 0.0, 1, True)
        if nu > 0.0:
            return SeriesValue(0.0, 0.0, 1, True)
        raise DomainError("I_nu(0) is singular for nu < 0")
    if x > 30.0 and 4.0 * nu * nu + 3.0 < 2.0 * x:
        s, k = _asym_coeffs(nu, x, tol)
        val = math.exp(x) / math.sqrt(2.0 * math.pi * x) * s
        return SeriesValue(val, abs(val) * max(tol, 1e-15), k, True)
    val, k = _bessel_i_series(nu, x, tol)
    return SeriesValue(val, abs(val) * max(tol, (k + 4) * _EPS), k, True)


def mandel_q_bessel(params, z_abs: float) -> float:
    """Mandel Q of the lambda = 2 eigenstate |z> from the Bessel form of its norm."""
    if params.lam != 2:
        raise DomainError("the Bessel closed form only exists at lambda = 2")
    t = z_abs**2 / 2.0
    bb1 = params.beta_bar_at(1)
    if t <= 1e-14:
        return 0.0
    i_m = bessel_i(bb1 - 1.0, 2.0 * t).value
    i_p = bessel_i(bb1, 2.0 * t).value
    r = i_p / (i_m + i_p)
    # denominator is <N> = 2t + (1 - 2 bb1) R, which follows from the
    # Bessel recurrences; a minus sign here fails the series oracle
    return (
        (1.0 - 2.0 * bb1)
        * (2.0 * t - 2.0 * (2.0 * t + bb1) * r - (1.0 - 2.0 * bb1) * r * r)
        / (2.0 * t + (1.0 - 2.0 * bb1) * r)
    )


# --------------------------------------------------------------------------
# Phi-ratio branch forms of the sector Mandel Q
# --------------------------------------------------------------------------

def _shifted_lists(params, mu: int, alpha: int, shift: int):
    """Parameter lists of the normalization pFq of (mu, alpha) in which every
    beta_bar with index <= shift gains +1; shift = mu is the plain norm."""

    def bb(j: int) -> float:
        v = params.beta_bar_at(j)
        return v + 1.0 if j <= shift else v

    num = [bb(j) for j in range(mu + 1, mu + alpha + 1)]
    den = [bb(j) for j in range(1, mu + 1)]
    den += [bb(j) for j in range(mu + alpha + 1, params.lam)]
    return num, den


def phi_ratio(params, mu: int, alpha: int, y: float, shift_num: int, shift_den: int) -> float:
    """Ratio of parameter-shifted normalization series (the Phi functions)."""
    num_u, den_u = _shifted_lists(params, mu, alpha, shift_num)
    num_l, den_l = _shifted_lists(params, mu, alpha, shift_den)
    return pfq(num_u, den_u, y).value.real / pfq(num_l, den_l, y).value.real


def sector_y(params, z, alpha: int) -> float:
    """The pFq argument y = |z|^2 / lambda^(lambda - 2 alpha) of |z; mu; alpha>."""
    return abs(z) ** 2 / params.lam ** (params.lam - 2 * alpha)


def mandel_q_branch_form(p, z, sector) -> float:
    """The explicit Q branches (mu = 0, mu = 1, mu >= 2) with Phi ratios."""
    mu, alpha = sector
    lam = p.lam
    bb = p.beta_bar_at
    y = sector_y(p, z, alpha)
    if mu == 0:
        pref = 1.0
        for nu in range(1, alpha + 1):
            pref *= bb(nu)
        for nu in range(alpha + 1, lam):
            pref /= bb(nu)
        return (
            lam
            * (
                1.0
                - bb(lam - 1)
                - pref * y * phi_ratio(p, 0, alpha, y, lam - 1, 0)
                + bb(lam - 1) * phi_ratio(p, 0, alpha, y, lam - 2, lam - 1)
            )
            - 1.0
        )
    if mu == 1:
        phi01 = phi_ratio(p, 1, alpha, y, 0, 1)
        pref = 1.0
        for nu in range(2, alpha + 2):
            pref *= bb(nu)
        for nu in range(alpha + 2, lam):
            pref /= bb(nu)
        den = 1.0 / lam - bb(1) + bb(1) * phi01
        num = (
            (bb(1) - 1.0 / lam) * (1.0 + lam * bb(1) * phi01)
            - lam * bb(1) ** 2 * phi01**2
            + lam * pref * y * phi_ratio(p, 1, alpha, y, lam - 1, 1)
        )
        return num / den
    phi_m1 = phi_ratio(p, mu, alpha, y, mu - 1, mu)
    phi_m2 = phi_ratio(p, mu, alpha, y, mu - 2, mu)
    den = mu / lam - bb(mu) + bb(mu) * phi_m1
    num = (
        bb(mu)
        - mu / lam
        + lam * bb(mu) * (bb(mu) - bb(mu - 1) - 1.0 / lam) * phi_m1
        - lam * bb(mu) ** 2 * phi_m1**2
        + lam * bb(mu - 1) * bb(mu) * phi_m2
    )
    return num / den


# --------------------------------------------------------------------------
# pFq forms of the state norms and overlaps
# --------------------------------------------------------------------------

def norm_series_cs_alpha(params, mu: int, alpha: int, y: float) -> SeriesValue:
    """N^(alpha)_mu as a pFq value at argument y."""
    num, den = sector_lists(params, (mu, alpha))
    return pfq(num, den, y)


def eigenstate_norm_components(params, t: float) -> list[float]:
    """N^(0)_mu(|omega|) for mu = 0..lambda-1, as functions of t = |z|^2/lambda."""
    return [norm_series_cs_alpha(params, mu, 0, t**params.lam).value.real
            for mu in range(params.lam)]


def eigenstate_norm(params, t: float) -> float:
    """Normalization N(|z|) = sum_mu N^(0)_mu(t^lam) t^mu / prod beta_bar."""
    total = 0.0
    pref = 1.0
    for mu, comp in enumerate(eigenstate_norm_components(params, t)):
        if mu > 0:
            pref *= t / params.beta_bar_at(mu)
        total += comp * pref
    return total


def component_zmu(params, z: complex, mu: int, dim: int = 64) -> StateVector:
    """Sector component |z_mu> = P_mu |z> (not renormalized).

    The components sum to the eigenstate and are mutually orthogonal;
    their squared norms are N^(0)_mu(t^lam) t^mu / (prod beta_bar * N).
    """
    lam = params.lam
    if not 0 <= mu < lam:
        raise SectorError(f"mu must lie in [0, {lam})")
    full = eigenstate(params, z, dim)
    coeffs = np.array(full.coeffs)
    coeffs[np.arange(full.dim) % lam != mu] = 0.0
    t = abs(z) ** 2 / lam
    pref = t**mu
    for nu in range(1, mu + 1):
        pref /= params.beta_bar_at(nu)
    norm_sq = eigenstate_norm_components(params, t)[mu] * pref / full.norm_sq_analytic
    return StateVector(full.dim, coeffs, norm_sq, full.tail_bound)


def overlap_cs_alpha(params, z1, sector1, z2, sector2) -> complex:
    """<z1; sector1|z2; sector2> from the closed hypergeometric form."""
    (mu, alpha1), (mu2, alpha2) = sector1, sector2
    if mu != mu2:
        return 0.0
    lam = params.lam
    num = sector_lists(params, (mu, min(alpha1, alpha2)))[0]
    den = sector_lists(params, (mu, max(alpha1, alpha2)))[1]
    w = z1.conjugate() * z2 / lam ** (lam - alpha1 - alpha2)
    n1 = norm_series_cs_alpha(params, mu, alpha1, sector_y(params, z1, alpha1)).value.real
    n2 = norm_series_cs_alpha(params, mu, alpha2, sector_y(params, z2, alpha2)).value.real
    return complex(pfq(num, den, w).value) / math.sqrt(n1 * n2)


def overlap_eigenstate(params, z1: complex, z2: complex) -> complex:
    """<z1|z2> from the closed form (complex pFq argument)."""
    lam = params.lam
    w = z1.conjugate() * z2 / lam
    total = 0.0 + 0.0j
    pref = 1.0 + 0.0j
    for mu in range(lam):
        if mu > 0:
            pref *= w / params.beta_bar_at(mu)
        num, den = sector_lists(params, (mu, 0))
        total += complex(pfq(num, den, w**lam).value) * pref
    n1 = eigenstate_norm(params, abs(z1) ** 2 / lam)
    n2 = eigenstate_norm(params, abs(z2) ** 2 / lam)
    return total / math.sqrt(n1 * n2)


# --------------------------------------------------------------------------
# uniqueness of the moment problems
# --------------------------------------------------------------------------

def hankel_hadamard(problem: MomentProblem, order: int) -> tuple[float, float]:
    """Minimal eigenvalues of the two Hankel-Hadamard moment matrices."""
    if order > 10:
        raise ValueError("order above 10 is numerically meaningless here")
    h0 = np.empty((order, order))
    h1 = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            h0[i, j] = moment_target(problem, i + j)
            h1[i, j] = moment_target(problem, i + j + 1)
    return float(np.linalg.eigvalsh(h0).min()), float(np.linalg.eigvalsh(h1).min())


@dataclass(frozen=True)
class CarlemanResult:
    exponent: float
    verdict: str  # unique | possibly_nonunique | inconclusive
    partial_sum: float
    partial_sum_half: float


def carleman_test(params, alpha: int, k_sum: int = 200) -> CarlemanResult:
    """Uniqueness classification of the moment problem.

    The log-test exponent of B(k)^(-1/2k) is -(lambda/2 - alpha); the
    series sum(B(k)^(-1/2k)) diverges (unique solution) for exponent
    > -1, converges (other solutions possible) for < -1, and the test is
    silent exactly at -1.  Partial sums over k <= k_sum corroborate.
    """
    lam = params.lam
    exponent = -(lam / 2.0 - alpha)
    if exponent > -1.0 + 1e-12:
        verdict = "unique"
    elif exponent < -1.0 - 1e-12:
        verdict = "possibly_nonunique"
    else:
        verdict = "inconclusive"
    if abs(exponent + 1.0) <= 1e-12:
        verdict = "inconclusive"
    problem = MomentProblem(params, (0, alpha))
    s_full = 0.0
    s_half = 0.0
    for k in range(1, k_sum + 1):
        term = math.exp(-problem.log_B(k) / (2.0 * k))
        s_full += term
        if k <= k_sum // 2:
            s_half += term
    return CarlemanResult(exponent, verdict, s_full, s_half)


# --------------------------------------------------------------------------
# Bargmann basis monomials
# --------------------------------------------------------------------------

def basis_function(params, mu: int, alpha: int, k: int) -> np.ndarray:
    """Orthonormal basis monomial phi_{mu,k}(z) = |c_k / z^k| z^k of |z; mu; alpha>."""
    coeffs = np.zeros(k + 1, dtype=complex)
    coeffs[k] = math.exp(0.5 * sum(log_weights(params, k, (mu, alpha)))[k])
    return coeffs

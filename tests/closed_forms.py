"""Closed forms kept as test references for the library's own routes.

* the modified Bessel I_nu of real order, behind the lambda = 2 (paraboson)
  eigenstate norm and Mandel Q;
* the explicit Mandel Q branches of the sector states (mu = 0, mu = 1,
  mu >= 2), written with ratios Phi of parameter-shifted normalization series;
* the pFq forms of the state norms and overlaps, N^(alpha)_mu(y) =
  pFq(num; den; y) over the lists states.sector_lists gives, and the sector
  components |z_mu> = P_mu |z> of the eigenstate.

The library computes these quantities from its Fock weights; these forms
are independent derivations that the tests compare against.
"""

from __future__ import annotations

import math

import numpy as np

from clext.errors import DomainError, NoConvergence, SectorError
from clext.specfun import SeriesValue, pfq
from clext.states import CsAlphaSpec, StateVector, eigenstate, sector_lists

_EPS = 2.220446049250313e-16


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


def mandel_q_branch_form(spec) -> float:
    """The explicit Q branches (mu = 0, mu = 1, mu >= 2) with Phi ratios."""
    p, mu, alpha = spec.params, spec.mu, spec.alpha
    lam = p.lam
    bb = p.beta_bar_at
    y = spec.y
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
    num, den = sector_lists(params, mu, alpha)
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
    return StateVector(full.dim, coeffs, norm_sq, full.tail_bound, False)


def overlap_cs_alpha(s1: CsAlphaSpec, s2: CsAlphaSpec) -> complex:
    """<s1|s2> from the closed hypergeometric form."""
    if s1.params is not s2.params and s1.params != s2.params:
        raise DomainError("overlap requires identical algebra parameters")
    if s1.mu != s2.mu:
        return 0.0
    params = s1.params
    lam = params.lam
    mu = s1.mu
    num = sector_lists(params, mu, min(s1.alpha, s2.alpha))[0]
    den = sector_lists(params, mu, max(s1.alpha, s2.alpha))[1]
    w = s1.z.conjugate() * s2.z / lam ** (lam - s1.alpha - s2.alpha)
    n1 = norm_series_cs_alpha(params, mu, s1.alpha, s1.y).value.real
    n2 = norm_series_cs_alpha(params, mu, s2.alpha, s2.y).value.real
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
        num, den = sector_lists(params, mu, 0)
        total += complex(pfq(num, den, w**lam).value) * pref
    n1 = eigenstate_norm(params, abs(z1) ** 2 / lam)
    n2 = eigenstate_norm(params, abs(z2) ** 2 / lam)
    return total / math.sqrt(n1 * n2)

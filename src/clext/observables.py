"""Photon statistics (Mandel Q) and quadrature squeezing for both
coherent-state families.

Closed forms evaluate the hypergeometric moment expressions (exact
term-wise derivatives of the normalization series); the oracle path
contracts the truncated coefficient vectors against the ladder matrices.
Both are exposed so every figure can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, structure_function
from .errors import DomainError
from .specfun import _asym_coeffs, bessel_i, pfq
from .states import (
    CsAlphaSpec,
    StateVector,
    _cs_alpha_lists,
    cs_alpha_state,
    eigenstate,
    eigenstate_norm_components,
)


@dataclass(frozen=True)
class PhotonStats:
    mean_N: float
    mean_N2: float
    mandel_Q: float
    source: str  # closed_form | vector_oracle | closed_limit | bessel_form

    @property
    def variance(self) -> float:
        return self.mean_N2 - self.mean_N**2


@dataclass(frozen=True)
class SqueezeReport:
    variance_x: float
    variance_p: float
    vacuum_x: float
    vacuum_p: float
    uncertainty_lhs: float
    uncertainty_rhs: float
    kind: str  # dressed | real
    source: str

    @property
    def X(self) -> float:
        return self.variance_x / self.vacuum_x

    @property
    def P(self) -> float:
        return self.variance_p / self.vacuum_p


# --------------------------------------------------------------------------
# normalization-series moments
# --------------------------------------------------------------------------

def _norm_derivatives(params: AlgebraParams, mu: int, alpha: int, y: float):
    """(N, N', N'') of the sector normalization series at argument y."""
    num, den = _cs_alpha_lists(params, mu, alpha)
    n0 = pfq(num, den, y).value.real
    f1 = 1.0
    for v in num:
        f1 *= v
    for v in den:
        f1 /= v
    n1 = f1 * pfq([v + 1 for v in num], [v + 1 for v in den], y).value.real
    f2 = f1
    for v in num:
        f2 *= v + 1.0
    for v in den:
        f2 /= v + 1.0
    n2 = f2 * pfq([v + 2 for v in num], [v + 2 for v in den], y).value.real
    return n0, n1, n2


def _moments_cs_alpha(spec: CsAlphaSpec):
    """<N>, <N^2> from term-wise derivatives of the normalization series."""
    p, mu, alpha = spec.params, spec.mu, spec.alpha
    lam = p.lam
    y = spec.y
    n0, n1, n2 = _norm_derivatives(p, mu, alpha, y)
    mean = mu + lam * y * n1 / n0
    mean2 = (
        lam**2 * (y * n1 + y * y * n2) / n0
        + 2.0 * mu * lam * y * n1 / n0
        + mu * mu
    )
    return mean, mean2


def phi_ratio(
    params: AlgebraParams, mu: int, alpha: int, y: float, shift_num: int, shift_den: int
) -> float:
    """Ratio of parameter-shifted normalization series (the Phi functions)."""
    num_u, den_u = _cs_alpha_lists(params, mu, alpha, shift=shift_num)
    num_l, den_l = _cs_alpha_lists(params, mu, alpha, shift=shift_den)
    return pfq(num_u, den_u, y).value.real / pfq(num_l, den_l, y).value.real


def mandel_q_branch_form(spec: CsAlphaSpec) -> float:
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


def mandel_q_cs_alpha(spec: CsAlphaSpec, method: str = "closed") -> PhotonStats:
    """Mandel Q of |z; mu; alpha>.

    closed: series-derivative moments (plus the (1+y)/(1-y) displacement
    form at lambda = 2, alpha = 1, mu = 0, exact); oracle: truncated
    coefficient vector.  At z = 0 with mu = 0 the 0/0 ratio is replaced
    by the analytic limit lambda - 1 (a number state has Q = -1).
    """
    p, mu = spec.params, spec.mu
    lam = p.lam
    if method == "oracle":
        st = cs_alpha_state(spec)
        n = np.arange(st.dim)
        pr = np.abs(st.coeffs) ** 2
        mean = float(n @ pr)
        mean2 = float((n.astype(float) ** 2) @ pr)
        q = ((mean2 - mean**2) - mean) / mean if mean > 0 else (lam - 1.0 if mu == 0 else -1.0)
        return PhotonStats(mean, mean2, q, "vector_oracle")
    if method != "closed":
        raise DomainError(f"unknown method {method!r}")
    mean, mean2 = _moments_cs_alpha(spec)
    if mean <= 1e-13:
        return PhotonStats(mean, mean2, lam - 1.0 if mu == 0 else -1.0, "closed_limit")
    if lam == 2 and spec.alpha == 1 and mu == 0:
        q = (1.0 + spec.y) / (1.0 - spec.y)
        return PhotonStats(mean, mean2, q, "closed_form")
    q = ((mean2 - mean**2) - mean) / mean
    return PhotonStats(mean, mean2, q, "closed_form")


def _eigenstate_s_series(params: AlgebraParams, t: float):
    """(norm, S1, S2) entering the eigenstate photon moments, plus the
    sector norm components they are summed from."""
    lam = params.lam
    bb = params.beta_bar_at
    comps = eigenstate_norm_components(params, t)
    norm = 0.0
    s1 = 0.0
    s2 = 0.0
    pref = 1.0
    for mu in range(lam):
        if mu > 0:
            pref *= t / bb(mu)
        norm += comps[mu] * pref
        s1 += comps[mu] * (t + mu / lam - bb(mu)) * pref
        s2 += comps[mu] * (
            mu * (mu - 1) / lam
            - (2 * mu - 1) * bb(mu)
            + lam * bb(mu) ** 2
            + (2 * mu + 1 - lam * bb(mu) - lam * bb(mu + 1)) * t
            + lam * t * t
        ) * pref
    return norm, s1, s2, comps


def mandel_q_eigenstate(params: AlgebraParams, z_abs: float, method: str = "closed") -> PhotonStats:
    """Mandel Q of the annihilation-operator eigenstate |z|."""
    lam = params.lam
    t = z_abs**2 / lam
    if method == "oracle":
        st = eigenstate(params, z_abs)
        n = np.arange(st.dim)
        pr = np.abs(st.coeffs) ** 2
        mean = float(n @ pr)
        mean2 = float((n.astype(float) ** 2) @ pr)
        q = ((mean2 - mean**2) - mean) / mean if mean > 0 else 0.0
        return PhotonStats(mean, mean2, q, "vector_oracle")
    if method == "bessel":
        if lam != 2:
            raise DomainError("the Bessel closed form only exists at lambda = 2")
        bb1 = params.beta_bar_at(1)
        if t <= 1e-14:
            return PhotonStats(0.0, 0.0, 0.0, "closed_limit")
        i_m = bessel_i(bb1 - 1.0, 2.0 * t).value
        i_p = bessel_i(bb1, 2.0 * t).value
        r = i_p / (i_m + i_p)
        # denominator is <N> = 2t + (1 - 2 bb1) R, which follows from the
        # Bessel recurrences; a minus sign here fails the series oracle
        q = (
            (1.0 - 2.0 * bb1)
            * (2.0 * t - 2.0 * (2.0 * t + bb1) * r - (1.0 - 2.0 * bb1) * r * r)
            / (2.0 * t + (1.0 - 2.0 * bb1) * r)
        )
        norm, s1, _, _ = _eigenstate_s_series(params, t)
        mean = lam * s1 / norm
        return PhotonStats(mean, (q + mean + 1.0) * mean + 1e-300, q, "bessel_form")
    if method != "closed":
        raise DomainError(f"unknown method {method!r}")
    if t <= 1e-14:
        return PhotonStats(0.0, 0.0, 0.0, "closed_limit")
    norm, s1, s2, _ = _eigenstate_s_series(params, t)
    mean = lam * s1 / norm
    q = s2 / s1 - lam * s1 / norm
    mean2 = (q + mean) * mean + mean
    return PhotonStats(mean, mean2, q, "closed_form")


# --------------------------------------------------------------------------
# quadrature squeezing
# --------------------------------------------------------------------------

def _contractions(params: AlgebraParams, st: StateVector):
    """Expectation values needed by the quadrature variances."""
    lam = params.lam
    c = st.coeffs
    n_arr = np.arange(st.dim, dtype=float)
    pr = np.abs(c) ** 2
    f = np.array([structure_function(params, n) for n in range(st.dim + 2)])
    sqrt_f = np.sqrt(f)
    out = {
        "N": float(n_arr @ pr),
        "N2": float((n_arr**2) @ pr),
        "FN1": float(f[1 : st.dim + 1] @ pr),  # <F(N+1)> = <a adag>
        "FN": float(f[: st.dim] @ pr),  # <F(N)> = <adag a>
    }
    out["a"] = complex(np.sum(np.conj(c[:-1]) * c[1:] * sqrt_f[1 : st.dim]))
    out["a2"] = complex(
        np.sum(np.conj(c[:-2]) * c[2:] * sqrt_f[2 : st.dim] * sqrt_f[1 : st.dim - 1])
    )
    sqrt_n = np.sqrt(n_arr)
    out["b"] = complex(np.sum(np.conj(c[:-1]) * c[1:] * sqrt_n[1:]))
    out["b2"] = complex(np.sum(np.conj(c[:-2]) * c[2:] * sqrt_n[2:] * sqrt_n[1:-1]))
    return out


def _report_from_contractions(ex, vac_x, vac_p, kind, source) -> SqueezeReport:
    if kind == "dressed":
        h0 = 0.5 * (ex["FN"] + ex["FN1"])
        mean_x = math.sqrt(2.0) * ex["a"].real
        mean_p = math.sqrt(2.0) * ex["a"].imag
        var_x = ex["a2"].real + h0 - mean_x**2
        var_p = -ex["a2"].real + h0 - mean_p**2
        rhs = 0.25 * abs(ex["FN1"] - ex["FN"]) ** 2
    else:
        mean_x = math.sqrt(2.0) * ex["b"].real
        mean_p = math.sqrt(2.0) * ex["b"].imag
        var_x = ex["b2"].real + ex["N"] + 0.5 - mean_x**2
        var_p = -ex["b2"].real + ex["N"] + 0.5 - mean_p**2
        rhs = 0.25
    return SqueezeReport(
        var_x, var_p, vac_x, vac_p, var_x * var_p, rhs, kind, source
    )


def squeezing_cs_alpha(
    spec: CsAlphaSpec, kind: str = "dressed", method: str = "closed"
) -> SqueezeReport:
    """Quadrature variances of |z; mu; alpha> (dressed or real photons).

    The sector vacuum |mu> sets the dressed reference
    (lam/2)(bb_mu + bb_{mu+1}); the real-photon reference is 1/2.  There
    is no squeezing at lambda >= 3 (both off-diagonal moments vanish).
    """
    p, mu, alpha = spec.params, spec.mu, spec.alpha
    lam = p.lam
    bb = p.beta_bar_at
    vac_x = vac_p = (
        0.5 * lam * (bb(mu) + bb(mu + 1)) if kind == "dressed" else 0.5
    )
    if method == "oracle":
        st = cs_alpha_state(spec)
        return _report_from_contractions(
            _contractions(p, st), vac_x, vac_p, kind, "vector_oracle"
        )
    if method != "closed":
        raise DomainError(f"unknown method {method!r}")
    mean_n, _ = _moments_cs_alpha(spec)
    gamma_term = p.gamma(mu) + 0.5
    if kind == "dressed":
        h0 = mean_n + gamma_term
        off = 0.0
        if lam == 2:
            if alpha == 0:
                off = spec.z.real  # <J+ + J-> = Re z for the a^2 eigenstates
            elif alpha == 1 and mu == 0:
                off = spec.z.real * (mean_n + 2.0 * bb(1))
            else:
                return squeezing_cs_alpha(spec, kind, "oracle")
        var_x = h0 + off
        var_p = h0 - off
        rhs = 0.25 * (lam * (bb(mu + 1) - bb(mu))) ** 2
        return SqueezeReport(var_x, var_p, vac_x, vac_p, var_x * var_p, rhs, kind, "closed_form")
    # real photons: <b> = 0 in a sector state; at lambda = 2 the b^2
    # off-diagonal term survives, with <b^2> = z <sqrt-ratio> through the
    # defining-equation coefficient recursion (a^2 - z for alpha = 0,
    # a - z adag for alpha = 1)
    off = 0.0
    if lam == 2:
        num, den = _cs_alpha_lists(p, mu, alpha)
        y = spec.y
        n0 = pfq(num, den, y).value.real
        w = 1.0
        acc = 0.0
        for k in range(400):
            n = k * lam + mu
            f1 = structure_function(p, n + 1)
            f2 = structure_function(p, n + 2)
            if alpha == 0:
                acc += w * math.sqrt((n + 1.0) * (n + 2.0) / (f1 * f2))
            else:
                acc += w * math.sqrt((n + 1.0) * (n + 2.0) * f1 / f2)
            term_ratio = 1.0
            for v in num:
                term_ratio *= v + k
            dd = k + 1.0
            for v in den:
                dd *= v + k
            w *= term_ratio / dd * y
            if w < 1e-18:
                break
        off = (spec.z * acc / n0).real
    var_x = mean_n + 0.5 + off
    var_p = mean_n + 0.5 - off
    return SqueezeReport(var_x, var_p, vac_x, vac_p, var_x * var_p, 0.25, kind, "closed_form")


def squeezing_eigenstate(
    params: AlgebraParams, z: complex, kind: str = "dressed", method: str = "closed"
) -> SqueezeReport:
    """Quadrature variances of |z> (minimum-uncertainty for dressed photons)."""
    lam = params.lam
    bb = params.beta_bar_at
    t = abs(z) ** 2 / lam
    vac_x = vac_p = 0.5 * lam * bb(1) if kind == "dressed" else 0.5
    if method == "oracle":
        st = eigenstate(params, z)
        return _report_from_contractions(
            _contractions(params, st), vac_x, vac_p, kind, "vector_oracle"
        )
    if method != "closed":
        raise DomainError(f"unknown method {method!r}")
    if kind == "dressed" and lam == 2 and t > 200.0:
        # the normalization series overflows around t ~ 350; use the
        # exponentially scaled Bessel ratio R = I_b/(I_{b-1} + I_b)
        bb1 = bb(1)
        s_m, _ = _asym_coeffs(bb1 - 1.0, 2.0 * t, 1.0, 1e-14)
        s_p, _ = _asym_coeffs(bb1, 2.0 * t, 1.0, 1e-14)
        r = s_p / (s_m + s_p)
        var = (1.0 + (1.0 - 2.0 * bb1) * r / bb1) * vac_x
        return SqueezeReport(
            var, var, vac_x, vac_p, var * var, var * var, kind, "closed_form"
        )
    norm, s1, _, comps = _eigenstate_s_series(params, t)
    if kind == "dressed":
        total = 0.0
        pref = 1.0
        for mu in range(lam):
            if mu > 0:
                pref *= t / bb(mu)
            total += (bb(mu + 1) - bb(mu)) * comps[mu] * pref
        var = 0.5 * lam * total / norm
        return SqueezeReport(
            var, var, vac_x, vac_p, var * var, var * var, kind, "closed_form"
        )
    # real photons: E1 = <sqrt((N+1)/F(N+1))>, E2 = <sqrt((N+1)(N+2)/(F F))>
    mean_n = lam * s1 / norm
    e1 = 0.0
    e2 = 0.0
    pref = 1.0
    for mu in range(lam):
        if mu > 0:
            pref *= t / bb(mu)
        w = 1.0
        acc1 = 0.0
        acc2 = 0.0
        for k in range(400):
            n = k * lam + mu
            f1 = structure_function(params, n + 1)
            f2 = structure_function(params, n + 2)
            acc1 += w * math.sqrt((n + 1.0) / f1)
            acc2 += w * math.sqrt((n + 1.0) * (n + 2.0) / (f1 * f2))
            dd = k + 1.0
            for nu in range(1, mu + 1):
                dd *= bb(nu) + 1.0 + k
            for nu in range(mu + 1, lam):
                dd *= bb(nu) + k
            w *= t**lam / dd
            if w < 1e-18:
                break
        e1 += pref * acc1
        e2 += pref * acc2
    e1 /= norm
    e2 /= norm
    var_x = mean_n + 0.5 - abs(z) ** 2 * e2 + 2.0 * z.real**2 * (e2 - e1 * e1)
    var_p = mean_n + 0.5 - abs(z) ** 2 * e2 + 2.0 * z.imag**2 * (e2 - e1 * e1)
    return SqueezeReport(
        var_x, var_p, vac_x, vac_p, var_x * var_p, 0.25, kind, "closed_form"
    )

"""Self-contained special-function kernel.

Everything the rest of the package needs is evaluated here in double
precision with explicit error estimates: generalized hypergeometric pFq
series, the modified Bessel K of real order, and the restricted Meijer G
classes G^{m,0}_{0,m} and G^{m,0}_{alpha,m} that the unity-resolution
weight functions are built from (Slater's residue sum at small y, with
exact confluent residues for coincident or integer-spaced lower
parameters, the exponential expansion at large y, a Taylor continuation
of the Meijer differential equation down from it for the band between,
and Norlund's (1 - y) series on the unit interval).

Scalar evaluations return a SeriesValue carrying the value, an absolute
error estimate, the number of terms (or nodes) consumed and a
convergence flag; the Meijer-G and Bessel-K routes are vectorized over
their argument array.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Sequence

import numpy as np

from .errors import (
    DivergentSeries,
    DomainError,
    NoConvergence,
    PoleInDenominator,
)

__all__ = [
    "SeriesValue",
    "pfq",
    "bessel_k_vec",
    "m0_eval_vec",
    "g_general_vec",
]

_EPS = 2.220446049250313e-16


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


# --------------------------------------------------------------------------
# gamma helpers
# --------------------------------------------------------------------------

def is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) < tol


# --------------------------------------------------------------------------
# generalized hypergeometric series
# --------------------------------------------------------------------------

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


# Taylor coefficients of 1/Gamma(1 + z) to 36 digits: the first 22 reach
# 1e-18 at |z| = 1/2 (Temme's series), all 26 reach 2e-26 (_gamma_decimal).
_RGAMMA1P_DIGITS = (
    "1.0", "5.77215664901532860606512090082402431e-1", "-6.55878071520253881077019515145390481e-1",
    "-4.20026350340952355290039348754298187e-2", "1.66538611382291489501700795102105236e-1",
    "-4.21977345555443367482083012891873913e-2", "-9.62197152787697356211492167234819898e-3",
    "7.21894324666309954239501034044657271e-3", "-1.16516759185906511211397108401838867e-3",
    "-2.15241674114950972815729963053647806e-4", "1.28050282388116186153198626328164323e-4",
    "-2.01348547807882386556893914210218184e-5", "-1.25049348214267065734535947383309224e-6",
    "1.13302723198169588237412962033074494e-6", "-2.05633841697760710345015413002057284e-7",
    "6.11609510448141581786249868285534287e-9", "5.0020076444692229300556650480599913e-9",
    "-1.18127457048702014458812656543650558e-9", "1.04342671169110051049154033231225019e-10",
    "7.78226343990507125404993731136077723e-12", "-3.69680561864220570818781587808576624e-12",
    "5.1003702874544759790154813228632318e-13", "-2.05832605356650678322242954485523742e-14",
    "-5.34812253942301798237001731872793995e-15", "1.22677862823826079015889384662242243e-15",
    "-1.18125930169745876951376458684229783e-16",
)
_RGAMMA1P = tuple(float(c) for c in _RGAMMA1P_DIGITS[:22])

# Iterations of Temme's series (x < 2) and of Steed's CF2 (x >= 2) that
# reach 1e-17 at x = 2, the worst point of both.  Calls carry at most a
# few thousand points, where numpy's cost per operation outweighs the work
# per element, so one count per method beats bands of x.
_TEMME_TERMS = 15
_STEED_STEPS = 92


def _temme_k(mu: float, x: np.ndarray):
    """(K_mu, K_{mu+1}) for |mu| <= 1/2 and x < 2 by Temme's series."""
    # (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) and the mean of the two
    gam1 = -sum(c * mu ** (k - 1) for k, c in enumerate(_RGAMMA1P) if k % 2)
    gam2 = sum(c * mu**k for k, c in enumerate(_RGAMMA1P) if k % 2 == 0)
    gampl, gammi = gam2 - mu * gam1, gam2 + mu * gam1  # 1/Gamma(1 +- mu)
    fact = 1.0 if mu == 0.0 else math.pi * mu / math.sin(math.pi * mu)
    d = -np.log(0.5 * x)
    e = mu * d
    with np.errstate(invalid="ignore"):
        fact2 = np.where(e == 0.0, 1.0, np.sinh(e) / e)
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    k_mu = ff
    p = 0.5 * np.exp(e) / gampl
    q = 0.5 * np.exp(-e) / gammi
    k_1 = p
    c = np.ones_like(x)
    x2 = 0.25 * x * x
    for i in range(1, _TEMME_TERMS + 1):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c = c * x2 / i
        p = p / (i - mu)
        q = q / (i + mu)
        k_mu = k_mu + c * ff
        k_1 = k_1 + c * (p - i * ff)
    return k_mu, k_1 * (2.0 / x)


def _steed_k(mu: float, x: np.ndarray):
    """(K_mu, K_{mu+1}) for |mu| <= 1/2 and x >= 2 by Steed's CF2."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = np.zeros_like(x), np.ones_like(x)
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _STEED_STEPS + 2):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q = q + c * q2
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        s = s + q * delh
    k_mu = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) / s
    return k_mu, k_mu * (mu + x + 0.5 - a1 * h) / x


def bessel_k_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """Modified Bessel K_nu over an array of positive x, real order.

    K_mu and K_{mu+1} at mu = |nu| - round(|nu|) come from Temme's series
    for x < 2 and Steed's continued fraction CF2 above (Numerical Recipes
    section 6.7, bessik), each with a fixed iteration count; the upward
    recurrence then reaches nu.  Each distinct x is evaluated once.  Zero
    where e^-x underflows, inf where K overflows.
    """
    x = np.asarray(x, dtype=float)
    nu = abs(float(nu))
    n_up = int(nu + 0.5)
    mu = nu - n_up
    xs, where = np.unique(x, return_inverse=True)
    live = xs[np.exp(-xs) > 0.0]  # a prefix, as xs is sorted
    cut = np.searchsorted(live, 2.0)
    k0, k1 = np.empty_like(live), np.empty_like(live)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for part, step in ((slice(None, cut), _temme_k), (slice(cut, None), _steed_k)):
            if live[part].size:
                k0[part], k1[part] = step(mu, live[part])
        for i in range(1, n_up + 1):
            k0, k1 = k1, (mu + i) * (2.0 / live) * k1 + k0
    out = np.zeros_like(xs)
    out[:live.size] = k0
    return out[where].reshape(x.shape)


# --------------------------------------------------------------------------
# Meijer G
# --------------------------------------------------------------------------

# Bernoulli numbers B_2 .. B_14 of the large-x polygamma series; after
# _PSI_SHIFT recurrence steps the first dropped term is below 1e-16 of psi^(n)
# for n = 0, 1, and for larger n the shifted tail itself is that small.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6)
_PSI_SHIFT = 10


def _polygamma(n: int, x: np.ndarray) -> np.ndarray:
    """psi^(n)(x) for an array of x > 0: _PSI_SHIFT upward recurrence steps, then
    the asymptotic series at x + _PSI_SHIFT, whose B_2j term carries
    (2j + n - 1)!/(2j)! (1/(2j) for the digamma)."""
    inv = 1.0 / (x[..., None] + np.arange(_PSI_SHIFT))
    z = x + _PSI_SHIFT
    inv2 = 1.0 / (z * z)
    tail = 0.0
    for j in range(len(_BERNOULLI), 0, -1):
        bern = _BERNOULLI[j - 1]
        tail = (tail + (bern / (2 * j) if n == 0 else bern * math.perm(2 * j + n - 1, n - 1))) * inv2
    if n == 0:
        return np.log(z) - 0.5 / z - tail - inv.sum(axis=-1)
    fact = math.factorial(n)
    asym = (math.factorial(n - 1) + 0.5 * fact / z + tail) / z**n
    return (-1.0) ** (n + 1) * (asym + fact * (inv ** (n + 1)).sum(axis=-1))


_SLATER_COND_LIMIT = 1e6
_SLATER_TERMS = 700
_TINY = np.finfo(float).tiny

# Lower parameters whose difference lies within this of an integer form one
# cluster, whose poles are summed together: as separate Slater series two
# parameters a distance d apart cancel by about 1/(d |ln y|), and their
# Gamma prefactors by 1/d, digits an expansion about the cluster keeps.
_CLUSTER_GAP = 1e-2

# Taylor terms of a cluster's series at most: its polygamma coefficients
# (from order about 163) and 1/k! (from 171) leave the double range.
_CLUSTER_TERMS = 150


def _slater_reaches(r: int, y: np.ndarray, limit: float = _SLATER_COND_LIMIT) -> np.ndarray:
    """Where Slater can condition G^{m,0}_{p,m}, r = m - p > 0: its terms cancel by
    about 2^{1-r} e^{2 r y^{1/r}} (asymptotic (2 pi)^{1-r}, reflection pi^{r-1}), and
    past limit times that plus a margin of e^3 for the pre-asymptotic range it
    refuses every point."""
    return 2.0 * r * y ** (1.0 / r) <= math.log(limit) + (r - 1) * math.log(2.0) + 3.0


def _spacing(u: float) -> float:
    """Distance from u to the nearest integer."""
    return abs(u - round(u))


def _clusters(b: Sequence[float]) -> list[list[int]]:
    """Indices of b joined while two groups' integer spacing is below _CLUSTER_GAP
    or twice either group's spread, so that no other parameter's pole lies
    within twice a cluster's spread and its Taylor terms fade like 2^-k."""
    groups = [[i] for i in range(len(b))]

    def spread(g):
        off = [b[j] - b[g[0]] - round(b[j] - b[g[0]]) for j in g]
        return max(off) - min(off)

    joined = True
    while joined:
        joined = False
        for g, h in itertools.combinations(groups, 2):
            gap = min(_spacing(b[i] - b[j]) for i in g for j in h)
            if gap < max(_CLUSTER_GAP, 2.0 * spread(g), 2.0 * spread(h)):
                groups.remove(h)
                g.extend(h)
                joined = True
                break
    return sorted(sorted(g) for g in groups)


def _lgamma_series(x: Sequence[float], n: int) -> np.ndarray:
    """Taylor coefficients 1..n-1 in eps of ln Gamma(x_j + eps), one row per
    x_j >= 1 (coefficient 0 left at 0): coefficient k is psi^(k-1)(x)/k!."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((x.size, n))
    for k in range(1, n):
        out[:, k] = _polygamma(k - 1, x) / math.factorial(k)
    return out


def _exp_series(g: np.ndarray) -> np.ndarray:
    """Taylor coefficients of exp(g(eps)), g_0 = 0: n f_n = sum_k k g_k f_{n-k}."""
    f = np.zeros_like(g)
    f[0] = 1.0
    for n in range(1, g.size):
        f[n] = np.dot(np.arange(1, n + 1) * g[1:n + 1], f[n - 1::-1]) / n
    return f


def _horner(coeffs: np.ndarray, x: np.ndarray):
    """sum_i coeffs[i] x^i; the bare scalar for one coefficient."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


# Decimal digits of the residue sum's scalar work, the Gamma products and the
# steps from pole to pole: a term then carries only its conversion to a
# double and y^(c + K).  Done in doubles, they left terms up to 1e-15 off,
# which a cancellation by 1e5 turns into 1e-10.
_RESIDUE_DIGITS = 34
_RGAMMA1P_DECIMAL = tuple(Decimal(c) for c in _RGAMMA1P_DIGITS)


def _gamma_decimal(x: Decimal) -> Decimal:
    """Gamma(x), x >= 1/2, in the current Decimal context: Gamma(x0) prod (x0 + i)
    with x0 in [1/2, 3/2) and 1/Gamma(x0) from the Taylor series at 1."""
    n = int(x - Decimal("0.5"))
    x0 = x - n
    acc, z = Decimal(0), x0 - 1
    for coeff in reversed(_RGAMMA1P_DECIMAL):
        acc = acc * z + coeff
    out = 1 / acc
    for i in range(n):
        out *= x0 + i
    return out


def _cluster_series(a: list, b: list, members: list, y_top: float, ln_top: float, tol: float):
    """The residues of one cluster's poles as coefficients, for y up to y_top
    and |ln y| up to ln_top; see _slater_vec.

    Returns (c, first, value, major, last, log_size): pole K = first + i
    contributes y^(c + K) sum_d value[i, d] (ln 1/y)^d; major bounds it
    with |ln y| (R's majorant, so that the conditioning test also sees
    the cancellation inside R's own coefficients), last is the share of
    the last kept Taylor terms (spread nodes only, else None), and
    log_size[i] the log of major at ln_top.
    """
    with localcontext() as ctx:
        ctx.prec = _RESIDUE_DIGITS
        # the member with the largest fractional offset sets c, so every node x_j >= 0
        # in a cluster whose spread is below 1/2
        offset = {j: Decimal(b[j]) - Decimal(b[members[0]]) for j in members}
        c = b[max(members, key=lambda j: offset[j] - round(offset[j]))]
        diff = [Decimal(v) - Decimal(c) for v in b + a]  # exact to 1e-34
        joins = {j: int(round(diff[j])) for j in members}
        node = {j: float(joins[j] - diff[j]) for j in members}
        spread = max(abs(x) for x in node.values())
        # Taylor terms of R y^-eps over spread nodes: R's fade like (spread / rho)^k, rho
        # the distance to the nearest pole not joined at eps = 0 (the members' own
        # next poles lie 1 - spread away), and y^-eps's like (spread |ln y|)^k / k!,
        # whose tail past k = e x + 20 is below 1e-12 e^-x.  Past _CLUSTER_TERMS the
        # kept terms' share (last) leaves the points that need more unsettled.
        n = len(members)
        if spread > 0.0:
            rho = min([_spacing(float(diff[j])) for j in range(len(b)) if j not in joins] + [1.0 - spread])
            reach = 17.0 / max(1e-2, -math.log10(min(spread / rho, 0.99)))
            n = min(_CLUSTER_TERMS, n + math.ceil(max(reach, math.e * spread * ln_top + 20.0)))
        lift = max(1, math.ceil(max(1.0 - float(d) for d in diff)))
        lead = Decimal(1)
        for i, d in enumerate(diff):
            lead = lead * _gamma_decimal(d + lift) if i < len(b) else lead / _gamma_decimal(d + lift)
        series, bound = [lead], None
        if n > 1:
            rows = np.concatenate((_lgamma_series([float(d) + lift for d in diff[:len(b)]], n),
                                   -_lgamma_series([float(d) + lift for d in diff[len(b):]], n)))
            series = [lead * Decimal(t) for t in _exp_series(rows.sum(axis=0))]
            bound = [abs(lead) * Decimal(t) for t in _exp_series(np.abs(rows).sum(axis=0))]
        k = np.arange(n)
        inv_fact = np.array([1.0 / math.factorial(i) for i in range(n)])
        degree = k[:, None] + k  # [d, i]: power d of ln(1/y) times Taylor coefficient i of R
        value, major, last, log_size = [], [], [], []
        joined, coef, first, quiet = [], None, None, False
        log_peak, cut, log_top = -math.inf, math.log(tol / _SLATER_COND_LIMIT), math.log(y_top)
        steps_a, steps_b = diff[len(b):], [(j, joins.get(j), d) for j, d in enumerate(diff[:len(b)])]
        for K in range(-lift, _SLATER_TERMS):
            if joined:
                first = K if first is None else first
                if n == 1:  # one term, its own majorant
                    value.append((float(series[0]),))
                    major.append((abs(value[-1][0]),))
                    size = major[-1][0]
                else:
                    if coef is None:
                        h = np.zeros(n)
                        h[0] = 1.0
                        for x in joined:
                            for i in range(1, n):
                                h[i] += x * h[i - 1]
                        hk = degree - len(joined) + 1
                        coef = np.where((hk >= 0) & (degree < n), h[np.clip(hk, 0, n - 1)], 0.0)
                        coef *= inv_fact[:, None]
                    bounds = np.array([float(t) for t in bound])
                    value.append(coef @ np.array([float(t) for t in series]))
                    major.append(np.abs(coef) @ bounds)
                    last.append(np.where(degree == n - 1, np.abs(coef), 0.0) @ bounds)
                    size = float(_horner(major[-1], ln_top))
                if size > 0.0 and not 1e-280 < size < 1e280 and log_size:
                    break  # past the double range: the points that need more stay unsettled
                log_size.append(math.log(size) if size > 0.0 else -math.inf)
                # the sum ends two poles after the majorant, where it is largest,
                # falls below tol / _SLATER_COND_LIMIT of its peak, since ok
                # bounds the majorant by that multiple of G
                at_top = log_size[-1] + (K - first) * log_top
                log_peak = max(log_peak, at_top)
                now = at_top <= cut + log_peak
                if now and quiet and K > max(joins.values()):
                    break
                quiet = now
            # to the next pole: Gamma(x - 1 + eps) = Gamma(x + eps) / (x - 1 + eps),
            # and |1/(d + eps)| <= sum |d|^(-1-i) |eps|^i for the majorant
            for d in steps_a:
                d -= K + 1
                if n == 1:
                    series[0] *= d
                else:
                    series = [d * t + u for t, u in zip(series, [0] + series[:-1])]
                    bound = [abs(d) * t + u for t, u in zip(bound, [0] + bound[:-1])]
            for j, join, d in steps_b:
                if join == K + 1:
                    joined.append(node[j])
                    coef = None
                    continue
                d -= K + 1
                if n == 1:
                    series[0] /= d
                else:
                    s_prev = b_prev = 0
                    for i in range(n):
                        s_prev = series[i] = (series[i] - s_prev) / d
                        b_prev = bound[i] = (bound[i] + b_prev) / abs(d)
    return c, first, np.array(value), np.array(major), np.array(last) if spread > 0.0 else None, log_size


def _slater_vec(
    b: Sequence[float], y: np.ndarray, tol: float, a: Sequence[float] = (),
    limit: float = _SLATER_COND_LIMIT,
):
    """Slater's residue sum for G^{m,0}_{p,m}(y | a; b) over an array of y > 0.

    The poles of prod Gamma(b + s) are summed cluster by cluster
    (_clusters).  A cluster's members are b_j = c + n_j - x_j, integers n_j
    and small nodes x_j >= 0, with poles near s = -c - K.  With
    s = -c - K + eps,

        prod Gamma(b + s) / prod Gamma(a + s) = R_K(eps) / prod_{n_j <= K} (eps - x_j),

    R_K analytic at 0, so those poles' residues of it times y^-s add up to
    the divided difference of R_K(eps) y^-eps over the nodes: in Taylor
    coefficients, sum_k [R_K y^-eps]_k h_{k-M+1}(x), h the complete
    homogeneous symmetric polynomials of the M joined nodes (McCurdy, Ng
    & Parlett, Math. Comp. 43 (1984) 501).  Coincident and integer-spaced
    members (all x_j = 0) leave Luke's logarithmic residues, a polynomial
    of degree M - 1 in ln y; a lone parameter is one Slater series.  R_K
    starts from Gamma and its log-derivative Taylor series at arguments
    >= 1 (_gamma_decimal, _polygamma) and steps to the next pole by
    prod (a - c - K - 1 + eps) / prod (b - c - K - 1 + eps), a member's own
    factor joining the nodes; this scalar work (_cluster_series) runs in
    _RESIDUE_DIGITS decimal digits, and every cluster's poles are then
    summed over the points in one product with the powers of y.

    Returns (values, ok).  ok marks points whose sum settled (the last two
    poles' terms below tol of it), whose majorant sum |term| stays within
    limit times |value|, and, for spread nodes, whose last kept
    Taylor terms stay below tol of it; and points where the majorant, those
    Taylor terms and the last two poles all lie below the smallest normal
    double, whose G underflows.
    """
    b = [float(v) for v in b]
    a = [float(v) for v in a]
    if not y.size:
        return np.zeros_like(y), np.zeros(y.shape, dtype=bool)
    lny = np.log(y)
    parts = [_cluster_series(a, b, members, float(y.max()), float(np.abs(lny).max()), tol)
             for members in _clusters(b)]
    total, major, trunc = np.zeros_like(y), np.zeros_like(y), np.zeros_like(y)
    tail = np.full(y.shape, -np.inf)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        longest = max(len(part[2]) for part in parts)
        powers = np.cumprod(np.vstack([np.ones_like(y)] + [y] * (longest - 1)), axis=0)
        abs_ln = np.abs(lny)
        for c, first, value, major_k, last, log_size in parts:
            pref, power = np.power(y, c + first), powers[:len(value)]
            total += pref * _horner(value.T @ power, -lny)
            major += pref * _horner(major_k.T @ power, abs_ln)
            if last is not None:
                trunc += pref * _horner(last.T @ power, abs_ln)
            end = first + len(log_size)
            for K in range(max(first, end - 2), end):
                tail = np.maximum(tail, log_size[K - first] + (c + K) * lny)
        ok = (major <= limit * np.abs(total)) & (trunc <= tol * np.abs(total))
        ok &= tail <= np.log(tol * np.abs(total))
        ok |= (np.maximum(major, trunc) < _TINY) & (tail < math.log(_TINY))
    return total, ok & np.isfinite(total)


# Terms of the large-y expansion kept per list, and the share of tol below
# which its first two omitted terms must fall at a point it evaluates.  Cut
# at its smallest term instead, the first omitted term understated the error
# by up to 17x on lists with coincident lower parameters; with this cut a
# sweep of 1,240 points on 250 certified lists of lambda <= 8 stays within
# 1.2e-13 of meijerg at tol = 1e-11.
_EXPANSION_TERMS = 48
_EXPANSION_MARGIN = 1e-2


@functools.lru_cache(maxsize=64)
def _expansion_coeffs(a: tuple, b: tuple) -> tuple[float, np.ndarray]:
    """(rho, M_0..M_{n-1}), n = _EXPANSION_TERMS, of G^{m,0}_{p,m}(y) ~ (2 pi)^{(s-1)/2} s^{-1/2}
    e^{-s w} w^rho sum_k M_k w^-k, w = y^{1/s}, s = m - p >= 1 (Braaksma 1964).

    With G = e^{-s w} f(w) the Meijer ODE reads (-1)^{p-m} w^s
    prod_p (T + 1 - a_j) f = prod_m (T - b_j) f, T = (w d/dw - s w)/s, and
    T w^v = (v/s) w^v - w^{v+1}.  Row k of L is that operator (left minus
    right) on w^{rho-k}, as the coefficients of w^{rho-k+j}, j = 0..m; its
    top power cancels for every k, and M_k follows by forward substitution
    from the next one.
    """
    n, p, m = _EXPANSION_TERMS, len(a), len(b)
    s = m - p
    rho = 0.5 * (1 - s) + sum(b) - sum(a)
    nu = rho - np.arange(n)[:, None] + np.arange(m + 1)

    def product(params, shift):
        d = np.zeros((n, m + 1))
        d[:, 0] = 1.0
        for v in params:
            d = (nu / s + shift - v) * d - np.pad(d, ((0, 0), (1, 0)))[:, :-1]
        return d

    L = -product(b, 0.0)
    L[:, s:] += (-1.0) ** (p - m) * product(a, 1.0)[:, :p + 1]
    L = L.tolist()
    M = [1.0]
    for k in range(1, n):
        j = range(max(0, k + 1 - m), k)
        M.append(-sum(M[i] * L[i][i + m - 1 - k] for i in j) / L[k][m - 1])
    M = np.array(M)
    M.flags.writeable = False  # one cached array for every caller
    return rho, M


def _expansion_terms(a, b, lw: np.ndarray, tol: float):
    """(rho, M, n, err, floor) of the large-y expansion at each ln w: n terms
    are summed, those before the first k whose term and the next are both
    below _EXPANSION_MARGIN * tol; err is the larger of those two; and no k
    settles (n >= M.size - 1) below ln w = floor."""
    rho, M = _expansion_coeffs(tuple(a), tuple(b))
    with np.errstate(divide="ignore"):
        log_m = np.log(np.abs(M))
    # ln w above which term k (k >= 1) is below the threshold, then above
    # which terms k and k + 1 are, then its running minimum over k
    lw_k = (log_m[1:] - math.log(_EXPANSION_MARGIN * tol)) / np.arange(1, M.size)
    reach = np.minimum.accumulate(np.maximum(lw_k[:-1], lw_k[1:]))
    n = 1 + np.searchsorted(-reach, -lw, side="right")
    k = np.minimum(n, M.size - 2)
    with np.errstate(under="ignore", over="ignore"):
        err = np.maximum(np.exp(log_m[k] - k * lw), np.exp(log_m[k + 1] - (k + 1) * lw))
    return rho, M, n, err, reach[-1]


def _expansion_sum(M, n: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """sum_{k<n} M_k w^-k at each ln w, by Horner over the points."""
    u = np.exp(-lw)
    acc = np.zeros_like(u)
    for k in range(n.max() - 1, -1, -1):
        acc = acc * u + M[k] * (k < n)
    return acc


def _expansion_lead(a, b, lw):
    """ln of the expansion's leading factor (2 pi)^{(s-1)/2} s^{-1/2} e^{-s w} w^rho."""
    s = len(b) - len(a)
    rho = _expansion_coeffs(tuple(a), tuple(b))[0]
    return 0.5 * (s - 1) * math.log(2.0 * math.pi) - 0.5 * math.log(s) - s * np.exp(lw) + rho * lw


def _expansion_vec(a, b, y: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Large-y expansion of G^{m,0}_{p,m}, s = m - p >= 1, over an array of y.

    Each point sums the terms before the first k whose term and the next
    are both below _EXPANSION_MARGIN * tol (by Horner over the points, one
    array operation per term), or below that share of the sum where the
    sum is smaller than 1; ok marks the points where such a k exists among
    _EXPANSION_TERMS and those two terms are below that share of the sum.
    Points where the leading factor is below e^-750 are an exact 0.
    """
    lw = np.log(y) / (len(b) - len(a))
    _, M, n, err, _ = _expansion_terms(a, b, lw, tol)
    vals, ok = np.zeros_like(y), n < M.size - 1
    log_g = _expansion_lead(a, b, lw)
    # below e^-750 G is a double 0 and needs no sum
    live = ok & (log_g > -750.0)
    if not live.any():
        return vals, ok
    lw, n, err = lw[live], n[live], err[live]
    acc = _expansion_sum(M, n, lw)
    # n is chosen against tol alone; where the sum is below 1 its omitted
    # terms can miss the share of it that ok asks for, so those points
    # choose n again against tol times their sum
    redo = np.flatnonzero(err > _EXPANSION_MARGIN * tol * np.abs(acc))
    for i in redo:
        _, _, n[i], err[i], _ = _expansion_terms(a, b, lw[i], tol * abs(acc[i]))
    if redo.size:
        acc[redo] = _expansion_sum(M, n[redo], lw[redo])
    with np.errstate(under="ignore"):
        vals[live] = acc * np.exp(log_g[live])
    ok[live] = (n < M.size - 1) & (err <= _EXPANSION_MARGIN * tol * np.abs(acc))
    return vals, ok


def _expansion_state(a, b, lw: float, tol: float) -> tuple[np.ndarray, bool]:
    """(G, DG, ..., D^{m-1} G / (m-1)!), D = d/d ln y, at w = e^lw, each the exact
    derivative of the terms _expansion_vec sums there (n chosen the same
    way), and whether it accepts G there.  D e^{-s w} w^v =
    e^{-s w} ((v/s) w^v - w^{v+1}), so coefficient i of D^j G stands at
    w^{rho - i + j}."""
    s, m = len(b) - len(a), len(b)
    rho, M, n, err, _ = _expansion_terms(a, b, lw, tol)
    total = M[:n] @ np.exp(-lw * np.arange(n))
    if err > _EXPANSION_MARGIN * tol * abs(total):
        _, _, n, err, _ = _expansion_terms(a, b, lw, tol * abs(total))
    if n >= M.size - 1:
        return np.zeros(m), False
    coef, i, w = np.zeros(n + m), np.arange(n + m - 1), math.exp(lw)
    coef[:n] = M[:n]
    powers = w ** -np.arange(n + m, dtype=float)
    state = np.empty(m)
    for j in range(m):
        state[j] = coef @ powers * w**j / math.factorial(j)
        coef = np.concatenate(([0.0], coef[:-1] * (rho + j - i) / s)) - coef
    ok = err <= _EXPANSION_MARGIN * tol * abs(state[0])
    state *= math.exp(_expansion_lead(a, b, lw))
    return state, bool(ok and state[0] != 0.0)


# Taylor terms of each continuation step, and each step's length in x = ln y
# times a bound on the ODE's local exponents there.  Every solution moves
# like e^{lambda t} over a step, whose Taylor terms fall as (|lambda| h)^k / k!:
# at |lambda| h = 1.5 the first omitted one is 3e-25, and 4e-19 in the
# state's 7th derivative, C(28, 7) times more.
_TAYLOR_TERMS = 28
_TAYLOR_REACH = 1.5

# ln w spacing and length of the ladder on which the continuation starts
_START_RUNG = 0.05
_START_RUNGS = 64


def _taylor_coeffs(a, b, x0: np.ndarray) -> np.ndarray:
    """Taylor coefficients in t, shape (_TAYLOR_TERMS, steps, m), of the m solutions
    of the Meijer ODE about each x0 that start as the unit vectors: one
    recurrence for every step.  With x = x0 + t, z = (-1)^{p-m} e^{x0} and
    P_i, Q_i the coefficients of the two polynomials in D, order t^k reads
    sum_i P_i (k+1)_i g_{k+i} = sum_l r_{k-l} / l!,  r_j = z sum_i Q_i (j+1)_i g_{j+i}.
    The rows r and g share one (2n x steps m) array, and each order is two
    products of a fixed row with it.
    """
    m, p, n = len(b), len(a), _TAYLOR_TERMS
    k = np.arange(n)
    rising = np.cumprod(np.hstack((np.ones((n, 1)), k[:, None] + 1.0 + np.arange(m))), axis=1)
    fact = np.cumprod(np.maximum(k, 1.0))
    # row k of next_g gives g_{k+m} from r_0..r_k and g_k..g_{k+m-1}, row k of next_r r_k / z
    lag = k[:, None] - k
    next_g = np.hstack((np.where(lag >= 0, 1.0 / fact[np.maximum(lag, 0)], 0.0), np.zeros((n, n))))
    next_r = np.zeros((n, 2 * n))
    band = k[:n - m, None]
    next_g[band, n + band + np.arange(m)] = -np.poly(b)[:0:-1] * rising[:n - m, :m]
    upper = np.poly(np.subtract(a, 1.0))[::-1] if p else np.ones(1)
    next_r[band, n + band + np.arange(p + 1)] = upper * rising[:n - m, :p + 1]
    next_g /= rising[:, m:]
    z = (-1.0) ** (p - m) * np.repeat(np.exp(x0), m)
    rows = np.zeros((2 * n, x0.size * m))
    rows[n:n + m] = np.tile(np.eye(m), x0.size)
    for kk in range(n - m):
        rows[kk] = z * (next_r[kk] @ rows)
        rows[n + kk + m] = next_g[kk] @ rows
    return rows[n:].reshape(n, x0.size, m)


def _continuation_vec(a, b, y: np.ndarray, tol: float) -> np.ndarray:
    """G^{m,0}_{p,m}(y | a; b), s = m - p >= 1, over an array of y, continued down
    its ODE prod (D - b_j) G = (-1)^{p-m} e^x prod (D + 1 - a_j) G, x = ln y
    (DLMF 16.21), from the large-y expansion.

    G is the recessive solution at large y, so stepping down is the stable
    direction, as in Miller's algorithm (Gautschi, SIAM Rev. 9 (1967) 24).
    The state (G, DG, ..., D^{m-1} G / (m-1)!) starts at the first rung
    where _expansion_vec accepts, on a ladder above the largest y and the
    least y where the expansion's terms can settle.  Each step is
    _TAYLOR_REACH / (1 + w + max|b_j| + max|1 - a_j|) long, w = e^{x/s} at
    its top.  One recurrence (_taylor_coeffs) gives every step's
    fundamental matrix; the state moves by one m x m product per step, and
    each point is one polynomial in its step.  The remainder is the last
    two Taylor terms: per step that of the state relative to its largest
    entry, summed onto the start's _EXPANSION_MARGIN * tol; at a point
    that sum times |G| plus the point's own.  A point whose remainder
    exceeds tol |G|, or a state that overflows, raises NoConvergence.
    """
    s, m, n = len(b) - len(a), len(b), _TAYLOR_TERMS
    x = np.log(y)
    lo = float(x.min())
    base = max(float(x.max()) / s, _expansion_terms(a, b, 0.0, tol)[4])
    for rung in base + _START_RUNG * np.arange(1, _START_RUNGS + 1):
        start, ok = _expansion_state(a, b, rung, tol)
        if ok:
            break
    else:
        raise NoConvergence(
            f"Meijer-G continuation at y = {y.max():.6g} has no start: the large-y "
            f"expansion refuses every y up to {math.exp(s * rung):.6g}"
        )
    top = [s * rung]
    scale = 1.0 + max(abs(v) for v in b) + max([abs(1.0 - v) for v in a], default=0.0)
    while top[-1] > lo:
        top.append(max(lo, top[-1] - _TAYLOR_REACH / (scale + math.exp(top[-1] / s))))
    top = np.array(top)
    h = np.diff(top)
    coeffs = _taylor_coeffs(a, b, top[:-1]).transpose(1, 0, 2)
    k = np.arange(n)
    binom = np.array([[math.comb(kk, i) for kk in k] for i in range(m)], dtype=float)
    powers = np.vander(h, n, increasing=True)
    # row i of step j's move: sum_k C(k, i) g_k h^(k - i), D^i G / i! at its end
    moves = (binom * powers[:, np.maximum(k - np.arange(m)[:, None], 0)]) @ coeffs
    state = np.empty((h.size + 1, m))
    state[0] = start
    with np.errstate(over="ignore", invalid="ignore"):
        for j, move in enumerate(moves):
            state[j + 1] = move @ state[j]
    blown = ~np.isfinite(state).all(axis=1)
    if blown.any():
        raise NoConvergence(f"Meijer-G continuation overflowed its state at "
                            f"y = {math.exp(top[np.argmax(blown)]):.6g}")
    series = (coeffs @ state[:-1, :, None])[..., 0]  # G about each step's top
    last = np.abs(series[:, -2:] * powers[:, -2:]) @ binom[:, -2:].T
    unit = np.abs(state[1:] * powers[:, :m])
    drift = np.cumsum(np.append(_EXPANSION_MARGIN * tol, last.max(axis=1) / unit.max(axis=1)))
    step = np.minimum(np.searchsorted(-top, -x, side="right") - 1, h.size - 1)
    terms = series[step] * np.vander(x - top[step], n, increasing=True)
    vals = terms.sum(axis=1)
    err = drift[step] * np.abs(vals) + np.abs(terms[:, -2:]).sum(axis=1)
    bad = ~(err <= tol * np.abs(vals))
    if bad.any():
        i = np.nonzero(bad)[0][np.argmax(x[bad])]
        raise NoConvergence(
            f"Meijer-G continuation at y = {y[i]:.6g} missed its remainder bound: "
            f"{err[i]:.3e} on {vals[i]:.6g}"
        )
    return vals


def m0_eval_vec(b: Sequence[float], y: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """G^{m,0}_{0,m}(y|b) for an array of y > 0 (zeros where y <= 0).

    Closed forms for m <= 2: y^b e^-y, and 2 y^{(b1+b2)/2} K_{b1-b2}(2 sqrt y)
    at any order (g_general_vec's residue sum where K overflows);
    g_general_vec for m >= 3.
    """
    y = np.asarray(y, dtype=float)
    b = [float(v) for v in b]
    out = np.zeros_like(y)
    pos = y > 0
    if not pos.any():
        return out
    ys = y[pos]
    if len(b) > 2:
        out[pos] = g_general_vec((), b, ys, tol)
        return out
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if len(b) == 1:
            v = np.exp(b[0] * np.log(ys) - ys)
        else:
            kv = bessel_k_vec(b[0] - b[1], 2.0 * np.sqrt(ys))
            v = 2.0 * ys ** (0.5 * (b[0] + b[1])) * kv
            over = np.isinf(kv)
            if over.any():
                v[over] = g_general_vec((), b, ys[over], tol)
    out[pos] = np.where(np.isfinite(v), v, 0.0)
    return out


def g_general_vec(
    a: Sequence[float], b: Sequence[float], y: np.ndarray, tol: float = 1e-11
) -> np.ndarray:
    """G^{m,0}_{alpha,m}(y|a;b) over an array of y > 0.

    Three routes by y, for s = m - alpha >= 1: the residue sum
    (_slater_vec: Slater's expansion, with exact confluent residues for
    coincident, integer-spaced or nearly integer-spaced lower parameters)
    while it conditions well, its cancellation within min(1e6, tol / eps)
    (rounding leaves about that times eps / 3), and not run where it
    would refuse every point (2 s y^{1/s} above the log of that limit +
    (s - 1) ln 2 + 3, _slater_reaches); the large-y expansion
    (_expansion_vec) from the y where its first two omitted terms fall
    below tol / 100 of its sum (s y^{1/s} ~ 16..40 on the certified lists
    of lambda <= 8); and the continuation of the Meijer ODE down from the
    expansion (_continuation_vec: one Taylor recurrence for every step of
    the call) for the band between and for any point the residue sum
    leaves at small y.  y = +inf and y <= 0 are an exact 0.  At s <= 0
    only the residue sum runs, and a point it refuses raises
    DomainError.
    """
    y = np.asarray(y, dtype=float)
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    r = len(b) - len(a)
    vals = np.zeros_like(y)
    # G decays like e^{-r y^{1/r}}: y = inf is an exact 0 that no route runs,
    # and so is y <= 0, outside the support
    ok = (y <= 0.0) | (np.isposinf(y) if r > 0 else False)
    # rounding in a residue sum that cancels by a factor c leaves about c eps / 3
    limit = min(_SLATER_COND_LIMIT, tol / _EPS)
    reach = ~ok & (_slater_reaches(r, np.where(ok, 1.0, y), limit) if r > 0 else True)
    vals[reach], ok[reach] = _slater_vec(b, y[reach], min(tol, 1e-13), a, limit)
    rest = ~ok
    if rest.any() and r > 0:
        vals[rest], ok[rest] = _expansion_vec(a, b, y[rest], tol)
        rest &= ~ok
    if rest.any():
        if r <= 0:
            raise DomainError(
                f"Slater refused {int(rest.sum())} of {y.size} points of "
                f"G^{{{len(b)},0}}_{{{len(a)},{len(b)}}} and the continuation needs m > p"
            )
        vals[rest] = _continuation_vec(a, b, y[rest], tol)
    return vals


# Below this x the (1 - x) series converges too slowly and Slater takes over;
# the term count makes (1 - split)^n fall below 1e-17, plus a margin for
# the polynomial growth of D_n.
_NORLUND_SPLIT = 0.1
_NORLUND_TERMS = math.ceil(math.log(1e-17) / math.log(1.0 - _NORLUND_SPLIT)) + 48

# Terms of D summed per block in one matrix product; Horner then runs over
# the blocks in (1 - x)^block, not over every term.
_NORLUND_BLOCK = 20


class _NorlundKernel:
    """G^{q,0}_{q,q}(x | a; b) on (0, 1) as Norlund's (1 - x) series.

    G = x^{b_q} (1-x)^{s-1} sum_n D_n (1-x)^n with s = sum(a) - sum(b).
    D starts as [1/Gamma(a_1-b_1)] with exponents (beta, sigma) =
    (b_1, a_1-b_1); each further pair (a_q, b_q) convolves D with
    (a_q-beta)_m/m!, multiplies term n by Gamma(sigma+n)/Gamma(sigma+a_q-b_q+n)
    and moves to (b_q, sigma+a_q-b_q).  The pairs follow the positivity
    certificate (a_i > b_i), so every Gamma argument stays positive.  One
    pair is the exact Beta density; for more, g_general_vec evaluates
    x < _NORLUND_SPLIT.  This is the r = 0 (Hausdorff) weight; r > 0
    weights go through g_general_vec alone.
    """

    def __init__(self, pairs: Sequence[tuple[float, float]]):
        self.a = [float(ap) for ap, _ in pairs]
        self.b = [float(bp) for _, bp in pairs]
        if any(ap <= bp for ap, bp in zip(self.a, self.b)):
            raise DomainError("Norlund series requires a_i > b_i for every pair")
        beta, sigma = self.b[0], self.a[0] - self.b[0]
        d = np.array([math.exp(-math.lgamma(sigma))])
        n = np.arange(_NORLUND_TERMS - 1, dtype=float)
        for aq, bq in zip(self.a[1:], self.b[1:]):
            rising = np.cumprod(np.concatenate(([1.0], (aq - beta + n) / (n + 1.0))))
            d = np.convolve(d, rising)[:_NORLUND_TERMS]
            nxt = sigma + aq - bq
            ratio = np.cumprod(np.concatenate(([1.0], (sigma + n) / (nxt + n))))
            d = d * (math.exp(math.lgamma(sigma) - math.lgamma(nxt)) * ratio)
            beta, sigma = bq, nxt
        self.d = d
        self.blocks = np.pad(d, (0, -d.size % _NORLUND_BLOCK)).reshape(-1, _NORLUND_BLOCK)
        self.beta = beta
        self.s = sigma

    def __call__(self, x, one_minus_x=None):
        x = np.asarray(x, dtype=float)
        om = 1.0 - x if one_minus_x is None else np.asarray(one_minus_x, dtype=float)
        out = np.zeros_like(x)
        ins = (x > 0) & (om > 0)
        series = ins & (x >= _NORLUND_SPLIT) if len(self.d) > 1 else ins
        low = ins & ~series
        if low.any():
            out[low] = g_general_vec(self.a, self.b, x[low])
        if series.any():
            t = om[series]
            parts = (t[:, None] ** np.arange(_NORLUND_BLOCK)) @ self.blocks.T
            step, acc = t**_NORLUND_BLOCK, np.zeros_like(t)
            for part in parts.T[::-1]:
                acc = acc * step + part
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                out[series] = acc * np.exp(
                    self.beta * np.log(x[series]) + (self.s - 1.0) * np.log(t)
                )
        return np.where(np.isfinite(out), out, 0.0)

"""Self-contained special-function kernel.

Everything the rest of the package needs is evaluated here in double
precision with explicit error estimates: the modified Bessel K of real
order, and the restricted Meijer G classes G^{m,0}_{0,m} and
G^{m,0}_{alpha,m} that the unity-resolution weight functions are built
from.  One router, g_general_vec, evaluates every r > 0 weight: the
closed forms y^b e^-y and 2 y^{(b1+b2)/2} K_{b1-b2}(2 sqrt y) for lists
with no upper parameter and m <= 2; Slater's residue sum at small y, with
confluent residues for coincident or nearly integer-spaced lower
parameters; the exponential expansion at large y; and a Taylor
continuation of the Meijer differential equation down from it for the
band between.  Norlund's (1 - y) series gives the r = 0 weight on the
unit interval.

The Meijer-G and Bessel-K routes are vectorized over their argument
array.  g_general_vec also returns a contiguous family
G(y | a; b + e_j1 + .. + e_jr), r = 0..q, from one pass of its routes:
G(y | b + e_j) = (b_j - y d/dy) G(y | b) (DLMF 16.17 for the Mellin-Barnes
integral).  Each route takes (a, b, y, tol, shifts) and returns the
family's values and ok flags, both of shape (rows, points); a call
without shifts is the family of one row, routed and refused the same way.
"""

from __future__ import annotations

import functools
import itertools
import math
from decimal import Decimal, localcontext
from typing import Sequence

import numpy as np

from .errors import DomainError, NoConvergence

__all__ = [
    "bessel_k_vec",
    "g_general_vec",
]

_EPS = 2.220446049250313e-16


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

# Terms of Temme's series (x < 2), which reach 1e-17 at x = 2, its worst
# point.  For x >= 2, u = sqrt(2x) sinh(t/2) turns K_mu(x) = int_0^inf
# e^{-x cosh t} cosh(mu t) dt into e^-x sqrt(2/x) int_0^inf e^{-u^2}
# cosh(mu t) / sqrt(1 + u^2/2x) du, an even integrand analytic for
# |Im u| < sqrt(2x) >= 2, where e^{-u^2} grows by at most e^4 and cosh(mu t)
# stays bounded for |mu| <= 3/2.  The trapezoid rule of step h errs by
# 2M / (e^{2 pi a/h} - 1) on a strip of half-width a (Trefethen & Weideman,
# SIAM Rev. 56 (2014) 385): about e^{4 - 4 pi/h} = 4e-17 at h = 0.3.  Its 22
# nodes reach u = 6.3, past which the integrand is below 1e-18 even at x = 2;
# each weight is e^{-u^2} times half the step (the mean in cosh), and half
# that at u = 0.
_TEMME_TERMS = 15
_TRAPEZOID_U = 0.3 * np.arange(22)
_TRAPEZOID_W = 0.15 * np.exp(-_TRAPEZOID_U**2) * np.where(_TRAPEZOID_U > 0.0, 1.0, 0.5)


def _temme_k(mu: float, x: np.ndarray):
    """(K_mu, K_{mu+1}) for |mu| <= 1/2 and 0 < x < 2 by Temme's series (J. Comput.
    Phys. 19 (1975) 324).  Term i is (x^2/4)^i / i! times ff_i for K_mu and
    p_i - i ff_i for K_{mu+1} x/2, linear in ff_0, p_0, q_0 with coefficients in
    mu alone: both sums are the powers of x^2/4 times one (terms x 6) table.
    (x/2)^-mu is a power, as exp(mu ln(x/2)) loses |mu ln(x/2)| ulps at small x."""
    # (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) and the mean of the two
    gam1 = -sum(c * mu ** (k - 1) for k, c in enumerate(_RGAMMA1P) if k % 2)
    gam2 = sum(c * mu**k for k, c in enumerate(_RGAMMA1P) if k % 2 == 0)
    gampl, gammi = gam2 - mu * gam1, gam2 + mu * gam1  # 1/Gamma(1 +- mu)
    fact = 1.0 if mu == 0.0 else math.pi * mu / math.sin(math.pi * mu)
    # rows: ff_i / i! and (p_i - i ff_i) / i! as multiples of ff_0, p_0 and q_0
    table, f, p, q, fac = [(1.0, 0, 0, 0, 1.0, 0)], (1.0, 0.0, 0.0), 1.0, 1.0, 1.0
    for i in range(1, _TEMME_TERMS + 1):
        den = i * i - mu * mu
        f = (i * f[0] / den, (i * f[1] + p) / den, (i * f[2] + q) / den)
        p, q, fac = p / (i - mu), q / (i + mu), fac * i
        table.append(tuple(v / fac for v in (*f, -i * f[0], p - i * f[1], -i * f[2])))
    d = math.log(2.0) - np.log(x)
    up = np.power(x, -mu) * 2.0**mu  # e^{mu d}
    sinh = np.where(np.abs(mu * d) > 1.0, 0.5 * (up - 1.0 / up), np.sinh(mu * d))
    ff = fact * (gam1 * 0.5 * (up + 1.0 / up) + gam2 * (sinh / mu if mu else d))
    start = (ff, 0.5 * up / gampl, 0.5 / (up * gammi))  # ff_0, p_0, q_0
    s = np.vander(0.25 * x * x, _TEMME_TERMS + 1, increasing=True) @ np.array(table)
    k_mu, k_1 = (sum(v * s[:, col + j] for j, v in enumerate(start)) for col in (0, 3))
    return k_mu, k_1 * (2.0 / x)


def _trapezoid_k(mu: float, x: np.ndarray):
    """(K_mu, K_{mu+1}) for |mu| <= 1/2 and x >= 2 by the trapezoid rule: one
    (points x nodes) table per order, cosh(nu t) the mean of e^{nu t} and
    its inverse, e^{t/2} = s + sqrt(1 + s^2), s = u / sqrt(2x)."""
    s = _TRAPEZOID_U / np.sqrt(2.0 * x)[:, None]
    r = np.sqrt(1.0 + s * s)
    e0 = (s + r) ** (2.0 * mu)  # e^{mu t}
    scale = np.exp(-x) * np.sqrt(2.0 / x)
    return tuple((e + 1.0 / e) / r @ _TRAPEZOID_W * scale for e in (e0, e0 * (s + r) ** 2))


def bessel_k_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """Modified Bessel K_nu over an array of x >= 0, real order.

    K_mu and K_{mu+1} at mu = |nu| - round(|nu|) come from Temme's series
    for x < 2 (_temme_k) and the trapezoid rule above (_trapezoid_k), each
    one table product over the points; the upward recurrence then reaches
    nu.  Each distinct x is evaluated once.  +inf at x = 0 and where K
    overflows, 0 at x = +inf and where e^-x underflows; NaN or x < 0, and a
    NaN or infinite order, raise DomainError."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any() or (x < 0.0).any():
        raise DomainError(f"Bessel K needs x >= 0, got {x[np.isnan(x) | (x < 0.0)].flat[0]}")
    if not math.isfinite(nu):
        raise DomainError(f"Bessel K needs a finite order nu, got {nu}")
    nu = abs(float(nu))
    n_up = int(nu + 0.5)
    mu = nu - n_up
    xs, where = np.unique(x, return_inverse=True)
    out = np.where(xs == 0.0, np.inf, 0.0)
    live = (xs > 0.0) & (np.exp(-xs) > 0.0)  # a run, as xs is sorted
    pos = xs[live]
    cut = np.searchsorted(pos, 2.0)
    k0, k1 = np.empty_like(pos), np.empty_like(pos)
    with np.errstate(over="ignore"):
        for part, step in ((slice(None, cut), _temme_k), (slice(cut, None), _trapezoid_k)):
            if pos[part].size:
                k0[part], k1[part] = step(mu, pos[part])
        for i in range(1, n_up + 1):
            k0, k1 = k1, (mu + i) * (2.0 / pos) * k1 + k0
    out[live] = k0
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

# Taylor terms of R_K at most (_cluster_series): its polygamma coefficients
# (from order about 163) and 1/k! (from 171) leave the double range.
_CLUSTER_TERMS = 150


def _family(b: Sequence[float], shifts: Sequence[int]) -> tuple[list[float], list[list[float]]]:
    """(betas, lists) of a shift order j_1..j_q: row r of the family is
    G(y | a; lists[r]), lists[r] = lists[r - 1] + e_{j_r}, and is
    (betas[r - 1] - theta) row r - 1, theta = y d/dy, betas[r - 1] the
    entry j_r of lists[r - 1]: in the Mellin-Barnes integral theta acts
    on y^-s as -s, and (b_j + s) Gamma(b_j + s) = Gamma(b_j + 1 + s)."""
    lists, betas = [[float(v) for v in b]], []
    for j in shifts:
        betas.append(lists[-1][j])
        lists.append(list(lists[-1]))
        lists[-1][j] += 1.0
    return betas, lists


def _slater_limit(tol: float) -> tuple[float, float]:
    """(target, limit) of the residue sum at tol: it ends where its last two
    poles' terms fall below target = min(tol, 1e-13) of the sum, and accepts
    a cancellation within limit = min(_SLATER_COND_LIMIT, tol / eps), since
    rounding in a sum that cancels by a factor c leaves about c eps / 3."""
    return min(tol, 1e-13), min(_SLATER_COND_LIMIT, tol / _EPS)


def _slater_reaches(r: int, y: np.ndarray, tol: float) -> np.ndarray:
    """Where Slater can condition G^{m,0}_{p,m} at tol, r = m - p > 0: its terms cancel
    by about 2^{1-r} e^{2 r y^{1/r}} (asymptotic (2 pi)^{1-r}, reflection pi^{r-1}), and
    past the limit of _slater_limit(tol) times that plus a margin of e^3 for the
    pre-asymptotic range it refuses every point."""
    return 2.0 * r * y ** (1.0 / r) <= math.log(_slater_limit(tol)[1]) + (r - 1) * math.log(2.0) + 3.0


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


def _exp_series(g: np.ndarray) -> np.ndarray:
    """Taylor coefficients of exp(g(eps)), g_0 = 0: n f_n = sum_k k g_k f_{n-k}."""
    f = np.zeros_like(g)
    f[0] = 1.0
    for n in range(1, g.size):
        f[n] = np.dot(np.arange(1, n + 1) * g[1:n + 1], f[n - 1::-1]) / n
    return f


def _exp_dd(x: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """exp(ell J) at each ell, shape (points, M, M), J bidiagonal with the nodes
    x_j >= 0 on its diagonal and 1 above it: E[i, k] is the divided difference
    of e^{ell eps} over x_i..x_k (Opitz).  Scaling and squaring of Z = ell J, or
    for ell < 0 of |ell| D (x_max - J) D, D = diag(+-1), E = e^{ell x_max} D
    exp(Z) D, so that every Taylor term is >= 0, with the diagonal and first
    superdiagonal set exactly after each squaring (Al-Mohy & Higham, 2009)."""
    m, k = x.size, np.arange(x.size)
    if not x.any():  # ell^(k-i)/(k-i)!
        e = np.zeros((ell.size, m, m))
        e[:, k, k] = 1.0
        for d in range(1, m):
            e[:, k[:m - d], k[d:]] = (ell**d / math.factorial(d))[:, None]
        return e
    neg, t = ell < 0.0, np.abs(ell)
    z = np.where(neg[:, None], x.max() - x, x)
    # scaled to norm <= 1/2, where m + 18 Taylor terms leave below 1e-17 of each entry
    squarings = max(0, math.ceil(math.log2(max(t[np.isfinite(t)].max(initial=0.0) * (z.max() + 1.0), 1.0))) + 1)
    tau = t / 2.0**squarings
    a = tau[:, None, None] * (np.eye(m) * z[:, None, :] + np.eye(m, k=1))
    e = np.eye(m)
    for j in range(m + 18, 0, -1):
        e = np.eye(m) + a @ e / j
    for i in range(squarings + 1):
        if i:
            e, tau = e @ e, 2.0 * tau
        u = tau[:, None] * 0.5 * (z[:, 1:] - z[:, :-1])  # tau times half the gap of two neighbours
        with np.errstate(invalid="ignore"):
            sinhc = np.where(u == 0.0, 1.0, np.sinh(u) / u)
        e[:, k, k] = np.exp(tau[:, None] * z)
        e[:, k[:-1], k[1:]] = tau[:, None] * np.exp(tau[:, None] * 0.5 * (z[:, 1:] + z[:, :-1])) * sinhc
    return e * np.where(neg[:, None, None], np.exp(ell * x.max())[:, None, None] * (-1.0) ** (k - k[:, None]), 1.0)


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


def _cluster_series(a: list, b: list, members: list, y_top: float, ln_top: float, tol: float,
                    betas: Sequence[float] = ()):
    """The residues of one cluster's poles as coefficients, for y up to y_top
    and |ln y| up to ln_top; see _slater_vec.  None where R_K needs more than
    _CLUSTER_TERMS Taylor terms, else (c, first, x, cols, value, major,
    log_size), the last three with one entry per row of the family
    (_theta_rows, betas): pole K = first + i contributes y^(c + K) sum_j
    value[i, j] E[j, cols[i]], E = _exp_dd(x, ln 1/y), x the nodes in join
    order; major bounds |value| (R's majorant, so that the conditioning test
    also sees the cancellation inside R's own coefficients), and log_size[i]
    is the log of its sum with E at ln_top, which bounds |E| at every point.
    The poles end where every row's majorant has fallen off its peak; a
    row's factor |beta - c - K| + spread + (M - 1) / max(ln_top, 1)
    estimates its growth over the row before it (d/d ln(1/y) E = J E, and
    E[j + 1, col] / E[j, col] = (col - j) / ln(1/y) at coincident nodes).
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
        # R's Taylor terms fade like (spread / rho)^k, rho the distance to the
        # nearest pole not joined at eps = 0 (the members' own next poles lie
        # 1 - spread away): below 1e-17 after 17 / log10(rho / spread) of them
        n = len(members)
        if spread > 0.0:
            rho = min([_spacing(float(diff[j])) for j in range(len(b)) if j not in joins] + [1.0 - spread])
            n += math.ceil(17.0 / max(1e-2, -math.log10(min(spread / rho, 0.99))))
            if n > _CLUSTER_TERMS:
                return None
        x = np.array([node[j] for j in sorted(members, key=lambda j: (joins[j], j))])
        top = _exp_dd(x, np.array([ln_top]))[0]
        lift = max(1, math.ceil(max(1.0 - float(d) for d in diff)))
        lead = Decimal(1)
        for i, d in enumerate(diff):
            lead = lead * _gamma_decimal(d + lift) if i < len(b) else lead / _gamma_decimal(d + lift)
        series, bound = [lead], None
        if n > 1:
            # Taylor coefficients of +-ln Gamma(d + lift + eps), psi^(k-1)/k!, minus for a
            arg = np.array([float(d) + lift for d in diff])
            rows = np.array([np.zeros_like(arg)] + [_polygamma(k - 1, arg) / math.factorial(k) for k in range(1, n)]).T
            rows[len(b):] *= -1.0
            series = [lead * Decimal(t) for t in _exp_series(rows.sum(axis=0))]
            bound = [abs(lead) * Decimal(t) for t in _exp_series(np.abs(rows).sum(axis=0))]
            # row j: DD[x_0..x_j] of R's Taylor terms, sum_i R_i h_{i-j}(x_0..x_j) (>= 0)
            coef, h = np.zeros((x.size, n)), np.eye(1, n)[0]
        value, major, cols, log_size, joined, first, quiet = [], [], [], [], 0, None, False
        log_peak, cut, log_top = [-math.inf] * (len(betas) + 1), math.log(tol / _SLATER_COND_LIMIT), math.log(y_top)
        slope = spread + (x.size - 1) / max(ln_top, 1.0)
        steps_a, steps_b = diff[len(b):], [(joins.get(j), d) for j, d in enumerate(diff[:len(b)])]
        for K in range(-lift, _SLATER_TERMS):
            if joined:
                first = K if first is None else first
                cols.append(joined - 1)
                if n == 1:  # one term, its own majorant
                    value.append((float(series[0]),))
                    major.append((abs(value[-1][0]),))
                    size = major[-1][0]
                else:
                    value.append(coef @ np.array([float(t) for t in series]))
                    major.append(coef @ np.array([float(t) for t in bound]))
                    size = float(major[-1] @ top[:, joined - 1])
                if size > 0.0 and not 1e-280 < size < 1e280 and log_size:
                    break  # past the double range: the points that need more stay unsettled
                log_size.append(math.log(size) if size > 0.0 else -math.inf)
                # the sum ends two poles after the majorant, where it is largest,
                # falls below tol / _SLATER_COND_LIMIT of its peak, since ok
                # bounds the majorant by that multiple of G
                at_top = log_size[-1] + (K - first) * log_top
                now = True
                for r, peak in enumerate(log_peak):
                    if r:
                        grow = abs(betas[r - 1] - c - K) + slope
                        at_top += math.log(grow) if grow > 0.0 else -math.inf
                    log_peak[r] = max(peak, at_top)
                    now &= at_top <= cut + log_peak[r]
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
            for join, d in steps_b:
                if join == K + 1:
                    if n > 1:
                        h = np.convolve(h, x[joined] ** np.arange(n))[:n]
                        coef[joined, joined:] = h[:n - joined]
                    joined += 1
                    continue
                d -= K + 1
                if n == 1:
                    series[0] /= d
                else:
                    s_prev = b_prev = 0
                    for i in range(n):
                        s_prev = series[i] = (series[i] - s_prev) / d
                        b_prev = bound[i] = (bound[i] + b_prev) / abs(d)
    return c, first, x, cols, *_theta_rows(betas, c + first, x, cols, top, np.array(value), np.array(major), log_size)


def _theta_rows(betas: Sequence[float], e0: float, x, cols, top, value, major, log_size):
    """The family's rows of one cluster's coefficients (_cluster_series): row r
    is (beta_r - theta) applied to row r - 1, theta = y d/dy = -d/d ln(1/y).
    Since d/d ln(1/y) E = J E, it maps the coefficients of pole K
    (e = e0 + i) by v_j -> (beta - e + x_j) v_j + v_{j-1}, the majorants by
    the same map in absolute values, and log_size is the log of the mapped
    majorants' sum with top = E at ln_top.  Row 0 is the input unchanged."""
    rows = [[value], [major], [log_size]]
    e = e0 + np.arange(len(value))[:, None]
    weight = top[:, cols[:len(log_size)]].T
    for beta in betas:
        factor = beta - e + x
        v, m = factor * rows[0][-1], np.abs(factor) * rows[1][-1]
        v[:, 1:] += rows[0][-1][:, :-1]
        m[:, 1:] += rows[1][-1][:, :-1]
        with np.errstate(divide="ignore"):
            size = np.log((m[:len(log_size)] * weight).sum(axis=1))
        for row, new in zip(rows, (v, m, size)):
            row.append(new)
    return rows


def _slater_vec(a: Sequence[float], b: Sequence[float], y: np.ndarray, tol: float,
                shifts: Sequence[int] = ()):
    """Slater's residue sum for G^{m,0}_{p,m}(y | a; b) over an array of y > 0.

    The poles of prod Gamma(b + s) are summed cluster by cluster
    (_clusters).  A cluster's members are b_j = c + n_j - x_j, integers n_j
    and small nodes x_j >= 0, with poles near s = -c - K.  With
    s = -c - K + eps,

        prod Gamma(b + s) / prod Gamma(a + s) = R_K(eps) / prod_{n_j <= K} (eps - x_j),

    R_K analytic at 0, so those poles' residues of it times y^-s add up to
    the divided difference of R_K(eps) y^-eps over the M joined nodes
    (McCurdy, Ng & Parlett, Math. Comp. 43 (1984) 501), by Leibniz's rule
    sum_j DD[x_0..x_j](R_K) DD[x_j..x_{M-1}](y^-eps): the first from R_K's
    Taylor coefficients, sum_i R_i h_{i-j}(x_0..x_j), h the complete
    homogeneous symmetric polynomials, the second exactly, as column M - 1
    of one matrix per point (_exp_dd).  Coincident and integer-spaced
    members (all x_j = 0) leave Luke's logarithmic residues, a polynomial
    of degree M - 1 in ln y; a lone parameter is one Slater series.  R_K
    starts from Gamma and its log-derivative Taylor series at arguments
    >= 1 (_gamma_decimal, _polygamma) and steps to the next pole by
    prod (a - c - K - 1 + eps) / prod (b - c - K - 1 + eps), a member's own
    factor joining the nodes; this scalar work (_cluster_series) runs in
    _RESIDUE_DIGITS decimal digits, and the poles of each M are then summed
    over the points in one product with the powers of y and one with that
    column.  Each row of the family (g_general_vec) maps those coefficients
    (_theta_rows) and is summed the same way.

    Returns (values, ok), of shape (rows, points).  With (target, limit)
    = _slater_limit(tol), ok marks the points whose sum settled (the last
    two poles' terms below target of it) and whose majorant sum |term|
    stays within limit times |value|, and points where both lie below the
    smallest normal double, whose G underflows; none where a cluster's R_K
    needs more than _CLUSTER_TERMS Taylor terms.
    """
    a, b = [float(v) for v in a], [float(v) for v in b]
    betas = _family(b, shifts)[0]
    target, limit = _slater_limit(tol)
    lny = np.log(y)
    parts = [_cluster_series(a, b, members, float(y.max()), float(np.abs(lny).max()), target, betas)
             for members in _clusters(b)]
    total, major, tail = (np.full((len(betas) + 1,) + y.shape, v) for v in (0.0, 0.0, -np.inf))
    if None in parts:
        return total, np.zeros(total.shape, dtype=bool)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        longest = max(len(part[3]) for part in parts)
        powers = np.cumprod(np.vstack([np.ones_like(y)] + [y] * (longest - 1)), axis=0)
        for c, first, x, cols, values, majors, log_sizes in parts:
            pref, e = np.power(y, c + first), _exp_dd(x, -lny)
            for col in sorted(set(cols)):  # the poles of one joined count, a run as cols grows
                run, cell = slice(cols.index(col), len(cols) - cols[::-1].index(col)), e[:, :col + 1, col].T
                sums = np.array([v[run, :col + 1].T @ powers[run] for v in (*values, *majors)])
                total += pref * (sums[:len(values)] * cell).sum(axis=1)
                major += pref * (sums[len(values):] * abs(cell)).sum(axis=1)
            end = first + len(log_sizes[0])
            for K in range(max(first, end - 2), end):
                tail = np.maximum(tail, np.array(log_sizes)[:, K - first, None] + (c + K) * lny)
        ok = (major <= limit * np.abs(total)) & (tail <= np.log(target * np.abs(total)))
        ok |= (major < _TINY) & (tail < math.log(_TINY))
    ok &= np.isfinite(total)
    return total, ok


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
    """sum_{k<n} M_k w^-k at each ln w: a (points x terms) table of w^-k, zero
    from each point's own n on, times M.  M of shape (rows, terms) with n of
    shape (rows, points) sums every row in one product.  A point's powers
    stop at its largest n, so the table overflows only where its sum would."""
    k = np.arange(n.max())
    powers = np.exp(-lw[:, None] * np.minimum(k, np.atleast_2d(n).max(axis=0)[:, None] - 1))
    return (powers * (k < n[..., None]) @ M[..., :k.size, None])[..., 0]


def _expansion_lead(a, b, lw):
    """ln of the expansion's leading factor (2 pi)^{(s-1)/2} s^{-1/2} e^{-s w} w^rho."""
    s = len(b) - len(a)
    rho = _expansion_coeffs(tuple(a), tuple(b))[0]
    return 0.5 * (s - 1) * math.log(2.0 * math.pi) - 0.5 * math.log(s) - s * np.exp(lw) + rho * lw


def _expansion_vec(a, b, y: np.ndarray, tol: float, shifts: Sequence[int] = ()):
    """Large-y expansion of G^{m,0}_{p,m}, s = m - p >= 1, over an array of y.

    Each point sums the terms before the first k whose term and the next
    are both below _EXPANSION_MARGIN * tol (_expansion_sum), or below that
    share of the sum where the sum is smaller than 1; ok marks the points
    where such a k exists among _EXPANSION_TERMS and those two terms are
    below that share of the sum.
    Points where the leading factor is below e^-750 are an exact 0.  Row r
    of the family is the expansion of the shifted list (_family), the
    derivative (beta - theta) of row r - 1's series term by term, as its
    coefficients are unique; the rows share one table product, and ok has
    one row each.
    """
    lists = _family(b, shifts)[1]
    lw = np.log(y) / (len(b) - len(a))
    terms = [_expansion_terms(a, bb, lw, tol) for bb in lists]
    M = np.array([t[1] for t in terms])
    n, err = np.array([t[2] for t in terms]), np.array([t[3] for t in terms])
    vals, ok = np.zeros((len(lists),) + y.shape), n < M.shape[1] - 1
    log_g = np.array([_expansion_lead(a, bb, lw) for bb in lists])
    # below e^-750 G is a double 0 and needs no sum
    live = (ok & (log_g > -750.0)).any(axis=0)
    if live.any():
        lw, n, err = lw[live], n[:, live], err[:, live]
        acc = _expansion_sum(M, n, lw)
        # n is chosen against tol alone; where the sum is below 1 its omitted
        # terms can miss the share of it that ok asks for, so those points
        # choose n again against tol times their sum
        for r, bb in enumerate(lists):
            redo = np.flatnonzero(err[r] > _EXPANSION_MARGIN * tol * np.abs(acc[r]))
            for i in redo:
                _, _, n[r, i], err[r, i], _ = _expansion_terms(a, bb, lw[i], tol * abs(acc[r, i]))
            if redo.size:
                acc[r, redo] = _expansion_sum(M[r], n[r, redo], lw[redo])
        with np.errstate(under="ignore"):
            vals[:, live] = acc * np.exp(log_g[:, live])
        ok[:, live] = (n < M.shape[1] - 1) & (err <= _EXPANSION_MARGIN * tol * np.abs(acc))
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


def _continuation_vec(a, b, y: np.ndarray, tol: float, shifts: Sequence[int] = ()):
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
    that sum times |G| plus the point's own.

    Row r of the family (_family) is prod_{i<=r} (beta_i - D) G: D^j G
    comes from the derivative of the point's polynomial, with the drift
    times |D^j G| plus that polynomial's own last two terms as its
    remainder, and a row meets tol with the sum of its terms' remainders.
    Returns (values, ok), of shape (rows, points): a row-0 point whose
    remainder exceeds tol |G|, or a state that overflows, raises
    NoConvergence; ok leaves the other rows' misses to the caller.
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
    at = np.vander(x - top[step], n, increasing=True)
    terms = series[step] * at
    vals = terms.sum(axis=1)
    err = drift[step] * np.abs(vals) + np.abs(terms[:, -2:]).sum(axis=1)
    # D^j G at each point with its remainder; row r is poly(D) G
    coef, deriv, rem = series[step], [vals], [err]
    poly, rows, errs = np.ones(1), [vals], [err]
    for j, beta in enumerate(_family(b, shifts)[0], 1):
        coef = coef[:, 1:] * np.arange(1.0, n - j + 1)
        d_terms = coef * at[:, :n - j]
        deriv.append(d_terms.sum(axis=1))
        rem.append(drift[step] * np.abs(deriv[-1]) + np.abs(d_terms[:, -2:]).sum(axis=1))
        poly = np.append(beta * poly, 0.0) - np.append(0.0, poly)
        rows.append(poly @ np.array(deriv))
        errs.append(np.abs(poly) @ np.array(rem))
    vals = np.array(rows)
    ok = np.array(errs) <= tol * np.abs(vals)
    if not ok[0].all():
        i = np.flatnonzero(~ok[0])[np.argmax(x[~ok[0]])]
        raise NoConvergence(
            f"Meijer-G continuation at y = {y[i]:.6g} missed its remainder bound: "
            f"{err[i]:.3e} on {vals[0, i]:.6g}"
        )
    return vals, ok


def _closed_vec(a: Sequence[float], b: Sequence[float], y: np.ndarray, tol: float,
                shifts: Sequence[int] = ()):
    """G^{m,0}_{0,m}(y | b), m <= 2, over an array of y > 0 by its closed form:
    y^b e^-y, and 2 y^{(b1+b2)/2} K_{b1-b2}(2 sqrt y) at any order (a is
    empty, and tol unused: the forms are exact to rounding).

    Returns (values, ok), one row per list of the family (_family); ok
    marks the finite values, so the points where K overflows at small y
    are left to the other routes.
    """
    lists = _family(b, shifts)[1]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if len(b) == 1:
            ln_y = np.log(y)
            vals = np.array([np.exp(b0 * ln_y - y) for b0, in lists])
        else:
            x = 2.0 * np.sqrt(y)
            vals = np.array([2.0 * y ** (0.5 * (b1 + b2)) * bessel_k_vec(b1 - b2, x) for b1, b2 in lists])
    return vals, np.isfinite(vals)


def g_general_vec(
    a: Sequence[float], b: Sequence[float], y: np.ndarray, tol: float = 1e-11,
    shifts: Sequence[int] = (),
) -> np.ndarray:
    """G^{m,0}_{alpha,m}(y|a;b) over an array of y > 0.

    With no upper parameter and m <= 2 the closed forms come first
    (_closed_vec), and the points where they overflow go on to the
    routes below.  Three routes by y, for s = m - alpha >= 1: the residue sum
    (_slater_vec: Slater's expansion, with confluent residues for coincident,
    integer-spaced or nearly integer-spaced lower parameters that take y^-eps
    exactly at every y) while it conditions well, its cancellation within min(1e6, tol / eps)
    (_slater_limit: rounding leaves about that times eps / 3), and not run where it
    would refuse every point (2 s y^{1/s} above the log of that limit +
    (s - 1) ln 2 + 3, _slater_reaches); the large-y expansion
    (_expansion_vec) from the y where its first two omitted terms fall
    below tol / 100 of its sum (s y^{1/s} ~ 16..40 on the certified lists
    of lambda <= 8); and the continuation of the Meijer ODE down from the
    expansion (_continuation_vec: one Taylor recurrence for every step of
    the call) for the band between and for every point of a list with a
    cluster the residue sum refuses.  y = +inf and y <= 0 are an exact 0, and a NaN y
    raises DomainError.  At s <= 0 only the residue sum runs, and a point
    it refuses raises DomainError.

    shifts = (j_1, .., j_q), each an index 0 <= j < m of b (DomainError
    otherwise), returns q + 1 rows, row r the G of the lower list
    b + e_{j_1} + .. + e_{j_r}: by the contiguous relation
    G(y | b + e_j) = (b_j - theta) G(y | b), theta = y d/dy (_family), each
    route runs once for all rows.  Every route returns the family's rows
    and their ok flags, and a call without shifts is the family of one row:
    row 0 routes and refuses every point exactly as that call does (the
    continuation raises where row 0 misses its bound).  A row >= 1 that a
    route leaves unsettled at a point row 0 settles there (a shift that
    removes the dominant pole leaves the rest to cancel) takes its own list
    at that point.
    """
    y = np.asarray(y, dtype=float)
    if np.isnan(y).any():
        raise DomainError(f"Meijer-G argument y is NaN at index {np.flatnonzero(np.isnan(y))[0]} of {y.size}")
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if not all(0 <= j < len(b) for j in shifts):
        raise DomainError(f"shifts index the lower list 0..{len(b) - 1}, got {tuple(shifts)}")
    r = len(b) - len(a)
    vals = np.zeros((len(shifts) + 1,) + y.shape)
    # G decays like e^{-r y^{1/r}}: y = inf is an exact 0 that no route runs,
    # and so is y <= 0, outside the support
    ok = np.zeros(vals.shape, dtype=bool) | (y <= 0.0) | (np.isposinf(y) if r > 0 else False)

    def route(evaluate, where):
        if where.any():
            vals[:, where], ok[:, where] = evaluate(a, b, y[where], tol, shifts)

    if not a and len(b) in (1, 2):
        route(_closed_vec, ~ok[0])
    reach = ~ok[0]
    if r > 0 and reach.any():
        reach &= _slater_reaches(r, np.where(reach, y, 1.0), tol)
    route(_slater_vec, reach)
    if r > 0:
        route(_expansion_vec, ~ok[0])
        route(_continuation_vec, ~ok[0])
    elif not ok[0].all():
        raise DomainError(
            f"Slater refused {int((~ok[0]).sum())} of {y.size} points of "
            f"G^{{{len(b)},0}}_{{{len(a)},{len(b)}}} and the continuation needs m > p"
        )
    for i, lower in enumerate(_family(b, shifts)[1][1:], 1):
        miss = ~ok[i]
        if miss.any():
            vals[i, miss] = g_general_vec(a, lower, y[miss], tol)
    return vals if len(shifts) else vals[0, ...]


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

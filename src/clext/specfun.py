"""Self-contained special-function kernel.

Everything the rest of the package needs is evaluated here in double
precision with explicit error estimates: generalized hypergeometric pFq
series, modified Bessel I/K of real order, and the restricted Meijer G
classes G^{m,0}_{0,m} and G^{m,0}_{alpha,m} that the unity-resolution
weight functions are built from (Slater expansions at small y, the
exponential expansion at large y, saddle-point Bromwich contours between,
Norlund's (1 - y) series on the unit interval, and one batched
Mellin-convolution quadrature over it for r > 0).

Scalar evaluations return a SeriesValue carrying the value, an absolute
error estimate, the number of terms (or nodes) consumed and a
convergence flag; the Meijer-G and Bessel-K routes are vectorized over
their argument array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DivergentSeries,
    DomainError,
    NoConvergence,
    PoleInDenominator,
)
from .quadrature import LOG_MIN_OFFSET, tanh_sinh

__all__ = [
    "SeriesValue",
    "pfq",
    "bessel_i",
    "bessel_k_vec",
    "m0_eval_vec",
    "g_general_vec",
    "build_convolution_kernel",
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


def sinpi(x: float) -> float:
    """sin(pi x) with exact argument reduction (accurate near integers)."""
    r = math.fmod(x, 2.0)
    if r < 0.0:
        r += 2.0
    sign = 1.0
    if r > 1.0:
        sign = -1.0
        r -= 1.0
    if r > 0.5:
        r = 1.0 - r
    return sign * math.sin(math.pi * r)


def gamma_sign(x: float) -> int:
    """Sign of Gamma(x) for non-pole x."""
    if x > 0:
        return 1
    return 1 if sinpi(x) > 0 else -1


def lgamma_signed(x: float) -> tuple[float, int]:
    """(log|Gamma(x)|, sign).

    Negative arguments go through the reflection formula with the
    range-reduced sinpi, which keeps full relative accuracy next to the
    poles (math.lgamma alone does not).
    """
    if x >= 0.5:
        return math.lgamma(x), 1
    s = sinpi(x)
    lg = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
    return lg, (1 if s > 0 else -1)


def rgamma(x: float) -> float:
    """1/Gamma(x), zero at the poles."""
    if is_nonpositive_integer(x):
        return 0.0
    lg, sg = lgamma_signed(x)
    if lg > 700.0:
        return 0.0
    return sg * math.exp(-lg)


_LANCZOS = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)
_LOG_SQRT_2PI = 0.9189385332046727


def lgamma_complex(z: np.ndarray) -> np.ndarray:
    """Principal-branch log-gamma for complex arrays (Lanczos, g = 7).

    Arguments with Re z < 0.5 go through the reflection formula; the
    Bromwich contours used below always keep Re z >= 0.5, so reflection
    is only a safety net.
    """
    z = np.asarray(z, dtype=complex)
    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z)
    w = zz - 1.0
    x = np.full(zz.shape, _LANCZOS[0], dtype=complex)
    for i in range(1, len(_LANCZOS)):
        x = x + _LANCZOS[i] / (w + i)
    t = w + 7.5
    out = _LOG_SQRT_2PI + (w + 0.5) * np.log(t) - t + np.log(x)
    if np.any(refl):
        out = np.where(
            refl, np.log(np.pi / np.sin(np.pi * z + 0j)) - out, out
        )
    return out


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

    Stops once three consecutive terms fall below tol * |partial sum|.
    The discarded tail is bounded by a geometric estimate from the last
    term ratio.  Raises for denominator poles, for p > q+1 with z != 0,
    and for p = q+1 with |z| >= 1.
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
    small_run = 0
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
        if abs(term) < tol * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                ratio = abs(num / den * z)
                break
        else:
            small_run = 0
    else:
        raise NoConvergence(f"pFq did not converge within {max_terms} terms")
    if ratio < 0.9:
        tail = abs(term) * ratio / (1.0 - ratio)
    else:
        tail = abs(term) * 10.0
    err = tail + 4.0 * _EPS * abs(total)
    return SeriesValue(total, err, k + 2, True)


# --------------------------------------------------------------------------
# modified Bessel functions
# --------------------------------------------------------------------------

def _bessel_i_series(nu: float, x: float, tol: float) -> tuple[float, int]:
    # (x/2)^nu / Gamma(nu+1) * 0F1(nu+1; x^2/4); all terms positive, so the
    # sum is cancellation-free at any x (only cost grows with x).
    q = 0.25 * x * x
    lead = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    sg = gamma_sign(nu + 1.0)
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


# Taylor coefficients of 1/Gamma(1 + z); 22 terms reach 1e-18 at |z| = 1/2.
_RGAMMA1P = (
    1.0, 0.5772156649015328606, -0.6558780715202538811, -0.0420026350340952355,
    0.1665386113822914895, -0.0421977345555443367, -0.0096219715278769736,
    0.0072189432466630995, -0.0011651675918590651, -0.0002152416741149510,
    0.0001280502823881162, -0.0000201348547807882, -1.2504934821426707e-6,
    1.1330272319816959e-6, -2.0563384169776071e-7, 6.1160951044814158e-9,
    5.0020076444692229e-9, -1.1812745704870201e-9, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
)

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
# _PSI_SHIFT recurrence steps the first dropped term is below 1e-16 of psi'.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6)
_PSI_SHIFT = 10


def _polygamma(n: int, x: np.ndarray) -> np.ndarray:
    """psi^(n)(x), n = 0 (digamma) or 1 (trigamma), for an array of x > 0:
    _PSI_SHIFT upward recurrence steps, then the asymptotic series at x + _PSI_SHIFT."""
    inv = 1.0 / (x[..., None] + np.arange(_PSI_SHIFT))
    steps = (inv if n == 0 else inv * inv).sum(axis=-1)
    z = x + _PSI_SHIFT
    inv2 = 1.0 / (z * z)
    tail = 0.0
    for j in range(len(_BERNOULLI), 0, -1):
        tail = (tail + _BERNOULLI[j - 1] / (2 * j if n == 0 else 1)) * inv2
    if n == 0:
        return np.log(z) - 0.5 / z - tail - steps
    return (1.0 + 0.5 / z + tail) / z + steps


_SLATER_COND_LIMIT = 1e6


def _slater_reaches(r: int, y: np.ndarray) -> np.ndarray:
    """Where Slater can condition G^{m,0}_{p,m}, r = m - p > 0: its terms cancel by
    about 2^{1-r} e^{2 r y^{1/r}} (asymptotic (2 pi)^{1-r}, reflection pi^{r-1}), and
    past that plus a margin of e^3 for the pre-asymptotic range it refuses every point."""
    return 2.0 * r * y ** (1.0 / r) <= math.log(_SLATER_COND_LIMIT) + (r - 1) * math.log(2.0) + 3.0


def _slater_vec(b: Sequence[float], y: np.ndarray, tol: float, a: Sequence[float] = ()):
    """Vectorized Slater expansion of G^{m,0}_{alpha,m} over an array of y.

    Returns (values, ok) where ok marks points whose cancellation stayed
    below the conditioning limit and whose series settled.
    """
    m = len(b)
    alpha = len(a)
    sign = 1.0 if (alpha - m) % 2 == 0 else -1.0
    if _integer_spaced_pairs(b) or not y.size:
        return np.zeros_like(y), np.zeros(y.shape, dtype=bool)
    total = np.zeros_like(y)
    major = np.zeros_like(y)
    settled = np.ones(y.shape, dtype=bool)
    for j in range(m):
        lg = 0.0
        sg = 1
        lower = []
        upper = []
        for k in range(m):
            if k == j:
                continue
            l, s = lgamma_signed(b[k] - b[j])
            lg += l
            sg *= s
            lower.append(1.0 + b[j] - b[k])
        for av in a:
            if is_nonpositive_integer(av - b[j]):
                sg = 0
                break
            l, s = lgamma_signed(av - b[j])
            lg -= l
            sg *= s
            upper.append(1.0 + b[j] - av)
        if sg == 0:
            continue
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            pref = sg * np.exp(lg + b[j] * np.log(y))
            term = np.ones_like(y)
            val = np.ones_like(y)
            maj = np.ones_like(y)
            z = sign * y
            done = np.zeros(y.shape, dtype=bool)
            for k in range(700):
                num = 1.0
                for uv in upper:
                    num *= uv + k
                den = k + 1.0
                for lv in lower:
                    den *= lv + k
                term = term * (num / den) * z
                val += term
                maj += np.abs(term)
                done = np.abs(term) <= tol * (np.abs(val) + 1e-300)
                if done.all():
                    break
            settled &= done
            total += pref * val
            major += np.abs(pref) * maj
        with np.errstate(over="ignore", invalid="ignore"):
            cond = major / np.maximum(np.abs(total), 1e-300)
    ok = settled & (cond <= _SLATER_COND_LIMIT) & np.isfinite(total)
    return total, ok


# Rows per block of the (rows x nodes) complex integrand, whatever the row count
_CONTOUR_ROWS = 64

# Trapezoid nodes on [0, t_max] of a line's first pass, and the cap at
# which a row that still disagrees gives up.
_LINE_START = 65
_LINE_CAP = (1 << 14) + 1


def _line_phi(a, b, s: np.ndarray) -> np.ndarray:
    """sum log Gamma(s + b) - sum log Gamma(s + a) at the points s."""
    phi = np.zeros_like(s)
    for bv in b:
        phi = phi + lgamma_complex(s + bv)
    for av in a:
        phi = phi - lgamma_complex(s + av)
    return phi


def _saddle_lines(a, b, y: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(c, t_max) of the truncated Bromwich lines Re s = c for G at each y.

    c is the saddle (Newton on sum psi(c+b) - sum psi(c+a) = ln y with the
    exact trigamma slope, all y at once), never left of 1.5 + max(-b_nu), so
    every gamma argument keeps a positive real part; t_max is the first point
    of a geometric ladder on the line where |exp(phi)| has fallen by
    e^-(ln(1/tol) + 12) from t = 0.
    """
    floor, lny = 1.5 + max(0.0, -min(b)), np.log(y)
    c = np.maximum(floor, y ** (1.0 / (len(b) - len(a))))
    live = np.ones(c.shape, dtype=bool)
    for _ in range(40):
        xb, xa = c[:, None] + np.array(b), c[:, None] + np.array(a)
        g = _polygamma(0, xb).sum(axis=1) - _polygamma(0, xa).sum(axis=1) - lny
        slope = _polygamma(1, xb).sum(axis=1) - _polygamma(1, xa).sum(axis=1)
        live &= slope > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            c_new = np.where(live, np.maximum(floor, c - g / slope), c)
        live &= np.abs(c_new - c) >= 1e-9 * np.maximum(1.0, c)
        c = c_new
        if not live.any():
            break
    ladder = np.concatenate(([0.0], 1.1 ** np.arange(-20, 200)))
    t_max, todo = np.full(c.shape, ladder[-1]), np.arange(c.size)
    # in pieces of 64 points, the first of which ends every line of a moment grid
    for lo in range(0, ladder.size, 64):
        part = ladder[lo:lo + 64]
        decay = _line_phi(a, b, c[todo, None] + 1j * part).real
        top = decay[:, 0] if lo == 0 else top
        past = decay - top[todo, None] < -(math.log(1.0 / tol) + 12.0)
        hit = past.any(axis=1)
        t_max[todo[hit]] = part[past[hit].argmax(axis=1)]
        todo = todo[~hit]
        if not todo.size:
            break
    return c, t_max


def _contour_batch(
    a: Sequence[float], b: Sequence[float], y: np.ndarray, tol: float = 1e-11
) -> np.ndarray:
    """G^{m,0}_{p,m}(y | a; b), m > p, by converged trapezoid Bromwich lines.

    Row i is (1/pi) Re int_0^t_max exp(phi(s) - s ln y_i) dt on the line
    s = c + i t of its log-y bucket (width 0.7, at its median), a trapezoid
    sum with half weight at t = 0.  Each line starts at 65 nodes and
    doubles, phi evaluated once per (line x new node); rows add their
    integrand in blocks of _CONTOUR_ROWS until two counts agree to tol.  All
    lines take their first two counts together, then the lowest unsettled
    line doubles alone, so a failing call runs one line to the cap.  A row
    unsettled at _LINE_CAP nodes moves to its own saddle line, ranked right
    after its bucket, and raises NoConvergence if it fails there too.
    """
    lny = np.log(y)
    _, line, count = np.unique(np.floor(lny / 0.7), return_inverse=True, return_counts=True)
    srt, first = np.sort(lny), np.cumsum(count) - count  # buckets are runs of srt
    median = 0.5 * (srt[first + (count - 1) // 2] + srt[first + count // 2])
    c, t_max = _saddle_lines(a, b, np.exp(median), tol)
    rank = np.arange(count.size) * (y.size + 1)
    level = np.full(count.size, -1)
    total, diff, active = np.zeros(y.size), np.full(y.size, math.inf), np.ones(y.size, dtype=bool)
    while active.any():
        busy = np.unique(line[active])
        low = level[busy].min()
        step = busy[level[busy] == low] if low < 1 else busy[[np.argmin(rank[busy])]]
        level[step] += 1
        n = (_LINE_START - 1) << level[step[0]]
        j = np.arange(1.0, n, 2.0) if low >= 0 else np.arange(n + 1.0)
        h = t_max[step] / n
        s = c[step, None] + 1j * (h[:, None] * j)
        phi = _line_phi(a, b, s)
        w = np.where(j == 0.0, 0.5, 1.0) / math.pi
        rows = np.nonzero(active & np.isin(line, step))[0]
        prev = total[rows]
        for lo in range(0, rows.size, _CONTOUR_ROWS):
            idx = rows[lo:lo + _CONTOUR_ROWS]
            k = np.searchsorted(step, line[idx])
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                f = np.exp(phi[k] - lny[idx, None] * s[k]).real
            part = (np.where(np.isfinite(f), f, 0.0) @ w) * h[k]
            total[idx] = 0.5 * total[idx] + part if low >= 0 else part
        if low < 0:
            continue
        diff[rows] = np.abs(total[rows] - prev)
        active[rows] = diff[rows] > tol * np.maximum(np.abs(total[rows]), 1e-280)
        stuck = rows[active[rows]]
        if n + 1 < _LINE_CAP or not stuck.size:
            continue
        failed = stuck[line[stuck] >= count.size]
        if failed.size:
            i = failed[np.argmin(rank[line[failed]])]
            raise NoConvergence(
                f"Bromwich contour at y = {y[i]:.6g} did not settle in {_LINE_CAP} "
                f"nodes: last difference {diff[i]:.3e} on {total[i]:.6g}"
            )
        c_own, t_own = _saddle_lines(a, b, y[stuck], tol)
        rank = np.concatenate((rank, rank[line[stuck]] + 1 + stuck))
        line[stuck] = c.size + np.arange(stuck.size)
        c, t_max = np.concatenate((c, c_own)), np.concatenate((t_max, t_own))
        level = np.concatenate((level, np.full(stuck.size, -1)))
    return total


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


def _expansion_vec(a, b, y: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Large-y expansion of G^{m,0}_{p,m}, s = m - p >= 1, over an array of y.

    Each point sums the terms before the first k whose term and the next
    are both below _EXPANSION_MARGIN * tol (by Horner over the points, one
    array operation per term); ok marks the points where such a k exists
    among _EXPANSION_TERMS and those two terms are below that share of
    the sum.  Points where the leading factor is below e^-750 are an
    exact 0.
    """
    s = len(b) - len(a)
    rho, M = _expansion_coeffs(tuple(a), tuple(b))
    log_thr = math.log(_EXPANSION_MARGIN * tol)
    with np.errstate(divide="ignore"):
        log_m = np.log(np.abs(M))
    # ln w above which term k (k >= 1) is below the threshold, then above
    # which terms k and k + 1 are, then its running minimum over k
    lw_k = (log_m[1:] - log_thr) / np.arange(1, M.size)
    reach = np.minimum.accumulate(np.maximum(lw_k[:-1], lw_k[1:]))
    lw = np.log(y) / s
    n = 1 + np.searchsorted(-reach, -lw, side="right")
    vals, ok = np.zeros_like(y), n < M.size - 1
    log_g = 0.5 * (s - 1) * math.log(2.0 * math.pi) - 0.5 * math.log(s) - s * np.exp(lw) + rho * lw
    # below e^-750 G is a double 0 and needs no sum
    live = ok & (log_g > -750.0)
    if not live.any():
        return vals, ok
    lw, n = lw[live], n[live]
    u = np.exp(-lw)
    acc = np.zeros_like(u)
    for k in range(n.max() - 1, -1, -1):
        acc = acc * u + M[k] * (k < n)
    with np.errstate(under="ignore"):
        err = np.maximum(np.exp(log_m[n] - n * lw), np.exp(log_m[n + 1] - (n + 1) * lw))
        vals[live] = acc * np.exp(log_g[live])
    ok[live] = err <= math.exp(log_thr) * np.abs(acc)
    return vals, ok


def _m0_leading_small_y(
    b: Sequence[float], y: np.ndarray, a: Sequence[float] = ()
) -> np.ndarray:
    """Leading y -> 0 behavior of G^{m,0}_{alpha,m} for distinct smallest b;
    used only at extreme y where the dropped corrections are negligible."""
    bs = sorted(b)
    bmin = bs[0]
    coeff = 1.0
    for v in bs[1:]:
        coeff *= math.gamma(v - bmin)
    for av in a:
        coeff *= rgamma(av - bmin)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        out = coeff * np.exp(bmin * np.log(y))
    return np.where(np.isfinite(out), out, 0.0)


def _integer_spaced_pairs(b: Sequence[float]) -> bool:
    return any(
        abs((b[i] - b[j]) - round(b[i] - b[j])) < 1e-9
        for i in range(len(b))
        for j in range(i + 1, len(b))
    )


def m0_eval_vec(b: Sequence[float], y: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """G^{m,0}_{0,m}(y|b) for an array of y > 0 (zeros where y <= 0).

    Closed forms for m <= 2: y^b e^-y, and 2 y^{(b1+b2)/2} K_{b1-b2}(2 sqrt y)
    at any order (the leading small-y power only where K overflows);
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
                v[over] = _m0_leading_small_y(b, ys[over])
    out[pos] = np.where(np.isfinite(v), v, 0.0)
    return out


def g_general_vec(
    a: Sequence[float], b: Sequence[float], y: np.ndarray, tol: float = 1e-11
) -> np.ndarray:
    """G^{m,0}_{alpha,m}(y|a;b) over an array of y > 0.

    Three routes by y, for s = m - alpha >= 1: the Slater expansion while
    it conditions well (eps-split Slater for integer-coincident lower
    parameters), not run where it would refuse every point
    (2 s y^{1/s} above ln 1e6 + (s - 1) ln 2 + 3, _slater_reaches); the
    large-y expansion (_expansion_vec) from the y where its first two
    omitted terms fall below tol / 100 of its sum (s y^{1/s} ~ 16..40 on
    the certified lists of lambda <= 8); and converged trapezoid Bromwich lines
    (_contour_batch: one line per log-y bucket, all lines in a few
    whole-array passes) for the band between.  The leading power serves
    extreme small y (below 1e-60) where Slater refuses, and y = +inf is an
    exact 0.  At s <= 0 only Slater runs, and a point it refuses raises
    DomainError.
    """
    y = np.asarray(y, dtype=float)
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    r = len(b) - len(a)
    vals = np.zeros_like(y)
    # G decays like e^{-r y^{1/r}}: y = inf is an exact 0 that no route runs
    ok = np.isposinf(y) if r > 0 else np.zeros(y.shape, dtype=bool)
    reach = _slater_reaches(r, y) if r > 0 else np.ones(y.shape, dtype=bool)
    if _integer_spaced_pairs(b):
        delta = 1e-6
        bp, bm = list(b), list(b)
        for i in range(len(b)):
            for j in range(i):
                if abs((b[i] - b[j]) - round(b[i] - b[j])) < 1e-9:
                    bp[i] = b[i] + delta * (1 + i)
                    bm[i] = b[i] - delta * (1 + i)
        vp, okp = _slater_vec(bp, y[reach], min(tol, 1e-13), a)
        vm, okm = _slater_vec(bm, y[reach], min(tol, 1e-13), a)
        vals[reach] = 0.5 * (vp + vm)
        ok[reach] = okp & okm
    else:
        vals[reach], ok[reach] = _slater_vec(b, y[reach], min(tol, 1e-13), a)
    tiny = ~ok & (y < 1e-60)
    if tiny.any():
        vals[tiny] = _m0_leading_small_y(b, y[tiny], a)
    rest = ~ok & ~tiny
    if rest.any() and r > 0:
        vals[rest], ok[rest] = _expansion_vec(a, b, y[rest], tol)
        rest &= ~ok
    if rest.any():
        if r <= 0:
            raise DomainError(
                f"Slater refused {int(rest.sum())} of {y.size} points of "
                f"G^{{{len(b)},0}}_{{{len(a)},{len(b)}}} and the contour needs m > p"
            )
        vals[rest] = _contour_batch(a, b, y[rest], tol)
    return vals


class _Kernel:
    """Density on (0, support_end); vectorized over x.

    one_minus_x, when supplied, is the exact distance 1 - x for nodes
    adjacent to a unit-interval endpoint; infinite-support kernels ignore
    it.
    """

    support_end = math.inf

    def __call__(self, x, one_minus_x=None) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class _M0Kernel(_Kernel):
    """G^{r,0}_{0,r}(x | b) on (0, inf), evaluated by m0_eval_vec."""

    def __init__(self, b: Sequence[float]):
        self.b = [float(v) for v in b]

    def __call__(self, x, one_minus_x=None):
        return m0_eval_vec(self.b, x)


class _TabulatedM0Kernel(_M0Kernel):
    """m >= 3 lower parameters: log-log cubic table over Slater/contour on
    [1e-12, (80/m)^m]; m0_eval_vec below and above it."""

    def __init__(self, b: Sequence[float], n: int = 1400):
        super().__init__(b)
        m = len(self.b)
        x_max = (80.0 / m) ** m
        lx = np.linspace(math.log(1e-12), math.log(x_max), n)
        vals = m0_eval_vec(self.b, np.exp(lx), 1e-11)
        good = vals > 0.0
        self.lx = lx[good]
        self.lg = np.log(vals[good])
        self.x_lo = math.exp(self.lx[0])
        self.x_hi = math.exp(self.lx[-1])

    def __call__(self, x, one_minus_x=None):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x >= self.x_lo) & (x <= self.x_hi)
        if np.any(inside):
            out[inside] = np.exp(_lagrange4(self.lx, self.lg, np.log(x[inside])))
        outside = (x > 0) & ~inside
        if np.any(outside):
            out[outside] = m0_eval_vec(self.b, x[outside], 1e-11)
        return out


def _lagrange4(xs: np.ndarray, ys: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """4-point Lagrange interpolation on a sorted table."""
    idx = np.searchsorted(xs, xq)
    i0 = np.clip(idx - 2, 0, len(xs) - 4)
    out = np.zeros_like(xq)
    for j in range(4):
        lj = np.ones_like(xq)
        xj = xs[i0 + j]
        for k in range(4):
            if k == j:
                continue
            xk = xs[i0 + k]
            lj *= (xq - xk) / (xj - xk)
        out += ys[i0 + j] * lj
    return out


# Below this x the (1 - x) series converges too slowly and Slater takes over;
# the term count makes (1 - split)^n fall below 1e-17, plus a margin for
# the polynomial growth of D_n.
_NORLUND_SPLIT = 0.1
_NORLUND_TERMS = math.ceil(math.log(1e-17) / math.log(1.0 - _NORLUND_SPLIT)) + 48


class _NorlundKernel(_Kernel):
    """G^{q,0}_{q,q}(x | a; b) on (0, 1) as Norlund's (1 - x) series.

    G = x^{b_q} (1-x)^{s-1} sum_n D_n (1-x)^n with s = sum(a) - sum(b).
    D starts as [1/Gamma(a_1-b_1)] with exponents (beta, sigma) =
    (b_1, a_1-b_1); each further pair (a_q, b_q) convolves D with
    (a_q-beta)_m/m!, multiplies term n by Gamma(sigma+n)/Gamma(sigma+a_q-b_q+n)
    and moves to (b_q, sigma+a_q-b_q).  The pairs follow the positivity
    certificate (a_i > b_i), so every Gamma argument stays positive.  One
    pair is the exact Beta density; for more, g_general_vec evaluates
    x < _NORLUND_SPLIT.
    """

    support_end = 1.0

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
            acc = np.zeros_like(t)
            for dn in self.d[::-1]:
                acc = acc * t + dn
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                out[series] = acc * np.exp(
                    self.beta * np.log(x[series]) + (self.s - 1.0) * np.log(t)
                )
        return np.where(np.isfinite(out), out, 0.0)


# Below this y a convolution over an infinite-support inner kernel splits u
# at y: the integrand's mass sits at u ~ y, which tanh-sinh on (0, 1)
# resolves only at its node cap.
_CONV_SPLIT = 1e-3


class _ConvolvedKernel(_Kernel):
    """One Mellin convolution g(y) = int_0^1 outer(u) inner(y/u) du/u.

    outer is a Norlund kernel on (0, 1).  Over an infinite-support inner
    kernel u runs over (0, 1); below y = _CONV_SPLIT it is split into
    u = y^tau on (y, 1), with the exact 1 - u = -expm1(tau ln y), and
    u = y t on (0, y), summed into one integrand.  Over a unit-support
    inner kernel u runs over (y, 1).  Every abscissa of one call is a row
    of one batched tanh_sinh.

    A Norlund factor with gap sum s makes the integrand behave like
    (1 - u)^(s-1) at its endpoint; a share e^(LOG_MIN_OFFSET s) of that
    mass lies beyond every tanh-sinh node, so s whose share exceeds tol
    raises DomainError rather than returning a weight that low.
    """

    def __init__(self, outer: _NorlundKernel, inner: _Kernel, tol: float = 1e-10):
        floor = math.log(1.0 / tol) / -LOG_MIN_OFFSET
        for kernel in (outer, inner):
            if isinstance(kernel, _NorlundKernel) and kernel.s < floor:
                raise DomainError(
                    f"pair gap sum s = {kernel.s:.3g} is below {floor:.3g}: tanh-sinh "
                    f"cannot integrate (1 - u)^(s - 1) to tol = {tol:.3g}"
                )
        self.outer = outer
        self.inner = inner
        self.tol = tol
        self.support_end = inner.support_end
        # the lists of the whole G, whose Mellin transform is the product
        self.a, self.b = outer.a + getattr(inner, "a", []), outer.b + inner.b

    def _integrand(self, t, dl, dr, y):
        # dl = t - lo and dr = 1 - t are exact tanh-sinh offsets
        outer, inner = self.outer, self.inner
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            if self.support_end == 1.0:
                # u = t on (y, 1); the inner argument y/u has 1 - y/u = dl/u
                return outer(t, dr) * inner(y / t, dl / t) / t
            # every row runs on (0, 1): what depends on t alone is evaluated
            # on the first row and broadcast
            t1 = t[:1]
            out = np.empty_like(t)
            high = y[:, 0] >= _CONV_SPLIT
            out[high] = outer(t1, dr[:1]) / t1 * inner(y[high] / t[high])
            tau, dtau, ys = t[~high], dr[~high], y[~high]
            ln_y = np.log(ys)
            upper = -ln_y * outer(np.exp(tau * ln_y), -np.expm1(tau * ln_y))
            upper *= inner(np.exp(dtau * ln_y))
            lower = outer(ys * tau, 1.0 - ys * tau) * (inner(1.0 / t1) / t1)
            out[~high] = upper + lower
        return out

    def __call__(self, x, one_minus_x=None):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = (x > 0) & (x < self.support_end)
        # at subnormal y, u = y t keeps a few bits and the rows cannot
        # settle; g_general_vec evaluates the whole G there
        sub = pos & (x < np.finfo(float).tiny)
        if sub.any():
            out[sub] = g_general_vec(self.a, self.b, x[sub])
        pos &= ~sub
        if pos.any():
            y = x[pos]
            lo = y if self.support_end == 1.0 else 0.0
            r = tanh_sinh(self._integrand, lo, 1.0, tol=self.tol, with_offsets=True, params=(y,))
            out[pos] = r.value
        return out


def build_convolution_kernel(
    a: Sequence[float],
    b: Sequence[float],
    pairing: Sequence[int],
    tol: float = 1e-10,
) -> _Kernel:
    """Assemble the kernel for G^{m,0}_{alpha,m}.

    The pairing (one b index per a, with a[i] > b[pairing[i]]) follows the
    positivity certificate.  The Norlund series H of all alpha pairs is
    G^{alpha,0}_{alpha,alpha} on (0, 1), with Mellin transform
    prod Gamma(b+s)/Gamma(a+s) over the pairs.  For r = len(b) - len(a) = 0
    it is the weight; for r > 0 the weight is one Mellin convolution of H
    with G^{r,0}_{0,r} of the unpaired b's (closed forms for r <= 2, a
    table above), exact for any alpha.
    """
    outer = _NorlundKernel([(float(a[i]), float(b[j])) for i, j in enumerate(pairing)])
    rest = [float(v) for j, v in enumerate(b) if j not in pairing]
    if not rest:
        return outer
    inner = _M0Kernel(rest) if len(rest) <= 2 else _TabulatedM0Kernel(rest)
    return _ConvolvedKernel(outer, inner, tol)

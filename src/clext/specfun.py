"""Self-contained special-function kernel.

Everything the rest of the package needs is evaluated here in double
precision with explicit error estimates: generalized hypergeometric pFq
series, modified Bessel I/K of real order, and the restricted Meijer G
classes G^{m,0}_{0,m} and G^{m,0}_{alpha,m} that the unity-resolution
weight functions are built from (Slater expansions, saddle-point Bromwich
contours, Norlund's (1 - y) series on the unit interval, and nested
Mellin-convolution quadrature).

Scalar evaluations return a SeriesValue carrying the value, an absolute
error estimate, the number of terms (or nodes) consumed and a
convergence flag; the Meijer-G and Bessel-K routes are vectorized over
their argument array.
"""

from __future__ import annotations

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
from .quadrature import tanh_sinh

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


def _asym_coeffs(nu: float, x: float, sign: float, tol: float) -> tuple[float, int]:
    # sum_k a_k(nu) (sign/x)^k with a_k = prod (4nu^2-(2j-1)^2)/(k! 8^k);
    # truncated at the smallest term.
    mu4 = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    prev = 1.0
    for k in range(1, 60):
        term *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k) * (sign / x)
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
        s, k = _asym_coeffs(nu, x, -1.0, tol)
        val = math.exp(x) / math.sqrt(2.0 * math.pi * x) * s
        return SeriesValue(val, abs(val) * max(tol, 1e-15), k, True)
    val, k = _bessel_i_series(nu, x, tol)
    return SeriesValue(val, abs(val) * max(tol, (k + 4) * _EPS), k, True)


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _bessel_k_quad(nu: float, x: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt by Gauss-Legendre.

    Accurate for moderate x where both the reflection formula and the
    asymptotic series lose digits.  Vectorized over x.
    """
    x = np.asarray(x, dtype=float)
    t_max = np.arccosh(np.maximum(750.0 / np.maximum(x, 1e-10), 2.0))
    prev = None
    for n in (96, 160, 256):
        u, w = _gl(n)
        # map (0, t_max) per point
        tm = t_max[..., None]
        t = 0.5 * tm * (u + 1.0)
        vals = np.exp(-x[..., None] * np.cosh(t)) * np.cosh(nu * t)
        out = 0.5 * t_max * np.sum(w * vals, axis=-1)
        if prev is not None and np.all(
            np.abs(out - prev) <= tol * np.maximum(np.abs(out), 1e-300)
        ):
            return out
        prev = out
    return out


def _bessel_i_series_vec(nu: float, x: np.ndarray, terms: int = 60) -> np.ndarray:
    """Ascending I series over an array of small x (all terms positive)."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        lead = np.exp(nu * np.log(0.5 * x) - math.lgamma(nu + 1.0))
        lead = lead * gamma_sign(nu + 1.0)
        q = 0.25 * x * x
        term = np.ones_like(x)
        total = np.ones_like(x)
        for k in range(1, terms):
            term = term * q / (k * (nu + k))
            total += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
                break
        out = lead * total
    return np.where(np.isfinite(out), out, 0.0)


def _bessel_k_reflection_vec(nu: float, x: np.ndarray) -> np.ndarray:
    if abs(nu - round(nu)) < 1e-3:
        n = round(nu)
        eps = 1e-4

        def sym(e):
            num = _bessel_i_series_vec(-(n + e), x) - _bessel_i_series_vec(n + e, x)
            return math.pi * num / (2.0 * sinpi(n + e))

        return (4.0 * 0.5 * (sym(eps) + sym(-eps)) - 0.5 * (sym(2 * eps) + sym(-2 * eps))) / 3.0
    num = _bessel_i_series_vec(-nu, x) - _bessel_i_series_vec(nu, x)
    return math.pi * num / (2.0 * sinpi(nu))


def bessel_k_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """Modified Bessel K_nu over an array of positive x, real order.

    Three branches: the I reflection formula below x = 1 (where its
    e^{2x} cancellation is harmless), the cosh-integral quadrature up to
    x = 30, and the asymptotic expansion beyond.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1.0
    large = (x > 30.0) & (4.0 * nu * nu + 3.0 < 2.0 * x)
    mid = ~(small | large)
    if np.any(small):
        out[small] = _bessel_k_reflection_vec(abs(nu), x[small])
    if np.any(mid):
        out[mid] = _bessel_k_quad(abs(nu), x[mid])
    for i in np.nonzero(large.ravel())[0]:
        xi = float(x.ravel()[i])
        s, _ = _asym_coeffs(abs(nu), xi, 1.0, 1e-14)
        out.ravel()[i] = math.sqrt(math.pi / (2.0 * xi)) * math.exp(-xi) * s
    return out


# --------------------------------------------------------------------------
# Meijer G
# --------------------------------------------------------------------------

def _digamma(x: float) -> float:
    """psi(x) for x > 0 via upward recurrence plus the asymptotic tail."""
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    return acc + math.log(x) - 0.5 * inv - inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 / 252))


_SLATER_COND_LIMIT = 1e6


def _slater_vec(b: Sequence[float], y: np.ndarray, tol: float, a: Sequence[float] = ()):
    """Vectorized Slater expansion of G^{m,0}_{alpha,m} over an array of y.

    Returns (values, ok) where ok marks points whose cancellation stayed
    below the conditioning limit and whose series settled.
    """
    m = len(b)
    alpha = len(a)
    sign = 1.0 if (alpha - m) % 2 == 0 else -1.0
    for i in range(m):
        for j in range(i + 1, m):
            if abs((b[i] - b[j]) - round(b[i] - b[j])) < 1e-9:
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


def _contour_batch(
    a: Sequence[float], b: Sequence[float], y: np.ndarray, tol: float = 1e-11
) -> np.ndarray:
    """Contour evaluation for many y, sharing one line per log-y bucket."""
    out = np.empty_like(y)
    ln = np.log(y)
    keys = np.floor(ln / 0.7).astype(int)
    for key in np.unique(keys):
        sel = keys == key
        ysel = y[sel]
        yc = math.exp(float(np.median(ln[sel])))
        vals = _contour_shared_line(a, b, ysel, yc, tol)
        out[sel] = vals
    return out


def _saddle_line(a: list[float], b: list[float], y: float, tol: float) -> tuple[float, float]:
    """(c, t_max) of the truncated Bromwich line Re s = c for G at y.

    The line is placed at the saddle of the integrand (Newton on
    sum psi(c+b) - sum psi(c+a) = ln y) but never left of
    1.5 + max(-b_nu), so every gamma argument keeps a positive real part
    and the integrand scale matches the result scale.  Decay along the
    line is Gaussian (variance ~ c/m) before the asymptotic e^{-r pi t/2}
    regime takes over; t_max truncates past both.
    """
    m = len(b)
    r_eff = m - len(a)
    floor = 1.5 + max(0.0, -min(b))
    c = max(floor, y ** (1.0 / r_eff) if y > 1.0 else floor)
    for _ in range(40):
        g = sum(_digamma(c + bv) for bv in b) - sum(_digamma(c + av) for av in a)
        g -= math.log(y)
        # psi'(x) ~ 1/x; crude but monotone Newton step
        slope = sum(1.0 / (c + bv) for bv in b) - sum(1.0 / (c + av) for av in a)
        if slope <= 0:
            break
        c_new = max(floor, c - g / slope)
        if abs(c_new - c) < 1e-9 * max(1.0, c):
            c = c_new
            break
        c = c_new
    ln_budget = math.log(1.0 / tol) + 12.0
    t_asym = 2.0 * ln_budget / (r_eff * math.pi)
    t_gauss = math.sqrt(2.0 * c * ln_budget / m)
    return c, max(t_asym, min(t_gauss, 3.0 * t_asym + 2.0 * c))


# Rows of one bucket evaluated together on its shared line; bounds the
# (rows x 4097) complex integrand instead of sizing it by the bucket.
_CONTOUR_ROWS = 64


def _line(a, b, c: float, t_max: float, n: int):
    """(t, s, phi): n equispaced nodes t on [0, t_max], s = c + i t, and
    phi = sum log Gamma(s + b) - sum log Gamma(s + a) there."""
    t = np.linspace(0.0, t_max, n)
    s = c + 1j * t
    phi = np.zeros_like(s)
    for bv in b:
        phi = phi + lgamma_complex(s + bv)
    for av in a:
        phi = phi - lgamma_complex(s + av)
    return t, s, phi


def _line_values(s: np.ndarray, phi: np.ndarray, lny: np.ndarray) -> np.ndarray:
    """Real part of the Bromwich integrand on the line, one row per entry
    of the (rows, 1) array lny."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        f = np.exp(phi[None, :] - lny * s[None, :]).real
    return np.where(np.isfinite(f), f, 0.0)


def _simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson rule along each row, divided by pi."""
    return (
        f[:, 0] + f[:, -1] + 4.0 * f[:, 1:-1:2].sum(axis=1) + 2.0 * f[:, 2:-1:2].sum(axis=1)
    ) * h / (3.0 * math.pi)


def _contour_shared_line(a, b, ysel, y_center, tol):
    """G at the points ysel from one Bromwich line, the saddle line of y_center.

    Rows whose Simpson pair (4097 and 2049 nodes) disagrees are
    recomputed on their own saddle line, doubling the node count from
    513 up to 2^14 + 1 until two successive counts agree.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    c, t_max = _saddle_line(a, b, y_center, tol)
    t, s, phi = _line(a, b, c, t_max, 4097)
    h = t[1] - t[0]
    lny = np.log(ysel)[:, None]
    full = np.empty(len(ysel))
    half = np.empty(len(ysel))
    for lo in range(0, len(ysel), _CONTOUR_ROWS):
        f = _line_values(s, phi, lny[lo:lo + _CONTOUR_ROWS])
        full[lo:lo + _CONTOUR_ROWS] = _simpson(f, h)
        half[lo:lo + _CONTOUR_ROWS] = _simpson(f[:, ::2], 2.0 * h)
    bad = np.abs(full - half) > 1e3 * tol * np.maximum(np.abs(full), 1e-280)
    for i in np.nonzero(bad)[0]:
        y = float(ysel[i])
        c, t_max = _saddle_line(a, b, y, tol)
        prev = None
        n = 513
        while n <= (1 << 14) + 1:
            t, s, phi = _line(a, b, c, t_max, n)
            f = _line_values(s, phi, np.array([[math.log(y)]]))
            total = float(_simpson(f, t[1] - t[0])[0])
            if prev is not None and abs(total - prev) <= tol * max(abs(total), abs(f[0, 0]) * 1e-9):
                break
            prev = total
            n = 2 * n - 1
        full[i] = total
    return full


def _m0_leading_small_y(
    b: Sequence[float], y: np.ndarray, a: Sequence[float] = ()
) -> np.ndarray:
    """Leading y -> 0 behavior of G^{m,0}_{alpha,m}; used only at extreme
    y where the relative weight of the dropped corrections is negligible."""
    bs = sorted(b)
    bmin = bs[0]
    coeff = 1.0
    log_factor = False
    for v in bs[1:]:
        if abs(v - bmin) < 1e-9:
            log_factor = True
        else:
            coeff *= math.gamma(v - bmin)
    for av in a:
        coeff *= rgamma(av - bmin)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        out = coeff * np.exp(bmin * np.log(y))
        if log_factor:
            out = out * (-np.log(y))
    return np.where(np.isfinite(out), out, 0.0)


def _integer_spaced_pairs(b: Sequence[float]) -> bool:
    return any(
        abs((b[i] - b[j]) - round(b[i] - b[j])) < 1e-9
        for i in range(len(b))
        for j in range(i + 1, len(b))
    )


def m0_eval_vec(b: Sequence[float], y: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """G^{m,0}_{0,m}(y|b) for an array of y > 0 (zeros where y <= 0)."""
    y = np.asarray(y, dtype=float)
    b = [float(v) for v in b]
    out = np.zeros_like(y)
    pos = y > 0
    if not pos.any():
        return out
    ys = y[pos]
    if len(b) == 1:
        with np.errstate(over="ignore", under="ignore"):
            v = np.exp(b[0] * np.log(ys) - ys)
        out[pos] = np.where(np.isfinite(v), v, 0.0)
        return out
    if len(b) == 2 and _integer_spaced_pairs(b):
        # the Slater pair degenerates into the Bessel-K resummation,
        # which our K kernel evaluates at integer order directly; below
        # y = 1e-12 the power prefactor is folded into K's small-x
        # asymptote analytically (K alone overflows the double range)
        v = np.empty_like(ys)
        small = ys < 1e-12
        if small.any():
            v[small] = _m0_leading_small_y(b, ys[small])
        if (~small).any():
            kv = bessel_k_vec(b[0] - b[1], 2.0 * np.sqrt(ys[~small]))
            with np.errstate(over="ignore", under="ignore"):
                vv = 2.0 * ys[~small] ** (0.5 * (b[0] + b[1])) * kv
            v[~small] = np.where(np.isfinite(vv), vv, 0.0)
        out[pos] = v
        return out
    out[pos] = g_general_vec((), b, ys, tol)
    return out


def g_general_vec(
    a: Sequence[float], b: Sequence[float], y: np.ndarray, tol: float = 1e-11
) -> np.ndarray:
    """G^{m,0}_{alpha,m}(y|a;b) over an array of y > 0.

    Slater expansion while it conditions well, eps-split Slater for
    integer-coincident lower parameters, bucketed contours elsewhere,
    and the leading power at extreme small y where contours overflow.
    """
    y = np.asarray(y, dtype=float)
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if _integer_spaced_pairs(b):
        delta = 1e-6
        bp, bm = list(b), list(b)
        for i in range(len(b)):
            for j in range(i):
                if abs((b[i] - b[j]) - round(b[i] - b[j])) < 1e-9:
                    bp[i] = b[i] + delta * (1 + i)
                    bm[i] = b[i] - delta * (1 + i)
        vp, okp = _slater_vec(bp, y, min(tol, 1e-13), a)
        vm, okm = _slater_vec(bm, y, min(tol, 1e-13), a)
        vals = 0.5 * (vp + vm)
        ok = okp & okm
    else:
        vals, ok = _slater_vec(b, y, min(tol, 1e-13), a)
    if not ok.all():
        vals = np.array(vals)
        tiny = ~ok & (y < 1e-60)
        if tiny.any():
            vals[tiny] = _m0_leading_small_y(b, y[tiny], a)
        rest = ~ok & ~tiny
        if rest.any():
            if len(a) >= len(b):
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


class _ExpKernel(_Kernel):
    def __init__(self, b0: float):
        self.b0 = b0

    def __call__(self, x, one_minus_x=None):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out = np.exp(self.b0 * np.log(x) - x)
        return np.where(np.isfinite(out), out, 0.0)


class _BesselKernel(_Kernel):
    # G^{2,0}_{0,2}(x | b1, b2) = 2 x^{(b1+b2)/2} K_{b1-b2}(2 sqrt(x))
    def __init__(self, b1: float, b2: float):
        self.b1 = b1
        self.b2 = b2

    def __call__(self, x, one_minus_x=None):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        tiny = (x > 0) & (x < 1e-12)
        if np.any(tiny):
            out[tiny] = _m0_leading_small_y([self.b1, self.b2], x[tiny])
        pos = x >= 1e-12
        if np.any(pos):
            xs = x[pos]
            kv = bessel_k_vec(self.b1 - self.b2, 2.0 * np.sqrt(xs))
            with np.errstate(over="ignore", under="ignore"):
                out[pos] = 2.0 * xs ** (0.5 * (self.b1 + self.b2)) * kv
        return np.where(np.isfinite(out), out, 0.0)


class _TabulatedM0Kernel(_Kernel):
    """m >= 3 lower parameters: log-log cubic table over Slater/contour."""

    def __init__(self, b: Sequence[float], n: int = 1400):
        self.b = [float(v) for v in b]
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
        small = (x > 0) & (x < self.x_lo)
        if np.any(small):
            out[small] = m0_eval_vec(self.b, x[small], 1e-11)
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


class _ConvolvedKernel(_Kernel):
    """One Mellin-convolution level: pair (a0, b0) over an inner kernel.

    g(y) = 1/Gamma(a0-b0) * int_1^{U} u^{-a0} (u-1)^{a0-b0-1} inner(y u) du
    with U = inf (infinite-support inner) or 1/y (unit-support inner).
    Positivity requires a0 > b0, which the certificate pairing supplies.
    """

    def __init__(self, inner: _Kernel, a0: float, b0: float, tol: float = 1e-10):
        if a0 <= b0:
            raise DomainError("convolution level requires a0 > b0")
        self.inner = inner
        self.a0 = a0
        self.b0 = b0
        self.tol = tol
        self.norm = rgamma(a0 - b0)
        self.support_end = inner.support_end

    def _eval_one(self, y: float) -> float:
        gap = self.a0 - self.b0
        finite_inner = self.inner.support_end != math.inf
        lo = y if finite_inner else 0.0
        if finite_inner and lo >= 1.0:
            return 0.0

        def f(w, dl, dr):
            # dl = w - lo, dr = 1 - w, both exact tanh-sinh offsets
            w = np.asarray(w, dtype=float)
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                pref = np.exp((self.b0 - 1.0) * np.log(w) + (gap - 1.0) * np.log(dr))
                if finite_inner:
                    # inner argument y/w has exact distance-to-one dl/w
                    vals = self.inner(y / w, one_minus_x=dl / w)
                else:
                    vals = self.inner(y / w)
                out = pref * vals
            return np.where(np.isfinite(out), out, 0.0)

        r = tanh_sinh(f, lo, 1.0, tol=self.tol, with_offsets=True)
        return self.norm * r.value

    def __call__(self, x, one_minus_x=None):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for i in np.nonzero((x > 0).ravel())[0]:
            out.ravel()[i] = self._eval_one(float(x.ravel()[i]))
        return out


class _TabulatedKernel(_Kernel):
    """Log-log table over an expensive infinite-support kernel."""

    def __init__(self, base: _Kernel, x_max: float, n: int = 1200):
        lx = np.linspace(math.log(1e-12), math.log(x_max), n)
        vals = base(np.exp(lx))
        good = vals > 0.0
        self.lx = lx[good]
        self.lg = np.log(vals[good])
        self.base = base
        self.x_lo = math.exp(self.lx[0]) if len(self.lx) else math.inf
        self.x_hi = math.exp(self.lx[-1]) if len(self.lx) else 0.0

    def __call__(self, x, one_minus_x=None):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        ins = (x >= self.x_lo) & (x <= self.x_hi)
        if np.any(ins):
            out[ins] = np.exp(_lagrange4(self.lx, self.lg, np.log(x[ins])))
        small = (x > 0) & (x < self.x_lo)
        if np.any(small):
            out[small] = self.base(x[small])
        return out


def _build_m0_kernel(b: Sequence[float]) -> _Kernel:
    if len(b) == 1:
        return _ExpKernel(b[0])
    if len(b) == 2:
        return _BesselKernel(b[0], b[1])
    return _TabulatedM0Kernel(b)


def build_convolution_kernel(
    a: Sequence[float],
    b: Sequence[float],
    pairing: Sequence[int] | None = None,
    tol: float = 1e-10,
) -> _Kernel:
    """Assemble the kernel for G^{m,0}_{alpha,m}.

    The pairing (one b index per a, with a[i] > b[pairing[i]]) follows the
    positivity certificate.  For r = len(b) - len(a) = 0 every b is paired
    and the result is the Norlund series of the pairs on (0, 1); for r > 0
    the unpaired b's form the innermost kernel and each pair adds one
    Mellin-convolution level.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    alpha = len(a)
    r = len(b) - alpha
    if pairing is None:
        pairing = _default_pairing(a, b)
    pairing = list(pairing)
    pairs = [(a[i], b[pairing[i]]) for i in range(alpha)]
    if r == 0:
        return _NorlundKernel(pairs)
    kernel = _build_m0_kernel([b[j] for j in range(len(b)) if j not in pairing])
    if r >= 2 and alpha >= 1:
        # amortize the Bessel/Slater evaluations across the many
        # convolution quadratures that will sample this kernel; the
        # range covers y^k tails up to k ~ 40
        x_max = 100.0
        for _ in range(4):
            x_max = ((70.0 + 40.0 * max(math.log(x_max), 1.0)) / r) ** r
        kernel = _TabulatedKernel(kernel, x_max=x_max)
    for depth, (ai, bi) in enumerate(pairs):
        kernel = _ConvolvedKernel(kernel, ai, bi, tol=tol)
        if depth < alpha - 1:
            m_eff = len(b)
            kernel = _TabulatedKernel(kernel, x_max=(80.0 / m_eff) ** m_eff)
    return kernel


def _default_pairing(a: Sequence[float], b: Sequence[float]) -> list[int]:
    """Greedy pairing a[i] > b[j], largest a first, tightest b that fits."""
    order = sorted(range(len(a)), key=lambda i: -a[i])
    used: set[int] = set()
    pairing = [0] * len(a)
    for i in order:
        candidates = [j for j in range(len(b)) if j not in used and a[i] > b[j]]
        if not candidates:
            raise DomainError("no positive convolution pairing exists")
        j = max(candidates, key=lambda jj: b[jj])
        pairing[i] = j
        used.add(j)
    return pairing

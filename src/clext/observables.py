"""Photon statistics (Mandel Q) and quadrature squeezing for both
coherent-state families.

Every closed form is an expectation <g(N)> = p @ g(n) over the Fock weights
p_n = |c_n|^2 / N of the state, all from one core (_fock_weights): the
per-level log ratios log|c_{n+w} / (z c_n)|^2 (states._log_ratios) are summed
once per level count, with compensation (_prefix_sum), and each row's log p
is taken from that shared sum about its peak level with an exact product
k log|z|^2 (_peak_normalized).  A weight keeps one rounding of log F per
level between it and the peak, and nothing overflows at large |z|.  Every
function takes one grid value or an array of them, so a figure curve or a
CLI grid is one call.  Kept as a cross-check: the coefficient-vector oracle
(method="oracle"), which builds the truncated states of a grid with one
states builder call per _row_blocks slice (the rows of a call share one dim)
and contracts each row against the ladder matrices.  The Phi-ratio branch
forms of the sector Q and the lambda = 2 Bessel form of the eigenstate Q are
test references (tests/closed_forms.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import AlgebraParams, structure_function
from .errors import DomainError, NoConvergence
from .states import (
    LAST_WEIGHT,
    MAX_AUTO_DIM,
    CsAlphaSpec,
    StateVector,
    _log_ratios,
    cs_alpha_state,
    eigenstate,
)

FIRST_LEVELS = 64
MAX_LEVELS = 2**16
WORK_ELEMENTS = 2**16
_SPLIT = 2.0**27 + 1.0  # Veltkamp splitter for doubles


@dataclass(frozen=True)
class PhotonStats:
    mean_N: float
    mean_N2: float
    mandel_Q: float
    source: str  # closed_form | vector_oracle | closed_limit


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
# Fock weights
# --------------------------------------------------------------------------

def _row_blocks(rows: int, levels: int) -> list[slice]:
    """Row slices of at most WORK_ELEMENTS values; |z| <= 3 (every figure) is one block."""
    step = max(1, WORK_ELEMENTS // levels)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _prefix_sum(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_k = sum_{j<k} ratios_j for k = 0..len(ratios), as hi + lo.

    The running float sum is compensated by the running sum of each step's
    exact rounding error (TwoSum; Ogita, Rump & Oishi 2005), and hi is that
    sum rounded to a multiple of 2 ulp(max |R|), so hi_k - hi_j is exact for
    every pair of levels.
    """
    run = np.concatenate(([0.0], np.cumsum(ratios)))
    before, after = run[:-1], run[1:]
    back = after - before
    err = (before - (after - back)) + (ratios - back)
    step = 2.0 * np.spacing(np.abs(run).max())
    hi = np.round(run / step) * step
    return hi, (run - hi) + np.concatenate(([0.0], np.cumsum(err)))


def _peak_normalized(log_z2: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Weights p (rows, K), normalized to sum 1, with log p_k = k L + R_k plus a
    constant per row, from L = log|z|^2 (rows, 1) and R = hi + lo (K,).

    Each row is taken relative to its peak level P, the k that maximizes
    k L + R_k:

        log p_k - log p_P = (hi_k - hi_P) + (k - P) L_hi + (lo_k - lo_P) + (k - P) L_lo

    with L = L_hi + L_lo the Veltkamp split (Dekker 1971).  L_hi has 26 bits
    and k at most 17, so k L_hi and (k - P) L_hi are exact, hi_k - hi_P is
    exact (_prefix_sum), and near the peak the two cancel exactly: what is
    left is the small lo and L_lo terms and the rounding of log p itself.  A
    z = 0 row (L = -inf) is the exact vacuum: L is clamped to -1e300, so
    0 L = 0 and every other level underflows.
    """
    L = np.maximum(log_z2[:, 0], -1e300)
    big = _SPLIT * L
    L_hi = big - (big - L)
    k = np.arange(len(hi), dtype=float)
    exact = np.multiply.outer(L_hi, k)
    peak = np.argmax(exact + hi, axis=1)
    exact -= (peak * L_hi)[:, None]
    log_p = hi - hi[peak, None]
    log_p += exact
    L_lo = L - L_hi
    rest = lo - (lo[peak] + peak * L_lo)[:, None]
    rest += np.multiply.outer(L_lo, k)
    log_p += rest
    with np.errstate(under="ignore"):
        p = np.exp(log_p, out=log_p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _fock_weights(params: AlgebraParams, z_abs, sector: tuple[int, int] | None = None):
    """Fock levels n (K,) and normalized weights p_n = |c_n|^2 / N (rows, K),
    one row per entry of z_abs.

    sector = (mu, alpha) selects |z; mu; alpha> on the levels n = k lambda + mu,
    None the eigenstate |z> on every level.  The level count doubles from
    FIRST_LEVELS until the last weight of the largest |z| (the largest last
    weight) is below LAST_WEIGHT, NoConvergence past MAX_LEVELS; then every
    row is built, in _row_blocks.  Each level count takes one prefix sum of
    the log ratios, which every row shares.
    """
    mu, alpha, width = (0, 0, 1) if sector is None else (*sector, params.lam)
    with np.errstate(divide="ignore"):
        log_z2 = 2.0 * np.log(np.atleast_1d(z_abs).astype(float))[:, None]
    count = FIRST_LEVELS
    while True:
        n = mu + width * np.arange(count)
        # log p_{k+1} / (|z|^2 p_k), summed over k once for every row
        hi, lo = _prefix_sum(_log_ratios(params, n[:-1], alpha, width))
        last = _peak_normalized(log_z2.max(keepdims=True), hi, lo)[0, -1]
        if last < LAST_WEIGHT:
            p = np.empty((len(log_z2), count))
            for rows in _row_blocks(len(log_z2), count):
                p[rows] = _peak_normalized(log_z2[rows], hi, lo)
            return n, p
        if count >= MAX_LEVELS:
            raise NoConvergence(f"Fock weights still {last:.3e} at level {n[-1]}")
        count *= 2


def _as_given(z, *rows):
    """Per-row results as floats for a scalar grid value, else as arrays."""
    return tuple(float(r[0]) for r in rows) if np.ndim(z) == 0 else rows


def _photon_moments(n, p, limit_q: float):
    """<N>, <N^2>, Q and the rows where <N> vanishes (Q = limit_q there), from
    weights p (rows, K) on levels n.  The variance is two-pass: <N^2> - <N>^2
    loses Q's digits where <N>^2 >> <N>."""
    mean = p @ n
    var = np.concatenate(
        [((n - mean[rows, None]) ** 2 * p[rows]).sum(axis=1) for rows in _row_blocks(*p.shape)]
    )
    limit = mean <= 1e-13
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(limit, limit_q, (var - mean) / mean)
    return mean, var + mean**2, q, limit


def _photon_stats(z, n, p, limit_q: float) -> PhotonStats:
    mean, mean2, q, limit = _photon_moments(n, p, limit_q)
    source = "closed_limit" if limit.all() else "closed_form"
    return PhotonStats(*_as_given(z, mean, mean2, q), source)


def _oracle_states(z, build) -> list[StateVector]:
    """build(z[rows]) for each _row_blocks slice of the grid z: a block holds at
    most WORK_ELEMENTS coefficients even at MAX_AUTO_DIM."""
    z = np.atleast_1d(z)
    return [build(z[rows]) for rows in _row_blocks(len(z), MAX_AUTO_DIM)]


def _oracle_photon_stats(z, build, limit_q: float) -> PhotonStats:
    """Mandel Q from the weights |c_n|^2 of the truncated states of the grid z."""
    blocks = [_photon_moments(np.arange(st.dim), np.abs(st.coeffs) ** 2, limit_q)[:3]
              for st in _oracle_states(z, build)]
    return PhotonStats(*_as_given(z, *map(np.concatenate, zip(*blocks))), "vector_oracle")


def mandel_q_cs_alpha(spec: CsAlphaSpec, method: str = "closed") -> PhotonStats:
    """Mandel Q of |z; mu; alpha>.

    closed: moments of the Fock weights; oracle: truncated coefficient
    vectors; spec.z may be an array.  Where <N> vanishes (z = 0 with mu = 0)
    the 0/0 ratio is replaced by the analytic limit lambda - 1.
    """
    p, mu = spec.params, spec.mu
    lam = p.lam
    if method == "oracle":
        return _oracle_photon_stats(spec.z, lambda z: cs_alpha_state(replace(spec, z=z)), lam - 1.0)
    if method != "closed":
        raise DomainError(f"unknown method {method!r}")
    n, weights = _fock_weights(p, np.abs(spec.z), (mu, spec.alpha))
    return _photon_stats(spec.z, n, weights, lam - 1.0)


def mandel_q_eigenstate(params: AlgebraParams, z_abs, method: str = "closed") -> PhotonStats:
    """Mandel Q of the annihilation-operator eigenstate |z>; z_abs may be an array."""
    if method == "oracle":
        return _oracle_photon_stats(z_abs, lambda z: eigenstate(params, z), 0.0)
    if method != "closed":
        raise DomainError(f"unknown method {method!r}")
    n, p = _fock_weights(params, np.abs(z_abs))
    return _photon_stats(z_abs, n, p, 0.0)


# --------------------------------------------------------------------------
# quadrature squeezing
# --------------------------------------------------------------------------

def _contractions(params: AlgebraParams, st: StateVector):
    """Expectation values needed by the quadrature variances, one per row of
    the (rows, dim) coefficients."""
    c = st.coeffs
    n_arr = np.arange(st.dim, dtype=float)
    pr = np.abs(c) ** 2
    f = structure_function(params, np.arange(st.dim + 2))
    sqrt_f = np.sqrt(f)
    sqrt_n = np.sqrt(n_arr)
    step1 = np.conj(c[:, :-1]) * c[:, 1:]
    step2 = np.conj(c[:, :-2]) * c[:, 2:]
    return {
        "N": pr @ n_arr,
        "FN1": pr @ f[1 : st.dim + 1],  # <F(N+1)> = <a adag>
        "FN": pr @ f[: st.dim],  # <F(N)> = <adag a>
        "a": step1 @ sqrt_f[1 : st.dim],
        "a2": step2 @ (sqrt_f[2 : st.dim] * sqrt_f[1 : st.dim - 1]),
        "b": step1 @ sqrt_n[1:],
        "b2": step2 @ (sqrt_n[2:] * sqrt_n[1:-1]),
    }


def _oracle_squeezing(params: AlgebraParams, z, build, vac: float, kind: str) -> SqueezeReport:
    """Quadrature variances from the truncated states of the grid z."""
    blocks = [_contractions(params, st) for st in _oracle_states(z, build)]
    ex = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
    if kind == "dressed":
        h0 = 0.5 * (ex["FN"] + ex["FN1"])
        mean_x = math.sqrt(2.0) * ex["a"].real
        mean_p = math.sqrt(2.0) * ex["a"].imag
        var_x = ex["a2"].real + h0 - mean_x**2
        var_p = -ex["a2"].real + h0 - mean_p**2
        rhs = 0.25 * np.abs(ex["FN1"] - ex["FN"]) ** 2
    else:
        mean_x = math.sqrt(2.0) * ex["b"].real
        mean_p = math.sqrt(2.0) * ex["b"].imag
        var_x = ex["b2"].real + ex["N"] + 0.5 - mean_x**2
        var_p = -ex["b2"].real + ex["N"] + 0.5 - mean_p**2
        rhs = np.full(len(var_x), 0.25)
    var_x, var_p, rhs = _as_given(z, var_x, var_p, rhs)
    return SqueezeReport(var_x, var_p, vac, vac, var_x * var_p, rhs, kind, "vector_oracle")


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
        return _oracle_squeezing(
            p, spec.z, lambda z: cs_alpha_state(replace(spec, z=z)), vac_x, kind
        )
    if method != "closed":
        raise DomainError(f"unknown method {method!r}")
    z = np.atleast_1d(spec.z)
    n, weights = _fock_weights(p, np.abs(z), (mu, alpha))
    mean_n = weights @ n
    off = 0.0
    if kind == "dressed":
        if lam == 2:
            # <J+ + J-> = Re z for the a^2 eigenstates; a - z adag (alpha = 1)
            # gives Re z (<N> + 2 bb1)
            off = z.real if alpha == 0 else z.real * (mean_n + 2.0 * bb(1))
        h0 = mean_n + p.gamma(mu) + 0.5
        rhs = 0.25 * (lam * (bb(mu + 1) - bb(mu))) ** 2
    else:
        # real photons: <b> = 0 in a sector state; at lambda = 2 the b^2
        # off-diagonal term survives, with <b^2> = z <sqrt-ratio> through the
        # defining-equation coefficient recursion (a^2 - z for alpha = 0,
        # a - z adag for alpha = 1)
        if lam == 2:
            f1 = structure_function(p, n + 1)
            f2 = structure_function(p, n + 2)
            num = (n + 1.0) * (n + 2.0)
            off = (z * (weights @ np.sqrt(num * f1 / f2 if alpha else num / (f1 * f2)))).real
        h0 = mean_n + 0.5
        rhs = 0.25
    var_x, var_p = _as_given(spec.z, h0 + off, h0 - off)
    return SqueezeReport(var_x, var_p, vac_x, vac_p, var_x * var_p, rhs, kind, "closed_form")


def squeezing_eigenstate(
    params: AlgebraParams, z: complex, kind: str = "dressed", method: str = "closed"
) -> SqueezeReport:
    """Quadrature variances of |z> (minimum-uncertainty for dressed photons); z may be an array."""
    vac_x = vac_p = 0.5 * params.lam * params.beta_bar_at(1) if kind == "dressed" else 0.5
    if method == "oracle":
        return _oracle_squeezing(params, z, lambda zs: eigenstate(params, zs), vac_x, kind)
    if method != "closed":
        raise DomainError(f"unknown method {method!r}")
    z_rows = np.atleast_1d(z).astype(complex)
    n, p = _fock_weights(params, np.abs(z_rows))
    f1 = structure_function(params, n + 1)
    if kind == "dressed":
        # <[a, adag]> / 2 = <F(N+1) - F(N)> / 2 in both quadratures
        (var,) = _as_given(z, 0.5 * (p @ (f1 - structure_function(params, n))))
        return SqueezeReport(var, var, vac_x, vac_p, var * var, var * var, kind, "closed_form")
    # real photons: E1 = <sqrt((N+1)/F(N+1))>, E2 = <sqrt((N+1)(N+2)/(F F))>
    f2 = structure_function(params, n + 2)
    e1 = p @ np.sqrt((n + 1.0) / f1)
    e2 = p @ np.sqrt((n + 1.0) * (n + 2.0) / (f1 * f2))
    common = p @ n + 0.5 - np.abs(z_rows) ** 2 * e2
    var_x, var_p = _as_given(
        z,
        common + 2.0 * z_rows.real**2 * (e2 - e1 * e1),
        common + 2.0 * z_rows.imag**2 * (e2 - e1 * e1),
    )
    return SqueezeReport(var_x, var_p, vac_x, vac_p, var_x * var_p, 0.25, kind, "closed_form")

"""Photon statistics (Mandel Q) and quadrature squeezing for both
coherent-state families.

mandel_q and squeezing name the family as the states module does: sector =
(mu, alpha), one member, is |z; mu; alpha>, None the eigenstate |z>, and a
state outside its family (states._check_state) or an array of members is
refused first.  Every closed form is an expectation <g(N)> = p @ g(n) over
the Fock weights p_n = |c_n|^2 / N of the state, from the Fock-weight core
of the states module (states._fock_weights), the weights the state builders
take their coefficients from.  Every function takes one grid value or an
array of them, and the closed forms one algebra or a stack of P algebras of
one lambda (states._param_stack), so a CLI grid or a figure's curve family
is one call: a stack gives (P, R) results for a grid of R values, (P,) for
one value.  Kept as a cross-check: the coefficient-vector oracle
(method="oracle"), whose truncated states of a grid come from one core call
at the state builders' level count (states._build_levels) and the builders'
coefficient step (states._coefficients), one step per _row_blocks slice (the
rows of a step share one dim).  A tuple of methods, ("closed", "oracle"),
returns one report per method from that one core call: the closed column
reads the same weights (_columns).  As both columns read one weight array,
what the oracle still checks on its own is the truncation at dim and, for
squeezing, the contractions of each row against the ladder bands.  The
Phi-ratio branch forms of the sector Q and the lambda = 2 Bessel form of the
eigenstate Q are test references (tests/closed_forms.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import AlgebraParams, structure_function
from .errors import DomainError
from .states import (
    FIRST_DIM,
    MAX_AUTO_DIM,
    StateVector,
    _build_levels,
    _check_state,
    _coefficients,
    _fock_weights,
    _one_member,
    _param_stack,
    _row_blocks,
)


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


def _as_given(z, *rows):
    """Results for a scalar grid value without their last (grid) axis, a 0-d
    result as a float; per-algebra constants are floats or (P, 1) columns."""
    if np.ndim(z):
        return rows
    rows = [r[..., 0] if np.ndim(r) else r for r in rows]
    return tuple(float(r) if np.ndim(r) == 0 else r for r in rows)


def _per_algebra(params, value):
    """value(algebra) as a float for one algebra, as a (P, 1) column for a stack."""
    if isinstance(params, AlgebraParams):
        return value(params)
    return np.array([[value(a)] for a in params])


def _expect(p, g):
    """<g(N)> per row of the weights p (rows, K) or (P, rows, K), for g on the
    levels (K,) or one row per algebra (P, K)."""
    return (p @ g[..., None])[..., 0]


def _photon_moments(n, p, limit_q: float):
    """<N>, <N^2>, Q and the rows where <N> vanishes (Q = limit_q there), from
    weights p (..., rows, K) on levels n.  The variance is two-pass:
    <N^2> - <N>^2 loses Q's digits where <N>^2 >> <N>."""
    mean = p @ n
    flat, flat_mean = p.reshape(-1, len(n)), mean.reshape(-1)
    var = np.concatenate(
        [((n - flat_mean[rows, None]) ** 2 * flat[rows]).sum(axis=1)
         for rows in _row_blocks(*flat.shape)]
    ).reshape(mean.shape)
    limit = mean <= 1e-13
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(limit, limit_q, (var - mean) / mean)
    return mean, var + mean**2, q, limit


def _photon_stats(z, n, p, limit_q: float) -> PhotonStats:
    mean, mean2, q, limit = _photon_moments(n, p, limit_q)
    source = "closed_limit" if limit.all() else "closed_form"
    return PhotonStats(*_as_given(z, mean, mean2, q), source)


def _columns(params, z, sector, method, closed: Callable, oracle: Callable):
    """The report of method, "closed" or "oracle", or a tuple of reports, one
    per entry of a tuple of methods, for the states of the grid z in the
    family sector, which its caller has checked (_check_state, _one_member).

    closed(n, p) reads the Fock weights of the grid z; oracle(states) reads
    the truncated states of its _row_blocks slices, a block of at most
    WORK_ELEMENTS coefficients even at MAX_AUTO_DIM.  The closed column alone
    takes the core's cut level count.  With the oracle, one core call at the
    builders' level count (_build_levels) serves every method, and the oracle
    takes only the coefficient step (_coefficients) per block: on a grid of
    one block that is the state builders' own result bit for bit.  The oracle
    builds the states of one algebra.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    if not methods or not set(methods) <= {"closed", "oracle"}:
        raise DomainError(f"unknown method {method!r}")
    if "oracle" in methods and not isinstance(params, AlgebraParams):
        raise DomainError("the oracle takes one algebra, not a stack")
    z = np.atleast_1d(z)
    out = {}
    if "oracle" not in methods:
        out["closed"] = closed(*_fock_weights(params, np.abs(z), sector)[:2])
    else:
        levels = _build_levels(params, FIRST_DIM, sector)
        n, p, log_norm = _fock_weights(params, np.abs(z), sector, levels)
        if "closed" in methods:
            out["closed"] = closed(n, p)
        out["oracle"] = oracle([_coefficients(z[rows], n, p[rows], log_norm[rows], FIRST_DIM)
                                for rows in _row_blocks(len(z), MAX_AUTO_DIM)])
    return out[method] if isinstance(method, str) else tuple(out[m] for m in methods)


def _oracle_photon_stats(z, states: list[StateVector], limit_q: float) -> PhotonStats:
    """Mandel Q from the weights |c_n|^2 of the truncated states of the grid z."""
    blocks = [_photon_moments(np.arange(st.dim), np.abs(st.coeffs) ** 2, limit_q)[:3]
              for st in states]
    return PhotonStats(*_as_given(z, *map(np.concatenate, zip(*blocks))), "vector_oracle")


def mandel_q(params, z_abs, sector: tuple | None = None, method="closed"):
    """Mandel Q of |z; mu; alpha>, sector = (mu, alpha), or of the eigenstate
    |z> (sector None).

    closed: moments of the Fock weights; oracle: truncated coefficient
    vectors; a tuple of both: one report each (_columns).  z_abs may be an
    array, and params a stack for closed.  Where <N> vanishes (z = 0, with
    mu = 0 in a sector) the 0/0 ratio is replaced by the analytic limit:
    lambda - 1 in a sector, 0 for |z>.
    """
    _check_state(params, z_abs, sector)
    _one_member(sector)
    limit_q = 0.0 if sector is None else _param_stack(params)[0].lam - 1.0
    return _columns(
        params, z_abs, sector, method,
        lambda n, p: _photon_stats(z_abs, n, p, limit_q),
        lambda states: _oracle_photon_stats(z_abs, states, limit_q),
    )


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


def _oracle_squeezing(params: AlgebraParams, z, states: list[StateVector], vac: float,
                      kind: str) -> SqueezeReport:
    """Quadrature variances from the truncated states of the grid z."""
    blocks = [_contractions(params, st) for st in states]
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


def _sector_squeezing(params, lam: int, z, kind: str, sector: tuple):
    """The vacuum reference and the closed form of |z; mu; alpha>, sector =
    (mu, alpha).

    The sector vacuum |mu> sets the dressed reference
    (lam/2)(bb_mu + bb_{mu+1}); the real-photon reference is 1/2.  There
    is no squeezing at lambda >= 3 (both off-diagonal moments vanish).
    """
    mu, alpha = sector
    z_rows = np.atleast_1d(z)

    def bb(j):
        return _per_algebra(params, lambda a: a.beta_bar_at(j))

    vac = 0.5 * lam * (bb(mu) + bb(mu + 1)) if kind == "dressed" else 0.5

    def closed(n, weights):
        mean_n = weights @ n
        off = 0.0
        if kind == "dressed":
            if lam == 2:
                # <J+ + J-> = Re z for the a^2 eigenstates; a - z adag (alpha = 1)
                # gives Re z (<N> + 2 bb1)
                off = z_rows.real if alpha == 0 else z_rows.real * (mean_n + 2.0 * bb(1))
            h0 = mean_n + _per_algebra(params, lambda a: a.gamma(mu)) + 0.5
            rhs = 0.25 * (lam * (bb(mu + 1) - bb(mu))) ** 2
        else:
            # real photons: <b> = 0 in a sector state; at lambda = 2 the b^2
            # off-diagonal term survives, with <b^2> = z <sqrt-ratio> through the
            # defining-equation coefficient recursion (a^2 - z for alpha = 0,
            # a - z adag for alpha = 1)
            if lam == 2:
                f1 = structure_function(params, n + 1)
                f2 = structure_function(params, n + 2)
                num = (n + 1.0) * (n + 2.0)
                ratio = np.sqrt(num * f1 / f2 if alpha else num / (f1 * f2))
                off = (z_rows * _expect(weights, ratio)).real
            h0 = mean_n + 0.5
            rhs = 0.25
        var_x, var_p, v, rhs = _as_given(z, h0 + off, h0 - off, vac, rhs)
        return SqueezeReport(var_x, var_p, v, v, var_x * var_p, rhs, kind, "closed_form")

    return vac, closed


def _eigenstate_squeezing(params, lam: int, z, kind: str):
    """The vacuum reference and the closed form of |z> (minimum-uncertainty
    for dressed photons)."""
    vac = 0.5 * lam * _per_algebra(params, lambda a: a.beta_bar_at(1)) if kind == "dressed" else 0.5
    z_rows = np.atleast_1d(z).astype(complex)

    def closed(n, p):
        f1 = structure_function(params, n + 1)
        if kind == "dressed":
            # <[a, adag]> / 2 = <F(N+1) - F(N)> / 2 in both quadratures
            var, v = _as_given(z, 0.5 * _expect(p, f1 - structure_function(params, n)), vac)
            return SqueezeReport(var, var, v, v, var * var, var * var, kind, "closed_form")
        # real photons: E1 = <sqrt((N+1)/F(N+1))>, E2 = <sqrt((N+1)(N+2)/(F F))>
        f2 = structure_function(params, n + 2)
        e1 = _expect(p, np.sqrt((n + 1.0) / f1))
        e2 = _expect(p, np.sqrt((n + 1.0) * (n + 2.0) / (f1 * f2)))
        common = p @ n + 0.5 - np.abs(z_rows) ** 2 * e2
        var_x, var_p = _as_given(
            z,
            common + 2.0 * z_rows.real**2 * (e2 - e1 * e1),
            common + 2.0 * z_rows.imag**2 * (e2 - e1 * e1),
        )
        return SqueezeReport(var_x, var_p, vac, vac, var_x * var_p, 0.25, kind, "closed_form")

    return vac, closed


def squeezing(params, z, kind: str = "dressed", sector: tuple | None = None, method="closed"):
    """Quadrature variances (dressed or real photons) of |z; mu; alpha>,
    sector = (mu, alpha), or of the eigenstate |z> (sector None).

    z may be an array, and params a stack for closed; method as for mandel_q.
    """
    _check_state(params, z, sector)
    _one_member(sector)
    lam = _param_stack(params)[0].lam
    vac, closed = (_eigenstate_squeezing(params, lam, z, kind) if sector is None
                   else _sector_squeezing(params, lam, z, kind, sector))
    return _columns(
        params, z, sector, method, closed,
        lambda states: _oracle_squeezing(params, z, states, vac, kind),
    )

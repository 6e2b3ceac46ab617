"""Photon statistics (Mandel Q) and quadrature squeezing for both
coherent-state families.

Every closed form is an expectation <g(N)> = p @ g(n) over the Fock weights
p_n = |c_n|^2 / N of the state, from the Fock-weight core of the states
module (states._fock_weights), the weights the state builders take their
coefficients from.  Every function takes one grid value or an array of
them, so a figure curve or a CLI grid is one call.  Kept as a cross-check:
the coefficient-vector oracle (method="oracle"), which builds the truncated
states of a grid with one states builder call per _row_blocks slice (the
rows of a call share one dim).  As both columns read one weight array, what
the oracle still checks on its own is the truncation at dim and, for
squeezing, the contractions of each row against the ladder bands.  The
Phi-ratio branch forms of the sector Q and the lambda = 2 Bessel form of the
eigenstate Q are test references (tests/closed_forms.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import AlgebraParams, structure_function
from .errors import DomainError
from .states import (
    MAX_AUTO_DIM,
    CsAlphaSpec,
    StateVector,
    _fock_weights,
    _row_blocks,
    cs_alpha_state,
    eigenstate,
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
    n, weights, _ = _fock_weights(p, np.abs(spec.z), (mu, spec.alpha))
    return _photon_stats(spec.z, n, weights, lam - 1.0)


def mandel_q_eigenstate(params: AlgebraParams, z_abs, method: str = "closed") -> PhotonStats:
    """Mandel Q of the annihilation-operator eigenstate |z>; z_abs may be an array."""
    if method == "oracle":
        return _oracle_photon_stats(z_abs, lambda z: eigenstate(params, z), 0.0)
    if method != "closed":
        raise DomainError(f"unknown method {method!r}")
    n, p, _ = _fock_weights(params, np.abs(z_abs))
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
    n, weights, _ = _fock_weights(p, np.abs(z), (mu, alpha))
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
    n, p, _ = _fock_weights(params, np.abs(z_rows))
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

"""Bargmann-space realizations as exact maps on polynomial coefficients.

Fock vectors become polynomials (sector basis: |k lam + mu> ~ z^k inside
one sector; vector and eigenstate bases: lambda-component polynomial
columns), and every generator becomes a product of first-order atoms
{multiply by z, d/dz, z d/dz + c, d/dz + c/z} applied right to left.
Atom application is exact on coefficients, so commutation and
intertwining identities hold to rounding; Hermiticity with respect to
the weighted inner products is checked by quadrature moments.

Atoms act on the last axis of a coefficient array and any leading axes
hold a stack of polynomials, so one realization call maps a whole stack:
the commutator checks apply each generator once to all monomials z^0..z^k_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraParams, build_operator
from .errors import NonPolynomialResult, SectorError, UnsupportedOp
from .measures import EigenstateMeasures, WeightFunction
from .states import StateVector, log_weights, sector_lists


@dataclass(frozen=True)
class PolyFunction:
    """Polynomial coefficients on the last axis, any leading axes a stack of
    polynomials; mu labels a sector function, mu=None a lambda-component
    column (coeffs shape (..., lambda, deg + 1))."""

    coeffs: np.ndarray = field(repr=False)
    mu: int | None = None

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    def component(self, mu: int) -> np.ndarray:
        if self.mu is not None:
            raise SectorError("sector polynomial has no components")
        return self.coeffs[..., mu, :]


def sector_poly(coeffs, mu: int) -> PolyFunction:
    return PolyFunction(np.asarray(coeffs, dtype=complex), mu)


def vector_poly(coeffs) -> PolyFunction:
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2:
        raise SectorError("vector polynomial needs a (lambda, deg+1) array")
    return PolyFunction(c, None)


def _widen(c: np.ndarray, width: int, shift: int = 0) -> np.ndarray:
    """c moved up by shift coefficients into width zeros on its last axis."""
    out = np.zeros(c.shape[:-1] + (width,), dtype=complex)
    out[..., shift : shift + c.shape[-1]] = c
    return out


def _components(rows: list[np.ndarray]) -> np.ndarray:
    """Component polynomials mu = 0, 1, ... zero-extended into one (..., lambda, width) array."""
    width = max(r.shape[-1] for r in rows)
    return np.stack([_widen(r, width) for r in rows], axis=-2)


# ---- atoms: each maps the last axis, every row of a stack alike -------------

def _atom_mul_z(c: np.ndarray) -> np.ndarray:
    return _widen(c, c.shape[-1] + 1, shift=1)


def _atom_ddz(c: np.ndarray) -> np.ndarray:
    return _atom_ddz_plus_over_z(c, 0.0)


def _atom_theta_plus(c: np.ndarray, const) -> np.ndarray:
    return c * (np.arange(c.shape[-1]) + const)


def _atom_ddz_plus_over_z(c: np.ndarray, const: float) -> np.ndarray:
    # (d/dz + const/z) z^k = (k + const) z^{k-1}; the z^{-1} term must
    # cancel, i.e. const * c_0 = 0, in every row against its own scale
    if abs(const) > 0:
        bad = np.flatnonzero(np.abs(c[..., 0]) > 1e-13 * (np.abs(c).max(axis=-1) + 1e-300))
        if len(bad):
            raise NonPolynomialResult(
                f"pole residue {const * c[..., 0].flat[bad[0]]:.3e} of row {bad[0]} does not "
                "cancel; wrong sector routing"
            )
    n = c.shape[-1]
    if n == 1:
        return np.zeros(c.shape, dtype=complex)
    return c[..., 1:] * (np.arange(1, n) + const)


# ---- sector realization ----------------------------------------------------

def _apply_sector(params: AlgebraParams, mu: int, alpha: int, op: str, c: np.ndarray):
    lam = params.lam
    bb = params.beta_bar_at
    if op == "N":
        return _atom_theta_plus(c, mu / lam) * lam
    if op == "J0":
        return _atom_theta_plus(c, 0.5 * (bb(mu) + bb(mu + 1)))
    num, den = sector_lists(params, mu, alpha)
    if op == "Jplus":
        out = c
        for v in num:
            out = _atom_theta_plus(out, v)
        return lam ** (alpha - 1) * _atom_mul_z(out)
    if op == "Jminus":
        out = _atom_ddz(c)
        for v in den:
            out = _atom_theta_plus(out, v)
        return lam ** (lam - alpha - 1) * out
    raise UnsupportedOp(f"op {op!r} is not defined on a single sector")


# ---- vector realizations: component mu of c is c[..., mu, :] -----------------

def _project(c: np.ndarray, mu: int) -> np.ndarray:
    out = np.zeros_like(c)
    out[..., mu, :] = c[..., mu, :]
    return out


def _apply_vector_alpha0(params: AlgebraParams, op: str, c: np.ndarray, mu_op):
    lam = params.lam
    bb = params.beta_bar_at
    if op in ("N", "Jplus", "Jminus", "J0"):
        return _components([_apply_sector(params, mu, 0, op, c[..., mu, :]) for mu in range(lam)])
    if op == "P":
        return _project(c, mu_op % lam)
    prod = 1.0
    for nu in range(1, lam):
        prod *= bb(nu)
    if op == "adag":
        top = _atom_mul_z(c[..., lam - 1, :]) / math.sqrt(lam ** (lam - 1) * prod)
        return _components(
            [top] + [math.sqrt(lam * bb(mu)) * c[..., mu - 1, :] for mu in range(1, lam)]
        )
    if op == "a":
        rows = [
            math.sqrt(lam / bb(mu + 1)) * _atom_theta_plus(c[..., mu + 1, :], bb(mu + 1))
            for mu in range(lam - 1)
        ]
        return _components(rows + [math.sqrt(lam ** (lam + 1) * prod) * _atom_ddz(c[..., 0, :])])
    raise UnsupportedOp(f"op {op!r} unsupported in the vector basis")


def _apply_eigenstate(params: AlgebraParams, op: str, c: np.ndarray, mu_op):
    lam = params.lam
    beta = params.beta_at
    if op == "N":
        return _atom_theta_plus(c, 0.0)
    if op == "J0":
        const = np.array([0.5 * (beta(mu) + beta(mu + 1) + 1.0) for mu in range(lam)])
        return _atom_theta_plus(c, const[:, None]) / lam
    if op == "P":
        return _project(c, mu_op % lam)
    if op == "Jplus":
        return _widen(c / lam, c.shape[-1] + lam, shift=lam)
    if op == "Jminus":
        rows = []
        for mu in range(lam):
            row = c[..., mu, :]
            for nu in range(mu, 0, -1):
                row = _atom_ddz_plus_over_z(row, beta(nu))
            row = _atom_ddz(row)
            for nu in range(lam - 1, mu, -1):
                row = _atom_ddz_plus_over_z(row, beta(nu))
            rows.append(row / lam)
        return _components(rows)
    if op == "adag":
        return _atom_mul_z(np.roll(c, 1, axis=-2))
    if op == "a":
        rows = [_atom_ddz_plus_over_z(c[..., mu + 1, :], beta(mu + 1)) for mu in range(lam - 1)]
        return _components(rows + [_atom_ddz(c[..., 0, :])])
    raise UnsupportedOp(f"op {op!r} unsupported in the eigenstate basis")


def apply_realization(
    params: AlgebraParams,
    basis: str,
    op: str,
    f: PolyFunction,
    alpha: int = 0,
    mu_op: int | None = None,
) -> PolyFunction:
    """Apply one generator in the chosen basis to a polynomial, or to every
    polynomial of a stack (the leading axes of f.coeffs) in one call.

    basis: "sector" (f carries its mu; N, J+, J-, J0), "vector_alpha0" or
    "eigenstate" (f is a lambda-component column; additionally a, adag
    and P(mu_op)).
    """
    if basis == "sector":
        if f.mu is None:
            raise SectorError("sector basis requires a sector polynomial")
        out = _apply_sector(params, f.mu, alpha, op, np.asarray(f.coeffs))
        return PolyFunction(np.asarray(out, dtype=complex), f.mu)
    if f.mu is not None:
        raise SectorError("vector bases require a lambda-component polynomial")
    if basis == "vector_alpha0":
        return PolyFunction(_apply_vector_alpha0(params, op, f.coeffs, mu_op), None)
    if basis == "eigenstate":
        return PolyFunction(_apply_eigenstate(params, op, f.coeffs, mu_op), None)
    raise UnsupportedOp(f"unknown basis {basis!r}")


# ---- basis functions and transforms ----------------------------------------

def basis_function(params: AlgebraParams, mu: int, alpha: int, k: int) -> PolyFunction:
    """Orthonormal basis monomial phi_{mu,k}(z) = |c_k / z^k| z^k of |z; mu; alpha>."""
    coeffs = np.zeros(k + 1, dtype=complex)
    coeffs[k] = math.exp(0.5 * sum(log_weights(params, k, (mu, alpha)))[k])
    return PolyFunction(coeffs, mu)


def bargmann_transform(
    params: AlgebraParams,
    psi: StateVector,
    basis: str,
    mu: int | None = None,
    alpha: int = 0,
) -> PolyFunction:
    """Map Fock coefficients to Bargmann polynomial coefficients."""
    lam = params.lam
    if basis == "sector":
        if mu is None:
            raise SectorError("sector transform needs mu")
        k = np.arange((psi.dim - 1 - mu) // lam + 1)
        with np.errstate(under="ignore"):
            weights = np.exp(0.5 * sum(log_weights(params, len(k) - 1, (mu, alpha))))
        return PolyFunction(psi.coeffs[k * lam + mu] * weights, mu)
    if basis == "vector_alpha0":
        k_max = (psi.dim - 1) // lam
        out = np.zeros((lam, k_max + 1), dtype=complex)
        for m in range(lam):
            sec = bargmann_transform(params, psi, "sector", mu=m, alpha=0)
            out[m, : len(sec.coeffs)] = sec.coeffs
        return PolyFunction(out, None)
    if basis == "eigenstate":
        n = np.arange(psi.dim)
        out = np.zeros((lam, psi.dim), dtype=complex)
        with np.errstate(under="ignore"):
            out[n % lam, n] = psi.coeffs * np.exp(0.5 * sum(log_weights(params, psi.dim - 1)))
        return PolyFunction(out, None)
    raise UnsupportedOp(f"unknown basis {basis!r}")


# ---- inner products and Hermiticity ----------------------------------------

def bargmann_inner_product(
    weight: WeightFunction, f: PolyFunction, g: PolyFunction
) -> complex:
    """<f, g> = int d2z h(y) conj(f) g over the sector space.

    Monomial phases integrate to Kronecker deltas, leaving radial
    moments: <z^j, z^k> = delta_jk pi lam^((lam-2alpha)(k+1)) M_k.
    """
    prob = weight.problem
    lam = prob.params.lam
    scale = lam ** (lam - 2 * prob.alpha)
    n = min(f.coeffs.shape[-1], g.coeffs.shape[-1])
    total = 0.0 + 0.0j
    for k in range(n):
        fk = f.coeffs[k]
        gk = g.coeffs[k]
        if fk == 0 or gk == 0:
            continue
        m_k, _ = weight.moment(float(k))
        total += np.conj(fk) * gk * math.pi * scale ** (k + 1) * m_k
    return complex(total)


def vector_inner_product(
    weights: list[WeightFunction], f: PolyFunction, g: PolyFunction
) -> complex:
    total = 0.0 + 0.0j
    lam = len(weights)
    for m in range(lam):
        total += bargmann_inner_product(
            weights[m],
            PolyFunction(f.component(m), m),
            PolyFunction(g.component(m), m),
        )
    return total


def eigenstate_inner_product(
    measures: EigenstateMeasures, f: PolyFunction, g: PolyFunction
) -> complex:
    """<f, g> = sum_mu int d2z h_mu(t) conj(f_mu) g_mu, t = |z|^2/lam."""
    lam = measures.params.lam
    total = 0.0 + 0.0j
    for m in range(lam):
        fc = f.component(m)
        gc = g.component(m)
        n = min(len(fc), len(gc))
        for k in range(n):
            if fc[k] == 0 or gc[k] == 0:
                continue
            mom = measures.h_moment(m, float(k))
            total += np.conj(fc[k]) * gc[k] * math.pi * lam ** (k + 1) * mom
    return complex(total)


@dataclass(frozen=True)
class HermiticityRow:
    pair: str
    lhs: complex
    rhs: complex

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def check_hermiticity(
    params: AlgebraParams,
    mu: int,
    alpha: int,
    weight: WeightFunction,
    sample_polys: list[PolyFunction] | None = None,
) -> list[HermiticityRow]:
    """<J+ f, g> = <f, J- g> and <J0 f, g> = <f, J0 g> by moment quadrature."""
    if sample_polys is None:
        sample_polys = [
            PolyFunction(np.eye(1, d + 1, d, dtype=complex)[0], mu) for d in range(3)
        ]
    rows = []
    for f in sample_polys:
        for g in sample_polys:
            jp_f = apply_realization(params, "sector", "Jplus", f, alpha=alpha)
            jm_g = apply_realization(params, "sector", "Jminus", g, alpha=alpha)
            rows.append(
                HermiticityRow(
                    "J+/J-",
                    bargmann_inner_product(weight, jp_f, g),
                    bargmann_inner_product(weight, f, jm_g),
                )
            )
            j0_f = apply_realization(params, "sector", "J0", f, alpha=alpha)
            j0_g = apply_realization(params, "sector", "J0", g, alpha=alpha)
            rows.append(
                HermiticityRow(
                    "J0/J0",
                    bargmann_inner_product(weight, j0_f, g),
                    bargmann_inner_product(weight, f, j0_g),
                )
            )
    return rows


def check_hermiticity_vector(
    params: AlgebraParams,
    weights: list[WeightFunction],
    degree: int = 2,
) -> list[HermiticityRow]:
    """<adag f, g> = <f, a g> on the vector Bargmann space."""
    lam = params.lam
    samples = []
    for m in range(lam):
        for d in range(degree + 1):
            c = np.zeros((lam, d + 1), dtype=complex)
            c[m, d] = 1.0
            samples.append(PolyFunction(c, None))
    rows = []
    for f in samples:
        for g in samples:
            ad_f = apply_realization(params, "vector_alpha0", "adag", f)
            a_g = apply_realization(params, "vector_alpha0", "a", g)
            rows.append(
                HermiticityRow(
                    "adag/a",
                    vector_inner_product(weights, ad_f, g),
                    vector_inner_product(weights, f, a_g),
                )
            )
    return rows


@dataclass(frozen=True)
class CommutatorRow:
    basis: str
    pair: str
    k: int
    residual: float


def check_commutators(params: AlgebraParams, basis: str, k_max: int = 10) -> list[CommutatorRow]:
    """Commutation relations as exact coefficient identities on monomials.

    Each generator acts once on the stack of every monomial z^k, k <= k_max
    (sector basis: per (mu, alpha); vector bases: the lambda (k_max + 1) unit
    columns, component mu major), zero-extended to one degree.  Rows run over
    (alpha, mu) or mu, then k.
    """
    from .algebra import sga_structure_poly

    lam = params.lam
    rows = []
    if basis == "sector":
        k = np.arange(k_max + 1)
        zk = np.eye(k_max + 1, dtype=complex)
        for alpha in range(lam // 2 + 1):
            for mu in range(lam - alpha):

                def ap(op, c):
                    return _apply_sector(params, mu, alpha, op, c)

                j0_zk = ap("J0", zk)
                q_zk, res = {}, {}
                for sgn, qop in ((1.0, "Jplus"), (-1.0, "Jminus")):
                    q_zk[qop] = ap(qop, zk)
                    lhs = ap("J0", q_zk[qop])
                    rhs = ap(qop, j0_zk)
                    # lhs, rhs and q_zk share one width
                    diff = np.abs(lhs - rhs - sgn * q_zk[qop]).max(axis=-1)
                    scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=-1),
                                                       np.abs(rhs).max(axis=-1)))
                    res[f"[J0,{qop}]"] = diff / scale
                comm = (np.diagonal(ap("Jplus", q_zk["Jminus"]))
                        - np.diagonal(ap("Jminus", q_zk["Jplus"])))
                j0_eig = k + 0.5 * (params.beta_bar_at(mu) + params.beta_bar_at(mu + 1))
                f_val = sga_structure_poly(params, j0_eig, mu)
                res["[J+,J-]"] = np.abs(comm - f_val) / np.maximum(1.0, np.abs(f_val))
                rows += [
                    CommutatorRow(f"sector(mu={mu},alpha={alpha})", pair, i, float(r[i]))
                    for i in range(k_max + 1)
                    for pair, r in res.items()
                ]
    elif basis in ("vector_alpha0", "eigenstate"):
        apply = _apply_vector_alpha0 if basis == "vector_alpha0" else _apply_eigenstate

        def ap(op, c):
            return apply(params, op, c, None)

        m, k = np.divmod(np.arange(lam * (k_max + 1)), k_max + 1)
        n = k * lam + m if basis == "eigenstate" else k
        f = np.zeros((len(m), lam, n.max() + 1), dtype=complex)
        f[np.arange(len(m)), m, n] = 1.0
        lhs = ap("a", ap("adag", f))
        rhs = ap("adag", ap("a", f))
        w = max(lhs.shape[-1], rhs.shape[-1], f.shape[-1])
        comm = _widen(lhs, w) - _widen(rhs, w)
        expect = _widen(f * (1.0 + np.asarray(params.alpha))[m, None, None], w)
        res = np.abs(comm - expect).max(axis=(-2, -1))
        rows = [CommutatorRow(basis, "[a,adag]", ki, r) for ki, r in zip(k.tolist(), res.tolist())]
    else:
        raise UnsupportedOp(f"unknown basis {basis!r}")
    return rows


def intertwining_residual(
    params: AlgebraParams,
    basis: str,
    op: str,
    psi: StateVector,
    mu: int | None = None,
    alpha: int = 0,
    mu_op: int | None = None,
) -> float:
    """max |transform(op psi) - op_B transform(psi)| on coefficients, op as its band."""
    lam = params.lam
    kind = {"Jplus": "Jplus", "Jminus": "Jminus", "J0": "J0", "N": "N", "a": "a", "adag": "adag", "P": "P"}[op]
    mat = build_operator(params, kind, psi.dim, mu=mu_op)
    mapped = StateVector(
        psi.dim, mat @ psi.coeffs, psi.norm_sq_analytic, psi.tail_bound, False
    )
    lhs = bargmann_transform(params, mapped, basis, mu=mu, alpha=alpha)
    rhs = apply_realization(params, basis, op, bargmann_transform(params, psi, basis, mu=mu, alpha=alpha), alpha=alpha, mu_op=mu_op)
    if basis == "sector":
        n = min(len(lhs.coeffs), len(rhs.coeffs))
        a_c, b_c = lhs.coeffs, rhs.coeffs
        diff = max(
            float(np.abs(a_c[:n] - b_c[:n]).max()),
            float(np.abs(a_c[n:]).max()) if len(a_c) > n else 0.0,
        )
        return diff
    wa = lhs.coeffs.shape[1]
    wb = rhs.coeffs.shape[1]
    w = min(wa, wb)
    diff = float(np.abs(lhs.coeffs[:, :w] - rhs.coeffs[:, :w]).max())
    if wa > w:
        diff = max(diff, float(np.abs(lhs.coeffs[:, w:]).max()))
    if wb > w:
        diff = max(diff, float(np.abs(rhs.coeffs[:, w:]).max()))
    return diff

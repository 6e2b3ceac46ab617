"""Bargmann-space realizations as exact maps on polynomial coefficients.

A Bargmann function is its coefficient array: coefficients on the last
axis, any leading axes a stack of polynomials.  Fock vectors become
polynomials (sector basis: |k lam + mu> ~ z^k inside the caller's
sector = (mu, alpha); vector and eigenstate bases: axis -2 holds the lambda
components), and every generator becomes a product of first-order atoms
{multiply by z, d/dz, z d/dz + c, d/dz + c/z} applied right to left.  Atom
application is exact on coefficients, so commutation and intertwining
identities hold to rounding; Hermiticity under the weighted inner products
is checked by quadrature moments: one Gram product per stack of polynomials
(inner_product) over a table of radial moments, the same code in all bases.

An atom maps every row of a stack alike, with one constant per row where
its constant is a column, so one call maps a whole stack.  The sector
basis takes sector = (mu, alpha), mu one member or an array of members of
family alpha, one per leading row; check_hermiticity reads it from its
weight.  The vector basis's N, J0, J+- and its transform are the family
(range(lambda), 0) over its components; a, adag and the eigenstate J- roll
the components and act on all at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, build_operator, sga_structure_poly
from .errors import NonPolynomialResult, SectorError, ShapeError, UnsupportedOp
from .states import StateVector, _cached_lists, check_sector, log_weights


def _widen(c: np.ndarray, width: int, shift: int = 0) -> np.ndarray:
    """c moved up by shift coefficients into width zeros on its last axis."""
    out = np.zeros(c.shape[:-1] + (width,), dtype=complex)
    out[..., shift : shift + c.shape[-1]] = c
    return out


def _column(values) -> np.ndarray:
    """One constant per component: a (lambda, 1) column over axis -2."""
    return np.array(values, dtype=float)[:, None]


# ---- atoms: each maps the last axis, every row of a stack alike -------------

def _atom_mul_z(c: np.ndarray) -> np.ndarray:
    return _widen(c, c.shape[-1] + 1, shift=1)


def _atom_ddz(c: np.ndarray) -> np.ndarray:
    return _atom_ddz_plus_over_z(c, 0.0)


def _atom_theta_plus(c: np.ndarray, const) -> np.ndarray:
    return c * (np.arange(c.shape[-1]) + const)


def _atom_ddz_plus_over_z(c: np.ndarray, const) -> np.ndarray:
    # (d/dz + const/z) z^k = (k + const) z^{k-1}, const a float or a (lambda, 1)
    # column; where const is nonzero the z^{-1} term must cancel, const * c_0 = 0,
    # in every row against its own scale
    if np.count_nonzero(const):
        c0, scale = c[..., :1], np.abs(c).max(axis=-1, keepdims=True) + 1e-300
        bad = np.flatnonzero((np.asarray(const) != 0) & (np.abs(c0) > 1e-13 * scale))
        if len(bad):
            raise NonPolynomialResult(f"pole residue {(const * c0).flat[bad[0]]:.3e} of row "
                                      f"{bad[0] // np.size(const)} does not cancel; "
                                      "wrong sector routing")
    n = c.shape[-1]
    if n == 1:
        return np.zeros(c.shape, dtype=complex)
    return c[..., 1:] * (np.arange(1, n) + const)


# ---- sector realization ----------------------------------------------------

def _apply_sector(params: AlgebraParams, mus, alpha: int, op: str, c: np.ndarray):
    """op on the members mus of family alpha, one per leading row of the
    coefficients c (shape (members, .., width)): each atom takes one constant
    per member as a (members, 1, .., 1) column; the caller checked the family."""
    lam = params.lam
    bb = params.beta_bar_at

    def column(values):
        return np.array(values).reshape((-1,) + (1,) * (c.ndim - 1))

    if op == "N":
        return _atom_theta_plus(c, column([m / lam for m in mus])) * lam
    if op == "J0":
        return _atom_theta_plus(c, column([0.5 * (bb(m) + bb(m + 1)) for m in mus]))
    nums, dens = zip(*(_cached_lists(params, (int(m), alpha)) for m in mus))
    if op == "Jplus":
        out = c
        for v in zip(*nums):
            out = _atom_theta_plus(out, column(v))
        return lam ** (alpha - 1) * _atom_mul_z(out)
    if op == "Jminus":
        out = _atom_ddz(c)
        for v in zip(*dens):
            out = _atom_theta_plus(out, column(v))
        return lam ** (lam - alpha - 1) * out
    raise UnsupportedOp(f"op {op!r} is not defined on a single sector")


# ---- vector realizations: component mu of c is c[..., mu, :] -----------------

def _apply_vector_alpha0(params: AlgebraParams, op: str, c: np.ndarray):
    lam = params.lam
    bb = params.beta_bar_at
    if op in ("N", "Jplus", "Jminus", "J0"):
        # component mu is member mu of family 0
        return np.moveaxis(_apply_sector(params, range(lam), 0, op, np.moveaxis(c, -2, 0)), 0, -2)
    prod = math.prod(bb(nu) for nu in range(1, lam))
    if op == "adag":
        # component mu is sqrt(lam bb_mu) times component mu - 1; the wrapped
        # component 0 is z times component lam - 1
        scale = np.sqrt(lam * _column([bb(mu) for mu in range(lam)]))
        out = _widen(c[..., np.arange(lam) - 1, :] * scale, c.shape[-1] + 1)
        out[..., 0, :] = _atom_mul_z(c[..., lam - 1, :]) / math.sqrt(lam ** (lam - 1) * prod)
        return out
    if op == "a":
        # component mu is (z d/dz + bb_{mu+1}) on component mu + 1; the
        # wrapped component lam - 1 is d/dz on component 0
        up = _column([bb(mu + 1) for mu in range(lam)])
        out = np.sqrt(lam / up) * _atom_theta_plus(c[..., (np.arange(lam) + 1) % lam, :], up)
        last = math.sqrt(lam ** (lam + 1) * prod) * _atom_ddz(c[..., 0, :])
        out[..., lam - 1, :] = _widen(last, c.shape[-1])
        return out
    raise UnsupportedOp(f"op {op!r} unsupported in the vector basis")


def _apply_eigenstate(params: AlgebraParams, op: str, c: np.ndarray):
    lam = params.lam
    beta = params.beta_at
    if op == "N":
        return _atom_theta_plus(c, 0.0)
    if op == "J0":
        return _atom_theta_plus(c, _column([0.5 * (beta(mu) + beta(mu + 1) + 1.0)
                                            for mu in range(lam)])) / lam
    if op == "Jplus":
        return _widen(c / lam, c.shape[-1] + lam, shift=lam)
    if op == "Jminus":
        # lambda steps d/dz + beta_{mu - j}/z, step j on every component mu at
        # once; beta_0 = 0 makes the step j = mu a plain d/dz
        for j in range(lam):
            c = _atom_ddz_plus_over_z(c, _column([beta(mu - j) for mu in range(lam)]))
        return c / lam
    if op == "adag":
        return _atom_mul_z(c[..., np.arange(lam) - 1, :])
    if op == "a":
        # component mu is d/dz + beta_{mu+1}/z on component mu + 1 (mod lambda)
        return _atom_ddz_plus_over_z(c[..., (np.arange(lam) + 1) % lam, :],
                                     _column([beta(mu + 1) for mu in range(lam)]))
    raise UnsupportedOp(f"op {op!r} unsupported in the eigenstate basis")


def _check_components(lam: int, *arrays: np.ndarray) -> None:
    for c in arrays:
        if c.shape[-2:-1] != (lam,):
            raise SectorError(f"vector bases take {lam} components on axis -2, got shape {c.shape}")


def _members(lam: int, sector):
    """The members mu (an array) and family alpha of sector = (mu, alpha),
    refused outside the family (check_sector)."""
    if sector is None:
        raise SectorError("the sector basis requires sector = (mu, alpha)")
    check_sector(lam, sector)
    return np.atleast_1d(sector[0]), sector[1]


def apply_realization(params: AlgebraParams, basis: str, op: str, c: np.ndarray,
                      sector: tuple | None = None, mu_op: int | None = None) -> np.ndarray:
    """Apply one generator in the chosen basis to the coefficients c of a
    polynomial, or of every polynomial of a stack (its leading axes), in one call.

    basis: "sector" (N, J+, J-, J0 on sector = (mu, alpha): c in the one
    member mu, or, for an array of members mu of family alpha, one leading
    row of c per member), "vector_alpha0" or "eigenstate" (axis -2 of c
    holds the lambda components; additionally a, adag and P(mu_op)).
    """
    lam, c = params.lam, np.asarray(c, dtype=complex)
    if basis == "sector":
        mus, alpha = _members(lam, sector)
        if not np.ndim(sector[0]):
            return _apply_sector(params, mus, alpha, op, c[None])[0]
        if c.ndim < 2 or len(c) != len(mus):
            raise ShapeError(f"{len(mus)} members take one leading row of c each, got shape {c.shape}")
        return _apply_sector(params, mus, alpha, op, c)
    if basis not in ("vector_alpha0", "eigenstate"):
        raise UnsupportedOp(f"unknown basis {basis!r}")
    _check_components(lam, c)
    if op == "P":
        if mu_op is None:
            raise ShapeError("P requires a sector index mu")
        out = np.zeros_like(c)
        out[..., mu_op % lam, :] = c[..., mu_op % lam, :]
        return out
    apply = _apply_vector_alpha0 if basis == "vector_alpha0" else _apply_eigenstate
    return apply(params, op, c)


# ---- transforms ------------------------------------------------------------

def bargmann_transform(params: AlgebraParams, psi: StateVector, basis: str,
                       sector: tuple | None = None) -> np.ndarray:
    """Map Fock coefficients to Bargmann polynomial coefficients, zero past the
    state's last level: in sector = (mu, alpha), one row per member for an
    array of members mu; vector_alpha0 is the family (range(lambda), 0).  The
    leading axes of psi.coeffs, a stack of states, lead each state's image."""
    lam, c = params.lam, psi.coeffs
    if basis in ("sector", "vector_alpha0"):
        if basis == "vector_alpha0":
            sector = (np.arange(lam), 0)
        mus, alpha = _members(lam, sector)
        levels = np.add.outer(mus, lam * np.arange((psi.dim - 1 - min(mus)) // lam + 1))
        with np.errstate(under="ignore"):
            weights = np.exp(0.5 * sum(log_weights(params, levels.shape[1] - 1, (mus, alpha))))
        inside = levels < psi.dim
        out = np.zeros(c.shape[:-1] + levels.shape, dtype=complex)
        out[..., inside] = c[..., levels[inside]] * weights[inside]
        return out if np.ndim(sector[0]) else out[..., 0, :]
    if basis == "eigenstate":
        n = np.arange(psi.dim)
        out = np.zeros(c.shape[:-1] + (lam, psi.dim), dtype=complex)
        with np.errstate(under="ignore"):
            out[..., n % lam, n] = c * np.exp(0.5 * sum(log_weights(params, psi.dim - 1)))
        return out
    raise UnsupportedOp(f"unknown basis {basis!r}")


# ---- inner products and Hermiticity ----------------------------------------

def _moment_table(basis: str, measure, width: int) -> np.ndarray:
    """<z^k, z^k> = pi scale^(k+1) M(k), k < width, of each component, shape
    (components, width), from one array-k moment call per component.

    sector: measure is the family's WeightFunction, scale = lam^(lam - 2 alpha);
    vector_alpha0 and eigenstate: the EigenstateMeasures, M the moments of its
    weights, scale = lam^lam (vector_alpha0), or of h_mu in t = |z|^2 / lam,
    scale = lam, filled at k = mu (mod lam), k >= mu only (eigenstate).  At
    any other k every coefficient of component mu vanishes, and the order
    (k - mu) / lam of the h_mu moment is negative, where it can diverge.
    """
    k = np.arange(width)
    if basis == "eigenstate":
        lam = measure.params.lam
        table = np.zeros((lam, width))
        for mu in range(min(lam, width)):
            n = k[mu::lam]
            table[mu, n] = math.pi * float(lam) ** (n + 1) * measure.h_moment(mu, n)
        return table
    if basis not in ("sector", "vector_alpha0"):
        raise UnsupportedOp(f"unknown basis {basis!r}")
    rows = []
    for weight in [measure] if basis == "sector" else measure.weights:
        scale = float(weight.problem.params.lam) ** weight.problem.r
        rows.append(math.pi * scale ** (k + 1) * weight.moment(k.astype(float))[0])
    return np.array(rows)


def inner_product(basis: str, measure, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gram matrix <f_i, g_j> = sum_mu int d2z h_mu conj(f_i,mu) g_j,mu of the
    stacks f and g in one product, of shape f's stack axes + g's (0-d for two
    polynomials); measure as for the basis's _moment_table.  In the vector
    bases axis -2 of each holds the lambda components (SectorError otherwise).

    Monomial phases integrate to Kronecker deltas, leaving the radial
    moments <z^k, z^k> of each component.
    """
    fc, gc = np.asarray(f), np.asarray(g)
    if basis == "sector":
        fc, gc = fc[..., None, :], gc[..., None, :]
    w = min(fc.shape[-1], gc.shape[-1])
    table = _moment_table(basis, measure, w)
    _check_components(len(table), fc, gc)
    weighted = np.conj(fc[..., :w]) * table
    return np.tensordot(weighted, gc[..., :w], axes=([-2, -1], [-2, -1]))


@dataclass(frozen=True)
class HermiticityRow:
    pair: str
    lhs: complex
    rhs: complex

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


SAMPLE_DEGREE = 2  # check_hermiticity samples the monomials of degree <= 2

# each basis's adjoint pairs (name, A, B): <A f, g> = <f, B g>
_ADJOINT_PAIRS = {
    "sector": (("J+/J-", "Jplus", "Jminus"), ("J0/J0", "J0", "J0")),
    "vector_alpha0": (("adag/a", "adag", "a"),),
    "eigenstate": (("adag/a", "adag", "a"),),
}


def _unit_columns(lam: int, basis: str, k_max: int):
    """Component m and degree k of the lam (k_max + 1) unit columns, component
    major, and the columns as one stack: z^k in component m (vector_alpha0),
    z^(k lam + m) (eigenstate), zero-extended to one width."""
    m, k = np.divmod(np.arange(lam * (k_max + 1)), k_max + 1)
    n = k * lam + m if basis == "eigenstate" else k
    f = np.zeros((len(m), lam, n.max() + 1), dtype=complex)
    f[np.arange(len(m)), m, n] = 1.0
    return m, k, f


def check_hermiticity(params: AlgebraParams, basis: str, measure) -> list[HermiticityRow]:
    """<A f, g> = <f, B g> for the basis's _ADJOINT_PAIRS by moment quadrature.

    The samples f, g are the monomials of degree <= SAMPLE_DEGREE: z^0, z^1,
    .. of the family of the sector weight measure (its problem's sector),
    or the unit columns of each component (vector_alpha0, eigenstate;
    _unit_columns).  Each generator acts once on the stack of samples, and
    each side of a pair is one Gram product (inner_product); measure as for
    the basis's _moment_table.  Rows run over f, then g, then
    the pairs.
    """
    if basis not in _ADJOINT_PAIRS:
        raise UnsupportedOp(f"unknown basis {basis!r}")
    samples = (np.eye(SAMPLE_DEGREE + 1, dtype=complex) if basis == "sector"
               else _unit_columns(params.lam, basis, SAMPLE_DEGREE)[2])
    sector = measure.problem.sector if basis == "sector" else None
    grams = []
    for pair, a_op, b_op in _ADJOINT_PAIRS[basis]:
        a_f = apply_realization(params, basis, a_op, samples, sector)
        b_g = apply_realization(params, basis, b_op, samples, sector)
        grams.append((pair, inner_product(basis, measure, a_f, samples),
                      inner_product(basis, measure, samples, b_g)))
    count = range(len(samples))
    return [HermiticityRow(pair, complex(lhs[i, j]), complex(rhs[i, j]))
            for i in count for j in count for pair, lhs, rhs in grams]


@dataclass(frozen=True)
class CommutatorRow:
    basis: str
    pair: str
    k: int
    residual: float


def check_commutators(params: AlgebraParams, basis: str, k_max: int = 10) -> list[CommutatorRow]:
    """Commutation relations as exact coefficient identities on monomials.

    Each generator acts once (apply_realization) on the stack of every
    monomial z^k, k <= k_max (sector basis: per family alpha, on every member
    mu at once, one stack of monomials per member; vector bases: the lambda
    (k_max + 1) unit columns, component mu major), zero-extended to one
    degree.  Rows run over (alpha, mu) or mu, then k.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    lam = params.lam
    bb = params.beta_bar_at
    if basis != "sector":
        m, k, f = _unit_columns(lam, basis, k_max)
        lhs = apply_realization(params, basis, "a", apply_realization(params, basis, "adag", f))
        rhs = apply_realization(params, basis, "adag", apply_realization(params, basis, "a", f))
        w = max(lhs.shape[-1], rhs.shape[-1], f.shape[-1])
        comm = _widen(lhs, w) - _widen(rhs, w)
        expect = _widen(f * (1.0 + np.asarray(params.alpha))[m, None, None], w)
        res = np.abs(comm - expect).max(axis=(-2, -1))
        return [CommutatorRow(basis, "[a,adag]", ki, r) for ki, r in zip(k.tolist(), res.tolist())]
    k = np.arange(k_max + 1)
    rows = []
    for alpha in range(lam // 2 + 1):
        mus = np.arange(lam - alpha)
        sector = (mus, alpha)
        zk = np.broadcast_to(np.eye(k_max + 1, dtype=complex), (len(mus), k_max + 1, k_max + 1))
        j0_zk = apply_realization(params, basis, "J0", zk, sector)
        q_zk, res = {}, {}
        for sgn, qop in ((1.0, "Jplus"), (-1.0, "Jminus")):
            q_zk[qop] = apply_realization(params, basis, qop, zk, sector)
            lhs = apply_realization(params, basis, "J0", q_zk[qop], sector)
            rhs = apply_realization(params, basis, qop, j0_zk, sector)
            # lhs, rhs and q_zk share one width
            diff = np.abs(lhs - rhs - sgn * q_zk[qop]).max(axis=-1)
            scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=-1), np.abs(rhs).max(axis=-1)))
            res[f"[J0,{qop}]"] = diff / scale
        jp_jm = apply_realization(params, basis, "Jplus", q_zk["Jminus"], sector)
        jm_jp = apply_realization(params, basis, "Jminus", q_zk["Jplus"], sector)
        comm = np.diagonal(jp_jm, axis1=-2, axis2=-1) - np.diagonal(jm_jp, axis1=-2, axis2=-1)
        f_val = np.array([sga_structure_poly(params, k + 0.5 * (bb(mu) + bb(mu + 1)), mu)
                          for mu in mus.tolist()])
        res["[J+,J-]"] = np.abs(comm - f_val) / np.maximum(1.0, np.abs(f_val))
        rows += [
            CommutatorRow(f"sector(mu={mu},alpha={alpha})", pair, i, float(r[mu, i]))
            for mu in mus.tolist()
            for i in range(k_max + 1)
            for pair, r in res.items()
        ]
    return rows


def intertwining_residual(params: AlgebraParams, basis: str, op: str, psi: StateVector,
                          sector: tuple | None = None, mu_op: int | None = None) -> float:
    """max |transform(op psi) - op_B transform(psi)| on coefficients, op as its band."""
    mat = build_operator(params, op, psi.dim, mu=mu_op)
    mapped = StateVector(psi.dim, mat @ psi.coeffs, psi.norm_sq_analytic, psi.tail_bound)
    lhs = bargmann_transform(params, mapped, basis, sector)
    image = bargmann_transform(params, psi, basis, sector)
    rhs = apply_realization(params, basis, op, image, sector, mu_op)
    w = max(lhs.shape[-1], rhs.shape[-1])
    return float(np.abs(_widen(lhs, w) - _widen(rhs, w)).max())

"""Weight functions resolving unity, their positivity certificates,
moment verification, and resolution-of-identity checks.

The completeness of a coherent-state family in sector F_mu is a Stieltjes
(y on (0, inf), r = lambda - 2 alpha > 0) or Hausdorff (y on (0, 1),
r = 0) power-moment problem

    int y^k h(y) dy = B(k) = A * Gamma-ratio(k),

solved by restricted Meijer G densities: G^{m,0}_{alpha,m} evaluated
directly for r > 0, and Norlund's (1 - y) series for r = 0.
Positivity holds when the upper parameter list can be matched injectively
below the lower list, which this module searches exhaustively: the
certificate is that pairing, () at alpha = 0, and None when there is none.

One argument names the family everywhere: sector = (mu, alpha), mu one
member, as in clext.states.  Every entry takes its lists from
states.sector_lists, whose check (states.check_sector) is the family's only
range rule, and whose cache every caller shares.

The lambda alpha = 0 weights of one algebra, the eigenstate measures', have
the lower lists b_0 + e_1 + .. + e_mu; their values on the shared moment
grid come from one g_general_vec family call.  A weight's moments of every
order come from one product per quadrature rule.  A resolution of unity is
the Bargmann Gram diagonal of the Fock basis, so only clext.states and
clext.bargmann derive the norm of a Fock level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import AlgebraParams
from .bargmann import _moment_table, bargmann_transform
from .errors import DomainError, PositivityUnavailable, QuadratureFailure
from .quadrature import FixedGrid, fixed_grid_unit, fixed_grid_zero_inf
from .specfun import _NorlundKernel, g_general_vec
from .states import StateVector, _cached_lists, check_sector, sector_lists


# --------------------------------------------------------------------------
# moment problem data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentProblem:
    """Moment targets B(k) for the family sector = (mu, alpha) of one algebra,
    mu one member; a sector outside the family is refused (sector_lists)."""

    params: AlgebraParams
    sector: tuple

    def __post_init__(self):
        sector_lists(self.params, self.sector)

    @property
    def lists(self) -> tuple[tuple, tuple]:
        """(num, den) of the sector, checked at construction: from their cache."""
        return _cached_lists(self.params, (int(self.sector[0]), self.sector[1]))

    @property
    def r(self) -> int:
        return self.params.lam - 2 * self.sector[1]

    @property
    def y_max(self) -> float:
        return math.inf if self.r > 0 else 1.0

    @property
    def log_A(self) -> float:
        num, den = self.lists
        out = -math.log(math.pi) - self.r * math.log(self.params.lam)
        for v in num:
            out += math.lgamma(v)
        for v in den:
            out -= math.lgamma(v)
        return out

    def log_B(self, k: float) -> float:
        num, den = self.lists
        out = self.log_A + math.lgamma(k + 1.0)
        for v in den:
            out += math.lgamma(v + k)
        for v in num:
            out -= math.lgamma(v + k)
        return out


def moment_target(problem: MomentProblem, k: float) -> float:
    """B(k), positive for all k >= 0."""
    return math.exp(problem.log_B(k))


def mellin_lists(params: AlgebraParams, sector: tuple) -> tuple[list[float], list[float]]:
    """Upper/lower parameter lists (a, b) of the inverse Mellin transform:
    a = num - 1 and b = (0, den - 1) for the family's sector_lists."""
    num, den = sector_lists(params, sector)
    return [v - 1.0 for v in num], [0.0] + [v - 1.0 for v in den]


# --------------------------------------------------------------------------
# positivity certificates
# --------------------------------------------------------------------------

NO_PAIRING = "no injective assignment a_i > b_j exists"


def positivity_condition(params: AlgebraParams, sector: tuple) -> tuple[int, ...] | None:
    """The positivity certificate of the sector's weight: the first injective
    pairing with a_i > b_{pairing[i]} of its mellin_lists (a, b), () at
    alpha = 0 (no a), None when there is none (NO_PAIRING)."""
    return _pairing(*mellin_lists(params, sector))


def _pairing(a, b) -> tuple[int, ...] | None:
    """First injective assignment with a[i] > b[pairing[i]], or None."""
    for combo in itertools.permutations(range(len(b)), len(a)):
        if all(a[i] > b[j] for i, j in enumerate(combo)):
            return combo
    return None


def _cancel_equal(a, b) -> tuple[list[float], list[float]]:
    """(a, b) without each upper parameter that equals a lower one to 1e-13,
    and without that lower one: their Gamma factors cancel in the Mellin
    transform."""
    a_left, b_left = [], list(b)
    for av in a:
        k = next((k for k, bv in enumerate(b_left) if abs(av - bv) <= 1e-13), None)
        if k is None:
            a_left.append(av)
        else:
            del b_left[k]
    return a_left, b_left


# --------------------------------------------------------------------------
# the weight functions themselves
# --------------------------------------------------------------------------

@dataclass
class WeightFunction:
    """Evaluable density on (0, y_max) of its moment problem.

    evaluate() is vectorized; moment(k) integrates y^k h(y) dy on a
    cached tanh-sinh grid (k may be fractional or negative, as the
    eigenstate measures require; an array of k is one product per rule, each
    order's row summed on its own, so it matches a one-order call bit for
    bit).  An order at or below the first pole of B(k), k <= -min(1, den),
    is refused: there the integral diverges.
    """

    problem: MomentProblem
    form: str
    _eval: Callable[..., np.ndarray]
    k_budget: float = 10.0
    _grid: FixedGrid | None = field(default=None, repr=False)
    _log_y: np.ndarray | None = field(default=None, repr=False)
    _sign: np.ndarray | None = field(default=None, repr=False)
    _log_abs: np.ndarray | None = field(default=None, repr=False)

    @property
    def y_max(self) -> float:
        return self.problem.y_max

    def evaluate(self, y, one_minus_y=None) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if one_minus_y is None:
            one_minus_y = 1.0 - y
        else:
            one_minus_y = np.atleast_1d(np.asarray(one_minus_y, dtype=float))
        return self._eval(y, one_minus_y)

    def _moment_grid(self) -> FixedGrid:
        """The tanh-sinh grid that integrates y^k h for k up to k_budget."""
        if math.isinf(self.y_max):
            y_cut = _decay_cutoff(max(self.problem.r, 1), self.k_budget)
            return fixed_grid_zero_inf(level=6, v_max=math.log(y_cut))
        return fixed_grid_unit(level=6)

    def _keep(self, grid: FixedGrid, vals: np.ndarray):
        """Hold h on grid as ln y, sign h and ln|h|, the factors of every moment."""
        self._grid = grid
        with np.errstate(divide="ignore"):
            self._log_y = np.log(grid.y)
            self._sign = np.sign(vals)
            self._log_abs = np.log(np.abs(vals))

    def _ensure_grid(self, k: float):
        if self._grid is not None and k <= self.k_budget:
            return
        self.k_budget = max(self.k_budget, k + 2.0)
        grid = self._moment_grid()
        self._keep(grid, self.evaluate(grid.y, grid.one_minus_y))

    def moment(self, k):
        """(integral of y^k h, error estimate): floats for a scalar k, arrays
        for an array of k."""
        ks = np.atleast_1d(np.asarray(k, dtype=float))
        if not ks.size:
            raise DomainError(f"a moment needs at least one order k, got {k}")
        if not np.isfinite(ks).all():
            raise DomainError(f"moment orders k must be finite, got {k}")
        low, pole = ks.min(), -min((1.0, *self.problem.lists[1]))
        if low <= pole:
            raise DomainError(f"moment order k = {ks[ks <= pole][0]:.6g} is at or below "
                              f"B(k)'s first pole k = {pole:.6g}: its integral diverges")
        self._ensure_grid(float(ks.max()))
        g = self._grid
        # y^k h in log space: y^k alone overflows before h decays
        lead = np.multiply.outer(ks, self._log_y) + self._log_abs
        w, w_coarse = g.w, g.w_coarse
        if low < 0:
            # below k = 0 y^k h overflows at the grid's first nodes before w tames
            # it: there w joins the exponent, and the rules weigh by 1 and w_coarse / w
            negative = (ks < 0)[:, None]
            lead = np.where(negative, lead + np.log(w), lead)
            w, w_coarse = np.where(negative, 1.0, w), np.where(negative, w_coarse / w[g.coarse], w_coarse)
        terms = self._sign * np.exp(lead)
        # summed row by row (a BLAS product blocks rows by their count, and
        # terms[:, coarse] is column-major), so each order keeps its own bits
        fine = (terms * w).sum(axis=1)
        err = np.abs(fine - (np.take(terms, g.coarse, axis=1) * w_coarse).sum(axis=1))
        bad = ~np.isfinite(fine)
        if bad.any():
            raise QuadratureFailure(f"moment k={ks[bad][0]} integral is not finite")
        if np.ndim(k) == 0:
            return float(fine[0]), float(err[0])
        return fine, err


def _decay_cutoff(r: int, k_max: float) -> float:
    """y beyond which y^k * exp(-r y^(1/r)) is negligible for k <= k_max."""
    y = 100.0
    for _ in range(4):
        y = ((70.0 + k_max * max(math.log(y), 1.0)) / r) ** r
    return y


# the paper's closed form of the r = 0 weight, by alpha
_HAUSDORFF_FORMS = {1: "beta_power", 2: "gauss2f1", 3: "appell_f3"}


def weight_function(params: AlgebraParams, sector: tuple,
                    require_positive: bool = True) -> WeightFunction:
    """Weight solving the moment problem of sector = (mu, alpha), mu one member.

    Two evaluators: r = 0 is the Hausdorff weight G^{alpha,0}_{alpha,alpha}
    on (0, 1), Norlund's (1 - y) series of the certificate's pairs
    (specfun._NorlundKernel); every r > 0 weight, alpha = 0 included, is
    G^{m,0}_{alpha,m} on (0, inf) by g_general_vec (closed forms for m <= 2
    with no upper parameter, residue sum, large-y expansion, ODE
    continuation).  An upper parameter equal to a lower one cancels with it
    first, when the reduced lists still certify; with no upper one left,
    the weight is G^{m,0}_{0,m} of the rest.  The form label names the
    paper's closed form of the uncancelled weight (Beta power, Gauss 2F1,
    Appell F3, multiple series by alpha).

    Without a positivity certificate the default is to refuse; passing
    require_positive=False still returns the r > 0 inverse Mellin
    transform (then possibly sign-indefinite), whose moments still
    reproduce B(k).
    """
    problem = MomentProblem(params, sector)
    a, b = mellin_lists(params, sector)
    pairing = _pairing(a, b)
    amp = math.exp(problem.log_A)
    r, alpha = problem.r, sector[1]
    if pairing is None:
        refusal = f"no positive weight function available: {NO_PAIRING}"
        if require_positive:
            raise PositivityUnavailable(refusal)
        if r == 0:
            raise PositivityUnavailable(f"{refusal}; no unsigned evaluation on (0, 1) is implemented")
        form = "meijer_unsigned"
    elif alpha == 0:
        form = "meijer_m0"
    else:
        form = "kummer" if r > 0 else _HAUSDORFF_FORMS.get(alpha, "multiple_series")
        a_left, b_left = _cancel_equal(a, b)
        reduced = _pairing(a_left, b_left) if len(a_left) < alpha else None
        if reduced is not None:
            a, b, pairing = a_left, b_left, reduced
    if r == 0:
        kernel = _NorlundKernel([(a[i], b[j]) for i, j in enumerate(pairing)])

        def evaluator(y, one_minus_y=None, _k=kernel, _amp=amp):
            return _amp * _k(y, one_minus_y)
    else:
        def evaluator(y, one_minus_y=None, _a=tuple(a), _b=tuple(b), _amp=amp):
            return _amp * g_general_vec(_a, _b, y)

    return WeightFunction(problem, form, evaluator)


# --------------------------------------------------------------------------
# verification of the moments
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentRow:
    k: int
    target: float
    integral: float
    rel_error: float
    quad_err: float


@dataclass(frozen=True)
class MomentReport:
    rows: tuple[MomentRow, ...]
    max_rel_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol

    @property
    def max_quad_err(self) -> float:
        """Largest quadrature error estimate relative to its B(k) target,
        in the units of max_rel_error."""
        return max(row.quad_err / row.target for row in self.rows)


def verify_moments(weight: WeightFunction, k_max: int = 8, tol: float = 1e-6) -> MomentReport:
    """Compare quadrature moments of the weight against its family's B(k) targets."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    rows = []
    worst = 0.0
    integrals, quad_errs = weight.moment(np.arange(k_max + 1, dtype=float))
    for k, integral, quad_err in zip(range(k_max + 1), integrals.tolist(), quad_errs.tolist()):
        target = moment_target(weight.problem, k)
        rel = abs(integral - target) / abs(target)
        worst = max(worst, rel)
        rows.append(MomentRow(k, target, integral, rel, quad_err))
    return MomentReport(tuple(rows), worst, tol)


# --------------------------------------------------------------------------
# eigenstate measures and identity resolutions
# --------------------------------------------------------------------------

@dataclass
class EigenstateMeasures:
    """h_mu(t) and the complex g_mu(t) mixing them by discrete Fourier sums."""

    params: AlgebraParams
    weights: list[WeightFunction]

    def h(self, mu: int, t) -> np.ndarray:
        p = self.params
        lam = p.lam
        check_sector(lam, (mu, 0))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        pref = math.prod(map(p.beta_bar_at, range(1, mu + 1)), start=lam**lam)
        return pref * t ** (lam - mu - 1) * self.weights[mu].evaluate(t**lam)

    def g(self, mu: int, t) -> np.ndarray:
        lam = self.params.lam
        h = np.array([self.h(nu, t) for nu in range(lam)])
        return np.tensordot(np.exp(2j * math.pi * mu * np.arange(lam) / lam), h, axes=1) / lam

    def h_moment(self, mu: int, n) -> float | np.ndarray:
        """int t^n h_mu(t) dt = lam^(lam-1) prod(beta_bar) * M_mu((n - mu)/lam),
        for one n or an array of them (one moment call); mu is a member of
        family 0 (check_sector)."""
        p = self.params
        lam = p.lam
        check_sector(lam, (mu, 0))
        pref = math.prod(map(p.beta_bar_at, range(1, mu + 1)), start=float(lam) ** (lam - 1))
        val, _ = self.weights[mu].moment((np.asarray(n, dtype=float) - mu) / lam)
        return pref * val

    def g_moment(self, mu, n) -> complex | np.ndarray:
        """int t^n g_mu(t) dt, of shape mu.shape + n.shape for arrays: each h_nu
        moment is taken once for all mu and n."""
        lam = self.params.lam
        h = np.array([self.h_moment(nu, n) for nu in range(lam)])
        phase = np.exp(2j * math.pi * np.multiply.outer(mu, np.arange(lam)) / lam)
        out = np.tensordot(phase, h, axes=1) / lam
        return complex(out) if out.ndim == 0 else out


def eigenstate_measures(params: AlgebraParams) -> EigenstateMeasures:
    """h_mu / g_mu from the lambda alpha = 0 sector weights (always certified).

    Their lower lists are b_0 + e_1 + .. + e_mu (mellin_lists), so one
    g_general_vec family call (shifts 1..lambda-1) gives all of them on
    their shared moment grid, each row scaled by its A_mu; the weights hold
    those values, and evaluate() elsewhere still runs each weight's own
    list.
    """
    lam = params.lam
    weights = [weight_function(params, (mu, 0)) for mu in range(lam)]
    grid = weights[0]._moment_grid()
    rows = g_general_vec((), mellin_lists(params, (0, 0))[1], grid.y, shifts=range(1, lam))
    for w, row in zip(weights, rows):
        w._keep(grid, math.exp(w.problem.log_A) * row)
    return EigenstateMeasures(params, weights)


@dataclass(frozen=True)
class ResolutionReport:
    mode: str
    diagonal: tuple[float, ...]
    max_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tol


def verify_identity_resolution(
    params: AlgebraParams,
    mode: str,
    n_max: int = 6,
    tol: float = 1e-6,
) -> ResolutionReport:
    """Check <n| integral |n'> = delta_{nn'} for the requested resolution.

    Angular integrals are exact Kronecker deltas, so only the diagonal is
    computed: the Bargmann Gram diagonal of |0>..|n_max>, their images under
    one stacked bargmann_transform weighted by the basis's moment table
    (bargmann._moment_table) of the eigenstate measures.  Modes:
    diagonal_alpha0 (the alpha = 0 weights, vector_alpha0 basis),
    eigenstate_diag (h_mu, eigenstate basis), eigenstate_offdiag (the g_mu
    mixture of |z><z e^{2 pi i mu / lambda}|: the table holds
    sum_mu e^{-2 pi i mu n / lambda} int t^n g_mu in place of h's moments).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > 8:
        raise ValueError("n_max above 8 exceeds the supported range")
    if mode not in ("diagonal_alpha0", "eigenstate_diag", "eigenstate_offdiag"):
        raise ValueError(f"unknown resolution mode {mode!r}")
    basis = "vector_alpha0" if mode == "diagonal_alpha0" else "eigenstate"
    meas = eigenstate_measures(params)
    n = np.arange(n_max + 1)
    fock = StateVector(n_max + 1, np.eye(n_max + 1), np.ones(n_max + 1), np.zeros(n_max + 1))
    images = bargmann_transform(params, fock, basis)
    if mode == "eigenstate_offdiag":
        lam, mus = params.lam, np.arange(params.lam)
        g = meas.g_moment(mus, n.astype(float))
        acc = (np.exp(-2j * math.pi * np.multiply.outer(mus, n) / lam) * g).sum(axis=0)
        leak = np.abs(acc.imag) > 1e-8 * np.maximum(1.0, np.abs(acc.real))
        if leak.any():
            raise QuadratureFailure(f"off-diagonal resolution produced imaginary part "
                                    f"{acc.imag[leak][0]:.3e}")
        table = np.zeros((lam, n_max + 1))
        table[n % lam, n] = math.pi * float(lam) ** (n + 1) * acc.real
    else:
        table = _moment_table(basis, meas, images.shape[-1])
    diag = (np.abs(images) ** 2 * table).sum(axis=(-2, -1)).tolist()
    errs = [abs(v - 1.0) for v in diag]
    return ResolutionReport(mode, tuple(diag), max(errs), tol)

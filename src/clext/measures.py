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

The lambda alpha = 0 weights of one algebra, which the eigenstate measures
and the diagonal_alpha0 resolution integrate, have the lower lists
b_0 + e_1 + .. + e_mu; their values on the shared moment grid come from one
g_general_vec family call.  A weight's moments of every order come from
one product per quadrature rule.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import AlgebraParams
from .errors import DomainError, PositivityUnavailable, QuadratureFailure
from .quadrature import FixedGrid, fixed_grid_unit, fixed_grid_zero_inf
from .specfun import _NorlundKernel, g_general_vec
from .states import check_sector, log_weights, sector_lists


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
    def r(self) -> int:
        return self.params.lam - 2 * self.sector[1]

    @property
    def y_max(self) -> float:
        return math.inf if self.r > 0 else 1.0

    @property
    def log_A(self) -> float:
        num, den = sector_lists(self.params, self.sector)
        out = -math.log(math.pi) - self.r * math.log(self.params.lam)
        for v in num:
            out += math.lgamma(v)
        for v in den:
            out -= math.lgamma(v)
        return out

    def log_B(self, k: float) -> float:
        num, den = sector_lists(self.params, self.sector)
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
    cached tanh-sinh grid (k may be fractional, as the eigenstate
    measures require; an array of k is one product per rule, each order's
    row summed on its own, so it matches a one-order call bit for bit).
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
        self._ensure_grid(float(ks.max()))
        g = self._grid
        # y^k h in log space: y^k alone overflows before h decays
        terms = self._sign * np.exp(np.multiply.outer(ks, self._log_y) + self._log_abs)
        # summed row by row (a BLAS product blocks rows by their count, and
        # terms[:, coarse] is column-major), so each order keeps its own bits
        fine = (terms * g.w).sum(axis=1)
        err = np.abs(fine - (np.take(terms, g.coarse, axis=1) * g.w_coarse).sum(axis=1))
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
        pref = lam**lam
        for nu in range(1, mu + 1):
            pref *= p.beta_bar_at(nu)
        return pref * t ** (lam - mu - 1) * self.weights[mu].evaluate(t**lam)

    def g(self, mu: int, t) -> np.ndarray:
        lam = self.params.lam
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t.shape, dtype=complex)
        for nu in range(lam):
            out += cmath.exp(2j * math.pi * mu * nu / lam) * self.h(nu, t)
        return out / lam

    def h_moment(self, mu: int, n) -> float | np.ndarray:
        """int t^n h_mu(t) dt = lam^(lam-1) prod(beta_bar) * M_mu((n - mu)/lam),
        for one n or an array of them (one moment call); mu is a member of
        family 0 (check_sector)."""
        p = self.params
        lam = p.lam
        check_sector(lam, (mu, 0))
        pref = float(lam) ** (lam - 1)
        for nu in range(1, mu + 1):
            pref *= p.beta_bar_at(nu)
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


def _alpha0_weights(params: AlgebraParams) -> list[WeightFunction]:
    """The lambda alpha = 0 sector weights (always certified).

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
    return weights


def eigenstate_measures(params: AlgebraParams) -> EigenstateMeasures:
    """Build h_mu / g_mu from the alpha = 0 sector weights (always certified)."""
    return EigenstateMeasures(params, _alpha0_weights(params))


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

    Angular integrals are exact Kronecker deltas, so only the diagonal
    radial moments are computed; modes: diagonal_alpha0 (sector family),
    eigenstate_diag (the |z_mu> form), eigenstate_offdiag (the complex
    g_mu mixture of |z><z e^{2 pi i mu / lambda}|).  Each call builds the
    mode's alpha = 0 weights, or the eigenstate measures on them, from params.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > 8:
        raise ValueError("n_max above 8 exceeds the supported range")
    lam = params.lam
    n = np.arange(n_max + 1)
    diag = np.empty(n_max + 1)
    if mode == "diagonal_alpha0":
        # the alpha = 0 weight of sector mu resolves |k lam + mu> iff its k-th
        # moment is the target B(k)
        for mu, weight in enumerate(_alpha0_weights(params)[:n_max + 1]):
            ks = n[mu::lam] // lam
            targets = [moment_target(weight.problem, k) for k in ks.tolist()]
            diag[mu::lam] = weight.moment(ks.astype(float))[0] / targets
    elif mode in ("eigenstate_diag", "eigenstate_offdiag"):
        # log D_n = L(n) - n log(lam), D_n = k! prod_(nu<=mu) (bb_nu)_(k+1) prod_(nu>mu) (bb_nu)_k
        log_d = -sum(log_weights(params, n_max)) - n * math.log(lam)
        meas = eigenstate_measures(params)
        if mode == "eigenstate_diag":
            mn = np.empty(n_max + 1)
            for mu in range(min(lam, n_max + 1)):
                mn[mu::lam] = meas.h_moment(mu, n[mu::lam].astype(float))
        else:
            mus = np.arange(lam)
            g = meas.g_moment(mus, n.astype(float))
            acc = (np.exp(-2j * math.pi * np.multiply.outer(mus, n) / lam) * g).sum(axis=0)
            leak = np.abs(acc.imag) > 1e-8 * np.maximum(1.0, np.abs(acc.real))
            if leak.any():
                raise QuadratureFailure(
                    f"off-diagonal resolution produced imaginary part {acc.imag[leak][0]:.3e}"
                )
            mn = acc.real
        diag = math.pi * lam * np.exp(-log_d) * mn
    else:
        raise ValueError(f"unknown resolution mode {mode!r}")
    diag = diag.tolist()
    errs = [abs(v - 1.0) for v in diag]
    return ResolutionReport(mode, tuple(diag), max(errs), tol)

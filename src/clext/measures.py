"""Weight functions resolving unity, their positivity certificates,
moment verification, uniqueness tests, and resolution-of-identity checks.

The completeness of a coherent-state family in sector F_mu is a Stieltjes
(y on (0, inf), r = lambda - 2 alpha > 0) or Hausdorff (y on (0, 1),
r = 0) power-moment problem

    int y^k h(y) dy = B(k) = A * Gamma-ratio(k),

solved by restricted Meijer G densities: G^{m,0}_{alpha,m} evaluated
directly for r > 0, and Norlund's (1 - y) series for r = 0.
Positivity holds when the upper parameter list can be matched injectively
below the lower list, which this module searches exhaustively.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import AlgebraParams
from .errors import PositivityUnavailable, QuadratureFailure
from .quadrature import FixedGrid, fixed_grid_unit, fixed_grid_zero_inf
from .specfun import _NorlundKernel, g_general_vec, m0_eval_vec
from .states import log_weights, sector_lists


# --------------------------------------------------------------------------
# moment problem data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentProblem:
    """Moment targets B(k) for the family (mu, alpha) of one algebra."""

    params: AlgebraParams
    mu: int
    alpha: int

    def __post_init__(self):
        lam = self.params.lam
        if not 0 <= self.alpha <= lam // 2:
            raise ValueError(f"alpha out of range: {self.alpha}")
        if not 0 <= self.mu <= lam - self.alpha - 1:
            raise ValueError(f"mu out of range: {self.mu}")

    @property
    def r(self) -> int:
        return self.params.lam - 2 * self.alpha

    @property
    def y_max(self) -> float:
        return math.inf if self.r > 0 else 1.0

    @property
    def log_A(self) -> float:
        num, den = sector_lists(self.params, self.mu, self.alpha)
        out = -math.log(math.pi) - self.r * math.log(self.params.lam)
        for v in num:
            out += math.lgamma(v)
        for v in den:
            out -= math.lgamma(v)
        return out

    def log_B(self, k: float) -> float:
        num, den = sector_lists(self.params, self.mu, self.alpha)
        out = self.log_A + math.lgamma(k + 1.0)
        for v in den:
            out += math.lgamma(v + k)
        for v in num:
            out -= math.lgamma(v + k)
        return out


def moment_target(problem: MomentProblem, k: float) -> float:
    """B(k), positive for all k >= 0."""
    return math.exp(problem.log_B(k))


def mellin_lists(params: AlgebraParams, mu: int, alpha: int) -> tuple[list[float], list[float]]:
    """Upper/lower parameter lists (a, b) of the inverse Mellin transform:
    a = num - 1 and b = (0, den - 1) for the family's sector_lists."""
    num, den = sector_lists(params, mu, alpha)
    return [v - 1.0 for v in num], [0.0] + [v - 1.0 for v in den]


# --------------------------------------------------------------------------
# positivity certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PositivityCertificate:
    """Injective assignment a_i > b_{pairing[i]} proving the weight positive."""

    pairing: tuple[int, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]
    condition: str = ""


@dataclass(frozen=True)
class PositivityRefusal:
    reason: str
    a: tuple[float, ...]
    b: tuple[float, ...]


def positivity_condition(params: AlgebraParams, mu: int, alpha: int):
    """Search all injective a->b assignments; first witness wins.

    alpha = 0 needs no condition.  Returns a PositivityCertificate or a
    PositivityRefusal.
    """
    a, b = mellin_lists(params, mu, alpha)
    if alpha == 0:
        return PositivityCertificate((), tuple(a), tuple(b), "unconditional")
    combo = _pairing(a, b)
    if combo is None:
        return PositivityRefusal(
            "no injective assignment a_i > b_j exists", tuple(a), tuple(b)
        )
    cond = ", ".join(f"a_{i + 1}={a[i]:.6g} > b_{j + 1}={b[j]:.6g}" for i, j in enumerate(combo))
    return PositivityCertificate(combo, tuple(a), tuple(b), cond)


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
    """Evaluable density on (0, y_max) with its positivity certificate.

    evaluate() is vectorized; moment(k) integrates y^k h(y) dy on a
    cached tanh-sinh grid (k may be fractional, as the eigenstate
    measures require).
    """

    problem: MomentProblem
    form: str
    certificate: PositivityCertificate | PositivityRefusal
    _eval: Callable[..., np.ndarray]
    k_budget: float = 10.0
    _grid: FixedGrid | None = field(default=None, repr=False)
    _vals: np.ndarray | None = field(default=None, repr=False)

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

    def _ensure_grid(self, k: float):
        if self._grid is not None and k <= self.k_budget:
            return
        self.k_budget = max(self.k_budget, k + 2.0)
        if math.isinf(self.y_max):
            y_cut = _decay_cutoff(max(self.problem.r, 1), self.k_budget)
            self._grid = fixed_grid_zero_inf(level=6, v_max=math.log(y_cut))
        else:
            self._grid = fixed_grid_unit(level=6)
        self._vals = self.evaluate(self._grid.y, self._grid.one_minus_y)

    def moment(self, k: float) -> tuple[float, float]:
        """(integral of y^k h, error estimate)."""
        self._ensure_grid(k)
        g = self._grid
        # y^k h in log space: y^k alone overflows before h decays
        with np.errstate(divide="ignore"):
            terms = np.sign(self._vals) * np.exp(k * np.log(g.y) + np.log(np.abs(self._vals)))
        fine = float(np.dot(g.w, terms))
        coarse = float(np.dot(g.w_coarse, terms[g.coarse]))
        if not math.isfinite(fine):
            raise QuadratureFailure(f"moment k={k} integral is not finite", None)
        return fine, abs(fine - coarse)


def _decay_cutoff(r: int, k_max: float) -> float:
    """y beyond which y^k * exp(-r y^(1/r)) is negligible for k <= k_max."""
    y = 100.0
    for _ in range(4):
        y = ((70.0 + k_max * max(math.log(y), 1.0)) / r) ** r
    return y


# the paper's closed form of the r = 0 weight, by alpha
_HAUSDORFF_FORMS = {1: "beta_power", 2: "gauss2f1", 3: "appell_f3"}


def weight_function(
    params: AlgebraParams,
    mu: int,
    alpha: int,
    tol: float = 1e-11,
    require_positive: bool = True,
) -> WeightFunction:
    """Weight solving the (mu, alpha) moment problem.

    Dispatch: alpha = 0 evaluates G^{m,0}_{0,m} by m0_eval_vec (closed
    forms for m <= 2); r = 0 is the Hausdorff weight G^{alpha,0}_{alpha,alpha}
    on (0, 1), Norlund's (1 - y) series of the certificate's pairs
    (specfun._NorlundKernel); r > 0 is G^{m,0}_{alpha,m} on (0, inf) by
    g_general_vec (residue sum, large-y expansion, ODE continuation), whatever
    alpha.  An upper parameter equal to a lower one cancels with it first,
    when the reduced lists still certify; with no upper one left, the
    weight is G^{m,0}_{0,m} of the rest.  The form label names the paper's
    closed form of the uncancelled weight (Beta power, Gauss 2F1, Appell
    F3, multiple series by alpha).  tol is the Meijer-G routes' tolerance.

    Without a positivity certificate the default is to refuse; passing
    require_positive=False still returns the r > 0 inverse Mellin
    transform (then possibly sign-indefinite), whose moments still
    reproduce B(k).
    """
    problem = MomentProblem(params, mu, alpha)
    cert = positivity_condition(params, mu, alpha)
    a, b = mellin_lists(params, mu, alpha)
    amp = math.exp(problem.log_A)
    r = problem.r
    if isinstance(cert, PositivityRefusal):
        if require_positive:
            raise PositivityUnavailable(cert.reason)
        if r == 0:
            raise PositivityUnavailable(
                f"{cert.reason}; no unsigned evaluation on (0, 1) is implemented"
            )
        form = "meijer_unsigned"
    elif alpha == 0:
        form = "meijer_m0"
    else:
        form = "kummer" if r > 0 else _HAUSDORFF_FORMS.get(alpha, "multiple_series")
        pairing = cert.pairing
        a_left, b_left = _cancel_equal(a, b)
        reduced = _pairing(a_left, b_left) if len(a_left) < alpha else None
        if reduced is not None:
            a, b, pairing = a_left, b_left, reduced
    if not a:
        def evaluator(y, one_minus_y=None, _b=tuple(b), _amp=amp):
            return _amp * m0_eval_vec(_b, y, tol)
    elif r == 0:
        kernel = _NorlundKernel([(a[i], b[j]) for i, j in enumerate(pairing)])

        def evaluator(y, one_minus_y=None, _k=kernel, _amp=amp):
            return _amp * _k(y, one_minus_y)
    else:
        def evaluator(y, one_minus_y=None, _a=tuple(a), _b=tuple(b), _amp=amp):
            return _amp * g_general_vec(_a, _b, y, tol)

    return WeightFunction(problem, form, cert, evaluator)


# --------------------------------------------------------------------------
# verification: moments, Hankel-Hadamard, Carleman
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


def verify_moments(
    weight: WeightFunction, problem: MomentProblem, k_max: int = 8, tol: float = 1e-6
) -> MomentReport:
    """Compare quadrature moments of the weight against the B(k) targets."""
    rows = []
    worst = 0.0
    for k in range(k_max + 1):
        target = moment_target(problem, k)
        integral, quad_err = weight.moment(float(k))
        rel = abs(integral - target) / abs(target)
        worst = max(worst, rel)
        rows.append(MomentRow(k, target, integral, rel, quad_err))
    return MomentReport(tuple(rows), worst, tol)


def hankel_hadamard(problem: MomentProblem, order: int) -> tuple[float, float]:
    """Minimal eigenvalues of the two Hankel-Hadamard moment matrices."""
    if order > 10:
        raise ValueError("order above 10 is numerically meaningless here")
    h0 = np.empty((order, order))
    h1 = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            h0[i, j] = moment_target(problem, i + j)
            h1[i, j] = moment_target(problem, i + j + 1)
    return float(np.linalg.eigvalsh(h0).min()), float(np.linalg.eigvalsh(h1).min())


@dataclass(frozen=True)
class CarlemanResult:
    exponent: float
    verdict: str  # unique | possibly_nonunique | inconclusive
    partial_sum: float
    partial_sum_half: float


def carleman_test(params: AlgebraParams, alpha: int, k_sum: int = 200) -> CarlemanResult:
    """Uniqueness classification of the moment problem.

    The log-test exponent of B(k)^(-1/2k) is -(lambda/2 - alpha); the
    series sum(B(k)^(-1/2k)) diverges (unique solution) for exponent
    > -1, converges (other solutions possible) for < -1, and the test is
    silent exactly at -1.  Partial sums over k <= k_sum corroborate.
    """
    lam = params.lam
    exponent = -(lam / 2.0 - alpha)
    if exponent > -1.0 + 1e-12:
        verdict = "unique"
    elif exponent < -1.0 - 1e-12:
        verdict = "possibly_nonunique"
    else:
        verdict = "inconclusive"
    if abs(exponent + 1.0) <= 1e-12:
        verdict = "inconclusive"
    problem = MomentProblem(params, 0, alpha)
    s_full = 0.0
    s_half = 0.0
    for k in range(1, k_sum + 1):
        term = math.exp(-problem.log_B(k) / (2.0 * k))
        s_full += term
        if k <= k_sum // 2:
            s_half += term
    return CarlemanResult(exponent, verdict, s_full, s_half)


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

    def h_moment(self, mu: int, n: float) -> float:
        """int t^n h_mu(t) dt = lam^(lam-1) prod(beta_bar) * M_mu((n - mu)/lam)."""
        p = self.params
        lam = p.lam
        pref = float(lam) ** (lam - 1)
        for nu in range(1, mu + 1):
            pref *= p.beta_bar_at(nu)
        val, _ = self.weights[mu].moment((n - mu) / lam)
        return pref * val

    def g_moment(self, mu: int, n: float) -> complex:
        lam = self.params.lam
        out = 0.0 + 0.0j
        for nu in range(lam):
            out += cmath.exp(2j * math.pi * mu * nu / lam) * self.h_moment(nu, n)
        return out / lam


def eigenstate_measures(params: AlgebraParams, tol: float = 1e-11) -> EigenstateMeasures:
    """Build h_mu / g_mu from the alpha = 0 sector weights (always certified)."""
    weights = [weight_function(params, mu, 0, tol=tol) for mu in range(params.lam)]
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
    measures: EigenstateMeasures | None = None,
) -> ResolutionReport:
    """Check <n| integral |n'> = delta_{nn'} for the requested resolution.

    Angular integrals are exact Kronecker deltas, so only the diagonal
    radial moments are computed; modes: diagonal_alpha0 (sector family),
    eigenstate_diag (the |z_mu> form), eigenstate_offdiag (the complex
    g_mu mixture of |z><z e^{2 pi i mu / lambda}|).
    """
    if n_max > 8:
        raise ValueError("n_max above 8 exceeds the supported range")
    lam = params.lam
    diag = []
    if mode == "diagonal_alpha0":
        # the alpha = 0 weight of sector mu resolves |k lam + mu> iff its k-th
        # moment is the target B(k)
        weights = (
            measures.weights
            if measures is not None
            else [weight_function(params, mu, 0) for mu in range(lam)]
        )
        for n in range(n_max + 1):
            k, mu = divmod(n, lam)
            weight = weights[mu]
            diag.append(weight.moment(float(k))[0] / moment_target(weight.problem, k))
    elif mode in ("eigenstate_diag", "eigenstate_offdiag"):
        # log D_n = L(n) - n log(lam), D_n = k! prod_(nu<=mu) (bb_nu)_(k+1) prod_(nu>mu) (bb_nu)_k
        log_d = -sum(log_weights(params, n_max)) - np.arange(n_max + 1) * math.log(lam)
        meas = measures if measures is not None else eigenstate_measures(params)
        for n in range(n_max + 1):
            if mode == "eigenstate_diag":
                mn = meas.h_moment(n % lam, float(n))
            else:
                acc = 0.0 + 0.0j
                for mu in range(lam):
                    acc += cmath.exp(-2j * math.pi * mu * n / lam) * meas.g_moment(mu, float(n))
                if abs(acc.imag) > 1e-8 * max(1.0, abs(acc.real)):
                    raise QuadratureFailure(
                        f"off-diagonal resolution produced imaginary part {acc.imag:.3e}", None
                    )
                mn = acc.real
            val = math.pi * lam * math.exp(-log_d[n]) * mn
            diag.append(val)
    else:
        raise ValueError(f"unknown resolution mode {mode!r}")
    errs = [abs(v - 1.0) for v in diag]
    return ResolutionReport(mode, tuple(diag), max(errs), tol)

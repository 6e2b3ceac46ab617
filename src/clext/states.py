"""Coherent-state families as truncated coefficient vectors.

Two families:

* |z; mu; alpha>, the normalizable solutions of
  (a^(lambda-alpha) - z adag^alpha) |psi> = 0 living in a single Fock
  sector F_mu, defined for 0 <= alpha <= lambda/2 and
  0 <= mu <= lambda - alpha - 1 (unit disc in y when alpha = lambda/2);

* |z>, the eigenstates of the annihilation operator itself, supported on
  the whole Fock space and reducing to paraboson coherent states at
  lambda = 2.

Coefficient magnitudes come in log form: the eigenstate's from
L(n) = log prod_{j<=n} F(j) (algebra.log_fock_norms), the same array behind
the Bargmann weights and the resolution diagonals; the sector states' from
the cumulative sum of the per-level log ratios (_log_ratios); the closed-form
observables take a compensated prefix sum of the same ratios and center each
row on its peak level (observables._peak_normalized).  Both
families are built by one routine (_build) from the levels mu + step k and
their log weights: each row's norm N is summed in log space relative to its
largest term, which makes the mass a truncation drops exact: tail_bound =
1 - sum(|c_n|^2) over the normalized coefficients.  Builders double dim (up
to 1024) until that bound is at most 1e-10 and raise TruncationTooSmall when
it never is.

The sector family's parameter lists (sector_lists) give its norm as a pFq,
N^(alpha)_mu(y) = pFq(num; den; y), and the moment problem of its weight
(measures.MomentProblem, measures.mellin_lists).

Both builders take one z or an array of them.  An array is built in one pass:
the level weights are shared, each row has its own norm, and all rows share
one dim, the first at which every row's tail bound is small enough.  A scalar
z is the length-1 case, returned with 1-D coefficients and float metadata.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraParams, log_fock_norms, structure_function
from .errors import DomainError, SectorError, TruncationTooSmall
from .specfun import pfq

TAIL_THRESHOLD = 1e-10
MAX_AUTO_DIM = 1024
LAST_WEIGHT = 1e-17


@dataclass(frozen=True)
class CsAlphaSpec:
    """Label (z, mu, alpha) of one member of the sector family.

    z may also be an array, one state per entry, for cs_alpha_state and the
    closed-form observables.
    """

    params: AlgebraParams
    mu: int
    alpha: int
    z: complex

    def __post_init__(self):
        _check_finite(self.z)
        lam = self.params.lam
        if not 0 <= self.alpha <= lam // 2:
            raise SectorError(f"alpha must lie in [0, {lam // 2}], got {self.alpha}")
        if not 0 <= self.mu <= lam - self.alpha - 1:
            raise SectorError(
                f"only the trivial solution exists for mu = {self.mu}, alpha = {self.alpha}"
            )
        if 2 * self.alpha == lam and np.max(self.y) >= 1.0:
            raise DomainError(
                f"alpha = lambda/2 states live on the unit disc; y = {np.max(self.y):.6g} >= 1"
            )

    @property
    def y(self) -> float:
        lam = self.params.lam
        return abs(self.z) ** 2 / lam ** (lam - 2 * self.alpha)


def _check_finite(z):
    if not np.all(np.isfinite(z)):
        raise DomainError(f"z must be finite, got {z}")


@dataclass(frozen=True)
class StateVector:
    """Complex coefficients over |0>..|dim-1> plus norm metadata.

    For normalized=True, coeffs are the physical amplitudes and
    norm_sq_analytic holds the norm N of the unnormalized "round bracket"
    state, which is sqrt(N) times this one.  tail_bound =
    max(0, 1 - sum|c_n|^2) is the probability mass lost to truncation.  A
    state built from an array z has coeffs of shape (rows, dim) and one
    norm_sq_analytic and tail_bound per row; braket and norm_sq take 1-D
    states.
    """

    dim: int
    coeffs: np.ndarray = field(repr=False)
    norm_sq_analytic: float
    tail_bound: float
    normalized: bool = True

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def braket(self, other: "StateVector") -> complex:
        n = min(self.dim, other.dim)
        return complex(np.vdot(self.coeffs[:n], other.coeffs[:n]))

    def norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


def sector_lists(params: AlgebraParams, mu: int, alpha: int) -> tuple[list[float], list[float]]:
    """Numerator/denominator lists (num, den) of the family (mu, alpha).

    num = (bb_{mu+1}, .., bb_{mu+alpha}) and den = (bb_1 + 1, .., bb_mu + 1,
    bb_{mu+alpha+1}, .., bb_{lambda-1}): the norm is N^(alpha)_mu(y) =
    pFq(num; den; y), and the moment targets are B(k) = k! prod Gamma(den + k)
    / prod Gamma(num + k) times A = prod Gamma(num) / (pi lambda^r prod Gamma(den)).
    """
    bb = params.beta_bar_at
    num = [bb(j) for j in range(mu + 1, mu + alpha + 1)]
    den = [bb(j) + 1.0 for j in range(1, mu + 1)]
    den += [bb(j) for j in range(mu + alpha + 1, params.lam)]
    return num, den


def norm_series_cs_alpha(params: AlgebraParams, mu: int, alpha: int, y: float):
    """N^(alpha)_mu as a pFq value at argument y."""
    num, den = sector_lists(params, mu, alpha)
    return pfq(num, den, y)


def _log_ratios(params: AlgebraParams, n: np.ndarray, alpha: int, width: int) -> np.ndarray:
    """log |c_{n+width} / (z c_n)|^2 = sum_{j<=alpha} log F(n+j) - sum_{alpha<j<=width}
    log F(n+j) for the levels n of a coherent state that steps by width.

    width = lambda at n = k lambda + mu is |z; mu; alpha> (from its defining
    equation); width = 1 with alpha = 0 is the eigenstate |z>.
    """
    log_f = np.log(structure_function(params, np.add.outer(n, np.arange(1, width + 1))))
    return log_f[:, :alpha].sum(axis=1) - log_f[:, alpha:].sum(axis=1)


def sector_log_weights(params: AlgebraParams, mu: int, alpha: int, k_max: int) -> np.ndarray:
    """log |c_k / z^k|^2 for k = 0..k_max of the unnormalized |z; mu; alpha>."""
    lam = params.lam
    steps = _log_ratios(params, np.arange(k_max) * lam + mu, alpha, lam)
    return np.concatenate(([0.0], np.cumsum(steps)))


def _amplitudes(z: np.ndarray, k: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """z^k exp(log_w / 2), one row per entry of z, with the power taken in
    log-magnitude form, log_w holding one row per entry of z."""
    # math.log and cmath.phase per entry give a row the digits of its scalar build
    log_r = np.array([math.log(abs(v)) if v != 0 else 0.0 for v in z])
    phase = np.array([cmath.phase(v) for v in z])
    with np.errstate(under="ignore"):
        amp = np.exp(0.5 * log_w + k * log_r[:, None] + 1j * k * phase[:, None])
    amp[z == 0] = k == 0
    return amp


def _build(params: AlgebraParams, z, dim: int, mu: int, step: int, log_weights,
           what: str) -> StateVector:
    """Normalized state with |c_k|^2 = |z|^(2k) w_k / N on the levels mu + step k,
    where log_weights(k_max) gives log w_k for k = 0..k_max; one row per entry
    of an array z.

    Each row's log N, N = sum_k |z|^(2k) w_k, is summed relative to its largest
    term over the k that reach below LAST_WEIGHT of it in every row, and the
    coefficients are exp((log w_k - log N) / 2) z^k: finite where N overflows
    (norm_sq_analytic = exp(log N) is inf only there).
    """
    if dim < params.lam:
        raise TruncationTooSmall(f"need dim >= lambda = {params.lam}")
    z_rows = np.atleast_1d(z)
    live = z_rows != 0
    log_norm = np.zeros(len(z_rows))
    if live.any():
        log_z2 = np.array([2.0 * math.log(abs(v)) for v in z_rows[live]])
        count = 64
        while True:
            log_w = np.arange(count) * log_z2[:, None] + log_weights(count - 1)
            top = log_w.max(axis=1)
            small = log_w[:, -1] - top < math.log(LAST_WEIGHT)
            if small.all():
                break
            if count >= 4 * max(dim, MAX_AUTO_DIM):
                z_big = abs(z_rows[live][np.argmin(small)])
                raise TruncationTooSmall(
                    f"{what} weights not small by level {mu + step * (count - 1)} "
                    f"at |z| = {z_big:g}")
            count *= 2
        sums = np.exp(log_w - top[:, None]).sum(axis=1)
        log_norm[live] = top + np.array([math.log(v) for v in sums])

    # dim doubles up to MAX_AUTO_DIM until every row's exact tail bound
    # 1 - sum|c|^2 is at most TAIL_THRESHOLD
    while True:
        k = np.arange((dim - 1 - mu) // step + 1)
        coeffs = np.zeros((len(z_rows), dim), dtype=complex)
        log_w = log_weights(len(k) - 1) - log_norm[:, None]
        coeffs[:, mu + step * k] = _amplitudes(z_rows, k, log_w)
        # np.vdot row by row: each sum has the digits of the row's scalar build
        tail = np.maximum(0.0, 1.0 - np.array([np.vdot(c, c).real for c in coeffs]))
        if tail.max() <= TAIL_THRESHOLD:
            break
        if dim >= MAX_AUTO_DIM:
            i = int(np.argmax(tail > TAIL_THRESHOLD))
            raise TruncationTooSmall(
                f"tail bound {tail[i]:.3e} above {TAIL_THRESHOLD} at |z| = {abs(z_rows[i]):g}, "
                f"dim = {dim}"
            )
        dim = min(2 * dim, MAX_AUTO_DIM)
    with np.errstate(over="ignore"):
        norm = np.exp(log_norm)
    if np.ndim(z) == 0:
        return StateVector(dim, coeffs[0], float(norm[0]), float(tail[0]))
    return StateVector(dim, coeffs, norm, tail)


def cs_alpha_state(spec: CsAlphaSpec, dim: int = 64) -> StateVector:
    """Coefficient vector of |z; mu; alpha> on |0>..|dim-1>, one row per entry
    of an array spec.z.

    dim doubles automatically (up to 1024) while any row's truncated norm mass
    exceeds the tail threshold; TruncationTooSmall if it never drops below.
    """
    p, mu, alpha = spec.params, spec.mu, spec.alpha
    return _build(p, spec.z, dim, mu, p.lam,
                  lambda k_max: sector_log_weights(p, mu, alpha, k_max), "sector state")


def eigenstate_norm_components(params: AlgebraParams, t: float) -> list[float]:
    """N^(0)_mu(|omega|) for mu = 0..lambda-1, as functions of t = |z|^2/lambda."""
    lam = params.lam
    out = []
    for mu in range(lam):
        num, den = sector_lists(params, mu, 0)
        out.append(pfq(num, den, t**lam).value.real)
    return out


def eigenstate_norm(params: AlgebraParams, t: float) -> float:
    """Normalization N(|z|) = sum_mu N^(0)_mu(t^lam) t^mu / prod beta_bar."""
    lam = params.lam
    comps = eigenstate_norm_components(params, t)
    total = 0.0
    pref = 1.0
    for mu in range(lam):
        if mu > 0:
            pref *= t / params.beta_bar_at(mu)
        total += comps[mu] * pref
    return total


def eigenstate(params: AlgebraParams, z, dim: int = 64) -> StateVector:
    """Eigenstate a|z> = z|z> as a normalized coefficient vector, one row per
    entry of an array z: w_n = exp(-L(n)) on every level n."""
    _check_finite(z)
    return _build(params, z, dim, 0, 1, lambda n_max: -log_fock_norms(params, n_max),
                  "eigenstate")


def component_zmu(params: AlgebraParams, z: complex, mu: int, dim: int = 64) -> StateVector:
    """Sector component |z_mu> = P_mu |z> (not renormalized).

    The components sum to the eigenstate and are mutually orthogonal;
    their squared norms are N^(0)_mu(t^lam) t^mu / (prod beta_bar * N).
    """
    lam = params.lam
    if not 0 <= mu < lam:
        raise SectorError(f"mu must lie in [0, {lam})")
    full = eigenstate(params, z, dim)
    coeffs = np.array(full.coeffs)
    coeffs[np.arange(full.dim) % lam != mu] = 0.0
    t = abs(z) ** 2 / lam
    comp = eigenstate_norm_components(params, t)[mu]
    pref = t**mu
    for nu in range(1, mu + 1):
        pref /= params.beta_bar_at(nu)
    norm_sq = comp * pref / full.norm_sq_analytic
    return StateVector(full.dim, coeffs, norm_sq, full.tail_bound, False)


def overlap_cs_alpha(s1: CsAlphaSpec, s2: CsAlphaSpec) -> complex:
    """<s1|s2> from the closed hypergeometric form."""
    if s1.params is not s2.params and s1.params != s2.params:
        raise DomainError("overlap requires identical algebra parameters")
    if s1.mu != s2.mu:
        return 0.0
    params = s1.params
    lam = params.lam
    mu = s1.mu
    num = sector_lists(params, mu, min(s1.alpha, s2.alpha))[0]
    den = sector_lists(params, mu, max(s1.alpha, s2.alpha))[1]
    w = s1.z.conjugate() * s2.z / lam ** (lam - s1.alpha - s2.alpha)
    n1 = norm_series_cs_alpha(params, mu, s1.alpha, s1.y).value.real
    n2 = norm_series_cs_alpha(params, mu, s2.alpha, s2.y).value.real
    return complex(pfq(num, den, w).value) / math.sqrt(n1 * n2)


def overlap_eigenstate(params: AlgebraParams, z1: complex, z2: complex) -> complex:
    """<z1|z2> from the closed form (complex pFq argument)."""
    lam = params.lam
    w = z1.conjugate() * z2 / lam
    total = 0.0 + 0.0j
    pref = 1.0 + 0.0j
    for mu in range(lam):
        if mu > 0:
            pref *= w / params.beta_bar_at(mu)
        num, den = sector_lists(params, mu, 0)
        total += complex(pfq(num, den, w**lam).value) * pref
    n1 = eigenstate_norm(params, abs(z1) ** 2 / lam)
    n2 = eigenstate_norm(params, abs(z2) ** 2 / lam)
    return total / math.sqrt(n1 * n2)

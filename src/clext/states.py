"""Coherent-state families as truncated coefficient vectors.

Two families:

* |z; mu; alpha>, the normalizable solutions of
  (a^(lambda-alpha) - z adag^alpha) |psi> = 0 living in a single Fock
  sector F_mu, defined for 0 <= alpha <= lambda/2 and
  0 <= mu <= lambda - alpha - 1 (unit disc in y when alpha = lambda/2);

* |z>, the eigenstates of the annihilation operator itself, supported on
  the whole Fock space and reducing to paraboson coherent states at
  lambda = 2.

Both families have Fock weights |c_k|^2 = |z|^(2k) w_k / N on the levels
mu + step k, and one Fock-weight core serves them.  log_weights is the one
log-weight primitive: log w_k as the compensated prefix sum (hi, lo) of the
per-level log ratios (_log_ratios, _prefix_sum); for the eigenstate it is
-L(k), L(n) = log prod_{j<=n} F(j), which the Bargmann basis weights and
the resolution diagonals read too.  The core (_fock_weights) doubles its
level count until the largest |z|'s last weight is below LAST_WEIGHT, takes
one prefix sum per count for every row, and centers each row on its peak
level (_peak_normalized), so nothing overflows at large |z|.  The
closed-form observables read its weights p_k; the builders (_build) take
c = sqrt(p_k) e^(i k arg z) on the levels below dim, which makes the mass a
truncation drops exact: tail_bound = 1 - sum(|c_n|^2).  Builders double dim
(up to 1024) until that bound is at most 1e-10 and raise TruncationTooSmall
when it never is.

The sector family's parameter lists (sector_lists) give its norm as a pFq,
N^(alpha)_mu(y) = pFq(num; den; y), and the moment problem of its weight
(measures.MomentProblem, measures.mellin_lists).

Both builders take one z or an array of them.  An array is built in one pass:
the level weights are shared, each row has its own norm, and all rows share
one dim, the first at which every row's tail bound is small enough.  A scalar
z is the length-1 case, returned with 1-D coefficients and float metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraParams, structure_function
from .errors import DomainError, NoConvergence, SectorError, TruncationTooSmall
from .specfun import pfq

TAIL_THRESHOLD = 1e-10
MAX_AUTO_DIM = 1024
LAST_WEIGHT = 1e-17
FIRST_LEVELS = 64
MAX_LEVELS = 2**16
WORK_ELEMENTS = 2**16
_SPLIT = 2.0**27 + 1.0  # Veltkamp splitter for doubles


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


def log_weights(params: AlgebraParams, k_max: int, sector: tuple[int, int] | None = None):
    """log |c_k / z^k|^2 for k = 0..k_max of the unnormalized state, as the
    compensated prefix sum (hi, lo) of its log ratios: sum(log_weights(..))
    is the value.  sector = (mu, alpha) selects |z; mu; alpha> on the levels
    k lambda + mu; None the eigenstate |z>, whose log weights are -L(k),
    L(n) = log prod_{j<=n} F(j)."""
    mu, alpha, width = (0, 0, 1) if sector is None else (*sector, params.lam)
    return _prefix_sum(_log_ratios(params, mu + width * np.arange(k_max), alpha, width))


def _row_blocks(rows: int, levels: int) -> list[slice]:
    """Row slices of at most WORK_ELEMENTS values; |z| <= 3 (every figure) is one block."""
    step = max(1, WORK_ELEMENTS // levels)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _peak_normalized(log_z2: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """Weights p (rows, K), normalized to sum 1, with log p_k = k L + R_k plus a
    constant per row, from L = log|z|^2 (rows, 1) and R = hi + lo (K,), and
    each row's log N, N = sum_k exp(k L + R_k).

    Each row is taken relative to its peak level P, the k that maximizes
    k L + R_k:

        log p_k - log p_P = (hi_k - hi_P) + (k - P) L_hi + (lo_k - lo_P) + (k - P) L_lo

    with L = L_hi + L_lo the Veltkamp split (Dekker 1971).  L_hi has 26 bits
    and k at most 17, so k L_hi and (k - P) L_hi are exact, hi_k - hi_P is
    exact (_prefix_sum), and near the peak the two cancel exactly: what is
    left is the small lo and L_lo terms and the rounding of log p itself.
    log N is the peak term P L + R_P plus the log of the peak-relative sum.
    A z = 0 row (L = -inf) is the exact vacuum: L is clamped to -1e300, so
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
    total = p.sum(axis=1)
    p /= total[:, None]
    return p, peak * L_hi + hi[peak] + (lo[peak] + peak * L_lo) + np.log(total)


def _fock_weights(params: AlgebraParams, z_abs, sector: tuple[int, int] | None = None,
                  levels: int = FIRST_LEVELS):
    """Fock levels n (K,), normalized weights p_n = |c_n|^2 / N (rows, K) and
    log N (rows,), one row per entry of z_abs.

    sector = (mu, alpha) selects |z; mu; alpha> on the levels n = k lambda + mu,
    None the eigenstate |z> on every level.  The level count doubles from
    levels until the last weight of the largest |z| (the largest last
    weight) is below LAST_WEIGHT, NoConvergence past MAX_LEVELS; then every
    row is built, in _row_blocks.  Each level count takes one prefix sum of
    the log ratios (log_weights), which every row shares, and judges the
    last weight from its hi part alone: k L + hi about its peak, less the
    log of its sum.
    """
    mu, width = (0, 1) if sector is None else (sector[0], params.lam)
    with np.errstate(divide="ignore"):
        log_z2 = 2.0 * np.log(np.atleast_1d(z_abs).astype(float))[:, None]
    top = max(float(log_z2.max()), -1e300)
    count = levels
    while True:
        hi, lo = log_weights(params, count - 1, sector)
        t = top * np.arange(count) + hi
        t -= t.max()
        with np.errstate(under="ignore"):
            last = t[-1] - math.log(np.exp(t).sum())
        if last < math.log(LAST_WEIGHT):
            p = np.empty((len(log_z2), count))
            log_norm = np.empty(len(log_z2))
            for rows in _row_blocks(len(log_z2), count):
                p[rows], log_norm[rows] = _peak_normalized(log_z2[rows], hi, lo)
            return mu + width * np.arange(count), p, log_norm
        if count >= MAX_LEVELS:
            raise NoConvergence(
                f"Fock weights still {math.exp(last):.3e} at level {mu + width * (count - 1)}")
        count = min(2 * count, MAX_LEVELS)


def _build(params: AlgebraParams, z, dim: int, sector: tuple[int, int] | None = None
           ) -> StateVector:
    """Normalized state with c = sqrt(p_k) e^{i k arg z} on the levels n_k < dim
    of _fock_weights, whose level count starts at the state's own; one row
    per entry of an array z.  The coefficients stay finite where N
    overflows (norm_sq_analytic = exp(log N) is inf only there).
    """
    if dim < params.lam:
        raise TruncationTooSmall(f"need dim >= lambda = {params.lam}")
    z_rows = np.atleast_1d(z)
    mu, width = (0, 1) if sector is None else (sector[0], params.lam)
    n, p, log_norm = _fock_weights(params, np.abs(z_rows), sector, (dim - 1 - mu) // width + 1)
    phase = np.angle(z_rows)[:, None]
    # dim doubles up to MAX_AUTO_DIM until every row's exact tail bound
    # 1 - sum|c|^2 is at most TAIL_THRESHOLD
    while True:
        k = np.arange(np.searchsorted(n, dim))
        coeffs = np.zeros((len(z_rows), dim), dtype=complex)
        coeffs[:, n[k]] = np.sqrt(p[:, k]) * np.exp(1j * k * phase)
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
    return _build(spec.params, spec.z, dim, (spec.mu, spec.alpha))


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
    return _build(params, z, dim)


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

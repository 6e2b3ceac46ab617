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
the resolution diagonals read too.  Both take one algebra or a stack of
algebras of one lambda (_param_stack), one row of log weights per
algebra.  The core (_fock_weights) takes one prefix sum per level count for
every grid row of every algebra, doubles the count until each algebra's
last weight at the largest |z| is below LAST_WEIGHT, cuts a first count
that already holds the weights to the levels they reach, and centers each
row on its peak level (_peak_normalized), so nothing overflows at large
|z|.  The closed-form observables read its weights p_k.  A build is two
steps: the core call at the build's level count (_build_levels), then the
coefficient step (_coefficients), c = sqrt(p_k) e^(i k arg z) on the levels
below dim, which makes the mass a truncation drops exact: tail_bound =
1 - sum(|c_n|^2).  It doubles dim (up to 1024) until that bound is at most
1e-10 and raises TruncationTooSmall when it never is.  An observable asked
for both its columns makes the core call once, and its oracle takes only
the coefficient step, on the closed column's weights.

The sector family's parameter lists (sector_lists) give its norm as a pFq,
N^(alpha)_mu(y) = pFq(num; den; y), and the moment problem of its weight
(measures.MomentProblem, measures.mellin_lists).  sector_lists takes one
member, checks its sector (check_sector) on every call and builds each
member's lists once, in one cache for the measures and the Bargmann
realizations.  The pFq forms of the norms and overlaps are test references
(tests/closed_forms.py).

One value names the family everywhere: sector = (mu, alpha) is
|z; mu; alpha>, None the eigenstate |z>, from the core up through the
builders (cs_alpha_state, eigenstate), the observables and the measures,
and one check (_check_state) refuses a state outside its family.  Both
builders take one z or an array of them.  An array is built in one pass:
the level weights are shared, each row has its own norm, and all rows
share one dim, the first at which every row's tail bound is small enough.
A scalar z is the length-1 case, returned with 1-D coefficients and float
metadata.  An array of members mu of one family alpha at one z is built
the same way: the members are a stack of the core, like a stack of
algebras, with one row of levels per member, and the build has one row
per member.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraParams, structure_function
from .errors import DomainError, NoConvergence, SectorError, ShapeError, TruncationTooSmall

TAIL_THRESHOLD = 1e-10
FIRST_DIM = 64  # the dim a build starts at unless its caller asks for another
MAX_AUTO_DIM = 1024
LAST_WEIGHT = 1e-17
_LOG_LAST_WEIGHT = math.log(LAST_WEIGHT)
FIRST_LEVELS = 64
MAX_LEVELS = 2**16
WORK_ELEMENTS = 2**16
_SPLIT = 2.0**27 + 1.0  # Veltkamp splitter for doubles


def check_sector(lam: int, sector: tuple) -> None:
    """Refuse a sector = (mu, alpha) outside the sector family: 0 <= alpha <=
    lambda // 2 and 0 <= mu <= lambda - alpha - 1, for one member mu or each of
    a nonempty array; mu and alpha are integers."""
    mu, alpha = sector
    if not isinstance(alpha, (int, np.integer)):
        raise SectorError(f"alpha must be an integer, got {alpha}")
    if not 0 <= alpha <= lam // 2:
        raise SectorError(f"alpha must lie in [0, {lam // 2}], got {alpha}")
    members = np.asarray(mu)
    if not members.size:
        raise SectorError(f"a family needs at least one member mu, got {mu}")
    if members.dtype.kind not in "iu":
        raise SectorError(f"mu must be an integer, got {mu}")
    for m in members.ravel().tolist():
        if not 0 <= m <= lam - alpha - 1:
            raise SectorError(f"only the trivial solution exists for mu = {m}, alpha = {alpha}")


def _param_stack(params) -> tuple[AlgebraParams, ...]:
    """params as a stack of algebras of one lambda: one AlgebraParams is the
    stack of one, a sequence of them a stack of P."""
    if isinstance(params, AlgebraParams):
        return (params,)
    stack = tuple(params)
    if len({p.lam for p in stack}) != 1:
        raise ShapeError("a stack of algebras needs at least one algebra, all of one lambda")
    return stack


def _check_state(params, z, sector: tuple | None = None) -> None:
    """Refuse a state outside its family (sector None is |z>): a non-finite z,
    a (mu, alpha) outside the family (check_sector; mu one member or an array
    of them), and at alpha = lambda/2 any y = |z|^2 >= 1, off the unit disc.
    params is one algebra or a stack (_param_stack)."""
    if not np.all(np.isfinite(z)):
        raise DomainError(f"z must be finite, got {z}")
    if sector is not None:
        lam = _param_stack(params)[0].lam
        check_sector(lam, sector)
        y = np.max(np.abs(z)) ** 2
        if 2 * sector[1] == lam and y >= 1.0:
            raise DomainError(f"alpha = lambda/2 states live on the unit disc; y = {y:.6g} >= 1")


@dataclass(frozen=True)
class StateVector:
    """Complex coefficients over |0>..|dim-1> plus norm metadata.

    For a built state, coeffs are the physical amplitudes and
    norm_sq_analytic holds the norm N of the unnormalized "round bracket"
    state, which is sqrt(N) times this one.  tail_bound =
    max(0, 1 - sum|c_n|^2) is the probability mass lost to truncation.  A
    state built from an array z has coeffs of shape (rows, dim) and one
    norm_sq_analytic and tail_bound per row.
    """

    dim: int
    coeffs: np.ndarray = field(repr=False)
    norm_sq_analytic: float
    tail_bound: float

    def __post_init__(self):
        self.coeffs.setflags(write=False)


def sector_lists(params: AlgebraParams, sector: tuple) -> tuple[tuple, tuple]:
    """Numerator/denominator lists (num, den) of the family sector = (mu, alpha),
    mu one member; a sector outside the family (check_sector) or an array of
    members is refused.

    num = (bb_{mu+1}, .., bb_{mu+alpha}) and den = (bb_1 + 1, .., bb_mu + 1,
    bb_{mu+alpha+1}, .., bb_{lambda-1}): the norm is N^(alpha)_mu(y) =
    pFq(num; den; y), and the moment targets are B(k) = k! prod Gamma(den + k)
    / prod Gamma(num + k) times A = prod Gamma(num) / (pi lambda^r prod Gamma(den)).
    """
    check_sector(params.lam, sector)
    mu, alpha = sector
    if np.asarray(mu).ndim:
        raise SectorError(f"sector_lists takes one member mu, got {mu}")
    return _cached_lists(params, (int(mu), alpha))


@functools.lru_cache(maxsize=256)
def _cached_lists(params: AlgebraParams, sector: tuple) -> tuple[tuple, tuple]:
    """sector_lists of a checked sector, built once per (params, sector)."""
    mu, alpha = sector
    bb = params.beta_bar_at
    num = tuple(bb(j) for j in range(mu + 1, mu + alpha + 1))
    den = tuple(bb(j) + 1.0 for j in range(1, mu + 1))
    den += tuple(bb(j) for j in range(mu + alpha + 1, params.lam))
    return num, den


def _log_ratios(params: AlgebraParams, n: np.ndarray, alpha: int, width: int) -> np.ndarray:
    """log |c_{n+width} / (z c_n)|^2 = sum_{j<=alpha} log F(n+j) - sum_{alpha<j<=width}
    log F(n+j) for the levels n of a coherent state that steps by width, one
    row per algebra of a stack.

    width = lambda at n = k lambda + mu is |z; mu; alpha> (from its defining
    equation); width = 1 with alpha = 0 is the eigenstate |z>.
    """
    log_f = np.log(structure_function(params, np.add.outer(n, np.arange(1, width + 1))))
    return log_f[..., :alpha].sum(axis=-1) - log_f[..., alpha:].sum(axis=-1)


def _running_sum(x: np.ndarray) -> np.ndarray:
    """0, x_0, x_0 + x_1, .. along the last axis."""
    run = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=run[..., 1:])
    return run


def _prefix_sum(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_k = sum_{j<k} ratios_j for k = 0..K along the last axis, as hi + lo.

    The running float sum is compensated by the running sum of each step's
    exact rounding error (TwoSum; Ogita, Rump & Oishi 2005), and hi is that
    sum rounded to a multiple of 2 ulp(max |R|) of its row, so hi_k - hi_j
    is exact for every pair of levels.
    """
    run = _running_sum(ratios)
    before, after = run[..., :-1], run[..., 1:]
    back = after - before
    err = (before - (after - back)) + (ratios - back)
    step = 2.0 * np.spacing(np.abs(run).max(axis=-1))
    hi = (np.round(run.T / step) * step).T  # transposed: one step per row broadcasts
    return hi, (run - hi) + _running_sum(err)


def log_weights(params: AlgebraParams, k_max: int, sector: tuple | None = None):
    """log |c_k / z^k|^2 for k = 0..k_max of the unnormalized state, as the
    compensated prefix sum (hi, lo) of its log ratios: sum(log_weights(..))
    is the value.  sector = (mu, alpha) selects |z; mu; alpha> on the levels
    k lambda + mu; None the eigenstate |z>, whose log weights are -L(k),
    L(n) = log prod_{j<=n} F(j).  A stack of P algebras (_param_stack)
    gives (P, k_max + 1) arrays, one row per algebra; so does an array of M
    members mu of family alpha, one row per member, each the ratios and the
    prefix sum of that member's own.  One call takes one of the two stacks."""
    mu, alpha, width = (0, 0, 1) if sector is None else (*sector, _param_stack(params)[0].lam)
    if not isinstance(params, AlgebraParams) and np.ndim(mu):
        raise ShapeError("an array of members takes one algebra, not a stack")
    levels = np.add.outer(mu, width * np.arange(k_max))
    return _prefix_sum(_log_ratios(params, levels, alpha, width))


def _row_blocks(rows: int, levels: int) -> list[slice]:
    """Row slices of at most WORK_ELEMENTS values; |z| <= 3 (every figure) is one block."""
    step = max(1, WORK_ELEMENTS // levels)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _peak_normalized(log_z2: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """Weights p (rows, K), normalized to sum 1, with log p_k = k L + R_k plus a
    constant per row, from L = log|z|^2 (rows, 1) and R = hi + lo, one prefix
    sum (K,) for every row or one per row (rows, K), and each row's log N,
    N = sum_k exp(k L + R_k).

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
    k = np.arange(hi.shape[-1], dtype=float)
    exact = np.multiply.outer(L_hi, k)
    peak = np.argmax(exact + hi, axis=1)
    exact -= (peak * L_hi)[:, None]
    at = peak if hi.ndim == 1 else (np.arange(len(peak)), peak)
    hi_peak, lo_peak = hi[at], lo[at]
    log_p = hi - hi_peak[:, None]
    log_p += exact
    L_lo = L - L_hi
    rest = lo - (lo_peak + peak * L_lo)[:, None]
    rest += np.multiply.outer(L_lo, k)
    log_p += rest
    with np.errstate(under="ignore"):
        p = np.exp(log_p, out=log_p)
    total = p.sum(axis=1)
    p /= total[:, None]
    return p, peak * L_hi + hi_peak + (lo_peak + peak * L_lo) + np.log(total)


def _fock_weights(params: AlgebraParams, z_abs, sector: tuple | None = None,
                  levels: int = 1):
    """Fock levels n (K,), normalized weights p_n = |c_n|^2 / N (rows, K) and
    log N (rows,), one row per entry of z_abs; for a stack of P algebras of
    one lambda (_param_stack), (P, rows, K) and (P, rows).

    sector = (mu, alpha) selects |z; mu; alpha> on the levels n = k lambda + mu,
    None the eigenstate |z> on every level.  An array of M members mu of
    family alpha stacks like the algebras (log_weights): (M, rows, K) weights,
    (M, rows) log N and one row of levels per member, n of shape (M, K).

    The level count starts at FIRST_LEVELS, or at levels if that is more, and
    doubles until every row's (algebra's or member's) last weight at the
    largest |z| (its largest last weight) is below LAST_WEIGHT, NoConvergence
    past MAX_LEVELS.  Each count takes one prefix sum of the log ratios
    (log_weights), one row per algebra or member, which every grid row
    shares, and judges the weights from its hi part alone: k L + hi about its
    peak, less the log of its sum.  When the first count holds the weights
    and is more than levels, it is cut to one past the last level where any
    of those weights is at least LAST_WEIGHT, but never below levels.  The
    cut holds for every row: past the mean level <k>, d log p_k / d log|z|^2
    = k - <k> > 0, so no smaller |z| has more weight there.  A count the loop
    doubled to is kept whole (a cut would save less than half of it), and so
    is one levels asks for: a state builder whose dim doubles reads every
    level it had before the cut.  Then the rows of every algebra or member,
    one after another, are built at once, in _row_blocks.
    """
    lam = _param_stack(params)[0].lam
    mu, width = (0, 1) if sector is None else (sector[0], lam)
    with np.errstate(divide="ignore"):
        log_z2 = 2.0 * np.log(np.atleast_1d(z_abs).astype(float))[:, None]
    top = max(float(log_z2.max()), -1e300)
    count = start = max(levels, FIRST_LEVELS)
    while True:
        hi, lo = log_weights(params, count - 1, sector)
        t = top * np.arange(count) + hi
        t -= t.max(axis=-1, keepdims=True)
        with np.errstate(under="ignore"):
            t -= np.log(np.exp(t).sum(axis=-1, keepdims=True))
        if t.ndim == 2:
            t = t.max(axis=0)  # each level's largest log weight
        if t[-1] < _LOG_LAST_WEIGHT:
            break
        if count >= MAX_LEVELS:
            raise NoConvergence(
                f"Fock weights still {math.exp(t[-1]):.3e} at level "
                f"{np.max(mu) + width * (count - 1)}")
        count = min(2 * count, MAX_LEVELS)
    if count == start > levels:
        count = max(levels, count + 1 - int(np.argmax(t[::-1] >= _LOG_LAST_WEIGHT)))
        hi, lo = hi[..., :count], lo[..., :count]
    rows = len(log_z2)
    if hi.ndim == 2:  # each grid row once per algebra or member, with its own sums
        of = np.repeat(np.arange(len(hi)), rows)
        log_z2 = np.tile(log_z2, (len(hi), 1))
    p = np.empty((len(log_z2), count))
    log_norm = np.empty(len(log_z2))
    for block in _row_blocks(len(log_z2), count):
        sums = (hi, lo) if hi.ndim == 1 else (hi[of[block]], lo[of[block]])
        p[block], log_norm[block] = _peak_normalized(log_z2[block], *sums)
    if hi.ndim == 2:
        p, log_norm = p.reshape(len(hi), rows, count), log_norm.reshape(len(hi), rows)
    return np.add.outer(mu, width * np.arange(count)), p, log_norm


def _build_levels(params: AlgebraParams, dim: int, sector: tuple | None = None) -> int:
    """The core's level count for a build that starts at dim: the state's own
    (of an array of members, the lowest member's), but no fewer than
    FIRST_LEVELS, so the core keeps its whole count, the levels a doubled dim
    reads.  TruncationTooSmall below dim = lambda."""
    if dim < params.lam:
        raise TruncationTooSmall(f"need dim >= lambda = {params.lam}")
    mu, width = (0, 1) if sector is None else (sector[0], params.lam)
    return max(int(dim - 1 - np.min(mu)) // width + 1, FIRST_LEVELS)


def _coefficients(z: np.ndarray, n: np.ndarray, p: np.ndarray, log_norm: np.ndarray,
                  dim: int) -> StateVector:
    """Normalized states c = sqrt(p_k) e^{i k arg z} on the levels n_k < dim
    of the core's weights (n, p, log_norm) at _build_levels(dim), one row per
    entry of the array z; n is one row of levels for every state, or one row
    per state.  dim doubles up to MAX_AUTO_DIM until every row's exact tail
    bound 1 - sum|c|^2 is at most TAIL_THRESHOLD.  The coefficients stay
    finite where N overflows (norm_sq_analytic = exp(log N) is inf only
    there).
    """
    phase = np.angle(z)[:, None]
    rows = np.arange(len(z))[:, None]
    # each level index's lowest and highest level over the rows
    lowest, highest = (n, n) if n.ndim == 1 else (n.min(axis=0), n.max(axis=0))
    while True:
        # the level indices below dim in some row; the levels a row has past
        # dim land in the columns the slice to dim drops
        k = np.arange(np.searchsorted(lowest, dim))
        coeffs = np.zeros((len(z), max(dim, highest[len(k) - 1] + 1)), dtype=complex)
        coeffs[rows, n[..., k]] = np.sqrt(p[:, k]) * np.exp(1j * k * phase)
        coeffs = coeffs[:, :dim]
        # np.vdot row by row: each sum has the digits of the row's scalar build
        tail = np.maximum(0.0, 1.0 - np.array([np.vdot(c, c).real for c in coeffs]))
        if tail.max() <= TAIL_THRESHOLD:
            break
        if dim >= MAX_AUTO_DIM:
            i = int(np.argmax(tail > TAIL_THRESHOLD))
            raise TruncationTooSmall(
                f"tail bound {tail[i]:.3e} above {TAIL_THRESHOLD} at |z| = {abs(z[i]):g}, "
                f"dim = {dim}"
            )
        dim = min(2 * dim, MAX_AUTO_DIM)
    with np.errstate(over="ignore"):
        norm = np.exp(log_norm)
    return StateVector(dim, coeffs, norm, tail)


def _build(params: AlgebraParams, z, dim: int, sector: tuple | None = None) -> StateVector:
    """The state of z, one row per entry of an array z: the core's weights at
    the build's level count (_build_levels), then their coefficients.  For an
    array of members (sector = (mus, alpha)) the rows run over the members,
    then over z: one row per member at a scalar z.  The state is checked
    first (_check_state)."""
    _check_state(params, z, sector)
    z_rows = np.atleast_1d(z)
    n, p, log_norm = _fock_weights(params, np.abs(z_rows), sector,
                                   _build_levels(params, dim, sector))
    if n.ndim == 2:  # each member's levels for each of its rows
        n, z_rows = np.repeat(n, len(z_rows), axis=0), np.tile(z_rows, len(n))
        p, log_norm = p.reshape(len(n), -1), log_norm.reshape(-1)
    st = _coefficients(z_rows, n, p, log_norm, dim)
    if np.ndim(z) == 0 and n.ndim == 1:
        return StateVector(st.dim, st.coeffs[0], float(st.norm_sq_analytic[0]),
                           float(st.tail_bound[0]))
    return st


def cs_alpha_state(params: AlgebraParams, z, sector: tuple, dim: int = FIRST_DIM) -> StateVector:
    """Coefficient vector of |z; mu; alpha>, sector = (mu, alpha), on
    |0>..|dim-1>, one row per entry of an array z, or one row per member of
    an array of members mu of family alpha at one z: (np.arange(lambda -
    alpha), alpha) is the whole family, one core call and one dim for all.

    dim doubles automatically (up to 1024) while any row's truncated norm mass
    exceeds the tail threshold; TruncationTooSmall if it never drops below.
    """
    return _build(params, z, dim, sector)


def eigenstate(params: AlgebraParams, z, dim: int = FIRST_DIM) -> StateVector:
    """Eigenstate a|z> = z|z> as a normalized coefficient vector, one row per
    entry of an array z: w_n = exp(-L(n)) on every level n."""
    return _build(params, z, dim)

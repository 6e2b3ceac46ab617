"""Tanh-sinh (double-exponential) quadrature.

One integrator serves the whole package: weight-function moments,
resolution-of-unity checks and Bargmann inner products all go through
here.  Endpoint power singularities y**p (p > -1) are generic in the
weight functions, which is what tanh-sinh is built for.

Nodes are generated as exact offsets from the nearest endpoint.
Integrands with endpoint singularities must be evaluated in terms of
those offsets (computing b - x and then 1 - x inside the integrand
destroys the digits tanh-sinh is supposed to win), so every entry point
can pass the offset arrays to the integrand alongside the abscissas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

_HALF_PI = math.pi / 2.0

# Hard cap from the design budget: 2**15 nodes per integral.
MAX_NODES = 1 << 15


def _rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh endpoint offsets/weights on (-1, 1) at step h = 2**-level.

    Returns (delta, w): the abscissa is +-(1 - delta); only t >= 0 is
    tabulated and symmetry supplies the other half.  delta is exact down
    to the underflow threshold.
    """
    h = 2.0 ** (-level)
    t = np.arange(0.0, 6.7, h)
    s = np.sinh(t)
    c = np.cosh(t)
    u = _HALF_PI * s
    # 1 - tanh(u) = 2 exp(-2u) / (1 + exp(-2u)), stable for large u
    e = np.exp(-2.0 * u)
    delta = 2.0 * e / (1.0 + e)
    sech2 = 4.0 * e / (1.0 + e) ** 2
    w = _HALF_PI * c * sech2 * h
    keep = delta > 0.0
    return delta[keep], w[keep]


_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _cached_rule(level: int):
    if level not in _RULES:
        _RULES[level] = _rule(level)
    return _RULES[level]


# Integrand points per call of f: a level's rows (and, past this size,
# its nodes) are evaluated in blocks, so memory does not grow with the batch.
_BATCH_POINTS = 1 << 13

# ln of the smallest positive double.  Offsets are exact down to underflow,
# so no node of any rule lies closer to an endpoint than e^LOG_MIN_OFFSET;
# an integrand (1 - x)^(s-1) keeps a share e^(LOG_MIN_OFFSET s) of its
# mass beyond every node.
LOG_MIN_OFFSET = math.log(np.nextafter(0.0, 1.0))


@dataclass
class QuadResult:
    value: np.ndarray  # one entry per row
    abs_error: np.ndarray
    nodes: int  # integrand points evaluated, all rows and levels


def _level_nodes(a, b, level: int, new_only: bool = False):
    """(x, dl, dr, w) for one tanh-sinh level on (a, b).

    a and b are scalars or (rows, 1) columns.  dl = x - a and dr = b - x
    are exact: near each endpoint they are half * delta by construction,
    never a subtraction of close floats.  new_only keeps the nodes that
    the level before lacks (odd multiples of the step).
    """
    half = 0.5 * (b - a)
    delta, w = _cached_rule(level)
    # the right half skips the shared midpoint t = 0, which new_only drops
    right = slice(None) if new_only else slice(1, None)
    if new_only:
        delta, w = delta[1::2], w[1::2]
    d = half * delta
    span = b - a
    # left half: x = a + d; right half: x = b - d
    dl = np.concatenate([d, span - d[..., right]], axis=-1)
    dr = np.concatenate([span - d, d[..., right]], axis=-1)
    x = np.concatenate([a + d, b - d[..., right]], axis=-1)
    ww = np.concatenate([w, w[right]]) * half
    return x, dl, dr, ww


def tanh_sinh(
    f: Callable,
    a,
    b,
    tol: float = 1e-9,
    with_offsets: bool = False,
    params: tuple = (),
) -> QuadResult:
    """Integrate a vectorized callable over a batch of finite intervals.

    a, b and each per-row array in params broadcast to one row per
    integral.  f receives the (rows, nodes) abscissas of the rows still
    running (plus the exact endpoint offsets when with_offsets is set),
    then each params array sliced to those rows as a (rows, 1) column,
    and returns an array of the abscissas' shape; non-finite values are
    treated as zero (they only occur in underflow tails).  Each row stops
    at the first level that agrees with the one before to tol; a row that
    reaches the node cap unconverged reports the last two levels'
    difference as its abs_error.
    """
    a, b, *params = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, *params))
    )
    value = np.zeros(a.shape)
    err = np.full(a.shape, math.inf)
    active = np.arange(a.size)
    prev = None
    nodes_used = 0
    for level in itertools.count(3):
        # levels past the first add their odd nodes to half the last sum
        refine = prev is not None
        delta = _cached_rule(level)[0]
        n = 2 * len(delta) - 1
        n_eval = 2 * len(delta[1::2]) if refine else n
        rows_per = max(1, _BATCH_POINTS // n_eval)
        cols_per = _BATCH_POINTS // rows_per
        cur = 0.5 * prev if refine else np.zeros(active.size)
        for r0 in range(0, active.size, rows_per):
            idx = active[r0:r0 + rows_per]
            col = [p[idx, None] for p in params]
            x, dl, dr, w = _level_nodes(a[idx, None], b[idx, None], level, refine)
            for c in range(0, n_eval, cols_per):
                cs = np.s_[:, c:c + cols_per]
                args = (x[cs], dl[cs], dr[cs]) if with_offsets else (x[cs],)
                vals = np.asarray(f(*args, *col), dtype=float)
                vals = np.where(np.isfinite(vals), vals, 0.0)
                cur[r0:r0 + rows_per] += (w[cs] * vals).sum(axis=1)
        nodes_used += n_eval * active.size
        value[active] = cur
        done = np.zeros(active.size, dtype=bool)
        if refine:
            # the last two levels' difference, also when the row gives up
            diff = np.abs(cur - prev)
            err[active] = diff
            done = (diff <= tol * np.maximum(1e-300, np.abs(cur))) | (diff <= tol * tol)
        active, prev = active[~done], cur[~done]
        if active.size == 0 or n > MAX_NODES:
            break
    bad = ~np.isfinite(value)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureFailure("tanh-sinh produced a non-finite value", (a[i], b[i]))
    return QuadResult(value, err, nodes_used)


@dataclass
class FixedGrid:
    """Frozen tanh-sinh node set for reusing one integrand over many moments.

    y are the abscissas, w the weights (interval Jacobians included), and
    one_minus_y the exact distance to the right endpoint (inf for nodes
    on the unbounded tail).  A one-level-coarser shadow supplies error
    estimates; its nodes are y[coarse], with weights w_coarse.
    """

    y: np.ndarray
    w: np.ndarray
    one_minus_y: np.ndarray
    coarse: np.ndarray
    w_coarse: np.ndarray


def _coarse_index(level: int) -> np.ndarray:
    """Positions of the level - 1 nodes (the even j of t = j h) among
    _level_nodes(.., level), which lists j >= 0 and then j >= 1 again."""
    n = len(_cached_rule(level)[0])
    even = np.arange(0, n, 2)
    return np.concatenate([even, n - 1 + even[1:]])


def fixed_grid_unit(level: int = 8) -> FixedGrid:
    """Tanh-sinh grid on (0, 1) plus a one-level-coarser shadow."""
    y, _, dr, w = _level_nodes(0.0, 1.0, level)
    coarse = _coarse_index(level)
    return FixedGrid(y, w, dr, coarse, 2.0 * w[coarse])


def fixed_grid_zero_inf(level: int = 8, v_max: float = 48.0) -> FixedGrid:
    """Frozen node set for (0, inf): unit interval plus exp-substituted tail."""
    y1, _, dr1, w1 = _level_nodes(0.0, 1.0, level)
    v, _, _, wv = _level_nodes(0.0, v_max, level)
    y = np.concatenate([y1, np.exp(v)])
    w = np.concatenate([w1, wv * np.exp(v)])
    dr = np.concatenate([dr1, np.full(v.shape, np.inf)])
    half = _coarse_index(level)
    coarse = np.concatenate([half, y1.size + half])
    return FixedGrid(y, w, dr, coarse, 2.0 * w[coarse])

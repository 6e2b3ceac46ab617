"""Frozen tanh-sinh (double-exponential) grids.

A weight's moments integrate y^k h(y) on one cached node set: the unit
interval for r = 0 weights and the unit interval plus an exp-substituted
tail for r > 0, each with a one-level-coarser shadow for the error
estimate.  Endpoint power singularities y**p (p > -1) are generic in the
weight functions, which is what tanh-sinh is built for.

Nodes are generated as exact offsets from the nearest endpoint.
Integrands with endpoint singularities must be evaluated in terms of
those offsets (computing 1 - y inside the integrand destroys the digits
tanh-sinh is supposed to win), so every grid carries the exact distance
to its right endpoint alongside the abscissas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_HALF_PI = math.pi / 2.0


@functools.cache
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


def _level_nodes(a: float, b: float, level: int):
    """(x, dr, w) for one tanh-sinh level on (a, b).

    dr = b - x is exact near the right endpoint: there it is half * delta
    by construction, never a subtraction of close floats.
    """
    half = 0.5 * (b - a)
    delta, w = _rule(level)
    d = half * delta
    span = b - a
    # left half: x = a + d; right half: x = b - d, skipping the shared midpoint
    dr = np.concatenate([span - d, d[1:]])
    x = np.concatenate([a + d, b - d[1:]])
    ww = np.concatenate([w, w[1:]]) * half
    return x, dr, ww


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
    n = len(_rule(level)[0])
    even = np.arange(0, n, 2)
    return np.concatenate([even, n - 1 + even[1:]])


def fixed_grid_unit(level: int = 8) -> FixedGrid:
    """Tanh-sinh grid on (0, 1) plus a one-level-coarser shadow."""
    y, dr, w = _level_nodes(0.0, 1.0, level)
    coarse = _coarse_index(level)
    return FixedGrid(y, w, dr, coarse, 2.0 * w[coarse])


def fixed_grid_zero_inf(level: int = 8, v_max: float = 48.0) -> FixedGrid:
    """Frozen node set for (0, inf): unit interval plus exp-substituted tail."""
    y1, dr1, w1 = _level_nodes(0.0, 1.0, level)
    v, _, wv = _level_nodes(0.0, v_max, level)
    y = np.concatenate([y1, np.exp(v)])
    w = np.concatenate([w1, wv * np.exp(v)])
    dr = np.concatenate([dr1, np.full(v.shape, np.inf)])
    half = _coarse_index(level)
    coarse = np.concatenate([half, y1.size + half])
    return FixedGrid(y, w, dr, coarse, 2.0 * w[coarse])

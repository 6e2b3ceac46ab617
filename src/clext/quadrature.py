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


@dataclass
class QuadResult:
    value: float
    abs_error: float
    nodes: int


def _level_nodes(a: float, b: float, level: int):
    """(x, dl, dr, w) for one tanh-sinh level on (a, b).

    dl = x - a and dr = b - x are exact: near each endpoint they are
    half * delta by construction, never a subtraction of close floats.
    """
    half = 0.5 * (b - a)
    delta, w = _cached_rule(level)
    d = half * delta
    span = b - a
    # left half: x = a + d; right half: x = b - d (skip duplicate midpoint)
    dl = np.concatenate([d, span - d[1:]])
    dr = np.concatenate([span - d, d[1:]])
    x = np.concatenate([a + d, b - d[1:]])
    ww = np.concatenate([w, w[1:]]) * half
    return x, dl, dr, ww


def tanh_sinh(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-9,
    max_level: int = 12,
    with_offsets: bool = False,
) -> QuadResult:
    """Integrate a vectorized callable over the finite interval (a, b).

    f receives an array of abscissas strictly inside (a, b) (plus the
    exact endpoint offsets when with_offsets is set) and returns an array
    of the same shape; non-finite values are treated as zero (they only
    occur in underflow tails).
    """
    prev = None
    value = 0.0
    err = math.inf
    nodes_used = 0
    for level in range(3, max_level + 1):
        x, dl, dr, w = _level_nodes(a, b, level)
        vals = np.asarray(f(x, dl, dr) if with_offsets else f(x), dtype=float)
        vals = np.where(np.isfinite(vals), vals, 0.0)
        value = float(np.dot(w, vals))
        nodes_used = len(x)
        if prev is not None:
            # the last two levels' difference, also when the loop gives up
            err = abs(value - prev)
            if err <= tol * max(1e-300, abs(value)) or err <= tol * tol:
                return QuadResult(value, err, nodes_used)
        prev = value
        if nodes_used > MAX_NODES:
            break
    if not math.isfinite(value):
        raise QuadratureFailure("tanh-sinh produced a non-finite value", (a, b))
    return QuadResult(value, err, nodes_used)


@dataclass
class FixedGrid:
    """Frozen tanh-sinh node set for reusing one integrand over many moments.

    y are the abscissas, w the weights (interval Jacobians included), and
    one_minus_y the exact distance to the right endpoint (inf for nodes
    on the unbounded tail).  A coarser shadow grid supplies error
    estimates.
    """

    y: np.ndarray
    w: np.ndarray
    one_minus_y: np.ndarray
    y_coarse: np.ndarray
    w_coarse: np.ndarray
    one_minus_y_coarse: np.ndarray


def _grid_unit(level: int):
    x, dl, dr, w = _level_nodes(0.0, 1.0, level)
    return x, w, dr


def fixed_grid_unit(level: int = 8) -> FixedGrid:
    """Tanh-sinh grid on (0, 1) plus a one-level-coarser shadow."""
    y, w, dr = _grid_unit(level)
    yc, wc, drc = _grid_unit(level - 1)
    return FixedGrid(y, w, dr, yc, wc, drc)


def fixed_grid_zero_inf(level: int = 8, v_max: float = 48.0) -> FixedGrid:
    """Frozen node set for (0, inf): unit interval plus exp-substituted tail."""

    def build(lv):
        y1, w1, dr1 = _grid_unit(lv)
        v, _, _, wv = _level_nodes(0.0, v_max, lv)
        y = np.concatenate([y1, np.exp(v)])
        w = np.concatenate([w1, wv * np.exp(v)])
        dr = np.concatenate([dr1, np.full(v.shape, np.inf)])
        return y, w, dr

    y, w, dr = build(level)
    yc, wc, drc = build(level - 1)
    return FixedGrid(y, w, dr, yc, wc, drc)

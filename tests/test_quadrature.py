import math

import numpy as np
import pytest

from clext.quadrature import (
    _level_nodes,
    fixed_grid_unit,
    fixed_grid_zero_inf,
)


def test_polynomials_exact():
    g = fixed_grid_unit(level=8)
    assert float(g.w @ np.ones_like(g.y)) == pytest.approx(1.0, abs=1e-14)
    assert float(g.w @ g.y**3) == pytest.approx(0.25, rel=1e-13)


def test_beta_integral_with_singular_endpoints():
    # B(1/3, 1/3): integrand blows up at both ends; offsets keep full accuracy
    g = fixed_grid_unit(level=8)
    exact = math.gamma(1 / 3) ** 2 / math.gamma(2 / 3)
    value = float(g.w @ (g.y ** (-2.0 / 3.0) * g.one_minus_y ** (-2.0 / 3.0)))
    assert value == pytest.approx(exact, rel=1e-13)


def test_steep_beta_exponent():
    # exponent -0.9: hopeless without endpoint offsets
    g = fixed_grid_unit(level=8)
    exact = math.gamma(0.1) ** 2 / math.gamma(0.2)
    value = float(g.w @ (g.y ** (-0.9) * g.one_minus_y ** (-0.9)))
    assert value == pytest.approx(exact, rel=1e-12)


def test_zero_inf_gamma():
    # the frozen (0, inf) grid the weight moments use, at an endpoint singularity too
    g = fixed_grid_zero_inf(level=8, v_max=10.0)
    for s in (0.5, 2.0, 5.5):
        vals = g.y ** (s - 1.0) * np.exp(-g.y)
        assert float(g.w @ vals) == pytest.approx(math.gamma(s), rel=1e-10)


def test_non_convergence_reports_last_level_difference():
    # interior singularity at 0.3: no tanh-sinh level resolves it; the
    # error estimate of a frozen grid is the difference from its coarser
    # shadow level, not 0, and it covers the true error
    exact = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
    g = fixed_grid_unit(level=8)
    f = 1.0 / np.sqrt(np.abs(g.y - 0.3))
    fine, coarse = float(g.w @ f), float(g.w_coarse @ f[g.coarse])
    assert abs(fine - coarse) > 1e-4
    assert abs(fine - exact) <= 2.0 * abs(fine - coarse)


def test_fixed_grids_integrate_gamma():
    g = fixed_grid_zero_inf(level=8, v_max=10.0)
    vals = g.y**1.5 * np.exp(-g.y)
    assert float(g.w @ vals) == pytest.approx(math.gamma(2.5), rel=1e-11)
    gu = fixed_grid_unit(level=8)
    vals = gu.y**0.5 * gu.one_minus_y ** (-0.5)
    got = float(gu.w @ vals)
    assert got == pytest.approx(math.gamma(1.5) * math.gamma(0.5) / math.gamma(2.0), rel=1e-12)


@pytest.mark.parametrize("level", [5, 6, 7, 8])
@pytest.mark.parametrize("v_max", [None, 12.0, 48.0])
def test_shadow_is_the_coarser_level(level, v_max):
    # the shadow index picks the nodes, offsets and halved weights of a
    # level - 1 build; weights below 1e-280 come from subnormal rule
    # weights, where doubling and the coarser rule round differently
    y, dr, w = _level_nodes(0.0, 1.0, level - 1)
    if v_max is None:
        g = fixed_grid_unit(level)
    else:
        g = fixed_grid_zero_inf(level, v_max)
        v, _, wv = _level_nodes(0.0, v_max, level - 1)
        y = np.concatenate([y, np.exp(v)])
        w = np.concatenate([w, wv * np.exp(v)])
        dr = np.concatenate([dr, np.full(v.shape, np.inf)])
    assert np.array_equal(g.y[g.coarse], y)
    assert np.array_equal(g.one_minus_y[g.coarse], dr)
    normal = w > 1e-280
    assert np.array_equal(g.w[g.coarse][normal], 0.5 * w[normal])
    assert np.array_equal(g.w_coarse[normal], w[normal])
    assert np.all(np.abs(g.w_coarse - w)[~normal] <= 1e-280)


def test_offsets_are_exact_near_endpoints():
    g = fixed_grid_unit(level=6)
    # one_minus_y must reach far below double-rounding of 1 - y
    assert g.one_minus_y.min() < 1e-200
    assert np.all(g.one_minus_y > 0)

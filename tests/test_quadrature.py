import math

import numpy as np
import pytest

from clext.quadrature import (
    _level_nodes,
    fixed_grid_unit,
    fixed_grid_zero_inf,
    tanh_sinh,
)


def test_polynomials_exact():
    assert tanh_sinh(lambda x: np.ones_like(x), 0, 1, tol=1e-13).value == pytest.approx(1.0, abs=1e-14)
    assert tanh_sinh(lambda x: x**3, 0, 2, tol=1e-13).value == pytest.approx(4.0, rel=1e-13)


def test_beta_integral_with_singular_endpoints():
    # B(1/3, 1/3): integrand blows up at both ends; offsets keep full accuracy
    def f(x, dl, dr):
        return dl ** (-2.0 / 3.0) * dr ** (-2.0 / 3.0)

    exact = math.gamma(1 / 3) ** 2 / math.gamma(2 / 3)
    r = tanh_sinh(f, 0.0, 1.0, tol=1e-12, with_offsets=True)
    assert r.value == pytest.approx(exact, rel=1e-13)


def test_steep_beta_exponent():
    # exponent -0.9: hopeless without endpoint offsets
    def f(x, dl, dr):
        return dl ** (-0.9) * dr ** (-0.9)

    exact = math.gamma(0.1) ** 2 / math.gamma(0.2)
    r = tanh_sinh(f, 0.0, 1.0, tol=1e-12, with_offsets=True)
    assert r.value == pytest.approx(exact, rel=1e-12)


def test_zero_inf_gamma():
    # the frozen (0, inf) grid the weight moments use, at an endpoint singularity too
    g = fixed_grid_zero_inf(level=8, v_max=10.0)
    for s in (0.5, 2.0, 5.5):
        vals = g.y ** (s - 1.0) * np.exp(-g.y)
        assert float(g.w @ vals) == pytest.approx(math.gamma(s), rel=1e-10)


def test_non_convergence_reports_last_level_difference():
    # interior singularity at 0.3: tanh-sinh gives up at its node cap; the
    # error estimate is the difference of the last two levels, not 0
    exact = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
    r = tanh_sinh(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), 0.0, 1.0)
    assert r.value == pytest.approx(2.75698, abs=1e-5)
    assert r.abs_error == pytest.approx(8.70e-3, rel=1e-3)
    assert abs(r.value - exact) <= 2.0 * r.abs_error


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
    y, _, dr, w = _level_nodes(0.0, 1.0, level - 1)
    if v_max is None:
        g = fixed_grid_unit(level)
    else:
        g = fixed_grid_zero_inf(level, v_max)
        v, _, _, wv = _level_nodes(0.0, v_max, level - 1)
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


def test_batched_rows_stop_at_their_own_level():
    # one call over three intervals: the flat row converges levels before
    # the sharply peaked ones, and every row equals its one-row call
    def f(x, c):
        return c / (1.0 + (c * x) ** 2)

    a, b, c = np.array([0.0, -1.0, -1.0]), np.array([1.0, 2.0, 1.0]), np.array([1.0, 10.0, 50.0])
    batch = tanh_sinh(f, a, b, tol=1e-12, params=(c,))
    single = [tanh_sinh(f, a[i], b[i], tol=1e-12, params=(c[i],)) for i in range(3)]
    assert batch.nodes == sum(r.nodes for r in single)
    assert len({r.nodes for r in single}) == 3
    for i, r in enumerate(single):
        assert batch.value[i] == r.value[0]
        assert batch.abs_error[i] == r.abs_error[0]
        exact = math.atan(c[i] * b[i]) - math.atan(c[i] * a[i])
        assert r.value[0] == pytest.approx(exact, rel=1e-12)


def test_unconverged_row_leaves_the_others_unchanged():
    def f(x, c):
        return np.where(c > 0.0, 1.0 / np.sqrt(np.abs(x - c)), x**3)

    batch = tanh_sinh(f, 0.0, 1.0, params=(np.array([-1.0, 0.3]),))
    alone = tanh_sinh(lambda x: x**3, 0.0, 1.0)
    assert batch.value[0] == alone.value[0]
    assert batch.abs_error[0] == alone.abs_error[0]
    assert batch.value[1] == pytest.approx(2.75698, abs=1e-5)
    assert batch.abs_error[1] == pytest.approx(8.70e-3, rel=1e-3)

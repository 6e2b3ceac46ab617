"""Special-function kernel against independent oracles.

scipy and mpmath serve as external references; the frozen values in the
simple identities were computed from the stated closed forms.
"""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp
from hypothesis import assume, example, given, note, settings, strategies as st

from clext import params_from_beta_bar
from clext.errors import ClextError, DomainError, NoConvergence
from clext import specfun
from clext.measures import (
    mellin_lists,
    positivity_condition,
    weight_function,
)
from clext.specfun import (
    _NorlundKernel,
    _continuation_vec,
    _exp_dd,
    _expansion_vec,
    _polygamma,
    _slater_vec,
    bessel_k_vec,
    g_general_vec,
)
from closed_forms import DivergentSeries, PoleInDenominator, bessel_i, pfq
from conftest import random_valid_params

mp.mp.dps = 30


def bessel_k(nu, x):
    return float(bessel_k_vec(nu, np.array([x]))[0])


# ---------------------------------------------------------------------------
# pFq
# ---------------------------------------------------------------------------

class TestPfq:
    def test_1f1_equal_parameters_is_exp(self):
        r = pfq([4 / 3], [4 / 3], 1.0)
        assert r.value == pytest.approx(math.e, rel=1e-12)

    def test_0f0_is_exp(self):
        r = pfq([], [], 1.7 - 0.3j)
        assert r.value == pytest.approx(np.exp(1.7 - 0.3j), rel=1e-12)

    def test_2f1_half_is_2log2(self):
        # classical identity 2F1(1,1;2;x) = -ln(1-x)/x, cross-checked by a
        # direct 10^4-term partial sum
        brute = sum(0.5**k / (k + 1.0) for k in range(10_000))
        r = pfq([1.0, 1.0], [2.0], 0.5)
        assert r.value == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
        assert r.value == pytest.approx(brute, rel=1e-12)

    def test_denominator_pole_raises(self):
        with pytest.raises(PoleInDenominator):
            pfq([0.5], [-2.0], 0.3)

    def test_terminating_numerator_beats_pole(self):
        r = pfq([-2.0], [-4.0], 1.0)  # stops at k = 2 before the pole
        assert r.converged and r.terms <= 4

    def test_divergent(self):
        with pytest.raises(DivergentSeries):
            pfq([1.0, 1.0, 1.0], [2.0], 0.1)
        with pytest.raises(DivergentSeries):
            pfq([1.0, 2.0], [3.0], 1.1)

    def test_converged_reproduces_at_tighter_tol(self):
        cases = [([0.7], [1.9], 2.5), ([], [1.3], 4.0), ([0.4, 1.1], [2.2], 0.6)]
        for a, b, z in cases:
            loose = pfq(a, b, z, tol=1e-10)
            tight = pfq(a, b, z, tol=5e-11)
            assert abs(loose.value - tight.value) <= loose.abs_error + 1e-15

    @pytest.mark.parametrize("a, b, z", [
        ([0.838], [], 0.9),  # ratios rise toward |z| = 0.9
        ([1.5, 0.5], [0.25], -0.95),
        ([0.01], [5.0], 30.0),  # p <= q: the ratios rise before they fall
        ([], [1.3], 4.0),
    ])
    def test_reported_error_bounds_the_value(self, a, b, z):
        r = pfq(a, b, z)
        ref = complex(mp.hyper(a, b, z))
        assert r.converged
        assert r.abs_error <= 1e-12 * abs(r.value)
        assert abs(r.value - ref) <= r.abs_error
        assert abs(r.value - ref) <= 1e-12 * abs(ref)

    def test_last_term_below_tolerance(self):
        r = pfq([0.7], [1.9], 2.5, tol=1e-12)
        assert r.converged
        assert r.abs_error <= 1e-10 * abs(r.value)


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------

class TestBessel:
    def test_half_order_closed_forms(self):
        x = 1.0
        assert bessel_i(0.5, x).value == pytest.approx(
            math.sqrt(2.0 / (math.pi * x)) * math.sinh(x), rel=1e-10
        )
        x = 2.0
        assert bessel_k(0.5, x) == pytest.approx(
            math.sqrt(math.pi / (2.0 * x)) * math.exp(-x), rel=1e-10
        )

    def test_i_at_zero(self):
        assert bessel_i(0.7, 0.0).value == 0.0
        assert bessel_i(0.0, 0.0).value == 1.0

    def test_domains(self):
        with pytest.raises(DomainError):
            bessel_i(0.3, -1.0)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.7])
    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
    def test_wronskian(self, nu, x):
        w = bessel_i(nu, x).value * bessel_k(nu + 1, x)
        w += bessel_i(nu + 1, x).value * bessel_k(nu, x)
        assert abs(w - 1.0 / x) < 1e-10

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.0, 2.336, 3.7])
    def test_k_against_mpmath(self, nu):
        # Temme's series, Steed's CF2 and the upward recurrence over 100
        # decades, wherever K_nu stays inside the double range
        x = np.logspace(-100.0, math.log10(700.0), 241)
        got = bessel_k_vec(nu, x)
        ref = np.array([float(mp.besselk(nu, v)) for v in x])
        fin = np.isfinite(ref)
        assert np.isinf(got[~fin]).all()
        assert np.max(np.abs(got[fin] / ref[fin] - 1.0)) <= 2e-14

    def test_k_sweep_against_mpmath(self):
        # seeded orders |nu| <= 8 and x from 1e-300 to 745, with the doubles on
        # both sides of x = 2, against besselk at the same order and x: the
        # trapezoid rule (x >= 2) within 2e-15, Temme's series within 2e-14,
        # wherever K_nu is a normal double; where it overflows, inf
        rng = np.random.default_rng(20261020)
        orders = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 5.0, -8.0, 8.0, 7.5]
        orders += list(rng.uniform(-8.0, 8.0, 10))
        edge = [2.0, np.nextafter(2.0, 3.0), np.nextafter(np.nextafter(2.0, 3.0), 3.0)]
        edge += [np.nextafter(2.0, 0.0), np.nextafter(np.nextafter(2.0, 0.0), 0.0)]
        x = np.concatenate((10.0 ** rng.uniform(-300.0, math.log10(745.0), 150), edge, [1e-300, 745.0]))
        for nu in orders:
            got = bessel_k_vec(nu, x)
            ref = np.array([float(mp.besselk(mp.mpf(nu), mp.mpf(v))) for v in x])
            assert np.isinf(got[np.isinf(ref)]).all(), nu
            normal = np.isfinite(ref) & (ref >= np.finfo(float).tiny)
            err = np.abs(got[normal] / ref[normal] - 1.0)
            above = x[normal] >= 2.0
            assert err[above].max() <= 2e-15, nu
            assert err[~above].max() <= 2e-14, nu

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.3])
    def test_input_is_checked_where_it_enters(self, nu):
        # NaN and x < 0 raise; K_nu(0+) = +inf and K_nu(+inf) = 0, all
        # without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for bad in (np.nan, -1.0, -1e-300, -np.inf):
                with pytest.raises(DomainError, match="x >= 0"):
                    bessel_k_vec(nu, np.array([1.0, bad]))
            got = bessel_k_vec(nu, np.array([0.0, 1.0, np.inf, 800.0]))
        assert got[0] == np.inf and got[2] == 0.0 and got[3] == 0.0
        assert got[1] == bessel_k(nu, 1.0) > 0.0

    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf])
    def test_order_is_checked_where_it_enters(self, nu):
        # a NaN or infinite order names itself, without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=f"finite order nu, got {nu}"):
                bessel_k_vec(nu, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("x", [0.05, 0.9, 3.0, 18.0, 40.0])
    def test_against_scipy(self, nu, x):
        assert bessel_i(nu, x).value == pytest.approx(sp.iv(nu, x), rel=1e-11)
        assert bessel_k(nu, x) == pytest.approx(sp.kv(nu, x), rel=2e-9)


# ---------------------------------------------------------------------------
# Kummer U, through the Meijer-G route of the "kummer" weights:
# e^-y U(a, b, y) = G^{2,0}_{1,2}(y | a+1-b; 0, 1-b)
# ---------------------------------------------------------------------------

def kummer_u_via_g(a, b, y):
    return math.exp(y) * float(g_general_vec([a + 1.0 - b], [0.0, 1.0 - b], np.array([y]))[0])


class TestKummerU:
    def test_terminating(self):
        # a = 0: the upper parameter cancels a lower one and G = e^-y
        assert kummer_u_via_g(0.0, 1.3, 4.0) == pytest.approx(1.0, rel=1e-12)

    def test_laplace_integral_oracle(self):
        a, b, y = 2 / 3, 4 / 3, 1.0
        val, _ = scipy.integrate.quad(
            lambda t: math.exp(-y * t) * t ** (a - 1.0) * (1.0 + t) ** (b - a - 1.0),
            0.0,
            np.inf,
        )
        assert kummer_u_via_g(a, b, y) == pytest.approx(val / math.gamma(a), rel=1e-8)

    def test_small_y_limit_with_large_bb2(self):
        # e^-y U(bb1-bb2, 2-bb2, y) -> Gamma(bb2-1)/Gamma(bb1-1) as y -> 0;
        # the correction decays like y^(bb2-1), so probe very deep
        bb1, bb2 = 1.8, 1.2
        limit = math.gamma(bb2 - 1.0) / math.gamma(bb1 - 1.0)
        got = kummer_u_via_g(bb1 - bb2, 2.0 - bb2, 1e-30)
        assert got == pytest.approx(limit, rel=1e-5)
        near = abs(kummer_u_via_g(bb1 - bb2, 2.0 - bb2, 1e-12) - limit)
        far = abs(kummer_u_via_g(bb1 - bb2, 2.0 - bb2, 1e-6) - limit)
        assert near < far

    @pytest.mark.parametrize("a,b,y", [(0.9, 0.3, 5.0), (0.5, 1.0, 9.0)])
    def test_against_mpmath(self, a, b, y):
        ref = float(mp.hyperu(a, b, y))
        assert kummer_u_via_g(a, b, y) == pytest.approx(ref, rel=3e-9)

    @pytest.mark.parametrize(
        "a,b,y",
        # lower parameters (0, 4/3); (0, -1), integer-spaced; and (0, -1)
        # under the upper -1/3, which the eps-split missed by 2.0e-6
        [(-5 / 3, -1 / 3, 14.0), (1.2, 2.0, 12.0), (2 / 3, 2.0, 0.5)],
    )
    def test_integer_spaced_lower_parameters(self, a, b, y):
        ref = float(mp.hyperu(a, b, y))
        assert kummer_u_via_g(a, b, y) == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

class TestMeijerG:
    def test_exponential_case_vs_contour(self):
        # G^{1,0}_{0,1} = e^-y, continued down its ODE D G = -e^x G
        y = np.array([1.0])
        assert float(g_general_vec((), [0.0], y)[0]) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert float(_continuation_vec([], [0.0], y, 1e-11)[0][0, 0]) == pytest.approx(math.exp(-1.0), rel=1e-11)

    def test_two_parameter_bessel_identity(self):
        b, y = 1 / 3, 0.7
        (slater,), (ok,) = _slater_vec([], [0.0, b], np.array([y]), 1e-9)
        ref = 2.0 * y ** (b / 2.0) * sp.kv(b, 2.0 * math.sqrt(y))
        assert float(slater[0]) == pytest.approx(ref, rel=1e-9)
        assert ok.all()  # cancellation stayed below the conditioning limit

    def test_slater_integer_spacing_is_summed(self):
        # integer-spaced lower parameters: the residue sum takes the double
        # poles as one cluster (logarithmic residues) instead of refusing
        y = np.array([1e-30, 0.5, 3.0])
        (vals,), (ok,) = _slater_vec([], [0.0, 1.0], y, 1e-9)
        assert ok.all()
        for v, t in zip(vals, y):
            assert v == pytest.approx(float(mp.meijerg([[], []], [[0.0, 1.0], []], t)), rel=1e-12)

    def test_cluster_past_its_taylor_cap_is_left_unsettled(self):
        # each parameter lies within twice the spread of those before it, so
        # all six form one cluster of spread 0.72, whose Taylor series cannot
        # settle in _CLUSTER_TERMS terms: the residue sum leaves the points
        # (no overflow), the ODE continuation takes them, and at p = q they raise
        b = [0.0, 0.009, 0.0269, 0.0806, 0.2418, 0.72]
        assert specfun._clusters(b) == [list(range(6))]
        y = np.array([1e-3, 0.1, 0.5])
        assert not _slater_vec([], b, y, 1e-9)[1].any()
        for g, t in zip(g_general_vec([], b, y), y):
            assert g == pytest.approx(float(mp.meijerg([[], []], [b, []], t)), rel=1e-10)
        with pytest.raises(DomainError):
            g_general_vec([v + 1.5 for v in b], b, y)

    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize(
        "b",
        [(0.0, 0.4), (0.0, 1 / 3, 0.9), (0.0, 0.55, 1.2, 1.9)],  # lambda <= 4 style
    )
    def test_slater_vs_contour_grid(self, y, b):
        # the residue sum against the ODE continuation
        (slater,), (ok,) = _slater_vec([], list(b), np.array([y]), 1e-9)
        (continued,), _ = _continuation_vec([], list(b), np.array([y]), 1e-11)
        assert ok.all()
        assert float(slater[0]) == pytest.approx(float(continued[0]), rel=1e-7, abs=1e-12)

    def test_kummer_consistency(self):
        # G^{2,0}_{1,2}(y | bb1-1; 0, bb2-1) = e^-y U(bb1-bb2, 2-bb2, y)
        bb1, bb2 = 4 / 3, 2 / 3
        for y in (0.2, 1.0, 6.0):
            got = float(g_general_vec([bb1 - 1.0], [0.0, bb2 - 1.0], np.array([y]))[0])
            ref = math.exp(-y) * float(mp.hyperu(bb1 - bb2, 2.0 - bb2, y))
            assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("y", [0.05, 0.8, 3.0, 20.0])
    def test_general_vec_vs_mpmath(self, y):
        a = [4 / 3 - 1.0]
        b = [0.0, 2 / 3 - 1.0]
        got = float(g_general_vec(a, b, np.array([y]))[0])
        ref = float(mp.meijerg([[], a], [b, []], y))
        assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("y", [1e-6, 0.3, 2.0, 60.0, 400.0])
    def test_m0_vec_degenerate_integer_spacing(self, y):
        # b = (0, 1): the acceptance parameter set beta_bar_1 = 2
        got = float(g_general_vec((), [0.0, 1.0], np.array([y]))[0])
        ref = float(mp.meijerg([[], []], [[0.0, 1.0], []], y))
        assert got == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("b", [(0.0, 0.0), (0.0, 0.25), (0.1, 2.2)])
    def test_m0_vec_two_parameters_at_small_y(self, b):
        # K_nu at any order; b = (0, 0) at 1e-13 went through a leading
        # small-y form 4e-2 off
        y = np.array([1e-300, 1e-100, 1e-13, 1e-6])
        got = g_general_vec((), b, y)
        for g, v in zip(got, y):
            assert g == pytest.approx(float(mp.meijerg([[], []], [list(b), []], v)), rel=1e-13)

    @pytest.mark.parametrize(
        "a, b", [((), (0.0, 0.0)), ((), (0.0, 0.0, 0.5)), ((), (0.0, 0.5, 0.5)), ((0.7,), (0.0, 0.0, 0.3))]
    )
    def test_repeated_lower_parameters_at_extreme_small_y(self, a, b):
        # the leading small-y power assumed a distinct smallest lower
        # parameter (1.1e-7 off at 1e-70, a math domain error for (0, 0, 1/2));
        # the residue sum's own first poles serve these points
        y = np.array([1e-70, 1e-300, 5e-324])
        got = g_general_vec(a, b, y)
        for g, v in zip(got, y):
            ref = float(mp.meijerg([[], list(a)], [list(b), []], mp.mpf(v)))
            assert g == pytest.approx(ref, rel=1e-10)

    def test_underflowed_values_are_zero(self):
        # where G lies below the double range the residue sum keeps its
        # underflowed value; handed on, the contour gave inf for the first
        # list and raised NoConvergence for (3, 4.2)
        a, b = [6.53, 8.6, 6.78], [4.86, 3.88, 4.13, 5.79, 1.87, 3.69]
        assert g_general_vec(a, b, np.array([1.8e-217])).tolist() == [0.0]
        got = g_general_vec([], [3.0, 4.2], np.array([1e-300, 1e-150, 1e-100]))
        assert got[:2].tolist() == [0.0, 0.0]
        assert got[2] == pytest.approx(float(mp.meijerg([[], []], [[3.0, 4.2], []], 1e-100)), rel=1e-10)

    def test_spec_validation(self):
        # a pairing with a <= b has no Norlund series term
        with pytest.raises(DomainError):
            _NorlundKernel([(0.2, 0.5)])
        with pytest.raises(DomainError):
            _NorlundKernel([(0.2, 0.5), (0.9, 0.0)])

    def test_norlund_blocks_match_term_by_term_horner(self):
        # D's terms summed per block, then Horner over the blocks, against
        # Horner over every term of the (1 - x) series; one pair is the exact
        # Beta density, whose D is one term
        x = np.linspace(0.1, 0.999, 200)
        for pairs in ([(1.5, 0.5), (1.25, 0.0), (0.9, -0.2)], [(2.6, 0.3)]):
            kernel = _NorlundKernel(pairs)
            acc = np.zeros_like(x)
            for dn in kernel.d[::-1]:
                acc = acc * (1.0 - x) + dn
            ref = acc * x**kernel.beta * (1.0 - x) ** (kernel.s - 1.0)
            np.testing.assert_allclose(kernel(x), ref, rtol=1e-14)

    def test_pq_points_slater_refuses_raise(self):
        # p = q: near y = 1 the residue sum (terms ~ y^K) does not settle in
        # its term cap, and no contour exists without m > p.  The nearly
        # coincident pair (0, 1e-8) is one cluster, so y = 0.05 and 1e-70
        # are summed (Slater refused them before clusters)
        a, b = [0.9, 0.7, 0.5], [0.0, 1e-8, -0.2]
        with pytest.raises(DomainError, match="refused 1 of 3 points"):
            g_general_vec(a, b, np.array([0.05, 1e-70, 0.999]))
        vals = g_general_vec(a, b, np.array([0.05, 1e-70]))
        for v, t in zip(vals, (0.05, 1e-70)):
            assert v == pytest.approx(float(mp.meijerg([[], a], [b, []], t)), rel=1e-12)

    def test_contour_memory_bounded_by_row_blocks(self):
        # 401 points in one band: the continuation keeps one Taylor series
        # per step and one row of terms per point
        b = [0.0, 1 / 3, 0.9]
        y = np.linspace(1.0, 1.5, 401)
        tracemalloc.start()
        try:
            (vals,), _ = _continuation_vec([], b, y, 1e-11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        for i in (0, 200, 400):
            ref = float(mp.meijerg([[], []], [b, []], y[i]))
            assert vals[i] == pytest.approx(ref, rel=1e-11)

    def test_contour_row_that_never_settles_raises(self, monkeypatch):
        # with six Taylor terms a step the last two terms stay far above
        # tol: the point nearest the start is named
        monkeypatch.setattr(specfun, "_TAYLOR_TERMS", 6)
        with pytest.raises(NoConvergence, match=r"y = 1.2e-05 missed its remainder bound: "):
            _continuation_vec([], [0.0, 1 / 3, 0.9], np.array([1e-5, 1.2e-5]), 1e-11)

    def test_failing_evaluation_takes_one_line_to_the_cap(self, monkeypatch):
        # the lambda = 5 alpha = 0 list, continued down to y = 1e-21 with too
        # few terms: the call still runs one recurrence before it raises
        monkeypatch.setattr(specfun, "_TAYLOR_TERMS", 8)
        steps = []
        taylor = specfun._taylor_coeffs
        monkeypatch.setattr(
            specfun, "_taylor_coeffs", lambda a, b, x0: steps.append(x0.size) or taylor(a, b, x0)
        )
        y = np.geomspace(1e-21, 1e-6, 60)
        with pytest.raises(NoConvergence, match=r"y = 1e-06 missed its remainder bound"):
            _continuation_vec([], [0.0, 0.5, 0.5, 0.5, 0.5], y, 1e-11)
        assert len(steps) == 1 and steps[0] > 50

    def test_lgamma_calls_do_not_grow_with_buckets(self, monkeypatch):
        # one Taylor recurrence for all steps: a band of 1 log-y bucket
        # and one of 17 make the same single call
        calls = []
        taylor = specfun._taylor_coeffs
        monkeypatch.setattr(
            specfun, "_taylor_coeffs", lambda a, b, x0: calls.append(x0.size) or taylor(a, b, x0)
        )
        counts = []
        for hi in (15.0, 1e6):
            calls.clear()
            y = np.geomspace(12.0, hi, 200)
            _continuation_vec([], [0.0, 1 / 3, 0.9], y, 1e-11)
            counts.append(len(calls))
        assert len(np.unique(np.floor(np.log(y) / 0.7))) == 17
        assert counts == [1, 1]

    @pytest.mark.parametrize("lam, beta_bar", [(3, [4 / 3, 2 / 3]), (4, [1.25, 1.75, 1.5])])
    def test_contour_rows_of_a_moment_grid(self, lam, beta_bar):
        # every row of the alpha = 0 moment grid that Slater refuses, in one
        # continuation call; both ends of each log-y bucket against meijerg
        p = params_from_beta_bar(lam, beta_bar)
        w = weight_function(p, (0, 0))
        w._ensure_grid(8.0)
        _, b = mellin_lists(p, (0, 0))
        y = np.unique(w._grid.y)
        _, (ok,) = _slater_vec([], b, y, 1e-9)
        y = y[~ok & (y >= 1e-60)]
        (vals,), _ = _continuation_vec([], b, y, 1e-11)
        keys = np.floor(np.log(y) / 0.7)
        assert len(np.unique(keys)) >= 10
        for key in np.unique(keys):
            for i in np.nonzero(keys == key)[0][[0, -1]]:
                ref = float(mp.meijerg([[], []], [b, []], y[i]))
                assert vals[i] == pytest.approx(ref, rel=1e-11)

    def test_subnormal_rows_skip_the_quadrature(self):
        # lambda = 3 (mu, alpha) = (0, 1): the convolution's u = y t kept a few
        # bits at y = 1.7e-322 and the row ran to the tanh-sinh node cap; the
        # residue sum takes these rows directly
        p = params_from_beta_bar(3, [4 / 3, 2 / 3])
        a, b = mellin_lists(p, (0, 1))
        y = np.array([1.72922976e-322, 5e-324, 1e-300])
        (vals,), (ok,) = _slater_vec(a, b, y, 1e-9)
        assert ok.all() and g_general_vec(a, b, y).tolist() == vals.tolist()
        for v, t in zip(vals, y):
            assert v == pytest.approx(float(mp.meijerg([[], a], [b, []], mp.mpf(t))), rel=1e-12)

    def test_polygamma_against_scipy(self):
        x = np.geomspace(1e-3, 1e4, 500)
        for n in (0, 1):
            ref = sp.polygamma(n, x)
            assert np.abs(_polygamma(n, x) - ref).max() <= 4e-15 * np.abs(ref).max()
            assert np.abs(_polygamma(n, x) / ref - 1.0).max() < (3e-13 if n == 0 else 2e-15)
        # the residue sum's log-gamma Taylor series use n >= 2 at x >= 1
        x = np.geomspace(1.0, 1e3, 200)
        for n in (2, 3, 5, 10, 25, 60):
            ref = sp.polygamma(n, x)
            assert np.abs(_polygamma(n, x) / ref - 1.0).max() < 1e-13, n

    @pytest.mark.parametrize(
        "a, b", [((), (0.0, 0.3, 0.2)), ((0.5,), (0.0, 0.3, 0.2, -0.1)), ((), (0.0, 0.3))]
    )
    def test_infinite_y_is_an_exact_zero(self, monkeypatch, a, b):
        # G ~ e^{-s y^{1/s}}: y = inf returns 0 before any route runs, with
        # no floating-point warning
        calls = []
        monkeypatch.setattr(specfun, "_continuation_vec", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = g_general_vec(a, b, np.array([np.inf, np.inf]))
        assert vals.tolist() == [0.0, 0.0]
        assert not calls

    @pytest.mark.parametrize(
        "lam, beta_bar, exact",
        [
            (3, [4 / 3, 2 / 3], True),
            (4, [1.25, 1.75, 1.5], True),
            (3, [4 / 3 + 0.015, 2 / 3 - 0.01], False),
            (4, [1.257, 1.746, 1.509], False),
        ],
    )
    def test_contour_serves_only_the_band_below_the_expansion(
        self, monkeypatch, lam, beta_bar, exact
    ):
        # the alpha = 0 moment grids of test_contour_rows_of_a_moment_grid and
        # jittered ones: every point Slater refuses above the expansion's
        # reach goes to the expansion.  The exact lists are equally spaced
        # (Gauss multiplication makes G a pure e^{-m y^{1/m}} y^c), so every
        # M_k, k >= 1, vanishes and the continuation gets nothing.
        p = params_from_beta_bar(lam, beta_bar)
        w = weight_function(p, (0, 0))
        w._ensure_grid(8.0)
        _, b = mellin_lists(p, (0, 0))
        y = np.unique(w._grid.y)
        rows = []
        continuation = specfun._continuation_vec
        monkeypatch.setattr(
            specfun, "_continuation_vec",
            lambda a, b, y, tol, shifts=(): rows.append(y) or continuation(a, b, y, tol, shifts),
        )
        vals = g_general_vec([], b, y)
        _, (slater_ok,) = _slater_vec([], b, y, 1e-9)
        _, (ok,) = _expansion_vec([], b, y, 1e-11)
        reach = y[ok].min()
        assert not (~ok & (y > reach)).any()
        got = np.concatenate(rows) if rows else np.zeros(0)
        assert (~slater_ok & (y >= 1e-60)).sum() > 200
        if exact:
            assert got.size == 0
        else:
            assert 100.0 < reach < 500.0
            assert 10 <= got.size <= 40 and got.max() < reach
        for i in np.nonzero(ok & ~slater_ok)[0][[0, -1]]:
            ref = float(mp.meijerg([[], []], [b, []], y[i]))
            assert vals[i] == pytest.approx(ref, rel=1e-11)

    def test_one_recurrence_per_call(self, monkeypatch):
        # one Taylor recurrence covers every step, whatever the number of
        # steps (a short band or one continued down to y = 1e-30) or of
        # points (1 or 2,000)
        calls = []
        taylor = specfun._taylor_coeffs
        monkeypatch.setattr(
            specfun, "_taylor_coeffs", lambda a, b, x0: calls.append(x0.size) or taylor(a, b, x0)
        )
        a, b = [0.9], [0.0, 0.2, 0.55]
        for y in (np.array([30.0]), np.geomspace(1e-30, 40.0, 2000)):
            calls.clear()
            (vals,), _ = _continuation_vec(a, b, y, 1e-11)
            assert len(calls) == 1 and vals.shape == y.shape
            steps = calls[0]
        assert steps > 100

    @pytest.mark.parametrize("y", [0.05, 0.2, 0.4, 0.547, 0.7])
    def test_slater_refuses_what_its_rounding_would_spoil(self, y):
        # a lambda = 6 alpha = 0 list with two lower parameters 1 + 0.0093
        # apart: its residue sum cancels by 1.8e5..5.1e5 here, and rounding
        # left about that times eps / 3 (up to 3.4e-11) with every point
        # accepted; the limit now comes from tol, and the continuation
        # takes the points the residue sum refuses
        b = [0.0, 0.2309, 0.3906, 0.1501, -0.8592, -0.5427]
        got = float(g_general_vec([], b, np.array([y]))[0])
        with mp.workdps(30):
            ref = float(mp.meijerg([[], []], [b, []], y))
        assert got == pytest.approx(ref, rel=1e-11)

    def test_continuation_over_a_long_band(self):
        # the lambda = 6 r = 2 list a = (0.9, 0.7), b = (0, 0.5, -0.1, -0.2):
        # one continuation from above s y^{1/s} = 147 down to 6.2
        a, b = [0.9, 0.7], [0.0, 0.5, -0.1, -0.2]
        y = (np.array([6.2, 48.87969925, 113.21804511, 147.13283208]) / 2.0) ** 2
        (continued,), _ = _continuation_vec(a, b, y, 1e-11)
        for routed, cont, t in zip(g_general_vec(a, b, y), continued, y):
            with mp.workdps(30):
                ref = float(mp.meijerg([[], a], [b, []], t))
            assert routed == pytest.approx(ref, rel=1e-11)
            assert cont == pytest.approx(ref, rel=1e-11)

    def test_expansion_accepts_every_point_above_its_reach(self):
        # same list: the expansion accepts from s y^{1/s} = 36 up.  With its
        # term count chosen against tol alone, and its acceptance against tol
        # times its sum (0.96..0.99 here), it refused 37.0, 38.5, 52.0, 68.5
        # and 147.0 of this grid, and the continuation had to start above them
        a, b = [0.9, 0.7], [0.0, 0.5, -0.1, -0.2]
        sw = np.linspace(0.5, 200.0, 400)
        y = (sw / 2.0) ** 2
        (vals,), (ok,) = _expansion_vec(a, b, y, 1e-11)
        first = int(np.argmax(ok))
        assert sw[first] <= 36.0 and ok[first:].all()
        # meijerg costs 30 ms a point: every 8th point and the five above
        refused = np.searchsorted(sw, [37.0, 38.5, 52.0, 68.5, 147.0])
        check = sorted(set(range(first, sw.size, 8)) | set(refused))
        for i in check:
            with mp.workdps(30):
                ref = float(mp.meijerg([[], a], [b, []], y[i]))
            assert vals[i] == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("b", [[0.0, 0.5], [0.0, 0.2, 0.5]])
    @pytest.mark.parametrize("shifts", [(), (1,)])
    def test_nan_y_is_a_domain_error(self, b, shifts):
        # rejected where it enters, before any route runs on it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"y is NaN at index 1 of 3"):
                g_general_vec((), b, np.array([1.0, np.nan, 2.0]), shifts=shifts)

    def test_continuation_without_a_start_raises(self, monkeypatch):
        # where the expansion accepts no rung of the ladder there is no
        # start, and the call names the largest y
        monkeypatch.setattr(specfun, "_expansion_state", lambda a, b, lw, tol: (None, False))
        with pytest.raises(NoConvergence, match=r"y = 50 has no start"):
            _continuation_vec([], [0.0, 1 / 3, 0.9], np.array([20.0, 50.0]), 1e-11)

    def test_convolution_kernel_positive(self):
        # a certified r = 2 list (a = 0.5 > b = 0.2): the weight, once a
        # convolution, is positive
        vals = g_general_vec([0.5], [0.0, 0.2, -0.4], np.array([0.1, 1.0, 4.0]))
        assert np.all(vals > 0)


@st.composite
def contour_cases(draw):
    """(b, y): the alpha = 0 lower parameters of a certified lambda = 3..6
    algebra (m = lambda) and y log-uniform on [5, 1e7], where Slater
    refuses and the continuation or the expansion takes over."""
    lam = draw(st.sampled_from([3, 4, 5, 6]))
    bb = [draw(st.floats(0.08, 2.5)) for _ in range(lam - 1)]
    mu = draw(st.integers(0, lam - 1))
    _, b = mellin_lists(params_from_beta_bar(lam, bb), (mu, 0))
    return b, 10.0 ** draw(st.floats(math.log10(5.0), 7.0))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(contour_cases())
def test_contour_sweep(case):
    # the continuation meets its remainder bound (no NoConvergence) and
    # 1e-10 against meijerg, from wherever the expansion lets it start
    b, y = case
    got = float(_continuation_vec([], b, np.array([y]), 1e-11)[0][0, 0])
    with mp.workdps(30):
        ref = float(mp.meijerg([[], []], [b, []], y))
    assert got == pytest.approx(ref, rel=1e-10)


def _horner_expansion_sum(M, n, lw):
    """The large-y expansion's sum_{k<n} M_k w^-k by Horner over the points, one
    array operation per term: the reference for _expansion_sum's table."""
    u = np.exp(-lw)
    acc = np.zeros(n.shape)
    for k in range(n.max() - 1, -1, -1):
        acc = acc * u + M[..., k, None] * (k < n)
    return acc


def test_expansion_table_sum_matches_horner():
    # random M, n and ln w, one row or several (a family), with terms that
    # fall at least like 2^-k, as where the expansion is summed: within 1e-15
    # of the sum of the terms' magnitudes, the bound of either summation
    # order; on the families of certified lists, where M_0 = 1, within 1e-15
    # of the sum itself
    rng = np.random.default_rng(20261021)
    for rows in (None, 1, 3, 5):
        shape = () if rows is None else (rows,)
        growth = rng.uniform(0.0, 1.5)
        M = rng.normal(size=shape + (48,)) * np.exp(growth * np.arange(48))
        n = rng.integers(1, 48, size=shape + (300,))
        lw = growth + rng.uniform(math.log(2.0), 5.0, 300)
        k = np.arange(48)
        size = np.where(k < n[..., None], np.abs(M[..., None, :]) * np.exp(-lw[:, None] * k), 0.0).sum(axis=-1)
        got = specfun._expansion_sum(M, n, lw)
        assert got.shape == n.shape
        assert np.all(np.abs(got - _horner_expansion_sum(M, n, lw)) <= 1e-15 * size)
    for _ in range(12):
        lam = int(rng.integers(3, 8))
        b = mellin_lists(random_valid_params(rng, lam), (0, 0))[1]
        lw = np.linspace(1.0, 6.0, 200)
        terms = [specfun._expansion_terms((), bb, lw, 1e-11) for bb in specfun._family(b, range(1, lam))[1]]
        M, n = np.array([t[1] for t in terms]), np.array([t[2] for t in terms])
        settled = (n < M.shape[1] - 1).all(axis=0)  # the points the expansion sums
        assert settled.sum() >= 50
        n, lw = n[:, settled], lw[settled]
        ref = _horner_expansion_sum(M, n, lw)
        assert np.all(np.abs(specfun._expansion_sum(M, n, lw) - ref) <= 1e-15 * np.abs(ref))


@st.composite
def expansion_cases(draw):
    """(a, b, y): a certified Mellin list of lambda <= 8 with s = m - p >= 1,
    a third of them with every beta_bar equal, so that the lower
    parameters coincide (b = (0, 1/2, 1/2, 1/2) at lambda = 4, beta_bar =
    1.5), and y log-uniform from the expansion's reach to s y^{1/s} = 350,
    where G ~ 1e-152.  Above that meijerg at dps 30 takes seconds a point
    and fails to converge on lists with a five-fold lower parameter."""
    lam = draw(st.integers(2, 8))
    alpha = draw(st.integers(0, (lam - 1) // 2))
    bb = [draw(st.floats(0.08, 2.5)) for _ in range(lam - 1)]
    if draw(st.integers(0, 2)) == 0:
        bb = [draw(st.sampled_from([0.5, 1.25, 1.5, 1.75]))] * (lam - 1)
    p = params_from_beta_bar(lam, bb)
    mu = draw(st.integers(0, lam - alpha - 1))
    assume(positivity_condition(p, (mu, alpha)) is not None)
    a, b = mellin_lists(p, (mu, alpha))
    s = lam - 2 * alpha
    grid = np.geomspace(1e-2, (350.0 / s) ** s, 400)
    _, (ok,) = _expansion_vec(a, b, grid, 1e-11)
    lo, hi = math.log(grid[ok].min()), math.log(grid[-1])
    return a, b, math.exp(lo + (hi - lo) * draw(st.floats(0.0, 1.0)))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(expansion_cases())
def test_expansion_sweep(case):
    # every point the large-y expansion accepts is within 1e-11 of meijerg
    a, b, y = case
    (val,), (ok,) = _expansion_vec(a, b, np.array([y]), 1e-11)
    assume(ok[0])
    with mp.workdps(30):
        ref = float(mp.meijerg([[], a], [b, []], y))
    assert float(val[0]) == pytest.approx(ref, rel=1e-11)


@st.composite
def band_cases(draw):
    """(a, b, y): a certified Mellin list of lambda <= 8 with s = m - p >= 1
    and p >= 0, a third of them with every beta_bar equal, and y
    log-uniform over the band that neither the residue sum (at
    g_general_vec's conditioning limit) nor the large-y expansion accepts."""
    lam = draw(st.integers(2, 8))
    alpha = draw(st.integers(0, (lam - 1) // 2))
    bb = [draw(st.floats(0.08, 2.5)) for _ in range(lam - 1)]
    if draw(st.integers(0, 2)) == 0:
        bb = [draw(st.sampled_from([0.5, 1.25, 1.5, 1.75]))] * (lam - 1)
    p = params_from_beta_bar(lam, bb)
    mu = draw(st.integers(0, lam - alpha - 1))
    assume(positivity_condition(p, (mu, alpha)) is not None)
    a, b = mellin_lists(p, (mu, alpha))
    s = lam - 2 * alpha
    grid = np.geomspace((1.0 / s) ** s, (350.0 / s) ** s, 300)
    _, (slater,) = _slater_vec(a, b, grid, 1e-11)
    _, (expansion,) = _expansion_vec(a, b, grid, 1e-11)
    band = grid[~slater & ~expansion]
    assume(band.size)
    lo, hi = math.log(band.min()), math.log(band.max())
    return a, b, math.exp(lo + (hi - lo) * draw(st.floats(0.0, 1.0)))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(band_cases())
def test_continuation_sweep(case):
    # every point of the band that the continuation returns is within
    # 1e-10 of meijerg, and none misses its remainder bound
    a, b, y = case
    got = float(_continuation_vec(a, b, np.array([y]), 1e-11)[0][0, 0])
    with mp.workdps(30):
        ref = float(mp.meijerg([[], a], [b, []], y))
    assert got == pytest.approx(ref, rel=1e-10)


def test_slater_prescreen_skips_only_refused_points():
    # every point g_general_vec keeps from Slater is one Slater refuses, for
    # the alpha = 0 lists of lambda = 3..6 with beta_bar in (0.08, 2.5)
    rng = np.random.default_rng(20261018)
    y = np.geomspace(0.5, 1e4, 300)
    for lam in (3, 4, 5, 6):
        for _ in range(25):
            p = random_valid_params(rng, lam)
            for mu in range(lam):
                a, b = mellin_lists(p, (mu, 0))
                skip = ~specfun._slater_reaches(len(b) - len(a), y, 1e-9)
                assert skip.any()
                _, (ok,) = _slater_vec(a, b, y[skip], 1e-9)
                assert not ok.any(), (lam, mu, b, y[skip][ok])


@st.composite
def confluent_cases(draw):
    """(a, b, y): a certified Mellin list of lambda <= 8, r = m - p >= 0, whose
    beta_bar are pushed, with probability 4/5, onto one shared value, onto
    integer shifts of it, onto near-integer shifts (offsets 1e-12..3e-2), or
    each near the one before (offsets 1e-3..3e-2, chains of near offsets),
    so that lower parameters coincide, are integer-spaced or nearly so; y
    log-uniform on [1e-30, Slater's reach] (r = 0: [1e-30, 0.95])."""
    lam = draw(st.integers(2, 8))
    alpha = draw(st.integers(0, lam // 2))
    bb = [draw(st.floats(0.08, 2.5)) for _ in range(lam - 1)]
    mode = draw(st.sampled_from(["drawn", "coincident", "integer", "near", "chain"]))
    for i in range(1, lam - 1):
        if mode == "chain":
            bb[i] = min(2.5, max(0.08, bb[i - 1] + 10.0 ** draw(st.floats(-3.0, -1.5))))
        elif mode != "drawn" and draw(st.booleans()):
            shift = draw(st.integers(-1, 1)) if mode != "coincident" else 0
            if mode == "near":
                shift += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -1.5))
            bb[i] = min(2.5, max(0.08, bb[0] + shift))
    p = params_from_beta_bar(lam, bb)
    mu = draw(st.integers(0, lam - alpha - 1))
    assume(positivity_condition(p, (mu, alpha)) is not None)
    a, b = mellin_lists(p, (mu, alpha))
    r = lam - 2 * alpha
    hi = 0.95 if r == 0 else ((math.log(specfun._SLATER_COND_LIMIT) + (r - 1) * math.log(2.0) + 3.0) / (2 * r)) ** r
    return tuple(a), tuple(b), 10.0 ** draw(st.floats(-30.0, math.log10(hi)))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(confluent_cases())
@example(((), (0.0, 0.2309, 0.3906, 0.1501, -0.8592, -0.5427), 0.547))
@example(((), (0.0, 0.009, 0.0195), 0.3))
@example(((), (0.0, 0.009, 0.0195), 1e-20))
@example(((), (0.0, 0.0099, 0.0198, 0.0299), 0.3))
@example(((), (0.0, 0.0099, 0.0198, 0.0299), 1e-25))
def test_confluent_sweep(case):
    # every point g_general_vec returns is within 1e-10 of meijerg; any
    # other point raises a named ClextError (DomainError, NoConvergence)
    a, b, y = case
    try:
        got = float(g_general_vec(a, b, np.array([y]))[0])
    except ClextError as exc:
        note(f"refused: {exc}")
        return
    with mp.workdps(30):
        ref = float(mp.meijerg([[], list(a)], [list(b), []], mp.mpf(y)))
    assert got == pytest.approx(ref, rel=1e-10)


# the mu = 0, alpha = 0 list of lambda = 5, beta_bar = (2.068968, 1.075485,
# 2.063253, 1.098098): one cluster of spread 0.098, whose y^-eps Taylor series
# needs about e * 0.098 * 745 = 200 terms at the moment grid's first node
SPREAD_CLUSTER = [0.0, 1.068968, 0.075485, 1.063253, 0.098098]


def test_spread_cluster_at_the_smallest_y():
    # a Taylor series of y^-eps in ln y would need about 200 terms here; the
    # residue sum takes y^-eps exactly and accepts every point
    y = np.array([1e-270, 1e-300, 1.73e-322])
    with mp.workdps(40):
        ref = np.array([float(mp.meijerg([[], []], [SPREAD_CLUSTER, []], mp.mpf(v))) for v in y])
    (vals,), (ok,) = _slater_vec([], SPREAD_CLUSTER, y, 1e-11)
    assert ok.all()
    assert vals == pytest.approx(ref, rel=1e-13, abs=0)
    assert g_general_vec([], SPREAD_CLUSTER, y) == pytest.approx(ref, rel=1e-11, abs=0)


def test_cluster_sweep():
    # alpha = 0 lists of lambda = 3..6 whose lower parameters form one cluster
    # of spread log-uniform in [1e-4, 0.1] (integer shifts of 0 or 1), at y
    # log-uniform from the moment grid's first node to 1: every point the
    # residue sum accepts at g_general_vec's tol 1e-11 is within it of meijerg
    rng = np.random.default_rng(20261020)
    accepted = 0
    for lam in (3, 4, 5, 6):
        for _ in range(10):
            spread = 10.0 ** rng.uniform(-4.0, -1.0)
            bb = 1.0 + rng.integers(0, 2, lam - 1) + spread * rng.uniform(0.0, 1.0, lam - 1)
            a, b = mellin_lists(params_from_beta_bar(lam, list(bb)), (0, 0))
            y = 10.0 ** rng.uniform(math.log10(1.73e-322), 0.0, 4)
            (vals,), (ok,) = _slater_vec(a, b, y, 1e-11)
            accepted += ok.sum()
            for v, t in zip(vals[ok], y[ok]):
                with mp.workdps(40):
                    ref = float(mp.meijerg([[], a], [b, []], mp.mpf(t)))
                assert v == pytest.approx(ref, rel=1e-11, abs=0), (b, t)
    assert accepted >= 150


def _divided_differences(x, ell):
    """[i][k]: the divided difference of e^{ell t} over x_i..x_k, in mpmath at
    80 digits; coincident nodes give ell^(k-i) e^{ell x} / (k-i)!."""
    with mp.workdps(80):
        x, ell = [mp.mpf(v) for v in x], mp.mpf(ell)
        table = [[mp.exp(ell * v) if i == k else None for k, v in enumerate(x)] for i in range(len(x))]
        for lag in range(1, len(x)):
            for i in range(len(x) - lag):
                k = i + lag
                if x[k] == x[i]:
                    table[i][k] = ell**lag * mp.exp(ell * x[i]) / mp.factorial(lag)
                else:
                    table[i][k] = (table[i + 1][k] - table[i][k - 1]) / (x[k] - x[i])
        return [[float(v) if v is not None else 0.0 for v in row] for row in table]


@pytest.mark.parametrize("ell", [-2.0, 10.0, 300.0, 745.0])
@pytest.mark.parametrize("x", [
    [0.098098, 0.022613, 0.0, 0.02913, 0.034845],  # SPREAD_CLUSTER's nodes in join order
    [0.0, 1e-9, 2e-9, 3e-9],
    [0.03, 0.03 + 1e-9, 0.0, 1e-9],
    [0.0, 0.0, 0.0, 0.0],
    [0.3, 0.3, 0.3],
])
def test_exp_dd_is_the_divided_differences(x, ell):
    # E[i, k] = DD[x_i..x_k](e^{ell t}) within 1e-13, and exactly 0 below the
    # diagonal; each point is the same computation
    got = _exp_dd(np.array(x), np.array([ell, ell]))
    assert got.shape == (2, len(x), len(x))
    assert got[0] == pytest.approx(np.array(_divided_differences(x, ell)), rel=1e-13, abs=0)
    assert got[1].tobytes() == got[0].tobytes()


# ---------------------------------------------------------------------------
# the contiguous family G(y | b + e_{j_1} + .. + e_{j_r}) of g_general_vec
# ---------------------------------------------------------------------------

# y / lambda^(lambda - 3) of a family check: the residue sum down to 1e-300,
# the band the continuation serves, and the large-y expansion
FAMILY_Y = (1e-300, 1e-40, 1e-3, 0.3, 2.0, 7.0, 25.0, 150.0, 3e3, 1e5)


@st.composite
def family_cases(draw):
    """The alpha = 0 list b_0 of a lambda = 3..8 algebra, whose sector lists
    are b_0 + e_1 + .. + e_mu: beta_bar drawn freely, all equal
    (coincident lower parameters), or an integer apart give or take
    1e-3..2e-2 (near-integer spacings); and the point of FAMILY_Y for the
    meijerg check, the eighth at most: past it meijerg at dps 30 takes up
    to a second a point at lambda = 8."""
    lam = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["free", "coincident", "near"]))
    if kind == "free":
        bb = [draw(st.floats(0.08, 2.5)) for _ in range(lam - 1)]
    elif kind == "coincident":
        bb = [draw(st.sampled_from([0.5, 1.25, 1.5, 1.75]))] * (lam - 1)
    else:
        base = draw(st.floats(0.2, 1.4))
        bb = [base + draw(st.integers(0, 1)) + draw(st.sampled_from([-1.0, 1.0]))
              * 10.0 ** draw(st.floats(-3.0, math.log10(2e-2))) for _ in range(lam - 1)]
    return lam, tuple(bb), draw(st.integers(0, 7))


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(family_cases())
@example((4, (1.5, 1.5, 1.5), 5))  # b_0 = (0, 1/2, 1/2, 1/2), the kummer lambda = 4 base
# lambda = 2: the two rows are the Bessel closed forms; b_0 = (0, 1) is integer-spaced
@example((2, (1.5,), 2))
@example((2, (2.0,), 6))
@example((2, (0.05,), 9))
def test_family_rows_are_the_shifted_lists(case):
    # every row within 1e-12 of g_general_vec of its own list on FAMILY_Y,
    # and of meijerg at one of its points; at tol 1e-12 the two evaluations
    # stay within about 3e-13 of each other on such lists
    lam, bb, pick = case
    p = params_from_beta_bar(lam, list(bb))
    y = np.array(FAMILY_Y) * float(lam) ** (lam - 3)
    rows = g_general_vec((), mellin_lists(p, (0, 0))[1], y, 1e-12, shifts=range(1, lam))
    assert rows.shape == (lam, y.size)
    for mu, row in enumerate(rows):
        lower = mellin_lists(p, (mu, 0))[1]
        own = g_general_vec((), lower, y, 1e-12)
        assert row == pytest.approx(own, rel=1e-12, abs=0), mu
        with mp.workdps(30):
            ref = float(mp.meijerg([[], []], [lower, []], mp.mpf(y[pick])))
        assert row[pick] == pytest.approx(ref, rel=1e-12, abs=0), mu


def test_family_without_shifts_is_the_one_list_call():
    b = [0.0, 0.28765, -0.341984]
    y = np.geomspace(1e-300, 1e5, 400)
    one = g_general_vec((), b, y)
    rows = g_general_vec((), b, y, shifts=(1, 2))
    assert rows.shape == (3, y.size)
    assert g_general_vec((), b, y, shifts=()).tobytes() == one.tobytes()
    assert rows[0] == pytest.approx(one, rel=1e-11, abs=0)


def test_family_row_a_route_leaves_takes_its_own_list(monkeypatch):
    # with the family's continuation refusing every shifted row, those rows
    # come from their own lists, and row 0 stays the family's
    b = [0.0, 0.28765, -0.341984]
    y = np.geomspace(1e-3, 1e4, 60)
    continuation, calls = specfun._continuation_vec, []

    def refuse_shifted(a, b, y, tol, shifts=()):
        if not shifts:
            return continuation(a, b, y, tol)
        calls.append(y.size)
        vals, ok = continuation(a, b, y, tol, shifts)
        ok[1:] = False
        return vals, ok

    monkeypatch.setattr(specfun, "_continuation_vec", refuse_shifted)
    rows = g_general_vec((), b, y, shifts=(1, 2))
    assert calls and calls[0] > 0
    for row, lower in zip(rows, specfun._family(b, (1, 2))[1]):
        assert row == pytest.approx(g_general_vec((), lower, y), rel=1e-11, abs=0)


ROUTES = ("_closed_vec", "_slater_vec", "_expansion_vec", "_continuation_vec")


@pytest.mark.parametrize("shifts", [(), (1,), (1, 0, 1)])
@pytest.mark.parametrize("route", ROUTES)
def test_route_returns_the_family_rows_and_ok(route, shifts):
    # every route returns (values, ok), each of shape (rows, points), a call
    # without shifts one row; each accepts some of these points, and there
    # agrees with the router's rows
    b, y = [0.0, 0.4], np.array([0.3, 2.0, 30.0, 400.0])
    vals, ok = getattr(specfun, route)([], b, y, 1e-11, shifts)
    assert vals.shape == ok.shape == (len(shifts) + 1, y.size) and ok.dtype == bool
    assert ok[0].any()
    rows = np.atleast_2d(g_general_vec((), b, y, 1e-11, shifts=shifts))
    assert vals[ok] == pytest.approx(rows[ok], rel=1e-12, abs=0)


def test_family_continuation_miss_on_row_0_raises_as_the_one_list_call(monkeypatch):
    # the residue sum refuses every point and four Taylor terms a step leave
    # the continuation short of its bound on the kummer list of
    # test_unmet_tolerance_is_a_one_line_error: a family raises the one-list
    # call's NoConvergence, whatever its shifts
    monkeypatch.setattr(
        specfun, "_slater_vec",
        lambda a, b, y, tol, shifts=(): (np.zeros((len(shifts) + 1,) + y.shape),
                                          np.zeros((len(shifts) + 1,) + y.shape, bool)),
    )
    monkeypatch.setattr(specfun, "_TAYLOR_TERMS", 4)
    a, b = [1 / 3], [0.0, -1 / 3]
    y = np.geomspace(1e-3, 50.0, 30)
    with pytest.raises(NoConvergence, match="missed its remainder bound") as one:
        g_general_vec(a, b, y)
    for shifts in ((1,), (0, 1)):
        with pytest.raises(NoConvergence) as family:
            g_general_vec(a, b, y, shifts=shifts)
        assert str(family.value) == str(one.value)


@pytest.mark.parametrize("a, b", [((), (0.0, 0.4)), ((), (0.0, 1 / 3, 0.9)), ((0.9,), (0.0, 0.2, 0.55))])
@pytest.mark.parametrize("shifts", [(), (1,)])
def test_empty_y_runs_no_route(monkeypatch, a, b, shifts):
    calls = []
    for name in ROUTES:
        monkeypatch.setattr(specfun, name, lambda *args, **kw: calls.append(args))
    got = g_general_vec(a, b, np.zeros(0), shifts=shifts)
    assert got.shape == ((len(shifts) + 1, 0) if shifts else (0,)) and got.dtype == float
    assert not calls


@pytest.mark.parametrize("shifts", [(2,), (-1,), (1, 0, 5)])
def test_shifts_are_checked_where_they_enter(monkeypatch, shifts):
    # an index past the lower list, or a negative one that would wrap, names
    # the shifts before any route runs
    calls = []
    for name in ROUTES:
        monkeypatch.setattr(specfun, name, lambda *args, **kw: calls.append(args))
    with pytest.raises(DomainError, match=r"shifts index the lower list 0\.\.1"):
        g_general_vec([], [0.0, 0.4], np.array([0.5, 2.0]), shifts=shifts)
    assert not calls


def test_one_route_pass_for_all_sector_weights(monkeypatch, tmp_path):
    # a lambda = 3 resolution command runs the continuation's recurrence once
    # and each cluster of b_0 once for all three of its weights
    from clext import cli

    # the moments workload's seed-1 draw about beta_bar = (4/3, 2/3), whose band
    # needs the continuation
    p = params_from_beta_bar(3, [1.28765, 0.658016])
    b = mellin_lists(p, (0, 0))[1]
    calls = {"_taylor_coeffs": 0, "_cluster_series": 0}
    for name in calls:
        inner = getattr(specfun, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(specfun, name, counted)
    alpha = ",".join(repr(float(v)) for v in p.alpha)
    for mode in ("diagonal_alpha0", "eigenstate_diag", "eigenstate_offdiag"):
        calls.update({name: 0 for name in calls})
        assert cli.main(["resolution", "--lambda", "3", "--alpha", alpha, "--mode", mode,
                         "--out", str(tmp_path / f"{mode}.csv")]) == 0
        assert calls == {"_taylor_coeffs": 1, "_cluster_series": len(specfun._clusters(b))}, mode

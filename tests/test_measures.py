import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import assume, given, settings, strategies as st

from clext import params_from_beta_bar, validate_params
from clext.errors import DomainError, PositivityUnavailable, SectorError
from clext.measures import (
    EigenstateMeasures,
    MomentProblem,
    WeightFunction,
    eigenstate_measures,
    mellin_lists,
    moment_target,
    positivity_condition,
    verify_identity_resolution,
    verify_moments,
    weight_function,
)
from clext.states import log_weights
from closed_forms import carleman_test, hankel_hadamard
from conftest import hausdorff_closed_form, meijer_weight, random_valid_params


class TestMomentTargets:
    def test_perelomov_case(self, paraboson_params):
        # lambda = 2, alpha = 1, bb1 = 2: B(k) = 1/(pi (k+1))
        prob = MomentProblem(paraboson_params, (0, 1))
        for k in range(6):
            assert moment_target(prob, k) == pytest.approx(1.0 / (math.pi * (k + 1)), rel=1e-13)

    def test_lambda2_alpha0_case(self, paraboson_params):
        # B(k) = Gamma(k+1) Gamma(bb1+k) / (4 pi Gamma(bb1))
        bb1 = 2.0
        prob = MomentProblem(paraboson_params, (0, 0))
        for k in range(6):
            expect = math.gamma(k + 1.0) * math.gamma(bb1 + k) / (4 * math.pi * math.gamma(bb1))
            assert moment_target(prob, k) == pytest.approx(expect, rel=1e-13)

    def test_positivity_of_targets(self, rng):
        for lam in (2, 3, 4):
            p = random_valid_params(rng, lam)
            for alpha in range(lam // 2 + 1):
                prob = MomentProblem(p, (0, alpha))
                assert all(moment_target(prob, k) > 0 for k in range(0, 51, 10))


class TestPositivityCondition:
    def test_fig1_certificate(self, fig1_params):
        cert = positivity_condition(fig1_params, (0, 1))
        assert cert is not None

    def test_zero_parameter_refusal(self):
        p = validate_params(3, (0.0, 0.0, 0.0))
        assert positivity_condition(p, (0, 1)) is None

    def test_perelomov_certificate(self, paraboson_params):
        cert = positivity_condition(paraboson_params, (0, 1))
        assert cert is not None  # bb1 = 2 > 1

    def test_alpha0_unconditional(self, fig1_params):
        cert = positivity_condition(fig1_params, (2, 0))
        assert cert == ()

    def test_matches_branch_conditions(self):
        # alpha = 2, mu = 0: either bb1 > bb3, bb2 > 1 or bb1 > 1, bb2 > bb3
        good = params_from_beta_bar(4, [1.5, 1.5, 1.25])
        assert positivity_condition(good, (0, 2)) is not None
        bad = params_from_beta_bar(4, [0.9, 0.8, 1.25])
        assert positivity_condition(bad, (0, 2)) is None


class TestWeights:
    def test_perelomov_flat_weight(self, paraboson_params):
        w = weight_function(paraboson_params, (0, 1))
        assert w.form == "beta_power"
        vals = w.evaluate(np.array([0.1, 0.5, 0.9]))
        assert vals == pytest.approx(np.full(3, 1.0 / math.pi), rel=1e-12)

    def test_fig1_weight_is_kummer_form(self, fig1_params):
        bb1, bb2 = 4 / 3, 2 / 3
        w = weight_function(fig1_params, (0, 1))
        assert w.form == "kummer"
        for y in (0.1, 1.0, 4.0, 12.0):
            ref = (
                math.gamma(bb1)
                / (3 * math.pi * math.gamma(bb2))
                * math.exp(-y)
                * float(mp.hyperu(bb1 - bb2, 2.0 - bb2, y))
            )
            assert float(w.evaluate(y)[0]) == pytest.approx(ref, rel=1e-8)

    def test_h2_finite_limit_at_zero(self):
        # bb3 > 1: h(0+) -> (bb1-1)(bb2-1)/(pi (bb3-1))
        p = params_from_beta_bar(4, [1.5, 1.5, 1.25])
        w = weight_function(p, (0, 2))
        limit = (0.5 * 0.5) / (math.pi * 0.25)
        # the limit is approached like y^(bb3 - 1) = y^0.25, so probe deep
        assert float(w.evaluate(1e-26)[0]) == pytest.approx(limit, rel=1e-5)

    def test_h2_positivity_branches_agree(self):
        # the other positivity branch exchanges the roles of the lower
        # Mellin parameters 0 and bb3 - 1:
        # A y^(bb3-1) (1-y)^(s-1) / Gamma(s) 2F1(bb1-1, bb2-1; s; 1-y),
        # s = bb1 + bb2 - bb3 - 1
        p = params_from_beta_bar(4, [1.5, 1.5, 1.25])
        w = weight_function(p, (0, 2))
        bb1, bb2, bb3 = 1.5, 1.5, 1.25
        s = bb1 + bb2 - bb3 - 1.0
        amp = math.exp(MomentProblem(p, (0, 2)).log_A)
        for y in (0.15, 0.5, 0.85):
            swapped = (
                amp
                * y ** (bb3 - 1.0)
                * (1.0 - y) ** (s - 1.0)
                / math.gamma(s)
                * float(mp.hyp2f1(bb1 - 1.0, bb2 - 1.0, s, 1.0 - y))
            )
            assert float(w.evaluate(y)[0]) == pytest.approx(swapped, rel=1e-10)

    def test_refusal_raises(self):
        p = validate_params(3, (0.0, 0.0, 0.0))
        with pytest.raises(PositivityUnavailable):
            weight_function(p, (0, 1))

    def test_certified_weights_nonnegative(self, rng):
        grid = np.logspace(-3, 1, 1000)
        for lam, mu, alpha in [(2, 0, 0), (3, 0, 1), (3, 1, 0), (4, 0, 1)]:
            for _ in range(3):
                p = random_valid_params(rng, lam)
                cert = positivity_condition(p, (mu, alpha))
                if cert is None:
                    continue
                w = weight_function(p, (mu, alpha))
                g = grid if w.y_max == math.inf else np.linspace(1e-3, 0.999, 1000)
                assert float(np.min(w.evaluate(g))) > -1e-12


class TestVerifyMoments:
    def test_exact_beta_case(self, paraboson_params):
        rep = verify_moments(weight_function(paraboson_params, (0, 1)), 10, 1e-10)
        assert rep.passed and rep.max_rel_error < 1e-10

    def test_negative_k_max_is_refused(self, paraboson_params):
        with pytest.raises(ValueError, match="k_max must be >= 0, got -1"):
            verify_moments(weight_function(paraboson_params, (0, 1)), -1, 1e-10)

    def test_every_certified_case_lambda_le_4(self, rng):
        for lam in (2, 3, 4):
            p = random_valid_params(rng, lam)
            for alpha in range(lam // 2 + 1):
                for mu in range(lam - alpha):
                    cert = positivity_condition(p, (mu, alpha))
                    if cert is None:
                        continue
                    w = weight_function(p, (mu, alpha))
                    rep = verify_moments(w, 8, 1e-6)
                    assert rep.passed, (lam, mu, alpha, rep.max_rel_error)

    @pytest.mark.parametrize("lam", [2, 3, 4, 5, 6])
    def test_orders_of_one_call_match_their_own_calls(self, rng, lam):
        # an order's integral and error estimate carry the same bits whichever
        # orders share its call
        checked = 0
        for p in (random_valid_params(rng, lam) for _ in range(2)):
            for alpha in range(lam // 2 + 1):
                for mu in range(lam - alpha):
                    if positivity_condition(p, (mu, alpha)) is None:
                        continue
                    w = weight_function(p, (mu, alpha))
                    for width in (3, 4, 9):
                        fine, err = w.moment(np.arange(width, dtype=float))
                        for k in range(width):
                            assert w.moment(float(k)) == (fine[k], err[k]), (p, mu, alpha, width, k)
                            checked += 1
        assert checked >= 32

    @pytest.mark.parametrize("lam, mu, alpha", [(3, 0, 0), (3, 0, 1), (4, 0, 2)])
    def test_one_weight_evaluation_per_grid(self, lam, mu, alpha):
        # the shadow grid's values are a slice of the fine grid's
        p = params_from_beta_bar(lam, [4 / 3, 2 / 3] if lam == 3 else [1.5, 1.5, 1.25])
        w = weight_function(p, (mu, alpha))
        calls = []
        inner = w._eval

        def counted(*args):
            calls.append(args)
            return inner(*args)

        w._eval = counted
        rep = verify_moments(w, 8, 1e-6)
        assert rep.passed and len(calls) == 1


class TestHankelHadamard:
    def test_solvable_cases_positive(self, paraboson_params, fig1_params):
        for prob in (MomentProblem(paraboson_params, (0, 1)), MomentProblem(fig1_params, (0, 1))):
            e0, e1 = hankel_hadamard(prob, 5)
            assert e0 > 0 and e1 > 0

    def test_order_one(self, paraboson_params):
        prob = MomentProblem(paraboson_params, (0, 1))
        e0, e1 = hankel_hadamard(prob, 1)
        assert e0 == pytest.approx(moment_target(prob, 0))
        assert e1 == pytest.approx(moment_target(prob, 1))

    def test_scaling_linearity(self, paraboson_params):
        prob = MomentProblem(paraboson_params, (0, 1))
        e0, e1 = hankel_hadamard(prob, 4)
        h0 = np.array([[moment_target(prob, i + j) for j in range(4)] for i in range(4)])
        assert np.linalg.eigvalsh(2.0 * h0).min() == pytest.approx(2.0 * e0, rel=1e-12)


class TestCarleman:
    @pytest.mark.parametrize(
        "lam,alpha,exponent,verdict",
        [
            (2, 0, -1.0, "inconclusive"),
            (2, 1, 0.0, "unique"),
            (3, 0, -1.5, "possibly_nonunique"),
            (3, 1, -0.5, "unique"),
            (4, 0, -2.0, "possibly_nonunique"),
            (4, 1, -1.0, "inconclusive"),
            (4, 2, 0.0, "unique"),
            (5, 1, -1.5, "possibly_nonunique"),
            (5, 2, -0.5, "unique"),
        ],
    )
    def test_classification(self, rng, lam, alpha, exponent, verdict):
        p = random_valid_params(rng, lam)
        res = carleman_test(p, alpha)
        assert res.exponent == pytest.approx(exponent)
        assert res.verdict == verdict

    def test_partial_sum_trend(self, fig1_params):
        # divergent case: the second half of the sum keeps contributing
        res = carleman_test(fig1_params, 1)
        assert res.verdict == "unique"
        # terms fall off like k^(-1/2): S(200)/S(100) ~ sqrt(2)
        assert res.partial_sum > 1.3 * res.partial_sum_half


class TestEigenstateMeasures:
    def test_lambda2_bessel_closed_forms(self, paraboson_params):
        meas = eigenstate_measures(paraboson_params)
        bb1 = 2.0
        for mu in (0, 1):
            for zabs in (0.6, 1.2, 2.2):
                t = zabs**2 / 2.0
                ref = zabs ** (2 * bb1) * sp.kv(bb1 - 1 + mu, zabs**2)
                ref /= 2.0 ** (bb1 - 1.0) * math.pi * math.gamma(bb1)
                assert float(meas.h(mu, t)[0]) == pytest.approx(ref, rel=1e-9)

    def test_g_fourier_mix_identities(self, paraboson_params):
        meas = eigenstate_measures(paraboson_params)
        t = 0.9
        h0 = float(meas.h(0, t)[0])
        h1 = float(meas.h(1, t)[0])
        assert complex(meas.g(0, t)[0]) == pytest.approx(0.5 * (h0 + h1), abs=1e-13)
        assert complex(meas.g(1, t)[0]) == pytest.approx(0.5 * (h0 - h1), abs=1e-13)

    def test_g_sum_recovers_h0(self, fig1_params):
        meas = eigenstate_measures(fig1_params)
        t = 0.7
        total = sum(complex(meas.g(mu, t)[0]) for mu in range(3))
        assert total.imag == pytest.approx(0.0, abs=1e-12)
        assert total.real == pytest.approx(float(meas.h(0, t)[0]), rel=1e-10)

    @pytest.mark.parametrize("mu", [-1, 3])
    def test_member_outside_family_0_is_refused(self, fig1_params, mu):
        # at the parent h_moment(-1, .) read the mu = 2 weight with the mu = 0
        # prefactor, and mu = 3 raised IndexError
        meas = eigenstate_measures(fig1_params)
        message = f"^only the trivial solution exists for mu = {mu}, alpha = 0$"
        with pytest.raises(SectorError, match=message):
            meas.h_moment(mu, 2.0)
        with pytest.raises(SectorError, match=message):
            meas.h(mu, 0.7)


class TestResolutions:
    def test_diagonal_alpha0(self, paraboson_params, fig1_params):
        for p in (paraboson_params, fig1_params):
            rep = verify_identity_resolution(p, "diagonal_alpha0", 6, 1e-6)
            assert rep.passed, rep.diagonal

    def test_diagonal_alpha0_is_the_coefficient_form(self, paraboson_params, fig1_params, rng):
        # M_k / B(k) against pi lam^lam w_k M_k, w_k the squared unnormalized
        # coefficient of |k lam + mu>: exp(-log D_n) prod_(nu<=mu) bb_nu with
        # log D_n = L(n) - n log(lam)
        for p in (paraboson_params, fig1_params, random_valid_params(rng, 4)):
            lam = p.lam
            meas = eigenstate_measures(p)
            rep = verify_identity_resolution(p, "diagonal_alpha0", 8, 1e-6)
            log_d = -sum(log_weights(p, 8)) - np.arange(9) * math.log(lam)
            for n, got in enumerate(rep.diagonal):
                k, mu = divmod(n, lam)
                log_w = -log_d[n] + sum(math.log(p.beta_bar_at(nu)) for nu in range(1, mu + 1))
                ref = math.pi * lam**lam * math.exp(log_w) * meas.weights[mu].moment(float(k))[0]
                assert abs(got - ref) <= 1e-13

    def test_eigenstate_modes_agree(self, paraboson_params):
        diag = verify_identity_resolution(paraboson_params, "eigenstate_diag", 6, 1e-6)
        off = verify_identity_resolution(paraboson_params, "eigenstate_offdiag", 6, 1e-6)
        assert diag.passed and off.passed
        for a, b in zip(diag.diagonal, off.diagonal):
            assert abs(a - b) < 1e-8

    def test_n_max_guard(self, paraboson_params):
        with pytest.raises(ValueError):
            verify_identity_resolution(paraboson_params, "diagonal_alpha0", 9)

    @pytest.mark.parametrize("mode", ["diagonal_alpha0", "eigenstate_diag", "eigenstate_offdiag"])
    def test_negative_n_max_is_refused(self, paraboson_params, mode):
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            verify_identity_resolution(paraboson_params, mode, -1)


class TestConjecture:
    # the conjecture: the r = 0 weight is A G^{alpha,0}_{alpha,alpha}, checked
    # by mpmath's meijerg against the paper's 2F1 and Appell forms and the
    # library's Norlund series
    def test_alpha2_matches_series(self):
        p = params_from_beta_bar(4, [1.5, 1.5, 1.25])
        w = weight_function(p, (0, 2))
        for y in (0.1, 0.35, 0.6, 0.85):
            meijer = meijer_weight(p, 0, 2, y)
            closed = hausdorff_closed_form(p, 0, 2, y)
            assert meijer == pytest.approx(closed, rel=1e-7)
            assert float(w.evaluate(y)[0]) == pytest.approx(closed, rel=1e-7)

    def test_alpha3_three_routes(self):
        p = params_from_beta_bar(6, [1.9, 1.7, 1.5, 0.9, 0.8])
        w = weight_function(p, (0, 3))
        for y in (0.3, 0.55, 0.8):
            appell = hausdorff_closed_form(p, 0, 3, y)
            series = float(w.evaluate(y)[0])
            meijer = meijer_weight(p, 0, 3, y)
            assert series == pytest.approx(appell, rel=1e-8)
            assert meijer == pytest.approx(appell, rel=1e-7)


class TestLambda6Weight:
    def test_alpha3_weight_against_mpmath_and_moments(self):
        import mpmath as mp

        mp.mp.dps = 30
        p6 = params_from_beta_bar(6, [1.9, 1.7, 1.5, 0.9, 0.8])
        w = weight_function(p6, (0, 3))
        assert w.form == "appell_f3"
        a, b = mellin_lists(p6, (0, 3))
        amp = math.exp(MomentProblem(p6, (0, 3)).log_A)
        for y in (1e-6, 0.2, 0.44, 0.46, 0.8):
            ref = amp * float(mp.meijerg([[], list(a)], [list(b), []], y))
            assert float(w.evaluate(y)[0]) == pytest.approx(ref, rel=1e-9)
        rep = verify_moments(w, 6, 1e-6)
        assert rep.passed, rep.max_rel_error


# (form, beta_bar): the benchmark's three r = 0 cases and the lambda = 8 test point
HAUSDORFF_CASES = [
    ("beta_power", (2.6,)),
    ("gauss2f1", (1.5, 1.5, 1.25)),
    ("appell_f3", (1.9, 1.7, 1.5, 0.9, 0.8)),
    ("multiple_series", (2.4, 2.2, 2.0, 1.8, 0.9, 0.85, 0.8)),
]


@pytest.mark.parametrize("form,bb", HAUSDORFF_CASES, ids=[c[0] for c in HAUSDORFF_CASES])
def test_hausdorff_moments(form, bb):
    lam = len(bb) + 1
    p = params_from_beta_bar(lam, bb)
    w = weight_function(p, (0, lam // 2))
    assert w.form == form
    rep = verify_moments(w, 8, 1e-10)
    assert rep.passed, rep.max_rel_error


@st.composite
def hausdorff_cases(draw):
    """(lambda, beta_bar, mu, y) of a certified r = 0 weight, y in [0.1, 1).

    The alpha largest beta_bar values go to the upper Mellin parameters
    beta_bar_{mu+1..mu+alpha} - 1, which makes most draws certified."""
    lam = draw(st.sampled_from([2, 4, 6, 8]))
    alpha = lam // 2
    mu = draw(st.integers(0, alpha - 1))
    vals = sorted(
        (draw(st.floats(0.08, 2.5, exclude_min=True, exclude_max=True)) for _ in range(lam - 1)),
        reverse=True,
    )
    upper = draw(st.permutations(vals[:alpha]))
    lower = draw(st.permutations(vals[alpha:]))
    bb = lower[:mu] + upper + lower[mu:]
    return lam, tuple(bb), mu, draw(st.floats(0.1, 1.0, exclude_max=True))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(hausdorff_cases())
def test_hausdorff_weight_sweep(case):
    lam, bb, mu, y = case
    p = params_from_beta_bar(lam, bb)
    alpha = lam // 2
    assume(positivity_condition(p, (mu, alpha)) is not None)
    problem = MomentProblem(p, (mu, alpha))
    a, b = mellin_lists(p, (mu, alpha))
    with mp.workdps(30):
        # scale G so that its zeroth moment is B(0)
        mass = mp.fprod(mp.gamma(1 + v) for v in b) / mp.fprod(mp.gamma(1 + v) for v in a)
        ref = float(moment_target(problem, 0) / mass * mp.meijerg([[], a], [b, []], y))
    got = float(weight_function(p, (mu, alpha)).evaluate(y)[0])
    assert got == pytest.approx(ref, rel=1e-12)


@st.composite
def stieltjes_cases(draw):
    """(lambda, beta_bar, mu, alpha, y) of a Stieltjes weight with r in {1, 2},
    y log-uniform on [1e-30, 50]; upper parameters take the largest values,
    as in hausdorff_cases."""
    lam = draw(st.sampled_from([3, 4, 5, 6]))
    alpha = (lam - 1) // 2
    mu = draw(st.integers(0, lam - alpha - 1))
    vals = sorted(
        (draw(st.floats(0.08, 2.5, exclude_min=True, exclude_max=True)) for _ in range(lam - 1)),
        reverse=True,
    )
    upper = draw(st.permutations(vals[:alpha]))
    lower = draw(st.permutations(vals[alpha:]))
    bb = lower[:mu] + upper + lower[mu:]
    return lam, tuple(bb), mu, alpha, 10.0 ** draw(st.floats(-30.0, math.log10(50.0)))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(stieltjes_cases())
def test_stieltjes_weight_sweep(case):
    # the direct G^{m,0}_{alpha,m} evaluation matches meijerg at every draw,
    # small pair gaps included (the convolution refused gap sums whose
    # (1 - u)^(s-1) mass lay beyond its tanh-sinh nodes)
    lam, bb, mu, alpha, y = case
    p = params_from_beta_bar(lam, bb)
    cert = positivity_condition(p, (mu, alpha))
    assume(cert is not None)
    a, b = mellin_lists(p, (mu, alpha))
    with mp.workdps(30):
        mass = mp.fprod(mp.gamma(1 + v) for v in b) / mp.fprod(mp.gamma(1 + v) for v in a)
        ref = float(moment_target(MomentProblem(p, (mu, alpha)), 0) / mass
                    * mp.meijerg([[], a], [b, []], y))
    got = float(weight_function(p, (mu, alpha)).evaluate(y)[0])
    assert got == pytest.approx(ref, rel=1e-12)


# the four r >= 3 weights whose inner G^{r,0}_{0,r} came from a log-log
# table (moments 1.4e-9 to 2.6e-9 there): lambda, beta_bar, mu, alpha
TABLE_CASES = (
    (5, (1.5, 1.3, 1.2, 0.9), 0, 1),
    (6, (1.9, 1.7, 1.5, 1.0, 0.8), 0, 1),
    (7, (1.3, 1.2, 1.1, 1.0, 0.9, 0.8), 0, 2),
    (6, (1.3, 1.2, 1.1, 1.0, 0.9), 1, 1),
)


def test_certified_stieltjes_moments_sweep():
    # seeded certified r > 0, alpha >= 1 weights of lambda <= 8, a third of
    # them with one shared beta_bar (coincident lower parameters), plus the
    # table cases: moments k <= 8 within 1e-10, and none refused
    rng = np.random.default_rng(20261019)
    cases = list(TABLE_CASES)
    while len(cases) < 20:
        lam = int(rng.integers(3, 9))
        alpha = int(rng.integers(1, (lam - 1) // 2 + 1))
        mu = int(rng.integers(0, lam - alpha))
        bb = rng.uniform(0.08, 2.5, lam - 1)
        if rng.random() < 1 / 3:
            bb[rng.random(lam - 1) < 0.5] = bb[0]
        p = params_from_beta_bar(lam, bb)
        if positivity_condition(p, (mu, alpha)) is not None:
            cases.append((lam, tuple(bb), mu, alpha))
    for lam, bb, mu, alpha in cases:
        p = params_from_beta_bar(lam, bb)
        rep = verify_moments(weight_function(p, (mu, alpha)), 8, 1e-10)
        assert rep.passed, (lam, bb, mu, alpha, rep.max_rel_error)


class TestStieltjesRegressions:
    def test_bessel_inner_kernel_at_small_y(self):
        # the Bessel inner kernel's small-x form was 3.8e-4 off at nu = 0.25
        p = params_from_beta_bar(4, [1.5, 1.0, 0.75])
        a, b = mellin_lists(p, (0, 1))
        amp = math.exp(MomentProblem(p, (0, 1)).log_A)
        with mp.workdps(30):
            ref = amp * float(mp.meijerg([[], a], [b, []], 1e-15))
        assert float(weight_function(p, (0, 1)).evaluate(1e-15)[0]) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("bb", [(1.5, 1.5, 1.5), (1.25, 1.25, 1.25)])
    def test_equal_parameters_cancel(self, bb):
        # a = (bb - 1) cancels one of b = (0, bb - 1, bb - 1): the weight is
        # 2A y^(b/2) K_b(2 sqrt y) with b = bb - 1, not a convolution
        p = params_from_beta_bar(4, bb)
        w = weight_function(p, (0, 1))
        assert w.form == "kummer"
        rep = verify_moments(w, 8, 1e-13)
        assert rep.passed, rep.max_rel_error
        a, b = mellin_lists(p, (0, 1))
        y = np.array([1e-12, 1e-3, 0.5, 4.0, 60.0])
        got = w.evaluate(y)
        with mp.workdps(30):
            mass = mp.fprod(mp.gamma(1 + v) for v in b) / mp.fprod(mp.gamma(1 + v) for v in a)
            for g, v in zip(got, y):
                ref = moment_target(w.problem, 0) / mass * mp.meijerg([[], a], [b, []], v)
                assert g == pytest.approx(float(ref), rel=1e-13)

    def test_tabulated_inner_kernel_moments(self):
        # r = 3: the weight whose inner G^{3,0}_{0,3} once came from a
        # log-log table, now evaluated directly
        p = params_from_beta_bar(5, [1.5, 1.3, 1.2, 0.9])
        w = weight_function(p, (0, 1))
        assert w.form == "kummer"
        rep = verify_moments(w, 8, 1e-7)
        assert rep.passed, rep.max_rel_error


class TestBoundaryBehavior:
    def test_fig1_weight_vanishes_at_infinity(self, fig1_params):
        w = weight_function(fig1_params, (0, 1))
        assert float(w.evaluate(25.0)[0]) < 1e-6 * float(w.evaluate(0.1)[0])

    def test_fig1_divergent_limit_when_bb2_le_1(self, fig1_params):
        # bb2 = 2/3 <= 1: h(0+) diverges
        w = weight_function(fig1_params, (0, 1))
        assert float(w.evaluate(1e-8)[0]) > 100.0 * float(w.evaluate(0.1)[0])

    def test_fig2b_endpoint_limits(self):
        # at y -> 1: infinite, finite Gamma value, or 0 as bb1+bb2-bb3 <=> 2
        solid = params_from_beta_bar(4, [1.5, 1.0, 0.75])  # sum - bb3 = 1.75 < 2
        dashed = params_from_beta_bar(4, [1.5, 1.25, 0.75])  # exactly 2
        dotdash = params_from_beta_bar(4, [1.5, 1.5, 0.75])  # 2.25 > 2
        near, nearer = 1e-3, 1e-6
        w = weight_function(solid, (0, 2))
        assert float(w.evaluate(1 - nearer, one_minus_y=nearer)[0]) > 5.0 * float(
            w.evaluate(1 - near, one_minus_y=near)[0]
        )
        w = weight_function(dashed, (0, 2))
        limit = math.gamma(1.5) * math.gamma(1.25) / (math.pi * math.gamma(0.75))
        assert float(w.evaluate(1 - nearer, one_minus_y=nearer)[0]) == pytest.approx(limit, rel=1e-2)
        w = weight_function(dotdash, (0, 2))
        assert float(w.evaluate(1 - nearer, one_minus_y=nearer)[0]) < 0.2 * float(
            w.evaluate(1 - near, one_minus_y=near)[0]
        )


class TestUnsignedEscape:
    def test_mu1_fig1_moments_without_certificate(self, fig1_params):
        assert positivity_condition(fig1_params, (1, 1)) is None
        with pytest.raises(PositivityUnavailable):
            weight_function(fig1_params, (1, 1))
        w = weight_function(fig1_params, (1, 1), require_positive=False)
        rep = verify_moments(w, 8, 1e-6)
        assert rep.passed
        # the density really does change sign here
        vals = w.evaluate(np.linspace(0.05, 3.0, 40))
        assert vals.min() < 0 < vals.max()


def test_mellin_lists_reproduce_targets(fig1_params):
    # gamma-product check: B(k)/A = prod Gamma(k+1+b) / prod Gamma(k+1+a)
    for mu, alpha in [(0, 1), (1, 1), (0, 0), (2, 0)]:
        prob = MomentProblem(fig1_params, (mu, alpha))
        a, b = mellin_lists(fig1_params, (mu, alpha))
        for k in (0, 3):
            log = sum(math.lgamma(k + 1 + bv) for bv in b)
            log -= sum(math.lgamma(k + 1 + av) for av in a)
            assert prob.log_B(k) - prob.log_A == pytest.approx(log, abs=1e-12)


def _mellin_lists_by_index(params, mu, alpha):
    """(a, b) of the inverse Mellin transform, one beta_bar index at a time."""
    lam = params.lam
    a = [params.beta_bar_at(mu + nu) - 1.0 for nu in range(1, alpha + 1)]
    b = [0.0]
    b += [params.beta_bar_at(nu - 1) for nu in range(2, mu + 2)]
    b += [params.beta_bar_at(nu + alpha - 1) - 1.0 for nu in range(mu + 2, lam - alpha + 1)]
    return a, b


def _log_a_loops(params, mu, alpha):
    lam = params.lam
    out = -math.log(math.pi) - (lam - 2 * alpha) * math.log(lam)
    for nu in range(mu + 1, mu + alpha + 1):
        out += math.lgamma(params.beta_bar_at(nu))
    for nu in range(1, mu + 1):
        out -= math.lgamma(params.beta_bar_at(nu) + 1.0)
    for nu in range(mu + alpha + 1, lam):
        out -= math.lgamma(params.beta_bar_at(nu))
    return out


def _log_b_loops(params, mu, alpha, k):
    lam = params.lam
    out = _log_a_loops(params, mu, alpha) + math.lgamma(k + 1.0)
    for nu in range(1, mu + 1):
        out += math.lgamma(params.beta_bar_at(nu) + k + 1.0)
    for nu in range(mu + alpha + 1, lam):
        out += math.lgamma(params.beta_bar_at(nu) + k)
    for nu in range(mu + 1, mu + alpha + 1):
        out -= math.lgamma(params.beta_bar_at(nu) + k)
    return out


def test_sector_lists_match_the_index_loops(rng):
    # mellin_lists and the moment targets derive from states.sector_lists;
    # the per-index loops are the reference.  The one change in arithmetic
    # is that bb_nu (nu <= mu) enters as (bb_nu + 1) - 1 and (bb_nu + 1) + k:
    # b within one rounding of bb + 1 < 4 (2^-51), and each log B term within
    # psi(54) ~ 4 times one rounding of 54 (7e-15), seven terms at lambda = 8,
    # plus the partial sums' roundings that then differ (8 eps |log B|)
    for lam in range(2, 9):
        p = random_valid_params(rng, lam)
        for alpha in range(lam // 2 + 1):
            for mu in range(lam - alpha):
                a, b = mellin_lists(p, (mu, alpha))
                ref_a, ref_b = _mellin_lists_by_index(p, mu, alpha)
                assert a == ref_a
                np.testing.assert_allclose(b, ref_b, rtol=0, atol=2.0**-51)
                prob = MomentProblem(p, (mu, alpha))
                assert prob.log_A == _log_a_loops(p, mu, alpha)
                for k in range(51):
                    ref = _log_b_loops(p, mu, alpha, k)
                    assert abs(prob.log_B(k) - ref) <= 2e-13 + 8 * np.finfo(float).eps * abs(ref)


def test_m0_slater_vs_contour_on_algebra_parameters(rng):
    # the m0 class's residue sum and the ODE continuation agree on y in
    # {0.1,...,5} for lower-parameter lists drawn from valid algebras
    # (lambda <= 4)
    from clext.specfun import _continuation_vec, _slater_vec

    for lam in (2, 3, 4):
        p = random_valid_params(rng, lam)
        for mu in range(lam):
            _, b = mellin_lists(p, (mu, 0))
            degenerate = any(
                abs((b[i] - b[j]) - round(b[i] - b[j])) < 1e-9
                for i in range(len(b))
                for j in range(i + 1, len(b))
            )
            if degenerate:
                continue
            y = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
            (slater,), (ok,) = _slater_vec([], b, y, 1e-9)
            (continued,), _ = _continuation_vec([], b, y, 1e-11)
            assert ok.all()
            assert slater == pytest.approx(continued, rel=1e-7, abs=1e-12)


def test_alpha4_conjecture_reported_not_asserted():
    # r = 0, alpha = 4 (lambda = 8): the closed G-form candidate is only
    # reported against the proven nested series; correctness of the
    # candidate is an open question, so nothing beyond sanity is asserted
    p8 = params_from_beta_bar(8, [2.4, 2.2, 2.0, 1.8, 0.9, 0.85, 0.8])
    w = weight_function(p8, (0, 4))
    assert w.form == "multiple_series"
    for y in (0.3, 0.6):
        series = float(w.evaluate(y)[0])
        candidate = meijer_weight(p8, 0, 4, y)
        assert math.isfinite(series) and series > 0
        rel = abs(series - candidate) / abs(series)
        print(f"\nalpha=4 candidate vs series at y={y}: rel diff {rel:.2e}")


def _offdiag_per_pair(params, meas, n_max):
    """The eigenstate_offdiag diagonal with one scalar g_moment call per (mu, n),
    each integrating every h_nu moment again."""
    lam = params.lam
    log_d = -sum(log_weights(params, n_max)) - np.arange(n_max + 1) * math.log(lam)
    out = []
    for n in range(n_max + 1):
        acc = 0.0 + 0.0j
        for mu in range(lam):
            acc += cmath.exp(-2j * math.pi * mu * n / lam) * meas.g_moment(mu, float(n))
        out.append(math.pi * lam * math.exp(-log_d[n]) * acc.real)
    return out


class TestMomentArrays:
    @pytest.mark.parametrize("lam, mu, alpha", [(3, 0, 0), (3, 0, 1), (4, 0, 2), (2, 1, 0)])
    def test_moment_array_is_the_scalar_moments(self, lam, mu, alpha):
        p = params_from_beta_bar(lam, {2: [1.5], 3: [4 / 3, 2 / 3], 4: [1.5, 1.5, 1.25]}[lam])
        w = weight_function(p, (mu, alpha))
        ks = np.array([0.0, 0.5, 1.0, 7 / 3, 4.0, 8.0])
        fine, err = w.moment(ks)
        assert fine.shape == err.shape == ks.shape
        for k, f, e in zip(ks, fine, err):
            one, one_err = w.moment(float(k))
            assert isinstance(one, float) and isinstance(one_err, float)
            assert f == pytest.approx(one, rel=1e-15, abs=0)
            assert e == pytest.approx(one_err, rel=1e-6, abs=1e-15 * abs(one))

    @pytest.mark.parametrize("k, message", [
        (math.inf, "moment orders k must be finite, got inf"),
        (np.array([1.0, math.nan]), "moment orders k must be finite, got [ 1. nan]"),
        (np.array([]), "a moment needs at least one order k, got []"),
    ])
    def test_order_is_checked_where_it_enters(self, fig1_params, k, message):
        w = weight_function(fig1_params, (0, 1))
        with pytest.raises(DomainError) as got:
            w.moment(k)
        assert str(got.value) == message

    def test_offdiag_integrates_each_pair_once(self, fig1_params, monkeypatch):
        # lambda = 3, n_max = 6: 21 integrals (nu, n) in 3 moment calls, and the
        # table of the per-(mu, n) loop, which takes 63
        meas = eigenstate_measures(fig1_params)
        ref = _offdiag_per_pair(fig1_params, meas, 6)
        sizes = []
        moment = WeightFunction.moment

        def counted(self, k):
            sizes.append(np.size(k))
            return moment(self, k)

        monkeypatch.setattr(WeightFunction, "moment", counted)
        rep = verify_identity_resolution(fig1_params, "eigenstate_offdiag", 6, 1e-6)
        assert sizes == [7, 7, 7]
        assert rep.passed
        assert rep.diagonal == pytest.approx(ref, rel=1e-14, abs=0)

    def test_g_moment_arrays(self, fig1_params):
        meas = eigenstate_measures(fig1_params)
        ns = np.array([0.0, 2.0, 5.0])
        table = meas.g_moment(np.arange(3), ns)
        assert table.shape == (3, 3)
        for mu in range(3):
            for j, n in enumerate(ns):
                assert table[mu, j] == pytest.approx(meas.g_moment(mu, float(n)), rel=1e-14, abs=1e-16)
        assert isinstance(meas.g_moment(1, 2.0), complex)


class TestAlpha0Family:
    @pytest.mark.parametrize("lam, bb", [(3, [1.28765, 0.658016]), (4, [1.5, 1.5, 1.5]),
                                         (5, [2.4416, 0.9565, 0.9908, 2.2618])])
    def test_family_weights_are_the_lone_weights(self, lam, bb):
        # the shared grid's values of eigenstate_measures against each weight's
        # own evaluation, within the Meijer-G tol; evaluate() stays the weight's own
        p = params_from_beta_bar(lam, bb)
        meas = eigenstate_measures(p)
        assert isinstance(meas, EigenstateMeasures)
        for mu, w in enumerate(meas.weights):
            lone = weight_function(p, (mu, 0))
            lone._ensure_grid(8.0)
            assert w._grid.y.tobytes() == lone._grid.y.tobytes()
            got = w._sign * np.exp(w._log_abs)
            want = lone._sign * np.exp(lone._log_abs)
            assert got == pytest.approx(want, rel=1e-11, abs=0), mu
            y = np.array([1e-3, 0.7, 9.0])
            assert w.evaluate(y).tobytes() == lone.evaluate(y).tobytes()
            assert w.moment(np.arange(3.0))[0] == pytest.approx(lone.moment(np.arange(3.0))[0], rel=1e-11)

    @pytest.mark.parametrize("bb", [1.5, 2.0, 0.05])
    def test_lambda2_family_values_are_each_weights_own(self, bb):
        # at lambda = 2 the family call's two rows are the Bessel closed forms
        # of each weight's own list: the grid holds what evaluate() returns
        meas = eigenstate_measures(params_from_beta_bar(2, [bb]))
        for w in meas.weights:
            vals = w.evaluate(w._grid.y, w._grid.one_minus_y)
            with np.errstate(divide="ignore"):
                assert w._log_abs.tobytes() == np.log(np.abs(vals)).tobytes()
            assert w._sign.tobytes() == np.sign(vals).tobytes()

"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS line on success (pytest -s shows them);
tolerances are pinned to the stated values.  Criterion 7's large-|z|
clause is asserted literally as stated; the underlying limit is only
approached like ~0.3/t, so the assertion documents an honest failure
(see the decisions ledger) while the companion checks show the limit is
reached farther out.
"""

import cmath
import math
import time

import numpy as np
import pytest

from clext import (
    build_operator,
    energy_eigenvalue,
    params_from_beta_bar,
    sga_structure_poly,
)
from clext.bargmann import check_hermiticity, intertwining_residual
from clext.figures import FIGURE_PRESETS, run_figure
from clext.measures import (
    EigenstateMeasures,
    verify_identity_resolution,
    verify_moments,
    weight_function,
)
from clext.observables import mandel_q, squeezing
from clext.states import StateVector, cs_alpha_state, eigenstate
from closed_forms import bessel_i, carleman_test, eigenstate_norm, norm_series_cs_alpha, sector_y
from conftest import dense, hausdorff_closed_form, meijer_weight, norm_sq, random_valid_params


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_algebra_suite(rng):
    start = time.perf_counter()
    dim = 64
    for i in range(20):
        lam = (2, 3, 4)[i % 3]
        p = random_valid_params(rng, lam)
        interior = dim - lam
        a = dense(build_operator(p, "a", dim))
        ad = dense(build_operator(p, "adag", dim))
        comm = (a @ ad - ad @ a)[:interior, :interior]
        expect = np.diag([1.0 + p.alpha_at(n) for n in range(interior)])
        assert np.abs(comm - expect).max() < 1e-10
        for mu in range(lam):
            pm = dense(build_operator(p, "P", dim, mu=mu))
            pm1 = dense(build_operator(p, "P", dim, mu=mu + 1))
            assert np.array_equal(ad @ pm, pm1 @ ad)
        jp = dense(build_operator(p, "Jplus", dim))
        jm = dense(build_operator(p, "Jminus", dim))
        commj = (jp @ jm - jm @ jp)[:interior, :interior]
        for n in range(interior):
            f = sga_structure_poly(p, energy_eigenvalue(p, n) / lam, n % lam)
            assert abs(commj[n, n] - f) < 1e-10 * max(1.0, abs(f))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"algebra identities on 20 random sets in {elapsed:.2f}s")


def test_criterion_2_state_residuals(rng):
    start = time.perf_counter()
    for lam in (2, 3, 4):
        p = random_valid_params(rng, lam)
        for alpha in range(lam // 2 + 1):
            for mu in range(lam - alpha):
                # |z| <= 2 on the plane families; the alpha = lambda/2
                # family is only defined inside the unit disc
                zmag = 0.9 if 2 * alpha == lam else 2.0
                z = zmag * cmath.exp(1.1j)
                st = cs_alpha_state(p, z, (mu, alpha), 64)
                a = dense(build_operator(p, "a", st.dim))
                ad = dense(build_operator(p, "adag", st.dim))
                op = np.linalg.matrix_power(a, lam - alpha) - z * np.linalg.matrix_power(ad, alpha)
                res = np.linalg.norm((op @ st.coeffs)[: st.dim - lam])
                assert res < 1e-9 * math.sqrt(norm_sq(st))
        for z in (2.0 * cmath.exp(0.3j), 1.0 - 1.2j):
            st = eigenstate(p, z, 64)
            a = dense(build_operator(p, "a", st.dim))
            res = np.linalg.norm((a @ st.coeffs - z * st.coeffs)[: st.dim - 1])
            assert res < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"defining-equation residuals < 1e-9 in {elapsed:.2f}s")


def test_criterion_3_norm_closed_forms(rng, paraboson_params):
    for lam in (2, 3, 4):
        p = random_valid_params(rng, lam)
        for alpha in range(lam // 2 + 1):
            mu = 0
            z = 0.8 if 2 * alpha == lam else 1.6
            st = cs_alpha_state(p, z, (mu, alpha), 64)
            unnormalized = st.coeffs * math.sqrt(st.norm_sq_analytic)
            series = norm_series_cs_alpha(p, mu, alpha, sector_y(p, z, alpha)).value.real
            assert np.vdot(unnormalized, unnormalized).real == pytest.approx(series, rel=1e-10)
        stz = eigenstate(p, 1.2 + 0.5j, 64)
        assert norm_sq(stz) == pytest.approx(1.0, rel=1e-10)
    # paraboson closed forms at lambda = 2, bb1 = 2
    bb1 = 2.0
    for zabs in (0.7, 1.5, 2.3):
        t = zabs**2 / 2.0
        series = eigenstate_norm(paraboson_params, t)
        bessel = math.gamma(bb1) * t ** (1.0 - bb1) * (
            bessel_i(bb1 - 1.0, 2.0 * t).value + bessel_i(bb1, 2.0 * t).value
        )
        assert series == pytest.approx(bessel, rel=1e-10)
    _report(3, "analytic norms match coefficient sums and Bessel forms")


def test_criterion_4_moment_problems(paraboson_params, fig1_params):
    start = time.perf_counter()
    # exact Beta case first: lambda = 2, alpha = 1, bb1 = 2
    rep = verify_moments(weight_function(paraboson_params, (0, 1)), 8, 1e-10)
    assert rep.passed, rep.max_rel_error
    rep = verify_moments(weight_function(paraboson_params, (0, 0)), 8, 1e-6)
    assert rep.passed, rep.max_rel_error
    # lambda = 3, alpha = 1, mu in {0, 1} at the Fig.-1 parameters; mu = 1
    # has no positivity certificate there, so its inverse Mellin transform
    # is verified unsigned
    rep = verify_moments(weight_function(fig1_params, (0, 1)), 8, 1e-6)
    assert rep.passed, rep.max_rel_error
    rep = verify_moments(weight_function(fig1_params, (1, 1), require_positive=False), 8, 1e-6)
    assert rep.passed, rep.max_rel_error
    p42 = params_from_beta_bar(4, [1.5, 1.5, 1.25])
    rep = verify_moments(weight_function(p42, (0, 2)), 8, 1e-6)
    assert rep.passed, rep.max_rel_error
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"moment problems verified in {elapsed:.2f}s")


def test_criterion_5_identity_resolution(paraboson_params, fig1_params):
    for p in (paraboson_params, fig1_params):
        rep = verify_identity_resolution(p, "diagonal_alpha0", 6, 1e-6)
        assert rep.passed, rep.diagonal
    diag = verify_identity_resolution(paraboson_params, "eigenstate_diag", 6, 1e-6)
    off = verify_identity_resolution(paraboson_params, "eigenstate_offdiag", 6, 1e-6)
    assert diag.passed and off.passed
    for a, b in zip(diag.diagonal, off.diagonal):
        assert abs(a - b) < 1e-8
    _report(5, "unity resolutions diagonal within 1e-6; modes agree to 1e-8")


def test_criterion_6_mandel_closed_forms(rng, paraboson_params, undeformed2):
    # Perelomov: Q = (1+y)/(1-y) exactly
    for y in (0.2, 0.5, 0.75):
        assert mandel_q(paraboson_params, math.sqrt(y), (0, 1), "closed").mandel_Q == pytest.approx(
            (1 + y) / (1 - y), rel=1e-12
        )
    p_eq = params_from_beta_bar(3, [4 / 3, 4 / 3])
    for z in (0.5, 1.3, 2.8):
        assert mandel_q(p_eq, z, (0, 1), "closed").mandel_Q == pytest.approx(
            2.0, abs=1e-10
        )
    p_sh = params_from_beta_bar(3, [0.7, 1.7])
    for y in (0.25, 1.0 / 3.0, 1.5):
        assert mandel_q(p_sh, math.sqrt(3.0 * y), (1, 1), "closed").mandel_Q == pytest.approx(
            2.0 - 3.0 / (3.0 * y + 1.0), abs=1e-10
        )
    # closed vs oracle everywhere sampled
    for lam in (2, 3):
        p = random_valid_params(rng, lam)
        for alpha in range((lam - 1) // 2 + 1):
            for mu in range(lam - alpha):
                for zmag in (0.4, 1.2, 1.9):
                    qc = mandel_q(p, zmag, (mu, alpha), "closed").mandel_Q
                    qo = mandel_q(p, zmag, (mu, alpha), "oracle").mandel_Q
                    assert abs(qc - qo) <= 1e-8 * (1.0 + abs(qo))
        for zmag in (0.4, 1.2, 1.9):
            qc = mandel_q(p, zmag, method="closed").mandel_Q
            qo = mandel_q(p, zmag, method="oracle").mandel_Q
            assert abs(qc - qo) <= 1e-8 * (1.0 + abs(qo))
    for z in (0.3, 1.0, 2.0):
        assert abs(mandel_q(undeformed2, z, method="closed").mandel_Q) < 1e-10
    _report(6, "Mandel Q closed forms and oracles agree at stated tolerances")


def test_criterion_7_asymptotics(paraboson_params):
    bb1 = 2.0
    z = 0.05
    q = mandel_q(paraboson_params, z, method="closed").mandel_Q
    slope = q / z**2
    assert slope == pytest.approx((2 * bb1 - 1) / (2 * bb1), rel=0.01)
    # large-|z| limit 1/(lambda bb1) = 1/4: the approach is ~ 0.3/t so at
    # |z| = 3 the distance is ~ 6.6e-2; shown here before the literal
    # criterion assertion (which therefore fails; see the ledger)
    x3 = squeezing(paraboson_params, 3.0 + 0.0j, "dressed", method="closed").X
    x3_oracle = squeezing(paraboson_params, 3.0 + 0.0j, "dressed", method="oracle").X
    x30 = squeezing(paraboson_params, 30.0 + 0.0j, "dressed", method="closed").X
    print(f"\n  criterion 7 diagnostic: X(3) = {x3:.6f}, X(30) = {x30:.6f}, limit 0.25")
    assert abs(x3 - x3_oracle) < 1e-3  # the evaluation itself is consistent
    assert abs(x30 - 0.25) < 1e-3  # the limit value is correct
    assert abs(x3 - 0.25) < 1e-3, (
        "X(|z|=3) sits 6.6e-2 from the limit; the 1e-3 window opens near |z|=24"
    )
    _report(7, "asymptotic slopes and limits")


def test_criterion_7_approach_rate(paraboson_params):
    # X reaches its limit 1/4 like 9/(16|z|^2): (X - 1/4)|z|^2 -> 9/16 from
    # above, 0.5628125 at |z| = 30 and 0.5625281 at 100, that is
    # 9/16 + 0.28/|z|^2 + ...
    zabs = np.array([30.0, 50.0, 100.0])
    x = squeezing(paraboson_params, zabs.astype(complex), "dressed", method="closed").X
    rate = (x - 0.25) * zabs**2
    assert np.all(np.diff(rate) < 0)
    assert np.abs((rate - 9 / 16) * zabs**2 - 0.28).max() < 0.01


def test_criterion_8_figure_reproduction():
    start = time.perf_counter()
    docs = {}
    for key, job in FIGURE_PRESETS.items():
        docs[key] = run_figure(job)
        assert docs[key].startswith(f"# figure: {key}")

    def columns(key):
        rows = [l.split(",") for l in docs[key].splitlines() if l and not l.startswith("#")]
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        return data[:, 0], data[:, 1:]

    # Fig 4a: sign(Q) = sign(bb1 - 1/2) for r in (0, 3]
    r, q = columns("4a")
    for j, bb1 in enumerate((1 / 90, 0.25, 1.0, 10.0)):
        want = math.copysign(1.0, bb1 - 0.5)
        assert all(math.copysign(1.0, v) == want for v in q[:, j])
    # Fig 3a: dotted curve (bb2 = 1/100) attains Q < 0 somewhere
    _, q3 = columns("3a")
    assert q3[:, 2].min() < 0.0
    # Fig 1: both weight curves positive and decaying to zero
    y1, h1 = columns("1")
    assert h1.min() > 0.0
    assert h1[-1].max() < 1e-3 * h1.max()
    # Fig 2b endpoint limits as bb1 + bb2 - bb3 <=> 2 (solid diverges,
    # dashed tends to the Gamma value, dot-dashed vanishes); probed with
    # exact endpoint offsets since the (1-y)^(+-1/4) approach is slow
    solid = weight_function(params_from_beta_bar(4, [1.5, 1.0, 0.75]), (0, 2))
    dashed = weight_function(params_from_beta_bar(4, [1.5, 1.25, 0.75]), (0, 2))
    dotdash = weight_function(params_from_beta_bar(4, [1.5, 1.5, 0.75]), (0, 2))

    def near_one(w, om):
        return float(w.evaluate(1.0 - om, one_minus_y=om)[0])

    assert near_one(solid, 1e-8) > 5.0 * near_one(solid, 1e-3)
    limit = math.gamma(1.5) * math.gamma(1.25) / (math.pi * math.gamma(0.75))
    assert near_one(dashed, 1e-8) == pytest.approx(limit, rel=1e-2)
    assert near_one(dotdash, 1e-8) < 0.2 * near_one(dotdash, 1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"figures 1-8 reproduced from named presets in {elapsed:.2f}s")


def test_criterion_9_bargmann_suite(rng, paraboson_params, fig1_params):
    # intertwining at degree <= 10, every op in every basis, with amplitudes on
    # every level so that each sector mu is tested
    for lam in (2, 3):
        p = random_valid_params(rng, lam)
        amps = {n: complex(0.4, -0.1) ** (n % 3 + 1) for n in range(10 * lam)}
        dim = 10 * lam + 2 * lam
        c = np.zeros(dim, dtype=complex)
        for n, amp in amps.items():
            c[n] = amp
        psi = StateVector(dim, c, 1.0, 0.0)
        for alpha in range(lam // 2 + 1):
            for mu in range(lam - alpha):
                for op in ("N", "J0", "Jplus", "Jminus"):
                    assert intertwining_residual(p, "sector", op, psi, (mu, alpha)) < 1e-12
        for basis in ("vector_alpha0", "eigenstate"):
            for op in ("a", "adag", "N", "Jplus", "Jminus", "J0"):
                assert intertwining_residual(p, basis, op, psi) < 1e-12
    # Hermiticity under the certified weights (lambda <= 3)
    for p, mu, alpha in [(paraboson_params, 0, 0), (paraboson_params, 0, 1), (fig1_params, 0, 1)]:
        w = weight_function(p, (mu, alpha))
        rows = check_hermiticity(p, "sector", w)
        scale = max(max(abs(r.lhs), abs(r.rhs), 1.0) for r in rows)
        assert max(r.residual for r in rows) < 1e-6 * scale
    for p in (paraboson_params, fig1_params):
        meas = EigenstateMeasures(p, [weight_function(p, (m, 0)) for m in range(p.lam)])
        rows = check_hermiticity(p, "vector_alpha0", meas)
        scale = max(max(abs(r.lhs), abs(r.rhs), 1.0) for r in rows)
        assert max(r.residual for r in rows) < 2e-6 * scale
    # Meijer-form candidate vs the paper's 2F1 and Appell forms at alpha = 2, 3 on (0,1)
    p4 = params_from_beta_bar(4, [1.5, 1.5, 1.25])
    for y in np.linspace(0.1, 0.9, 5):
        conv = meijer_weight(p4, 0, 2, float(y))
        ser = hausdorff_closed_form(p4, 0, 2, float(y))
        assert conv == pytest.approx(ser, rel=1e-7)
    p6 = params_from_beta_bar(6, [1.9, 1.7, 1.5, 0.9, 0.8])
    w6 = weight_function(p6, (0, 3))
    for y in (0.25, 0.5, 0.75):
        conv = meijer_weight(p6, 0, 3, float(y))
        ser = float(w6.evaluate(float(y))[0])
        app = hausdorff_closed_form(p6, 0, 3, float(y))
        assert conv == pytest.approx(ser, rel=1e-7)
        assert app == pytest.approx(ser, rel=1e-7)
    _report(9, "intertwining exact, Hermiticity and Meijer conjecture verified")


def test_criterion_10_carleman_table(rng):
    # unique exactly when lambda odd with alpha = (lambda-1)/2 or lambda
    # even with alpha = lambda/2; the log-test boundary is inconclusive
    expected_unique = {(2, 1), (3, 1), (4, 2), (5, 2)}
    boundary = {(2, 0), (4, 1), (5, 3) if False else None}
    table = []
    for lam in (2, 3, 4, 5):
        p = random_valid_params(rng, lam)
        for alpha in range(lam // 2 + 1):
            res = carleman_test(p, alpha)
            table.append((lam, alpha, res.exponent, res.verdict))
            if res.exponent == -1.0:
                assert res.verdict == "inconclusive"
            elif (lam, alpha) in expected_unique:
                assert res.verdict == "unique"
            else:
                assert res.verdict == "possibly_nonunique"
    assert {(l, a) for l, a, _, v in table if v == "unique"} == expected_unique
    _report(10, f"Carleman classification over {len(table)} (lambda, alpha) pairs")
